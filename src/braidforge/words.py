"""Words in the virtual singular braid group on n strands.

The group is generated, for 1 <= i <= n-1, by three kinds of crossings
between strands i and i+1:

    s<i>  regular crossing (invertible; inverse written S<i>)
    v<i>  virtual crossing (an involution, so its own inverse)
    t<i>  singular crossing (invertible; inverse written T<i>)

A word is a whitespace-separated sequence of such tokens, applied left to
right; the empty string is the identity.

>>> w = parse_braid_word("s1 v2 T1", 3)
>>> format_braid_word(w)
's1 v2 T1'
>>> format_braid_word(invert_word(w))
't1 v2 S1'
>>> format_braid_word(free_reduce(parse_braid_word("s1 v2 v2 S1", 3)))
''

Internally a word is a bytes string, one letter per byte.  Letter with
index i >= 1 occupies codes 8*(i-1)+0..4 in the order s+, s-, t+, t-, v;
taking the inverse flips the low bit except on v codes.  The byte layout
caps indices at 31, far above the strand counts (n <= 8) the heavier
algorithms are built for, and keeps the rewrite kernel's inner loops on
C-speed bytes operations.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .chains import _rev_inv
from .errors import BraidSyntaxError, IndexRangeError

__all__ = [
    "Kind",
    "GeneratorLetter",
    "BraidWord",
    "ExponentInvariants",
    "parse_braid_word",
    "format_braid_word",
    "word_from_letters",
    "free_reduce",
    "invert_word",
    "concat_words",
    "exponent_invariants",
    "encode_letter",
    "decode_letter",
    "INVERSE_TABLE",
    "MAX_INDEX",
]

MAX_INDEX = 31  # largest generator index the byte layout can hold


class Kind(enum.Enum):
    """The three generator kinds."""

    SIGMA = "s"
    V = "v"
    TAU = "t"


# Offsets within each index's block of 8 codes.
_OFF_SIGMA_POS = 0
_OFF_SIGMA_NEG = 1
_OFF_TAU_POS = 2
_OFF_TAU_NEG = 3
_OFF_V = 4


@dataclass(frozen=True)
class GeneratorLetter:
    """One letter: a kind, a strand index, and an exponent.

    The exponent is +1 or -1; virtual crossings are involutions and are
    always stored with exponent +1.
    """

    kind: Kind
    index: int
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.exponent not in (1, -1):
            raise IndexRangeError(f"exponent must be +1 or -1, got {self.exponent}")
        if not 1 <= self.index <= MAX_INDEX:
            raise IndexRangeError(f"generator index {self.index} out of range")
        if self.kind is Kind.V and self.exponent != 1:
            raise IndexRangeError("virtual crossings are involutions; "
                                  "use exponent +1")

    def inverse(self) -> "GeneratorLetter":
        if self.kind is Kind.V:
            return self
        return GeneratorLetter(self.kind, self.index, -self.exponent)

    def __str__(self) -> str:
        ch = self.kind.value
        if self.exponent < 0:
            ch = ch.upper()
        return f"{ch}{self.index}"


def encode_letter(letter: GeneratorLetter) -> int:
    base = 8 * (letter.index - 1)
    if letter.kind is Kind.SIGMA:
        return base + (_OFF_SIGMA_POS if letter.exponent > 0 else _OFF_SIGMA_NEG)
    if letter.kind is Kind.TAU:
        return base + (_OFF_TAU_POS if letter.exponent > 0 else _OFF_TAU_NEG)
    return base + _OFF_V


def decode_letter(code: int) -> GeneratorLetter:
    index, off = divmod(code, 8)
    index += 1
    if off == _OFF_SIGMA_POS:
        return GeneratorLetter(Kind.SIGMA, index, 1)
    if off == _OFF_SIGMA_NEG:
        return GeneratorLetter(Kind.SIGMA, index, -1)
    if off == _OFF_TAU_POS:
        return GeneratorLetter(Kind.TAU, index, 1)
    if off == _OFF_TAU_NEG:
        return GeneratorLetter(Kind.TAU, index, -1)
    if off == _OFF_V:
        return GeneratorLetter(Kind.V, index, 1)
    raise ValueError(f"invalid letter code {code}")


def _build_inverse_table() -> bytes:
    # Identity outside the meaningful codes; the kernel only ever sees
    # valid ones, but a total table keeps it branch-free.
    table = list(range(256))
    for base in range(0, 8 * MAX_INDEX, 8):
        table[base + _OFF_SIGMA_POS] = base + _OFF_SIGMA_NEG
        table[base + _OFF_SIGMA_NEG] = base + _OFF_SIGMA_POS
        table[base + _OFF_TAU_POS] = base + _OFF_TAU_NEG
        table[base + _OFF_TAU_NEG] = base + _OFF_TAU_POS
        table[base + _OFF_V] = base + _OFF_V
    return bytes(table)


INVERSE_TABLE = _build_inverse_table()


@dataclass(frozen=True)
class BraidWord:
    """An immutable word over the generators on a fixed strand count."""

    strands: int
    codes: bytes = b""

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise IndexRangeError(f"need at least one strand, got {self.strands}")
        for code in self.codes:
            index = code // 8 + 1
            if code % 8 > 4:
                raise IndexRangeError(f"invalid letter code {code}")
            if index > self.strands - 1:
                raise IndexRangeError(
                    f"letter index {index} needs {index + 1} strands, "
                    f"word has {self.strands}")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return (decode_letter(c) for c in self.codes)

    @property
    def letters(self) -> tuple[GeneratorLetter, ...]:
        return tuple(decode_letter(c) for c in self.codes)

    def __str__(self) -> str:
        return format_braid_word(self)


_TOKEN_RE = re.compile(r"([sSvVtT])(\d+)\Z")


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated word; the empty string is the identity.

    Tokens are s<i>, v<i>, t<i> and their uppercase inverses; V<i> is
    accepted and normalized to v<i>.  Raises BraidSyntaxError for malformed
    tokens and IndexRangeError for indices outside 1..strands-1.
    """
    codes = bytearray()
    for pos, token in enumerate(text.split()):
        m = _TOKEN_RE.match(token)
        if m is None:
            raise BraidSyntaxError(
                f"bad token {token!r} at position {pos}: expected "
                "s<i>, S<i>, v<i>, t<i> or T<i>")
        ch, digits = m.groups()
        index = int(digits)
        if not 1 <= index <= strands - 1:
            raise IndexRangeError(
                f"token {token!r} at position {pos}: index {index} out of "
                f"range for {strands} strands")
        kind = Kind(ch.lower())
        exponent = -1 if (ch.isupper() and kind is not Kind.V) else 1
        codes.append(encode_letter(GeneratorLetter(kind, index, exponent)))
    return BraidWord(strands, bytes(codes))


def format_braid_word(word: BraidWord) -> str:
    return " ".join(str(letter) for letter in word)


def word_from_letters(strands: int, letters) -> BraidWord:
    return BraidWord(strands, bytes(encode_letter(l) for l in letters))


def concat_words(*words: BraidWord) -> BraidWord:
    """Concatenate words on a common strand count (no reduction)."""
    if not words:
        raise ValueError("need at least one word")
    strands = words[0].strands
    for w in words[1:]:
        if w.strands != strands:
            raise IndexRangeError(
                f"cannot concatenate words on {strands} and {w.strands} strands")
    return BraidWord(strands, b"".join(w.codes for w in words))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs (s S, t T, v v and mirrors) until none
    remain.  A single stack scan; the result is independent of cancellation
    order, so this is the canonical free reduction."""
    from . import kernel

    return BraidWord(word.strands,
                     kernel.free_reduce_bytes(word.codes, INVERSE_TABLE))


def invert_word(word: BraidWord) -> BraidWord:
    """Reverse the word and invert each letter."""
    return BraidWord(word.strands, _rev_inv(word.codes, INVERSE_TABLE))


@dataclass(frozen=True)
class ExponentInvariants:
    """Abelianized quantities preserved by every defining relation:
    total s-exponent, total t-exponent, and the parity of the v count."""

    sigma_sum: int
    tau_sum: int
    v_parity: int


def exponent_invariants(word: BraidWord) -> ExponentInvariants:
    ssum = tsum = vcount = 0
    for letter in word:
        if letter.kind is Kind.SIGMA:
            ssum += letter.exponent
        elif letter.kind is Kind.TAU:
            tsum += letter.exponent
        else:
            vcount += 1
    return ExponentInvariants(ssum, tsum, vcount % 2)
