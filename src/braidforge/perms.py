"""Permutations of strands and the canonical coset representatives.

Every generator s<i>, v<i>, t<i> maps to the transposition (i i+1) under
the strand-permutation homomorphism; the pure subgroup is its kernel.
Words compose left to right, so the permutation of u v is "apply
permutation_of(u), then permutation_of(v)".

The canonical transversal of the pure subgroup consists of one v-word per
permutation, written as a product of descending runs

    (v_{i_1} v_{i_1-1} .. v_{i_1-r_1}) (v_{i_2} ..) ... ,
    i_1 < i_2 < ... ,  0 <= r_j < i_j,

a prefix-closed family of n! words in bijection with the symmetric group.
These v-words are the coset tails that the to-pure sweep and the rewriting
map produce.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DomainError, IndexRangeError
from .words import (BraidWord, GeneratorLetter, Kind, encode_letter,
                    word_from_letters)

__all__ = [
    "Permutation",
    "SchreierWord",
    "identity_permutation",
    "transposition",
    "format_permutation",
    "permutation_of",
    "schreier_system",
    "schreier_representative",
    "coset_map",
    "MAX_SCHREIER_STRANDS",
]

# The transversal table for n strands has n! entries; 8! = 40320 is still
# cheap, 9! is not worth memoizing for a desk-scale tool.
MAX_SCHREIER_STRANDS = 8


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(y == x + 1 for x, y in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return format_permutation(self)


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise IndexRangeError(f"bad transposition ({i} {j}) on {n} strands")
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def permutation_of(word: BraidWord) -> Permutation:
    """Image of a word under the strand-permutation homomorphism."""
    n = word.strands
    images = list(range(1, n + 1))
    for letter in word:
        i = letter.index
        # Post-composing with (i i+1) swaps the two values wherever they
        # occur in the image tuple.
        for k, y in enumerate(images):
            if y == i:
                images[k] = i + 1
            elif y == i + 1:
                images[k] = i
    return Permutation(tuple(images))


def format_permutation(perm: Permutation) -> str:
    """Disjoint cycles, each starting at its least element; identity "()"."""
    remaining = set(range(1, perm.size + 1))
    parts: list[str] = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        x = perm(start)
        while x != start:
            cycle.append(x)
            remaining.discard(x)
            x = perm(x)
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


@dataclass(frozen=True)
class SchreierWord:
    """A canonical coset-representative v-word (one per permutation)."""

    strands: int
    blocks: tuple[tuple[int, int], ...]  # (leading index, run length >= 1)

    def __post_init__(self) -> None:
        prev_lead = 0
        for lead, length in self.blocks:
            if lead <= prev_lead:
                raise DomainError(
                    f"block leads must increase: {self.blocks}")
            if not 1 <= length <= lead:
                raise DomainError(
                    f"block ({lead},{length}) has bad run length")
            if lead > self.strands - 1:
                raise IndexRangeError(
                    f"block lead {lead} out of range for {self.strands} strands")
            prev_lead = lead

    @property
    def braid_word(self) -> BraidWord:
        letters = []
        for lead, length in self.blocks:
            for i in range(lead, lead - length, -1):
                letters.append(GeneratorLetter(Kind.V, i))
        return word_from_letters(self.strands, letters)

    def __len__(self) -> int:
        return sum(length for _, length in self.blocks)

    def __str__(self) -> str:
        return str(self.braid_word)

    def block_display(self) -> str:
        """Parenthesized runs, e.g. "(v1)(v2 v1)"; identity "()"."""
        if not self.blocks:
            return "()"
        parts = []
        for lead, length in self.blocks:
            run = " ".join(f"v{i}" for i in range(lead, lead - length, -1))
            parts.append(f"({run})")
        return "".join(parts)


@functools.lru_cache(maxsize=None)
def _schreier_table(n: int) -> tuple[tuple[SchreierWord, ...],
                                     dict[tuple[int, ...], SchreierWord]]:
    if n > MAX_SCHREIER_STRANDS:
        raise DomainError(
            f"coset tables are built for n <= {MAX_SCHREIER_STRANDS} "
            f"strands, got {n}")
    block_lists: list[tuple[tuple[int, int], ...]] = [()]
    for lead in range(1, n):
        extended: list[tuple[tuple[int, int], ...]] = []
        for blocks in block_lists:
            extended.append(blocks)
            for length in range(1, lead + 1):
                extended.append(blocks + ((lead, length),))
        block_lists = extended
    words = tuple(SchreierWord(n, blocks) for blocks in block_lists)
    by_perm: dict[tuple[int, ...], SchreierWord] = {}
    for sw in words:
        key = permutation_of(sw.braid_word).images
        assert key not in by_perm, "representative words must be distinct"
        by_perm[key] = sw
    assert len(by_perm) == len(words), "transversal must biject with S_n"
    return words, by_perm


def schreier_system(n: int) -> tuple[SchreierWord, ...]:
    """All n! canonical representative words, in enumeration order."""
    return _schreier_table(n)[0]


def schreier_representative(perm: Permutation, n: int | None = None) -> SchreierWord:
    """The canonical v-word whose permutation image is perm."""
    size = perm.size if n is None else n
    if size != perm.size:
        raise DomainError(f"permutation acts on {perm.size} strands, not {size}")
    return _schreier_table(size)[1][perm.images]


def coset_map(word: BraidWord) -> SchreierWord:
    """The canonical representative of word's coset of the pure subgroup."""
    return schreier_representative(permutation_of(word), word.strands)
