"""Layered normal forms for the pure subgroup.

The pure subgroup on n strands filters by level: the level of a fusing
generator on the strand pair {a, b} is max(a, b) - 1, and the subgroup
generated by levels <= k is normal in the one for levels <= k + 1.  A
word therefore factors as w_{n-1} * ... * w_1, one layer per level, by
repeatedly pushing the highest-level letters to the front; pushing a
letter through a lower-level letter conjugates it, and a fixed rule
table rewrites each such conjugate back into a short product of
generators of the same level (falling back to a recorded, symbolic
conjugator when no table row applies).

normal_form computes that factorization for any crossing word, together
with the virtual coset representative; recompose multiplies it back
out.  Letters inside a layer are ConjugatedLetter values: a generator,
a sign, and a conjugating word of strictly lower level.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace

from .chains import Builder, Chain, _rev_inv, chain_mirror
from .errors import (BraidSyntaxError, CertificateError, DomainError,
                     ResourceBoundError)
from .fusing import (Family, FusingLetter, FusingWord, gamma, mu,
                     parse_fusing_word, to_pure_times_coset)
from .perms import (SchreierWord, identity_permutation, permutation_of,
                    schreier_representative)
from .words import BraidWord, concat_words, free_reduce

__all__ = [
    "ConjugatedLetter",
    "Layer",
    "LayeredNormalForm",
    "conjugate_letter",
    "normal_form",
    "recompose",
    "flatten",
    "pair_counts",
    "format_normal_form",
    "parse_normal_form",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 100_000


def _default_budget() -> int:
    raw = os.environ.get("BRAIDFORGE_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"BRAIDFORGE_BUDGET={raw!r} is not an integer")
    if value <= 0:
        raise DomainError("BRAIDFORGE_BUDGET must be positive")
    return value


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ResourceBoundError(
                f"normal form computation exceeded its step budget "
                f"({self.limit}); pass a larger budget= to continue")


@dataclass(frozen=True)
class ConjugatedLetter:
    """base^exponent conjugated by a word of strictly lower level.

    Stands for conjugator^-1 * base^exponent * conjugator.  The base
    always carries exponent +1 (the sign lives in the exponent field),
    and an ascending m-generator never carries a conjugator: the rule
    table can always push those through, so a surviving conjugator
    would mean the table was skipped.
    """

    base: FusingLetter
    exponent: int = 1
    conjugator: tuple[FusingLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.base.exponent != 1:
            raise DomainError(
                "base must be a positive generator; put the sign in the "
                "exponent field")
        if self.exponent not in (1, -1):
            raise DomainError(f"exponent must be +1 or -1, got {self.exponent}")
        for letter in self.conjugator:
            if letter.level >= self.base.level:
                raise DomainError(
                    f"conjugator letter {letter} is not of lower level "
                    f"than the base {self.base}")
        if (self.conjugator and self.base.family is Family.MU
                and self.base.ascending):
            raise DomainError(
                f"ascending m-generator {self.base} must not carry a "
                "conjugator")

    @property
    def level(self) -> int:
        return self.base.level

    @property
    def letter(self) -> FusingLetter:
        """The base with its sign applied."""
        return replace(self.base, exponent=self.exponent)

    def inverse(self) -> "ConjugatedLetter":
        return replace(self, exponent=-self.exponent)

    def flat(self) -> tuple[FusingLetter, ...]:
        """The letter sequence conjugator^-1 base^exponent conjugator."""
        inv = tuple(l.inverse() for l in reversed(self.conjugator))
        return inv + (self.letter,) + self.conjugator

    def __str__(self) -> str:
        text = str(self.letter)
        if self.conjugator:
            conj = " ".join(str(l) for l in self.conjugator)
            text += f"^[{conj}]"
        return text


def _plain(letter: FusingLetter) -> ConjugatedLetter:
    return ConjugatedLetter(replace(letter, exponent=1), letter.exponent, ())


@dataclass(frozen=True)
class Layer:
    """The letters of one level, highest level leftmost in the word."""

    level: int
    letters: tuple[ConjugatedLetter, ...] = ()

    def __post_init__(self) -> None:
        for cl in self.letters:
            if cl.level != self.level:
                raise DomainError(
                    f"letter {cl} has level {cl.level}, layer is "
                    f"level {self.level}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == b.inverse():
                raise DomainError(f"layer contains cancelling pair {a}, {b}")


@dataclass(frozen=True)
class LayeredNormalForm:
    """Layers for levels n-1 down to 1, then a virtual coset word."""

    strands: int
    layers: tuple[Layer, ...]
    coset: SchreierWord

    def __post_init__(self) -> None:
        expected = list(range(self.strands - 1, 0, -1))
        if [layer.level for layer in self.layers] != expected:
            raise DomainError(
                f"layers must cover levels {expected} in order")

    def __str__(self) -> str:
        return format_normal_form(self)


# Conjugation rule table.  Key: (case, base family, conjugator family,
# conjugator sign); the case encodes which index the conjugator x = x[i,j]
# shares with the base (its first or second) and whether the base is
# ascending, with k the base's larger strand:
#
#   asc1:  base[i,k]   desc1: base[k,i]   (shared strand is x's first)
#   asc2:  base[j,k]   desc2: base[k,j]   (shared strand is x's second)
#
# Each row lists (family, pair, sign, conjugated-by-x) for a POSITIVE
# base; the negative base uses the same row reversed with signs flipped
# (conjugation commutes with inversion).  Combinations with no row are
# handled symbolically by recording x in the conjugator.
_R = {
    ("asc1", "m", "m", 1): (("m", "kj", 1, True), ("m", "ik", 1, False),
                            ("m", "kj", -1, False)),
    ("asc1", "m", "m", -1): (("m", "kj", -1, False), ("m", "ik", 1, False),
                             ("m", "kj", 1, True)),
    ("asc1", "m", "g", 1): (("g", "jk", -1, True), ("m", "kj", -1, True),
                            ("g", "kj", 1, True), ("m", "ik", 1, False),
                            ("m", "jk", 1, False)),
    ("asc1", "m", "g", -1): (("m", "jk", 1, False), ("m", "ik", 1, False),
                             ("g", "jk", -1, True), ("m", "kj", -1, True),
                             ("g", "kj", 1, True)),
    ("asc1", "g", "m", 1): (("m", "kj", 1, True), ("g", "ik", 1, False),
                            ("m", "kj", -1, False)),
    ("asc1", "g", "m", -1): (("m", "kj", -1, False), ("g", "ik", 1, False),
                             ("m", "kj", 1, True)),
    ("desc1", "m", "m", 1): (("m", "kj", 1, False), ("m", "ki", 1, False),
                             ("m", "kj", -1, True)),
    ("desc1", "m", "m", -1): (("m", "kj", -1, True), ("m", "ki", 1, False),
                              ("m", "kj", 1, False)),
    ("desc1", "m", "g", 1): (("m", "kj", 1, False), ("m", "ki", 1, False),
                             ("m", "kj", -1, True)),
    ("desc1", "m", "g", -1): (("m", "kj", -1, True), ("m", "ki", 1, False),
                              ("m", "kj", 1, False)),
    ("desc1", "g", "m", 1): (("m", "kj", 1, False), ("g", "ki", 1, False),
                             ("m", "kj", -1, True)),
    ("desc1", "g", "m", -1): (("m", "kj", -1, True), ("g", "ki", 1, False),
                              ("m", "kj", 1, False)),
    ("asc2", "m", "m", 1): (("m", "ik", 1, False), ("m", "jk", 1, False),
                            ("m", "kj", 1, False), ("m", "ik", -1, False),
                            ("m", "kj", -1, True)),
    ("asc2", "m", "m", -1): (("m", "kj", -1, True), ("m", "ik", -1, False),
                             ("m", "kj", 1, False), ("m", "jk", 1, False),
                             ("m", "ik", 1, False)),
    ("asc2", "m", "g", 1): (("g", "jk", 1, True), ("m", "kj", 1, True),
                            ("g", "kj", -1, True)),
    ("asc2", "m", "g", -1): (("g", "jk", 1, True), ("m", "kj", 1, True),
                             ("g", "kj", -1, True)),
    ("asc2", "g", "m", 1): (("m", "ik", 1, False), ("g", "jk", 1, False),
                            ("m", "kj", 1, False), ("m", "ik", -1, False),
                            ("m", "kj", -1, True)),
    ("asc2", "g", "m", -1): (("m", "kj", -1, True), ("m", "ik", -1, False),
                             ("m", "kj", 1, False), ("g", "jk", 1, False),
                             ("m", "ik", 1, False)),
    ("desc2", "g", "m", 1): (("m", "kj", 1, True), ("m", "ik", 1, False),
                             ("m", "kj", -1, False), ("g", "kj", 1, False),
                             ("m", "ik", -1, False)),
    ("desc2", "g", "m", -1): (("m", "ik", -1, False), ("g", "kj", 1, False),
                              ("m", "kj", -1, False), ("m", "ik", 1, False),
                              ("m", "kj", 1, True)),
}

_FAMILY_OF = {"m": Family.MU, "g": Family.GAMMA}


def conjugate_letter(g: ConjugatedLetter, x: FusingLetter
                     ) -> tuple[ConjugatedLetter, ...]:
    """x^-1 * g * x as a product of letters of g's level.

    x must be of strictly lower level than g's base.  Disjoint strand
    pairs commute, so g passes through unchanged; a shared strand
    dispatches into the rule table when a row exists and otherwise
    appends x to g's conjugator.  A letter that already carries a
    conjugator always takes the symbolic route (the table only knows
    how to push bare generators).
    """
    b = g.base
    if x.level >= b.level:
        raise DomainError(
            f"conjugator {x} (level {x.level}) must be of lower level "
            f"than {b} (level {b.level})")
    if g.conjugator:
        return (replace(g, conjugator=g.conjugator + (x,)),)
    small, k = min(b.i, b.j), max(b.i, b.j)
    if small not in (x.i, x.j):
        return (g,)
    case = ("asc" if b.ascending else "desc") + ("1" if small == x.i else "2")
    row = _R.get((case, b.family.value, x.family.value, x.exponent))
    if row is None:
        return (replace(g, conjugator=(x,)),)
    strand = {"i": x.i, "j": x.j, "k": k}
    out = []
    for fam, pair, sign, conjugated in row:
        letter = FusingLetter(_FAMILY_OF[fam], strand[pair[0]],
                              strand[pair[1]], 1)
        out.append(ConjugatedLetter(letter, sign, (x,) if conjugated else ()))
    if g.exponent < 0:
        out = [cl.inverse() for cl in reversed(out)]
    return tuple(out)


def _twist_rewrite(a: FusingLetter, b: FusingLetter
                   ) -> tuple[FusingLetter, FusingLetter] | None:
    """Rewrite an adjacent g-then-m pair on one strand pair to m-then-g.

    The four sign combinations below are the four ways of reading the
    twist relation m[i,j] g[j,i] = g[i,j] m[j,i]; orienting them all
    g-first to m-first makes the rewriting terminate (each application
    removes one g-before-m inversion).
    """
    if a.family is not Family.GAMMA or b.family is not Family.MU:
        return None
    p, q = a.i, a.j
    if a.exponent > 0 and b.exponent > 0 and (b.i, b.j) == (q, p):
        return mu(p, q), gamma(q, p)
    if a.exponent > 0 and b.exponent < 0 and (b.i, b.j) == (p, q):
        return mu(q, p, -1), gamma(q, p)
    if a.exponent < 0 and b.exponent > 0 and (b.i, b.j) == (p, q):
        return mu(q, p), gamma(q, p, -1)
    if a.exponent < 0 and b.exponent < 0 and (b.i, b.j) == (q, p):
        return mu(p, q, -1), gamma(q, p, -1)
    return None


def _flat_len(cl: ConjugatedLetter) -> int:
    return 2 * len(cl.conjugator) + 1


def _decompose_worker(letters, n: int, budget: _Budget, macros=None,
                      trace: Builder | None = None):
    """Shared engine behind normal_form and conjugator canonicalization.

    Takes plain fusing letters, returns the layer tuple for levels
    n-1 .. 1; when tracing, also mirrors every move into `trace`, a
    Builder on the fusing codes whose sub-chains come from `macros`.
    Phases: free reduction, a global twist pre-pass, then one
    front-collection pass per level from the top down, sealing each
    layer by canonicalizing conjugators and cancelling/twisting to a
    fixpoint.
    """
    work = list(letters)

    # Free reduction first; everything after assumes no cancelling pair.
    if trace is not None:
        trace.reduce_span(0, len(work))
    reduced: list[FusingLetter] = []
    for letter in work:
        if reduced and reduced[-1] == letter.inverse():
            reduced.pop()
        else:
            reduced.append(letter)
    work = reduced

    # Twist pre-pass: orient every same-pair g-before-m product m-first
    # while the word is still flat, so that the choice between the two
    # sides of the twist relation cannot depend on what conjugation
    # later does to the two letters.
    changed = True
    while changed:
        changed = False
        for idx in range(len(work) - 1):
            new = _twist_rewrite(work[idx], work[idx + 1])
            if new is not None:
                budget.spend()
                if trace is not None:
                    trace.embed(macros.twist_chain(work[idx], work[idx + 1]),
                                idx)
                work[idx], work[idx + 1] = new
                changed = True
                break

    layers: list[Layer] = []
    front_len = 0
    for level in range(n - 1, 0, -1):
        collected: list[ConjugatedLetter] = []
        cfl = 0  # byte length of the collected flats
        lower: list[FusingLetter] = []
        for letter in work:
            budget.spend()
            if letter.level != level:
                # Keep the lower-level prefix freely reduced as it grows.
                if lower and lower[-1] == letter.inverse():
                    if trace is not None:
                        pos = front_len + cfl + len(lower) - 1
                        trace.splice(pos, macros.enc((lower[-1], letter)),
                                     b"")
                    lower.pop()
                else:
                    lower.append(letter)
                continue
            moved = [_plain(letter)]
            for depth in range(len(lower), 0, -1):
                y = lower[depth - 1].inverse()
                if trace is not None:
                    _trace_push(trace, macros, front_len + cfl + depth - 1,
                                moved, y)
                step_out: list[ConjugatedLetter] = []
                for cl in moved:
                    budget.spend()
                    step_out.extend(conjugate_letter(cl, y))
                moved = step_out
            collected.extend(moved)
            cfl += sum(_flat_len(cl) for cl in moved)
        work = lower

        _seal_layer(collected, level, n, budget, macros, trace, front_len)
        layers.append(Layer(level, tuple(collected)))
        front_len += sum(_flat_len(cl) for cl in collected)
    return tuple(layers)


def _trace_push(trace: Builder, macros, offset: int, moved,
                y: FusingLetter) -> None:
    """Byte moves for one push: letter l, then the flats of `moved`,
    becomes the flats of their y-conjugates followed by l (y = l^-1).

    Inserts a cancelling (y, y^-1) pair after each flat, so the region
    becomes a product of (y^-1 .. y) groups with a trailing l, then
    lets the conjugation identity chains rewrite each group.
    """
    flats = [cl.flat() for cl in moved]
    base = offset + 1
    ycode = macros.alph.code_of[y]
    # Right to left so earlier positions stay valid.
    for t in range(len(flats), 0, -1):
        trace.splice(base + sum(len(f) for f in flats[:t]), b"",
                     bytes((ycode, trace.inv[ycode])))
    # Apply the identity chains right to left as well: each may change
    # its group's length, which must not disturb groups to its left.
    offsets = []
    pos = offset
    for f in flats:
        offsets.append(pos)
        pos += len(f) + 2
    for t in range(len(moved) - 1, -1, -1):
        trace.embed(macros.conj_chain(moved[t], y), offsets[t])


def _seal_layer(collected, level: int, n: int, budget: _Budget, macros,
                trace: Builder | None, front_len: int) -> None:
    """Finish one layer in place: canonicalize every conjugator, then
    cancel inverse pairs and orient twists until nothing applies."""
    # Conjugator canonicalization.
    for idx in range(len(collected)):
        cl = collected[idx]
        if not cl.conjugator:
            continue
        budget.spend()
        sub_trace = None
        if trace is not None:
            sub_trace = Builder(macros.enc(cl.conjugator), trace.inv)
        sub_layers = _decompose_worker(cl.conjugator, n, budget, macros,
                                       sub_trace)
        canon = tuple(_flatten_layers(sub_layers))
        if canon == cl.conjugator:
            continue
        if trace is not None:
            offset = front_len + sum(_flat_len(c) for c in collected[:idx])
            c_len = len(cl.conjugator)
            sub = sub_trace.chain()
            # Suffix copy first; the prefix's span is unaffected.
            trace.embed(sub, offset + c_len + 1)
            trace.embed(chain_mirror(sub, trace.inv), offset)
        collected[idx] = ConjugatedLetter(cl.base, cl.exponent, canon)

    # Cancellation / twist fixpoint.
    changed = True
    while changed:
        changed = False
        for idx in range(len(collected) - 1):
            a, b = collected[idx], collected[idx + 1]
            if a == b.inverse():
                budget.spend()
                if trace is not None:
                    offset = front_len + sum(_flat_len(c)
                                             for c in collected[:idx])
                    trace.reduce_span(offset, _flat_len(a) + _flat_len(b))
                del collected[idx:idx + 2]
                changed = True
                break
            if a.conjugator != b.conjugator:
                continue
            new = _twist_rewrite(a.letter, b.letter)
            if new is None:
                continue
            if a.conjugator and new[0].ascending:
                # The rewritten m-generator would be ascending with a
                # conjugator, which the layer invariant forbids; leave
                # this conjugated pair in its g-first form.
                continue
            budget.spend()
            if trace is not None:
                offset = front_len + sum(_flat_len(c)
                                         for c in collected[:idx])
                c_len = len(a.conjugator)
                conj_codes = macros.enc(a.conjugator)
                # flat(a) flat(b) = C^-1 a C C^-1 b C: cancel the middle,
                # twist the bare pair, regrow the middle.
                trace.reduce_span(offset + c_len + 1, 2 * c_len)
                trace.embed(macros.twist_chain(a.letter, b.letter),
                            offset + c_len)
                trace.expand_span(offset + c_len + 1,
                                  conj_codes + _rev_inv(conj_codes, trace.inv))
            collected[idx] = ConjugatedLetter(
                replace(new[0], exponent=1), new[0].exponent, a.conjugator)
            collected[idx + 1] = ConjugatedLetter(
                replace(new[1], exponent=1), new[1].exponent, b.conjugator)
            changed = True
            break


def _flatten_layers(layers) -> list[FusingLetter]:
    out: list[FusingLetter] = []
    for layer in layers:
        for cl in layer.letters:
            out.extend(cl.flat())
    return out


def _coerce_pure(word) -> tuple[FusingWord, SchreierWord]:
    if isinstance(word, FusingWord):
        return word, schreier_representative(
            identity_permutation(word.strands))
    if isinstance(word, BraidWord):
        dec = to_pure_times_coset(word)
        return dec.pure, dec.coset
    raise DomainError(f"cannot decompose {type(word).__name__}")


def normal_form(word, *, budget: int | None = None) -> LayeredNormalForm:
    """Layered normal form of any crossing word (or fusing word).

    The result's layers multiply out, top level first and the coset
    word last, to an equivalent word.  budget bounds the total number
    of rewriting steps; None takes BRAIDFORGE_BUDGET from the
    environment, or 100000.
    """
    pure, coset = _coerce_pure(word)
    b = _Budget(_default_budget() if budget is None else budget)
    layers = _decompose_worker(pure.letters, pure.strands, b)
    return LayeredNormalForm(pure.strands, layers, coset)


def _traced_normal_form(pure: FusingWord, macros, *,
                        budget: int | None = None) -> Chain:
    """The fusing-level chain from a pure part to its normal form.

    Takes a pure part, unreduced as a sweep leaves it, and returns a
    chain that rewrites its codes, step by step over the pure
    presentation's moves, into the codes of the flattened layered
    normal form (flatten(normal_form(pure))).  Internal: the
    equivalence oracle uses it to assemble witnesses.  budget bounds
    the rewriting steps as in normal_form.  The chain's sub-derivations
    come from `macros`, which provides, for the word's strand count:

    * alph: the fusing alphabet, whose codes the chain rewrites;
    * enc(letters): the codes of a sequence of fusing letters;
    * conj_chain(cl, y): a chain y^-1 flat(cl) y => the flats of
      conjugate_letter(cl, y);
    * twist_chain(a, b): a chain a b => _twist_rewrite(a, b).

    certs.CertStore is the provider the oracle passes.
    """
    b = _Budget(_default_budget() if budget is None else budget)
    trace = Builder(macros.enc(pure.letters), macros.alph.inverse_table)
    layers = _decompose_worker(pure.letters, pure.strands, b, macros, trace)
    if trace.word != macros.enc(_flatten_layers(layers)):
        raise CertificateError("trace does not reach the flattened layers")
    return trace.chain()


def flatten(nf: LayeredNormalForm) -> FusingWord:
    """The pure part of a normal form as one flat fusing word."""
    return FusingWord(nf.strands, tuple(_flatten_layers(nf.layers)))


def recompose(nf: LayeredNormalForm) -> BraidWord:
    """Multiply a normal form back into a crossing word."""
    from .fusing import expand_fusing
    return free_reduce(concat_words(expand_fusing(flatten(nf)),
                                    nf.coset.braid_word))


def pair_counts(value) -> dict:
    """Signed generator counts keyed by (unordered strand pair, family).

    Invariant under all of the pure presentation's relations, so equal
    words must agree; computed from the pure part when given a crossing
    word.  Zero entries are dropped.
    """
    if isinstance(value, LayeredNormalForm):
        letters = flatten(value).letters
    elif isinstance(value, FusingWord):
        letters = value.letters
    elif isinstance(value, BraidWord):
        letters = to_pure_times_coset(value).pure.letters
    else:
        raise DomainError(f"cannot count pairs of {type(value).__name__}")
    counts: dict = {}
    for letter in letters:
        key = (tuple(sorted((letter.i, letter.j))), letter.family)
        counts[key] = counts.get(key, 0) + letter.exponent
    return {k: c for k, c in counts.items() if c}


_NF_TOKEN_RE = re.compile(
    r"([mMgG]\[\d+,\d+\])(?:\^\[((?:\s*[mMgG]\[\d+,\d+\])*\s*)\])?")


def format_normal_form(nf: LayeredNormalForm) -> str:
    lines = []
    for layer in nf.layers:
        body = " ".join(str(cl) for cl in layer.letters)
        lines.append(f"w{layer.level}: {body}".rstrip())
    coset = " ".join(str(l) for l in nf.coset.braid_word)
    lines.append(f"coset: {coset}".rstrip())
    return "\n".join(lines)


def parse_normal_form(text: str, strands: int) -> LayeredNormalForm:
    """Inverse of format_normal_form; validates all the invariants."""
    from .words import parse_braid_word
    layer_map: dict[int, tuple[ConjugatedLetter, ...]] = {}
    coset_word = None
    for raw_line in text.strip().splitlines():
        line = raw_line.strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        body = body.strip()
        if head == "coset":
            word = parse_braid_word(body, strands)
            rep = schreier_representative(permutation_of(word), strands)
            if word.codes != rep.braid_word.codes:
                raise BraidSyntaxError(
                    f"coset line {body!r} is not a transversal word")
            coset_word = rep
            continue
        m = re.fullmatch(r"w(\d+)", head)
        if m is None:
            raise BraidSyntaxError(f"bad normal form line {line!r}")
        level = int(m.group(1))
        letters = []
        pos = 0
        while pos < len(body):
            if body[pos] == " ":
                pos += 1
                continue
            tok = _NF_TOKEN_RE.match(body, pos)
            if tok is None:
                raise BraidSyntaxError(
                    f"bad normal form token at {body[pos:]!r}")
            base_word = parse_fusing_word(tok.group(1), strands)
            conj_word = parse_fusing_word(tok.group(2) or "", strands)
            letter = base_word.letters[0]
            letters.append(ConjugatedLetter(
                replace(letter, exponent=1), letter.exponent,
                conj_word.letters))
            pos = tok.end()
        layer_map[level] = tuple(letters)
    if coset_word is None:
        raise BraidSyntaxError("missing coset line")
    layers = tuple(Layer(level, layer_map.get(level, ()))
                   for level in range(strands - 1, 0, -1))
    return LayeredNormalForm(strands, layers, coset_word)
