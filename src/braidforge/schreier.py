"""Rewriting crossing words into the pure subgroup's fusing generators.

The pure subgroup (kernel of the permutation map) is generated by the
fusing strings, and a coset-transversal rewriting process expresses any
pure word in them: walk the word left to right, and for each non-virtual
letter emit the fusing generator obtained by relabeling its strand pair
through the permutation of the virtual block accumulated so far.  That
walk is the sweep behind fusing.to_pure_times_coset; rewrite_R is the
checked entry point for words that are actually pure.

Sweeping every defining relation, conjugated by every transversal word,
through the rewrite yields a presentation of the pure subgroup on the
fusing generators; derive_pure_relations does exactly that and keeps the
provenance (which relation, which coset) for each produced pair, so the
equality certificates can be rebuilt later from the same data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotPureError
from .fusing import (FusingWord, fusing_alphabet, fusing_free_reduce,
                     to_pure_times_coset)
from .perms import SchreierWord, permutation_of, schreier_system
from .relations import core_presentation_instances
from .words import BraidWord, concat_words, format_braid_word, invert_word

__all__ = [
    "DerivedRelation",
    "rewrite_R",
    "derive_pure_relations",
    "canonical_fusing_pair",
    "nontrivial_canonical_pairs",
]


def rewrite_R(word: BraidWord) -> FusingWord:
    """Express a pure crossing word in the fusing generators.

    The output is the freely reduced image of the sweep.  Raises
    NotPureError (carrying the permutation) when the word's strand
    permutation is not the identity.
    """
    perm = permutation_of(word)
    if not perm.is_identity():
        raise NotPureError(
            f"word {format_braid_word(word)!r} moves the strands "
            f"({perm})", permutation=perm)
    return to_pure_times_coset(word).pure


@dataclass(frozen=True)
class DerivedRelation:
    """One pair produced by sweeping coset * relation * coset^-1.

    base_lhs and base_rhs keep the crossing-level relation the pair came
    from; certificate construction replays the sweep from them.
    """

    family: int
    base_name: str
    coset: SchreierWord
    base_lhs: BraidWord
    base_rhs: BraidWord
    lhs: FusingWord
    rhs: FusingWord
    trivial: bool


def canonical_fusing_pair(lhs: FusingWord, rhs: FusingWord
                          ) -> tuple[tuple[bytes, bytes], bool]:
    """Freely reduce both sides and orient the pair by byte order.

    Returns ((low, high), flipped); flipped tells whether lhs and rhs
    swapped places, which cert construction needs to know.
    """
    alph = fusing_alphabet(lhs.strands)
    a = alph.encode(fusing_free_reduce(lhs))
    b = alph.encode(fusing_free_reduce(rhs))
    if b < a:
        return (b, a), True
    return (a, b), False


@functools.lru_cache(maxsize=None)
def derive_pure_relations(n: int) -> tuple[DerivedRelation, ...]:
    """All pairs R(c * lhs * c^-1) = R(c * rhs * c^-1) for the core
    presentation's relations and the full coset transversal.

    Conjugating keeps the two sides in the same coset, so both sweeps
    land in the pure subgroup and the pair is a valid relation there.
    Pairs whose sides agree after free reduction carry trivial=True.
    """
    out: list[DerivedRelation] = []
    for coset in schreier_system(n):
        c = coset.braid_word
        c_inv = invert_word(c)
        for rel in core_presentation_instances(n):
            lhs = to_pure_times_coset(
                concat_words(c, rel.lhs, c_inv)).pure
            rhs = to_pure_times_coset(
                concat_words(c, rel.rhs, c_inv)).pure
            trivial = lhs.letters == rhs.letters
            out.append(DerivedRelation(rel.family, rel.name, coset,
                                       rel.lhs, rel.rhs,
                                       lhs, rhs, trivial))
    return tuple(out)


def nontrivial_canonical_pairs(n: int) -> dict[tuple[bytes, bytes],
                                               DerivedRelation]:
    """Deduplicated map from oriented reduced pair to one witness
    derivation (the first found)."""
    index: dict[tuple[bytes, bytes], DerivedRelation] = {}
    for rel in derive_pure_relations(n):
        if rel.trivial:
            continue
        key, _ = canonical_fusing_pair(rel.lhs, rel.rhs)
        index.setdefault(key, rel)
    return index
