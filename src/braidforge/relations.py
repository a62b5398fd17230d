"""Defining relations, at the crossing level and at the fusing-string level.

Three tables live here:

* standard_relation_instances: the defining relations of the braid-like
  group on crossings s, v, t, organized into eight numbered families:

      (1) free inverse pairs             (5) virtual conjugation
      (2) virtual involution v v = 1     (6) singular braid relation
      (3) braid relation                 (7) twist commuting s t = t s
      (4) virtual braid relation         (8) distant commuting

  Relations involving the inverse singular crossing T that follow from
  the core list are included with derived=True; the core presentation is
  the derived=False part.

* elementary_string_relation_instances: the presentation of the same
  group on the two-strand fusing strings m[i,i+1], g[i,i+1] and the
  virtual crossings, expanded into crossing words.

* pure_relation_instances: the presentation of the pure subgroup on the
  fusing generators m[i,j], g[i,j]: the two Yang-Baxter-style triples,
  their mixed forms, the twist relation m[i,j] g[j,i] = g[i,j] m[j,i],
  and commuting relations for disjoint strand pairs.  Quantifiers run
  over all tuples of distinct indices.

Each table also compiles into a MoveTable: the oriented rewrite moves
(both directions of every relation, closed under formal inversion) that
the searches and the chain validator share.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .chains import _rev_inv
from .fusing import FusingWord, fusing_alphabet, parse_fusing_word
from .words import INVERSE_TABLE, BraidWord, parse_braid_word

__all__ = [
    "RelationInstance",
    "PureRelationInstance",
    "ElementaryStringRelation",
    "MoveTable",
    "standard_relation_instances",
    "core_presentation_instances",
    "elementary_string_relation_instances",
    "pure_relation_instances",
    "standard_moves",
    "fusing_moves",
]

@dataclass(frozen=True)
class RelationInstance:
    """One instantiated crossing-level relation lhs = rhs."""

    family: int
    name: str
    lhs: BraidWord
    rhs: BraidWord
    derived: bool = False


@dataclass(frozen=True)
class PureRelationInstance:
    """One instantiated fusing-level relation of the pure subgroup."""

    name: str
    lhs: FusingWord
    rhs: FusingWord


@dataclass(frozen=True)
class ElementaryStringRelation:
    """One relation of the two-strand-string presentation, as crossings."""

    name: str
    lhs: BraidWord
    rhs: BraidWord


@functools.lru_cache(maxsize=None)
def standard_relation_instances(n: int) -> tuple[RelationInstance, ...]:
    out: list[RelationInstance] = []

    def add(family: int, name: str, lhs: str, rhs: str,
            derived: bool = False) -> None:
        out.append(RelationInstance(family, name, parse_braid_word(lhs, n),
                                    parse_braid_word(rhs, n), derived))

    for i in range(1, n):
        add(1, f"inverse pair s{i}", f"s{i} S{i}", "")
        add(1, f"inverse pair S{i}", f"S{i} s{i}", "")
        add(1, f"inverse pair t{i}", f"t{i} T{i}", "")
        add(1, f"inverse pair T{i}", f"T{i} t{i}", "")
        add(2, f"involution v{i}", f"v{i} v{i}", "")
        add(7, f"twist s{i} t{i}", f"s{i} t{i}", f"t{i} s{i}")
        add(7, f"twist s{i} T{i}", f"s{i} T{i}", f"T{i} s{i}", derived=True)

    for i in range(1, n - 1):
        j = i + 1
        add(3, f"braid {i}", f"s{i} s{j} s{i}", f"s{j} s{i} s{j}")
        add(4, f"virtual braid {i}", f"v{i} v{j} v{i}", f"v{j} v{i} v{j}")
        add(5, f"virtual conjugation s ({i},{j})",
            f"v{i} s{j} v{i}", f"v{j} s{i} v{j}")
        add(5, f"virtual conjugation t ({i},{j})",
            f"v{i} t{j} v{i}", f"v{j} t{i} v{j}")
        for a, b in ((i, j), (j, i)):
            add(5, f"virtual conjugation T ({a},{b})",
                f"v{a} v{b} T{a}", f"T{b} v{a} v{b}", derived=True)
            add(6, f"singular braid ({a},{b})",
                f"s{a} s{b} t{a}", f"t{b} s{a} s{b}")
            add(6, f"singular braid T ({a},{b})",
                f"s{a} s{b} T{a}", f"T{b} s{a} s{b}", derived=True)

    for i in range(1, n):
        for j in range(i + 2, n):
            for x in "svt":
                for y in "svt":
                    add(8, f"distant {x}{i} {y}{j}",
                        f"{x}{i} {y}{j}", f"{y}{j} {x}{i}")
            for y in ("s", "v", "t", "T"):
                add(8, f"distant T{i} {y}{j}",
                    f"T{i} {y}{j}", f"{y}{j} T{i}", derived=True)
            for x in ("s", "v", "t"):
                add(8, f"distant {x}{i} T{j}",
                    f"{x}{i} T{j}", f"T{j} {x}{i}", derived=True)

    return tuple(out)


def core_presentation_instances(n: int) -> tuple[RelationInstance, ...]:
    """The group presentation proper: families (2)-(8) without the
    derivable inverse-crossing forms.  This is what the pure-subgroup
    derivation sweeps."""
    return tuple(r for r in standard_relation_instances(n)
                 if r.family >= 2 and not r.derived)


@functools.lru_cache(maxsize=None)
def elementary_string_relation_instances(n: int) -> tuple[ElementaryStringRelation, ...]:
    out: list[ElementaryStringRelation] = []

    def m(i: int) -> str:
        return f"s{i} v{i}"

    def g(i: int) -> str:
        return f"t{i} v{i}"

    def add(name: str, lhs: str, rhs: str) -> None:
        out.append(ElementaryStringRelation(
            name, parse_braid_word(lhs, n), parse_braid_word(rhs, n)))

    for i in range(1, n):
        add(f"string involution v{i}", f"v{i} v{i}", "")
        add(f"string twist {i}", f"{m(i)} v{i} {g(i)}", f"{g(i)} v{i} {m(i)}")

    for i in range(1, n - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            add(f"string virtual braid ({a},{b})",
                f"v{a} v{b} v{a}", f"v{b} v{a} v{b}")
            add(f"string virtual m ({a},{b})",
                f"v{a} {m(b)} v{a}", f"v{b} {m(a)} v{b}")
            add(f"string virtual g ({a},{b})",
                f"v{a} {g(b)} v{a}", f"v{b} {g(a)} v{b}")
            # The braided relations write one string conjugated by the
            # other pair's virtual crossing.
            inner = f"v{b} {m(a)} v{b}"
            add(f"string mixed braid ({a},{b})",
                f"{m(b)} {inner} {m(a)}", f"{m(a)} {inner} {m(b)}")
            add(f"string mixed braid g ({a},{b})",
                f"{m(b)} {inner} {g(a)}", f"{g(a)} {inner} {m(b)}")

    tokens = {"m": m, "g": g, "v": lambda i: f"v{i}"}
    for i in range(1, n):
        for j in range(i + 2, n):
            for x in "mgv":
                for y in "mgv":
                    add(f"string distant {x}{i} {y}{j}",
                        f"{tokens[x](i)} {tokens[y](j)}",
                        f"{tokens[y](j)} {tokens[x](i)}")
    return tuple(out)


@functools.lru_cache(maxsize=None)
def pure_relation_instances(n: int) -> tuple[PureRelationInstance, ...]:
    out: list[PureRelationInstance] = []

    def add(name: str, lhs: str, rhs: str) -> None:
        out.append(PureRelationInstance(
            name, parse_fusing_word(lhs, n), parse_fusing_word(rhs, n)))

    strands = range(1, n + 1)
    for i, j, k in itertools.permutations(strands, 3):
        add(f"triple mm ({i},{j},{k})",
            f"m[{i},{j}] m[{i},{k}] m[{j},{k}]",
            f"m[{j},{k}] m[{i},{k}] m[{i},{j}]")
        add(f"triple mg ({i},{j},{k})",
            f"m[{i},{j}] m[{i},{k}] g[{j},{k}]",
            f"g[{j},{k}] m[{i},{k}] m[{i},{j}]")
        add(f"triple gm ({i},{j},{k})",
            f"g[{i},{j}] m[{i},{k}] m[{j},{k}]",
            f"m[{j},{k}] m[{i},{k}] g[{i},{j}]")
    for i, j in itertools.permutations(strands, 2):
        add(f"pair twist ({i},{j})",
            f"m[{i},{j}] g[{j},{i}]", f"g[{i},{j}] m[{j},{i}]")
    for i, j, k, l in itertools.permutations(strands, 4):
        add(f"commute mm ({i},{j})({k},{l})",
            f"m[{i},{j}] m[{k},{l}]", f"m[{k},{l}] m[{i},{j}]")
        add(f"commute gg ({i},{j})({k},{l})",
            f"g[{i},{j}] g[{k},{l}]", f"g[{k},{l}] g[{i},{j}]")
        add(f"commute mg ({i},{j})({k},{l})",
            f"m[{i},{j}] g[{k},{l}]", f"g[{k},{l}] m[{i},{j}]")
    return tuple(out)


@dataclass(frozen=True)
class MoveTable:
    """Oriented rewrite moves over a byte alphabet, shared by the
    searches (patterns and replacements drive neighbor generation) and
    the chain validator (allowed is the full set of substitution pairs;
    insertion and cancellation of an inverse pair are always allowed)."""

    patterns: tuple[bytes, ...]
    replacements: tuple[bytes, ...]
    inverse_table: bytes
    allowed: frozenset[tuple[bytes, bytes]]


def _build_move_table(pairs: set[tuple[bytes, bytes]],
                      inverse_table: bytes) -> MoveTable:
    closed: set[tuple[bytes, bytes]] = set()
    for lhs, rhs in pairs:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            closed.add((a, b))
            closed.add((_rev_inv(a, inverse_table),
                        _rev_inv(b, inverse_table)))
    subst = sorted(p for p in closed if p[0])
    return MoveTable(
        patterns=tuple(lhs for lhs, _ in subst),
        replacements=tuple(rhs for _, rhs in subst),
        inverse_table=inverse_table,
        allowed=frozenset(closed),
    )


@functools.lru_cache(maxsize=None)
def standard_moves(n: int) -> MoveTable:
    pairs = {(r.lhs.codes, r.rhs.codes)
             for r in standard_relation_instances(n)}
    return _build_move_table(pairs, INVERSE_TABLE)


@functools.lru_cache(maxsize=None)
def fusing_moves(n: int) -> MoveTable:
    alph = fusing_alphabet(n)
    pairs = {(alph.encode(r.lhs), alph.encode(r.rhs))
             for r in pure_relation_instances(n)}
    return _build_move_table(pairs, alph.inverse_table)
