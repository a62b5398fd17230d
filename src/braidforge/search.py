"""Bounded bidirectional search over rewrite moves, yielding replayable
chains.

A state is a freely reduced byte word; edges substitute one side of a
table move for the other.  Since inserting a cancelling pair into a
reduced word reduces straight back to it, plain insertions connect
nothing; the useful grown-word edges are split substitutions instead: a
prefix of a pattern is matched in place and the missing suffix is
materialized as an inserted tail, so the edge rewrites u A1 v into
u B inv(A2) v in one move (and symmetrically for suffix matches).  Each
such edge unpacks into primitive chain steps - pair insertions, one
table substitution, free-reduction cancellations - so the chains replay
exactly.

States are reduced and so is every edge's replacement, which is the
contract kernel.neighbors relies on: _EdgeSet checks its replacements
once when it is built.

Everything here is deterministic: neighbor order comes from the scan
order of the extended pattern list and frontiers are expanded FIFO.
"""

from __future__ import annotations

import functools

from .chains import Builder, Chain, _rev_inv, chain_concat, chain_invert
from .errors import CertificateError
from .kernel import free_reduce_bytes, neighbors
from .relations import MoveTable

__all__ = ["bfs_chain", "tiered_chain"]


class _EdgeSet:
    """The table's moves, optionally widened with split substitutions.

    meta[mi] describes how virtual pattern mi unpacks into primitive
    steps: ("subst", A, B) is a plain table move; ("prefix", A, B, cut)
    matched A[:cut] and owes the tail; ("suffix", A, B, cut) matched
    A[-cut:] and owes the head.  patterns and replacements are tuples,
    and every replacement is freely reduced.
    """

    def __init__(self, table: MoveTable, split: bool):
        inv = table.inverse_table
        patterns: list[bytes] = []
        replacements: list[bytes] = []
        meta: list[tuple] = []
        seen: set[tuple[bytes, bytes]] = set()

        def add(pat: bytes, repl: bytes, info: tuple) -> None:
            if pat == repl or (pat, repl) in seen:
                return
            seen.add((pat, repl))
            patterns.append(pat)
            replacements.append(repl)
            meta.append(info)

        for a, b in zip(table.patterns, table.replacements):
            add(a, b, ("subst", a, b))
        if split:
            for a, b in zip(table.patterns, table.replacements):
                for cut in range(1, len(a)):
                    head, tail = a[:cut], a[cut:]
                    add(head, b + _rev_inv(tail, inv),
                        ("prefix", a, b, cut))
                    add(a[-cut:], _rev_inv(a[:-cut], inv) + b,
                        ("suffix", a, b, cut))
        for repl in replacements:
            if free_reduce_bytes(repl, inv) != repl:
                raise CertificateError(
                    f"edge replacement {repl!r} is not freely reduced")
        self.patterns = tuple(patterns)
        self.replacements = tuple(replacements)
        self.meta = tuple(meta)


@functools.lru_cache(maxsize=64)
def _edges(table: MoveTable, split: bool) -> _EdgeSet:
    """The edge set of a table; MoveTable hashes by value, so an equal
    table built again shares it."""
    return _EdgeSet(table, split)


def _edge_steps(bld: Builder, pos: int, mi: int, edges: _EdgeSet) -> None:
    """Run one search edge on the builder's word as primitive steps:
    grow the owed part of the pattern, substitute, reduce."""
    info = edges.meta[mi]
    kind, a, b = info[:3]
    at = pos
    if kind == "prefix":
        tail = a[info[3]:]
        bld.expand_span(pos + info[3], tail + _rev_inv(tail, bld.inv))
    elif kind == "suffix":
        head = a[:len(a) - info[3]]
        bld.expand_span(pos, _rev_inv(head, bld.inv) + head)
        at = pos + len(head)
    bld.splice(at, a, b)
    bld.reduce_span(0, len(bld.word))


def _walk(parents: dict, word: bytes, edges: _EdgeSet, inv: bytes) -> Chain:
    """Chain from the side's root to word, following parent pointers."""
    trail = []
    cur = word
    while parents[cur] is not None:
        prev, pos, mi = parents[cur]
        trail.append((pos, mi))
        cur = prev
    bld = Builder(cur, inv)
    for pos, mi in reversed(trail):
        _edge_steps(bld, pos, mi, edges)
    return bld.chain()


def bfs_chain(start: bytes, goal: bytes, table: MoveTable, *,
              max_len: int, max_nodes: int,
              split: bool = False) -> Chain | None:
    """Bidirectional breadth-first search for a chain start => goal.

    Explores from both ends at once, always growing the smaller live
    frontier, and stitches the two half-paths together at the first
    common word.  Returns None when the node budget or both frontiers
    run out; never raises for an unreachable goal.  split=True widens
    the edge set with split substitutions (see module docstring).
    """
    inv = table.inverse_table
    edges = _edges(table, split)
    patterns = edges.patterns
    replacements = edges.replacements

    s = free_reduce_bytes(start, inv)
    g = free_reduce_bytes(goal, inv)

    def finish(mid: Chain) -> Chain:
        bld = Builder(start, inv)
        bld.reduce_span(0, len(start))
        bld.embed(mid)
        bld.expand_span(0, goal)
        return bld.chain()

    if s == g:
        return finish(Chain(s, ()))

    parents_f: dict[bytes, tuple | None] = {s: None}
    parents_b: dict[bytes, tuple | None] = {g: None}
    frontier_f = [s]
    frontier_b = [g]
    stored = 2

    # Keep going while either side can move: a dead frontier just means
    # that side generates nothing new, the other may still reach it.
    while frontier_f or frontier_b:
        if not frontier_b:
            forward = True
        elif not frontier_f:
            forward = False
        else:
            forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        parents = parents_f if forward else parents_b
        others = parents_b if forward else parents_f
        next_frontier: list[bytes] = []
        for word in frontier:
            for nw, pos, mi in neighbors(word, patterns, replacements,
                                         inv, max_len, b""):
                if nw in parents:
                    continue
                parents[nw] = (word, pos, mi)
                stored += 1
                if nw in others:
                    half_f = _walk(parents_f, nw, edges, inv)
                    half_b = _walk(parents_b, nw, edges, inv)
                    return finish(
                        chain_concat(half_f, chain_invert(half_b)))
                if stored > max_nodes:
                    return None
                next_frontier.append(nw)
        if forward:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
    return None


def tiered_chain(start: bytes, goal: bytes, table: MoveTable, *,
                 max_len: int, max_nodes: int,
                 require: bool = False) -> Chain | None:
    """bfs_chain in two passes of growing branching factor.

    Plain substitutions first, then the split-substitution edge set.
    Most short derivations fall to the first pass, so the wide tier
    rarely runs.  With require=True a total miss raises
    CertificateError instead of returning None.
    """
    for split in (False, True):
        chain = bfs_chain(start, goal, table, max_len=max_len,
                          max_nodes=max_nodes, split=split)
        if chain is not None:
            return chain
    if require:
        raise CertificateError(
            f"no chain found between {start!r} and {goal!r} "
            f"within {max_nodes} states")
    return None
