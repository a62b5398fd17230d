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

from .chains import (Chain, Step, _rev_inv, chain_concat, chain_invert,
                     reduction_steps)
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


def _edge_steps(parent: bytes, pos: int, mi: int, edges: _EdgeSet,
                inv: bytes) -> list[Step]:
    """Primitive steps realizing one search edge on the parent word."""
    info = edges.meta[mi]
    steps: list[Step] = []
    if info[0] == "subst":
        _, a, b = info
        at = pos
    elif info[0] == "prefix":
        _, a, b, cut = info
        for t in range(len(a) - cut):
            c = a[cut + t]
            steps.append(Step(pos + cut + t, b"", bytes((c, inv[c]))))
        at = pos
    else:
        _, a, b, cut = info
        head = len(a) - cut
        for t in range(head):
            c = a[head - 1 - t]
            steps.append(Step(pos + t, b"", bytes((inv[c], c))))
        at = pos + head
    word = parent
    for step in steps:
        word = word[:step.pos] + step.rhs + word[step.pos:]
    steps.append(Step(at, a, b))
    intermediate = word[:at] + b + word[at + len(a):]
    steps.extend(reduction_steps(intermediate, inv))
    return steps


def _walk(parents: dict, word: bytes, edges: _EdgeSet, inv: bytes) -> Chain:
    """Chain from the side's root to word, following parent pointers."""
    trail = []
    cur = word
    while parents[cur] is not None:
        prev, pos, mi = parents[cur]
        trail.append((prev, pos, mi))
        cur = prev
    steps: list[Step] = []
    for prev, pos, mi in reversed(trail):
        steps.extend(_edge_steps(prev, pos, mi, edges, inv))
    return Chain(cur, tuple(steps))


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
        steps = list(reduction_steps(start, inv))
        steps.extend(mid.steps)
        tail = Chain(goal, tuple(reduction_steps(goal, inv)))
        steps.extend(chain_invert(tail).steps)
        return Chain(start, tuple(steps))

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
