"""The byte-string rewrite kernel.

Words here are raw bytes (one letter code per byte) together with a
256-byte involution table mapping each code to its inverse code.  The
functions below are the inner loops of free reduction, neighbor
generation for the relation searches, and chain replay.

neighbors works on reduced words with reduced replacements: the word it
rewrites must be freely reduced, and so must every replacement (the
search's edge sets check theirs when they are built).  A splice
w[:pos] + repl + w[end:] of three reduced pieces can then cancel only
at its two seams, so neighbors reduces there and nowhere else.
"""

from __future__ import annotations

import functools
import math

IMPLEMENTATION = "pure"

__all__ = [
    "IMPLEMENTATION",
    "free_reduce_bytes",
    "reduce_with_events",
    "neighbors",
]


def free_reduce_bytes(w: bytes, inv: bytes) -> bytes:
    """Cancel adjacent inverse pairs until none remain (single stack scan)."""
    stack = bytearray()
    for c in w:
        if stack and stack[-1] == inv[c]:
            stack.pop()
        else:
            stack.append(c)
    return bytes(stack)


def reduce_with_events(w: bytes, inv: bytes) -> tuple[bytes, list[int]]:
    """Free reduction that also reports where each cancellation happened.

    Returns (reduced, events) where each event is the position of the
    left letter of a cancelled pair *in the word as it stood at that
    moment*.  Replaying the deletions at those positions in order turns w
    into the reduced word, which is exactly what the chain validator does.
    """
    stack = bytearray()
    events: list[int] = []
    for c in w:
        if stack and stack[-1] == inv[c]:
            events.append(len(stack) - 1)
            stack.pop()
        else:
            stack.append(c)
    return bytes(stack), events


@functools.lru_cache(maxsize=64)
def _match_index(patterns: tuple[bytes, ...],
                 replacements: tuple[bytes, ...],
                 inv: bytes) -> tuple[dict[bytes, tuple], tuple[int, ...]]:
    """The moves of each distinct pattern, and the distinct lengths.

    A move is (mi, grow, head, tail): the replacement is grow letters
    longer than the pattern, and head and tail are the inverses of its
    first and last letters, so the splice comes out shorter than that
    only where w has head just left of the match or tail just right of
    it.  An empty replacement lets the letters around the match meet,
    so its grow is -inf: no length bound rules it out.
    """
    index: dict[bytes, list[tuple]] = {}
    for mi, (pat, repl) in enumerate(zip(patterns, replacements)):
        if repl:
            move = (mi, len(repl) - len(pat), inv[repl[0]], inv[repl[-1]])
        else:
            move = (mi, -math.inf, -1, -1)
        index.setdefault(pat, []).append(move)
    return ({pat: tuple(moves) for pat, moves in index.items()},
            tuple(sorted({len(pat) for pat in patterns})))


def neighbors(w: bytes, patterns: list[bytes] | tuple[bytes, ...],
              replacements: list[bytes] | tuple[bytes, ...],
              inv: bytes, max_len: int,
              insert_codes: bytes) -> list[tuple[bytes, int, int]]:
    """Distinct freely reduced words one rewrite away from the reduced w.

    Moves are (a) replacing an occurrence of patterns[mi] by the reduced
    replacements[mi], reported as (word, pos, mi) in order of mi, then
    pos, and (b) inserting the cancelling pair (c, inv[c]) for c in
    insert_codes at any position, reported as (word, pos, -1 - c).
    Results longer than max_len, equal to w, or duplicating an earlier
    result are dropped.
    """
    out: list[tuple[bytes, int, int]] = []
    seen = {w}
    n = len(w)
    index, lengths = _match_index(tuple(patterns), tuple(replacements), inv)
    room = max_len - n
    # A hit (mi, pos) is packed as mi * stride + pos, so sorting the
    # hits puts them in the order of a pattern-by-pattern scan.
    stride = n + 1
    hits: list[int] = []
    for size in lengths:
        for pos in range(n - size + 1):
            moves = index.get(w[pos:pos + size])
            if moves is None:
                continue
            left = w[pos - 1] if pos else -1
            right = w[pos + size] if pos + size < n else -1
            for mi, grow, head, tail in moves:
                # Too long unless a seam cancels.
                if grow <= room or head == left or tail == right:
                    hits.append(mi * stride + pos)
    hits.sort()
    for hit in hits:
        mi, pos = divmod(hit, stride)
        repl = replacements[mi]
        # The result is w[:a] + repl[r0:r1] + w[b:]; widen the cut over
        # each seam while the letters on either side cancel.
        a, b = pos, pos + len(patterns[mi])
        r0, r1 = 0, len(repl)
        while r0 < r1 and a and w[a - 1] == inv[repl[r0]]:
            a -= 1
            r0 += 1
        while r0 < r1 and b < n and w[b] == inv[repl[r1 - 1]]:
            b += 1
            r1 -= 1
        if r0 == r1:
            # The replacement is used up: the outer parts meet.
            while a and b < n and w[a - 1] == inv[w[b]]:
                a -= 1
                b += 1
        if a + (r1 - r0) + (n - b) > max_len:
            continue
        nw = w[:a] + repl[r0:r1] + w[b:]
        if nw not in seen:
            seen.add(nw)
            out.append((nw, pos, mi))
    for c in insert_codes:
        pair = bytes((c, inv[c]))
        for pos in range(n + 1):
            nw = free_reduce_bytes(w[:pos] + pair + w[pos:], inv)
            if len(nw) <= max_len and nw not in seen:
                seen.add(nw)
                out.append((nw, pos, -1 - c))
    return out
