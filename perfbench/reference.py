"""A fixed piece of pure-Python work, timed next to the operations.

On a shared machine the same code runs up to twice as slow for spells
of seconds to minutes, while other tenants load the same cores.  The
reference work never calls braidforge, so a change to the library
cannot change its time; timed while the operations run, it says how
fast the machine ran at that moment.  run.py scales each operation's
time by REFERENCE_S over the reference time measured around it: the
time the operation would have taken had the machine run the reference
in REFERENCE_S seconds.

The work is a frozen miniature of the library's hot path: a
breadth-first search over rewrites of a 3-strand braid word, with bytes
searches and splices, free reduction on a bytearray stack and set
membership, as in kernel.neighbors.  Its speed followed the library's
more closely than plain integer and dictionary arithmetic did: over six
rounds of the same relations inputs the round totals varied by 2.1 %
(coefficient of variation) scaled by it, 5.7 % scaled by such a loop
and 14.8 % in wall time.  It allocates no object that the cycle
collector tracks, so it never starts a collection and garbage
collection settings do not change its time.
"""

from __future__ import annotations

import signal
import time

# Seconds the reference takes on a quiet 2-vCPU Xeon VM under
# CPython 3.11; times are reported at that speed.
REFERENCE_S = 0.0003

# Seconds between two samples of the reference.
PERIOD = 0.02

# Words expanded per sample.
EXPAND = 3

# Letters: s1 = 0, s1^-1 = 1, s2 = 2, s2^-1 = 3.
_INV = bytes((1, 0, 3, 2))
_START = bytes((0, 2, 0, 2, 3, 0, 2, 1, 0, 2))


def _moves() -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Every split of every cyclic form of s1 s2 s1 = s2 s1 s2 and its
    inverse into a pattern and the replacement it equals."""
    relator = bytes((0, 2, 0, 3, 1, 3))
    inverse = bytes(_INV[c] for c in reversed(relator))
    patterns, replacements = [], []
    for word in (relator, inverse):
        for r in range(len(word)):
            cyc = word[r:] + word[:r]
            for k in range(1, len(cyc)):
                patterns.append(cyc[:k])
                replacements.append(bytes(_INV[c]
                                          for c in reversed(cyc[k:])))
    return tuple(patterns), tuple(replacements)


_PATTERNS, _REPLACEMENTS = _moves()
_SEEN: set[bytes] = set()
_QUEUE: list[bytes] = []


def _reduce(w: bytes, inv: bytes) -> bytes:
    stack = bytearray()
    for c in w:
        if stack and stack[-1] == inv[c]:
            stack.pop()
        else:
            stack.append(c)
    return bytes(stack)


def _work() -> int:
    seen, queue, inv = _SEEN, _QUEUE, _INV
    seen.clear()
    del queue[:]
    queue.append(_START)
    seen.add(_START)
    max_len = len(_START)
    i = 0
    while i < len(queue) and i < EXPAND:
        w = queue[i]
        i += 1
        for pat, repl in zip(_PATTERNS, _REPLACEMENTS):
            plen = len(pat)
            start = w.find(pat)
            while start != -1:
                nw = _reduce(w[:start] + repl + w[start + plen:], inv)
                if len(nw) <= max_len and nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
                start = w.find(pat, start + 1)
    return len(queue)


class Sampler:
    """Times the reference work every PERIOD seconds, from a timer
    signal, while entered.  The handler runs between two bytecodes of
    whatever the main thread is doing, so the operations are sampled
    while they run; `spent` counts the seconds spent in the handler, so
    that the caller can take them out of what it times."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock, seconds)
        self.spent = 0.0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _tick(self, *_) -> None:
        clock = time.perf_counter
        t0 = clock()
        _work()
        t1 = clock()
        self.samples.append((t0, t1 - t0))
        self.spent += clock() - t0
