"""Rewrite chains: checkable equality witnesses over a byte alphabet.

A chain is a start word plus a list of splice steps.  Each step names a
position, the exact bytes removed there, and the exact bytes put back.
Replaying the steps transforms the start word; a chain proves two words
equal when every step is a defining move.  The validator accepts three
step shapes:

* a substitution pair listed in the move table (either orientation of a
  defining relation, closed under formal inversion),
* cancellation of an adjacent inverse pair (lhs = c inv(c), rhs empty),
* insertion of an inverse pair (lhs empty, rhs = c inv(c)).

Steps are exact splices on the word as it stands, never silently
reduced, so chains embed into enclosing words by shifting positions and
compose by concatenation.  Everything here is alphabet-agnostic: the
same machinery runs on crossing codes and on fusing codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .kernel import reduce_with_events

__all__ = [
    "Step",
    "Chain",
    "apply_step",
    "replay",
    "chain_end",
    "validate_chain",
    "shift_steps",
    "chain_concat",
    "chain_invert",
    "chain_mirror",
    "erase_loops",
    "reduction_steps",
    "open_chain",
]


@dataclass(frozen=True)
class Step:
    pos: int
    lhs: bytes
    rhs: bytes


@dataclass(frozen=True)
class Chain:
    start: bytes
    steps: tuple[Step, ...]


def apply_step(word: bytes, step: Step) -> bytes:
    if word[step.pos:step.pos + len(step.lhs)] != step.lhs:
        raise CertificateError(
            f"step expects {step.lhs!r} at {step.pos}, word is {word!r}")
    return word[:step.pos] + step.rhs + word[step.pos + len(step.lhs):]


def replay(start: bytes, steps: tuple[Step, ...]) -> bytes:
    word = start
    for step in steps:
        word = apply_step(word, step)
    return word


def chain_end(chain: Chain) -> bytes:
    return replay(chain.start, chain.steps)


def _step_allowed(step: Step, allowed, inv: bytes) -> bool:
    if (step.lhs, step.rhs) in allowed:
        return True
    if not step.rhs and len(step.lhs) == 2 and step.lhs[1] == inv[step.lhs[0]]:
        return True
    if not step.lhs and len(step.rhs) == 2 and step.rhs[1] == inv[step.rhs[0]]:
        return True
    return False


def validate_chain(chain: Chain, table) -> bytes:
    """Replay the chain, checking every step against the move table.
    Returns the end word; raises CertificateError on any bad step."""
    word = chain.start
    for k, step in enumerate(chain.steps):
        if step.pos < 0 or step.pos + len(step.lhs) > len(word):
            raise CertificateError(f"step {k} out of range in {word!r}")
        if not _step_allowed(step, table.allowed, table.inverse_table):
            raise CertificateError(
                f"step {k} ({step.lhs!r} -> {step.rhs!r}) is not a move")
        word = apply_step(word, step)
    return word


def shift_steps(steps: tuple[Step, ...], offset: int) -> tuple[Step, ...]:
    """Embed steps into a larger word with `offset` letters of untouched
    left context (the right context needs no adjustment)."""
    return tuple(Step(s.pos + offset, s.lhs, s.rhs) for s in steps)


def chain_concat(first: Chain, second: Chain) -> Chain:
    if chain_end(first) != second.start:
        raise CertificateError("chains do not meet")
    return Chain(first.start, first.steps + second.steps)


def chain_invert(chain: Chain) -> Chain:
    """The reverse chain, from end back to start.  Each step swaps its
    sides; substitutions stay moves because the table is orientation
    closed, and cancellations become insertions."""
    end = chain_end(chain)
    steps = tuple(Step(s.pos, s.rhs, s.lhs) for s in reversed(chain.steps))
    return Chain(end, steps)


def _rev_inv(codes: bytes, inv: bytes) -> bytes:
    return bytes(inv[c] for c in reversed(codes))


def chain_mirror(chain: Chain, inv: bytes) -> Chain:
    """The chain conjugate under reverse-and-invert.  Takes a chain for
    W => W' to one for rev_inv(W) => rev_inv(W'); used to flip a closed
    chain for u * inv(v) into one for v * inv(u)."""
    steps: list[Step] = []
    word = chain.start
    for s in chain.steps:
        steps.append(Step(len(word) - s.pos - len(s.lhs),
                          _rev_inv(s.lhs, inv), _rev_inv(s.rhs, inv)))
        word = apply_step(word, s)
    return Chain(_rev_inv(chain.start, inv), tuple(steps))


def erase_loops(chain: Chain) -> Chain:
    """The chain with every detour cut out.

    Replays the chain; whenever a step returns to a word visited
    earlier, the steps since that visit are dropped.  Start and end
    are unchanged, every kept step meets the same word it met before,
    and the result visits each word at most once, so erasing again
    changes nothing.
    """
    seen = {chain.start: 0}
    words = [chain.start]
    steps: list[Step] = []
    word = chain.start
    for step in chain.steps:
        word = apply_step(word, step)
        k = seen.get(word)
        if k is None:
            steps.append(step)
            words.append(word)
            seen[word] = len(steps)
        else:
            for dropped in words[k + 1:]:
                del seen[dropped]
            del words[k + 1:]
            del steps[k:]
    return Chain(chain.start, tuple(steps))


def reduction_steps(word: bytes, inv: bytes) -> tuple[Step, ...]:
    """Explicit cancellation steps taking word to its free reduction."""
    _, events = reduce_with_events(word, inv)
    steps: list[Step] = []
    cur = word
    for pos in events:
        steps.append(Step(pos, cur[pos:pos + 2], b""))
        cur = cur[:pos] + cur[pos + 2:]
    return tuple(steps)


def open_chain(a: bytes, b: bytes, closed: Chain, inv: bytes) -> Chain:
    """Turn a closed chain (a + inv(b) => empty) into a chain a => b.

    Inserts inv(b) * b after a, pair by pair from the outside in, then
    runs the closed chain on the prefix; the trailing copy of b survives
    untouched.
    """
    if closed.start != a + _rev_inv(b, inv):
        raise CertificateError("closed chain does not start at a * inv(b)")
    if chain_end(closed) != b"":
        raise CertificateError("closed chain does not reach the empty word")
    steps: list[Step] = []
    for k in range(len(b)):
        # After k insertions the word is a, then the last k letters of
        # inv(b), then the first k letters of b; the next pair goes in
        # the middle, at position len(a) + k.
        c = b[len(b) - 1 - k]
        steps.append(Step(len(a) + k, b"", bytes((inv[c], c))))
    steps.extend(closed.steps)
    chain = Chain(a, tuple(steps))
    if chain_end(chain) != b:
        raise CertificateError("opened chain does not reach b")
    return chain
