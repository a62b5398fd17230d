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
compose by concatenation.  Builder assembles a chain that way, splice
by splice.  Everything here is alphabet-agnostic: the same machinery
runs on crossing codes and on fusing codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .kernel import reduce_with_events

__all__ = [
    "Step",
    "Chain",
    "apply_step",
    "chain_end",
    "validate_chain",
    "chain_concat",
    "chain_invert",
    "chain_mirror",
    "erase_loops",
    "reduction_steps",
    "Builder",
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
    if step.pos < 0 or step.pos + len(step.lhs) > len(word):
        raise CertificateError(
            f"step at {step.pos} out of range in {word!r}")
    if word[step.pos:step.pos + len(step.lhs)] != step.lhs:
        raise CertificateError(
            f"step expects {step.lhs!r} at {step.pos}, word is {word!r}")
    return word[:step.pos] + step.rhs + word[step.pos + len(step.lhs):]


def chain_end(chain: Chain) -> bytes:
    word = chain.start
    for step in chain.steps:
        word = apply_step(word, step)
    return word


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
        if not _step_allowed(step, table.allowed, table.inverse_table):
            raise CertificateError(
                f"step {k} ({step.lhs!r} -> {step.rhs!r}) is not a move")
        word = apply_step(word, step)
    return word


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


class Builder:
    """A word being rewritten from `start`, accumulating the steps.

    Every splice is checked against the word as it stands, so a step
    that does not fit raises CertificateError where it is made.
    """

    def __init__(self, start: bytes, inv: bytes):
        self.start = start
        self.inv = inv
        self.word = start
        self.steps: list[Step] = []

    def _run(self, steps, offset: int) -> None:
        for step in steps:
            if offset:
                step = Step(step.pos + offset, step.lhs, step.rhs)
            self.word = apply_step(self.word, step)
            self.steps.append(step)

    def splice(self, pos: int, lhs: bytes, rhs: bytes) -> None:
        self._run((Step(pos, lhs, rhs),), 0)

    def embed(self, chain: Chain, offset: int = 0) -> None:
        """Run chain's steps on the span that starts at offset."""
        self._run(chain.steps, offset)

    def reduce_span(self, offset: int, length: int) -> None:
        """Freely reduce the span of `length` letters at offset."""
        span = self.word[offset:offset + length]
        self._run(reduction_steps(span, self.inv), offset)

    def expand_span(self, offset: int, word: bytes) -> None:
        """Grow the reduced form of word, found at offset, back into
        word: the free reduction of word run backwards.  From an empty
        span, word = codes + rev_inv(codes) grows pair by pair from the
        outside in."""
        self._run([Step(s.pos, s.rhs, s.lhs)
                   for s in reversed(reduction_steps(word, self.inv))],
                  offset)

    def chain(self) -> Chain:
        return Chain(self.start, tuple(self.steps))
