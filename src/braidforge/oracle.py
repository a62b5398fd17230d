"""The equality oracle: a ladder of deciders with checkable verdicts.

decide(u, v) climbs from cheap invariants to progressively heavier
machinery.  Unequal verdicts only ever come from genuine invariants
(strand permutation, signed exponent sums, signed pair counts) or from
a linear representation (the twisted virtual Burau images of the two
words differ; the verdict carries an UnequalCertificate that
burau.validate_unequal has checked before it is returned), never from
a search running out.  Equal verdicts always carry a closed rewrite
chain taking u * v^-1 to the empty word, validated move by move before
it is returned.  When nothing decides within the given bounds the
verdict is Unknown and says what was tried.

The middle rungs lean on the fusing picture: both words are swept into
pure-times-coset form, and every fusing-level rung is one meet of the
two pure parts.  Each side is rewritten (not at all, along its layered
normal-form trace, or freely reduced and then bridged by bounded search
over the pure presentation's moves) until both reach a common fusing
word; the chain that closes pure_u * pure_v^-1 is lifted back to the
crossing level through the certificate store and framed by the two
certified sweeps.

The crossing-level search that runs before the normal-form rungs is a
small probe (SMALL_SEARCH_NODES stored states): it catches short
derivations such as a single defining relation, and a pair it misses
goes on to the certified normal-form rungs instead of exhausting a
large search first.  The full crossing-level search comes last.
Every searched or assembled witness is loop-erased (chains.erase_loops
drops each detour that returns to a word already visited) before
validate_chain replays it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .burau import PARAMS, UnequalCertificate, image, validate_unequal
from .certs import get_store
from .chains import (Builder, Chain, _rev_inv, chain_end, chain_mirror,
                     erase_loops, reduction_steps, validate_chain)
from .decomposition import _traced_normal_form, pair_counts
from .errors import CertificateError, DomainError, ResourceBoundError
from .fusing import FusingWord, expand_fusing
from .kernel import free_reduce_bytes
from .perms import permutation_of
from .search import tiered_chain
from .words import (BraidWord, exponent_invariants, format_braid_word,
                    free_reduce)

__all__ = [
    "Verdict",
    "OracleVerdict",
    "decide",
]

SMALL_SEARCH_NODES = 1_000
FUSING_SEARCH_NODES = 200_000
DEFAULT_MAX_NODES = 2_000_000


class Verdict(enum.Enum):
    EQUAL = "Equal"
    UNEQUAL = "Unequal"
    UNKNOWN = "Unknown"


def _word_text(codes: bytes, strands: int) -> str:
    return format_braid_word(BraidWord(strands, bytes(codes)))


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of decide: the verdict, why, the witness if Equal, and
    the certificate if a representation separated the words.

    The witness is a chain from u * v^-1 to the empty word whose every
    step is a defining relation, a cancellation, or an insertion of a
    cancelling pair; replaying it is independent verification.  The
    certificate holds the representation's parameters and both images;
    validate_unequal(certificate, u, v) rechecks it from the relation
    table alone.
    """

    verdict: Verdict
    reason: str
    strands: int
    witness: Chain | None = None
    bounds: dict = field(default_factory=dict)
    certificate: UnequalCertificate | None = None

    @property
    def equal(self) -> bool:
        return self.verdict is Verdict.EQUAL

    def to_json(self, include_witness: bool = True) -> dict:
        data: dict = {
            "schema": 1,
            "status": self.verdict.value,
            "reason": self.reason,
            "strands": self.strands,
            "bounds": dict(self.bounds),
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json()),
        }
        if self.witness is None:
            data["witness"] = None
            data["witness_steps"] = 0
        else:
            data["witness_steps"] = len(self.witness.steps)
            if not include_witness:
                data["witness"] = None
            else:
                data["witness"] = {
                    "start": _word_text(self.witness.start, self.strands),
                    "steps": [
                        {"pos": s.pos,
                         "lhs": _word_text(s.lhs, self.strands),
                         "rhs": _word_text(s.rhs, self.strands)}
                        for s in self.witness.steps
                    ],
                }
        return data


def _coerce_braid(word) -> BraidWord:
    if isinstance(word, FusingWord):
        return expand_fusing(word)
    if isinstance(word, BraidWord):
        return word
    raise DomainError(f"cannot decide equality of {type(word).__name__}")


def decide(u, v, *, max_len: int | None = None,
           max_nodes: int | None = None,
           budget: int | None = None) -> OracleVerdict:
    """Are u and v the same group element?  See the module docstring.

    max_len caps intermediate word length in the searches (default:
    combined reduced length plus 4); max_nodes caps stored search
    states; budget caps normal-form rewriting work.
    """
    u = _coerce_braid(u)
    v = _coerce_braid(v)
    if u.strands != v.strands:
        raise DomainError(
            f"words act on {u.strands} and {v.strands} strands")
    n = u.strands
    st = get_store(n)
    inv = st.std.inverse_table
    finv = st.fus.inverse_table

    # Invariants first: these and the representation below are the
    # only sources of Unequal.
    if permutation_of(u) != permutation_of(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "strand permutations differ", n)
    if exponent_invariants(u) != exponent_invariants(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "signed exponent sums differ", n)
    if pair_counts(u) != pair_counts(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "signed pair counts differ", n)
    left, right = image(u), image(v)
    if left != right:
        cert = UnequalCertificate(PARAMS, left, right)
        validate_unequal(cert, u, v)
        return OracleVerdict(Verdict.UNEQUAL,
                             "twisted Burau images differ", n,
                             certificate=cert)

    ru = free_reduce(u)
    rv = free_reduce(v)
    closed = u.codes + _rev_inv(v.codes, inv)
    if max_len is None:
        max_len = len(ru.codes) + len(rv.codes) + 4
    if max_nodes is None:
        max_nodes = DEFAULT_MAX_NODES
    if free_reduce_bytes(closed, inv) == b"":
        witness = Chain(closed, reduction_steps(closed, inv))
        return OracleVerdict(Verdict.EQUAL, "free reduction closes", n,
                             witness)

    def verdict(bld: Builder, reason: str, detail) -> OracleVerdict:
        witness = erase_loops(bld.chain())
        if validate_chain(witness, st.std) != b"":
            raise CertificateError("assembled witness does not close")
        return OracleVerdict(Verdict.EQUAL, reason, n, witness,
                             detail or {})

    def searched(nodes: int, reason: str) -> OracleVerdict | None:
        """Search red(u) => red(v) at the crossing level and close the
        chain found into one on u * v^-1."""
        found = tiered_chain(ru.codes, rv.codes, st.std,
                             max_len=max_len, max_nodes=nodes)
        if found is None:
            return None
        bld = Builder(closed, inv)
        bld.reduce_span(0, len(u.codes))
        bld.embed(found)
        bld.reduce_span(0, len(bld.word))
        return verdict(bld, reason, {"max_nodes": nodes})

    (sweep_u, pure_u, coset_u) = st.certified_sweep(u)
    (sweep_v, pure_v, _) = st.certified_sweep(v)
    enc_u = st.enc(pure_u.letters)
    enc_v = st.enc(pure_v.letters)
    red_u = free_reduce_bytes(enc_u, finv)
    red_v = free_reduce_bytes(enc_v, finv)

    def meet(reason: str, left: Chain | None = None,
             right: Chain | None = None, mid: Chain | None = None,
             detail: dict | None = None) -> OracleVerdict:
        """Close the pure parts against each other and lift the result.

        left rewrites enc_u to some X and right rewrites enc_v to some
        Y (each defaults to no steps); mid, when given, runs from X to
        Y.  The fusing chain on enc_u * enc_v^-1 runs left, then right
        mirrored, then mid, and cancels what is left.  Its lift sits
        between the two certified sweeps, whose coset words cancel in
        the middle.
        """
        fb = Builder(enc_u + _rev_inv(enc_v, finv), finv)
        if left is not None:
            fb.embed(left)
        if right is not None:
            fb.embed(chain_mirror(right, finv), len(fb.word) - len(enc_v))
        if mid is not None:
            fb.embed(mid)
        fb.reduce_span(0, len(fb.word))
        if fb.word != b"":
            raise CertificateError("fusing bridge does not close")
        bld = Builder(closed, inv)
        bld.embed(sweep_u)
        bld.embed(chain_mirror(sweep_v, inv), len(bld.word) - len(v.codes))
        bld.reduce_span(len(st.rho_word(pure_u.letters)),
                        2 * len(coset_u.braid_word.codes))
        bld.embed(st.lift_fusing_chain(fb.chain()))
        return verdict(bld, reason, detail)

    # Pure parts freely equal: the sweeps already prove it.
    if red_u == red_v:
        return meet("pure parts freely equal")

    # Small direct search at the crossing level.
    found = searched(min(SMALL_SEARCH_NODES, max_nodes),
                     "found by direct search")
    if found is not None:
        return found

    # Normal-form traces: compare the two pure parts through their
    # layered rewrites, bridging sweep against trace in both directions
    # (a word rebuilt from a normal form sweeps straight back to the
    # flattened trace of the other side, so these bridges catch the
    # rebuild-reduce round trips exactly).  When the rewriting budget
    # runs out the ladder just moves on.
    try:
        trace_u = _traced_normal_form(pure_u, st, budget=budget)
        trace_v = _traced_normal_form(pure_v, st, budget=budget)
    except ResourceBoundError:
        pass
    else:
        nf_u = free_reduce_bytes(chain_end(trace_u), finv)
        nf_v = free_reduce_bytes(chain_end(trace_v), finv)
        if red_u == nf_v:
            return meet("sweep meets the other side's normal form",
                        right=trace_v)
        if nf_u == red_v:
            return meet("normal form meets the other side's sweep",
                        left=trace_u)
        if nf_u == nf_v:
            return meet("normal forms agree", trace_u, trace_v)

    # Bounded search over the pure presentation's moves.
    fus_nodes = min(FUSING_SEARCH_NODES, max_nodes)
    mid = tiered_chain(red_u, red_v, st.fus,
                       max_len=max(len(red_u), len(red_v)) + 4,
                       max_nodes=fus_nodes)
    if mid is not None:
        return meet("fusing search met",
                    Chain(enc_u, reduction_steps(enc_u, finv)),
                    Chain(enc_v, reduction_steps(enc_v, finv)), mid,
                    {"max_nodes": fus_nodes})

    # Last resort: full search at the crossing level.
    found = searched(max_nodes, "full search met")
    if found is not None:
        return found

    return OracleVerdict(
        Verdict.UNKNOWN,
        "all invariants agree but no chain found within bounds", n,
        None, {"max_len": max_len, "max_nodes": max_nodes})
