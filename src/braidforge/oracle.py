"""The equality oracle: a ladder of deciders with checkable verdicts.

decide(u, v) climbs from cheap invariants to progressively heavier
machinery.  Unequal verdicts only ever come from genuine invariants
(strand permutation, signed exponent sums, signed pair counts), never
from a search running out; Equal verdicts always carry a closed rewrite
chain taking u * v^-1 to the empty word, validated move by move before
it is returned.  When nothing decides within the given bounds the
verdict is Unknown and says what was tried.

The middle rungs lean on the fusing picture: both words are swept into
pure-times-coset form, the pure parts are compared freely, then through
their layered normal-form traces, then by bounded search over the pure
presentation's moves; every fusing-level success is lifted back to a
crossing-level chain through the certificate store.

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

from .certs import CertStore, get_store
from .chains import (Builder, Chain, _rev_inv, chain_end, chain_mirror,
                     erase_loops, reduction_steps, validate_chain)
from .decomposition import _traced_normal_form, pair_counts
from .errors import CertificateError, DomainError, ResourceBoundError
from .fusing import FusingWord, expand_fusing, fusing_free_reduce
from .kernel import free_reduce_bytes, neighbors
from .perms import permutation_of
from .search import _edges, tiered_chain
from .words import (BraidWord, exponent_invariants, format_braid_word,
                    free_reduce)

__all__ = [
    "Verdict",
    "OracleVerdict",
    "RelationReport",
    "decide",
    "verify_relation",
    "relation_neighbors",
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
    """Outcome of decide: the verdict, why, and the witness if Equal.

    The witness is a chain from u * v^-1 to the empty word whose every
    step is a defining relation, a cancellation, or an insertion of a
    cancelling pair; replaying it is independent verification.
    """

    verdict: Verdict
    reason: str
    strands: int
    witness: Chain | None = None
    bounds: dict = field(default_factory=dict)

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


def _searched_witness(u: BraidWord, v: BraidWord, found: Chain,
                      inv: bytes) -> Chain:
    """Close a searched chain red(u) => red(v) into one on u * v^-1.

    The search works on the freely reduced words, so the witness first
    reduces u, then runs the found chain, then un-reduces into v before
    the standard closing cancellation.
    """
    bld = Builder(u.codes + _rev_inv(v.codes, inv), inv)
    bld.reduce_span(0, len(u.codes))
    bld.embed(found)
    bld.expand_span(0, v.codes)
    bld.reduce_span(0, len(bld.word))
    return erase_loops(bld.chain())


class _Decider:
    """One decide() run: shared sweeps, traces, and bounds."""

    def __init__(self, u: BraidWord, v: BraidWord, max_len: int,
                 max_nodes: int, budget: int | None):
        self.u = u
        self.v = v
        self.st: CertStore = get_store(u.strands)
        self.max_len = max_len
        self.max_nodes = max_nodes
        self.budget = budget
        self.sweep_u = None
        self.sweep_v = None
        self.trace_u = None
        self.trace_v = None

    # -- shared ingredients ------------------------------------------

    def sweeps(self):
        if self.sweep_u is None:
            self.sweep_u = self.st.certified_sweep(self.u)
            self.sweep_v = self.st.certified_sweep(self.v)
        return self.sweep_u, self.sweep_v

    def traces(self):
        """Layered normal-form traces of both pure parts, or None when
        the rewriting budget runs out (the ladder just moves on)."""
        if self.trace_u is None:
            try:
                self.trace_u = _traced_normal_form(self.u, self.st,
                                                   budget=self.budget)
                self.trace_v = _traced_normal_form(self.v, self.st,
                                                   budget=self.budget)
            except ResourceBoundError:
                self.trace_u = self.trace_v = ()
        return (None, None) if self.trace_u == () else (self.trace_u,
                                                        self.trace_v)

    # -- witness assembly --------------------------------------------

    def _finish(self, fusing_closed: Chain, reason: str,
                detail: dict) -> OracleVerdict:
        """Lift a closed fusing chain into the full crossing witness."""
        st = self.st
        inv = st.std.inverse_table
        (chain_u, pure_u, coset_u) = self.sweep_u
        (chain_v, pure_v, coset_v) = self.sweep_v
        bld = Builder(self.u.codes + _rev_inv(self.v.codes, inv), inv)
        bld.embed(chain_u)
        bld.embed(chain_mirror(chain_v, inv),
                  len(bld.word) - len(self.v.codes))
        rep = coset_u.braid_word.codes
        prefix = len(st.rho_word(pure_u.letters))
        bld.reduce_span(prefix, 2 * len(rep))
        bld.embed(st.lift_fusing_chain(fusing_closed))
        witness = erase_loops(bld.chain())
        end = validate_chain(witness, st.std)
        if end != b"":
            raise CertificateError("assembled witness does not close")
        return OracleVerdict(Verdict.EQUAL, reason, self.u.strands,
                             witness, detail)

    def _fusing_closed_word(self) -> bytes:
        (_, pure_u, _) = self.sweep_u
        (_, pure_v, _) = self.sweep_v
        st = self.st
        return (st.enc(pure_u.letters)
                + _rev_inv(st.enc(pure_v.letters), st.fus.inverse_table))

    def _fusing_builder(self) -> Builder:
        return Builder(self._fusing_closed_word(), self.st.fus.inverse_table)

    def _close_and_finish(self, fb: Builder, reason: str,
                          detail: dict) -> OracleVerdict:
        fb.reduce_span(0, len(fb.word))
        if fb.word != b"":
            raise CertificateError("fusing bridge does not close")
        return self._finish(fb.chain(), reason, detail)


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

    # Invariants first: these are the only sources of Unequal.
    if permutation_of(u) != permutation_of(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "strand permutations differ", n)
    if exponent_invariants(u) != exponent_invariants(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "signed exponent sums differ", n)
    if pair_counts(u) != pair_counts(v):
        return OracleVerdict(Verdict.UNEQUAL,
                             "signed pair counts differ", n)

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

    dec = _Decider(u, v, max_len, max_nodes, budget)
    dec.sweeps()
    (_, pure_u, coset_u) = dec.sweep_u
    (_, pure_v, coset_v) = dec.sweep_v
    red_u = fusing_free_reduce(pure_u)
    red_v = fusing_free_reduce(pure_v)

    # Pure parts freely equal: the sweeps already prove it.
    if red_u.letters == red_v.letters:
        fb = dec._fusing_builder()
        return dec._close_and_finish(fb, "pure parts freely equal", {})

    # Small direct search at the crossing level.
    small_nodes = min(SMALL_SEARCH_NODES, max_nodes)
    found = tiered_chain(ru.codes, rv.codes, st.std,
                         max_len=max_len, max_nodes=small_nodes)
    if found is not None:
        witness = _searched_witness(u, v, found, inv)
        validate_chain(witness, st.std)
        return OracleVerdict(Verdict.EQUAL, "found by direct search", n,
                             witness, {"max_nodes": small_nodes})

    # Normal-form traces: compare the two pure parts through their
    # layered rewrites, bridging sweep against trace in both directions
    # (a word rebuilt from a normal form sweeps straight back to the
    # flattened trace of the other side, so these bridges catch the
    # rebuild-reduce round trips exactly).
    trace_u, trace_v = dec.traces()
    if trace_u is not None:
        (nf_u, chain_fu) = trace_u
        (nf_v, chain_fv) = trace_v
        flat_u = st.alph.decode(
            free_reduce_bytes(chain_end(chain_fu), st.fus.inverse_table))
        flat_v = st.alph.decode(
            free_reduce_bytes(chain_end(chain_fv), st.fus.inverse_table))
        finv = st.fus.inverse_table
        if red_u.letters == flat_v.letters:
            fb = dec._fusing_builder()
            fb.embed(chain_mirror(chain_fv, finv),
                     len(st.enc(pure_u.letters)))
            return dec._close_and_finish(
                fb, "sweep meets the other side's normal form", {})
        if flat_u.letters == red_v.letters:
            fb = dec._fusing_builder()
            fb.embed(chain_fu)
            return dec._close_and_finish(
                fb, "normal form meets the other side's sweep", {})
        if flat_u.letters == flat_v.letters:
            fb = dec._fusing_builder()
            fb.embed(chain_fu)
            fb.embed(chain_mirror(chain_fv, finv),
                     len(st.enc(flat_u.letters)))
            return dec._close_and_finish(fb, "normal forms agree", {})

    # Bounded search over the pure presentation's moves.
    fus_nodes = min(FUSING_SEARCH_NODES, max_nodes)
    fus_len = max(len(red_u.letters), len(red_v.letters)) + 4
    mid = tiered_chain(st.enc(red_u.letters), st.enc(red_v.letters),
                       st.fus, max_len=fus_len, max_nodes=fus_nodes)
    if mid is not None:
        fb = dec._fusing_builder()
        fb.reduce_span(0, len(st.enc(pure_u.letters)))
        fb.reduce_span(len(st.enc(red_u.letters)),
                       len(st.enc(pure_v.letters)))
        fb.embed(mid)
        return dec._close_and_finish(
            fb, "fusing search met", {"max_nodes": fus_nodes})

    # Last resort: full search at the crossing level.
    found = tiered_chain(ru.codes, rv.codes, st.std,
                         max_len=max_len, max_nodes=max_nodes)
    if found is not None:
        witness = _searched_witness(u, v, found, inv)
        validate_chain(witness, st.std)
        return OracleVerdict(Verdict.EQUAL, "full search met", n,
                             witness, {"max_nodes": max_nodes})

    return OracleVerdict(
        Verdict.UNKNOWN,
        "all invariants agree but no chain found within bounds", n,
        None, {"max_len": max_len, "max_nodes": max_nodes})


@dataclass(frozen=True)
class RelationReport:
    """verify_relation's answer: the fast invariant checks plus the
    oracle's full verdict."""

    pi_equal: bool
    invariants_equal: bool
    verdict: OracleVerdict

    @property
    def holds(self) -> bool:
        return self.verdict.equal

    def to_json(self, include_witness: bool = False) -> dict:
        return {
            "schema": 1,
            "pi_equal": self.pi_equal,
            "invariants_equal": self.invariants_equal,
            "holds": self.holds,
            "verdict": self.verdict.to_json(include_witness),
        }


def verify_relation(lhs, rhs, *, max_len: int | None = None,
                    max_nodes: int | None = None,
                    budget: int | None = None) -> RelationReport:
    """Check a claimed relation: invariants first, then the oracle."""
    u = _coerce_braid(lhs)
    v = _coerce_braid(rhs)
    if u.strands != v.strands:
        raise DomainError(
            f"words act on {u.strands} and {v.strands} strands")
    pi_equal = permutation_of(u) == permutation_of(v)
    invariants_equal = (exponent_invariants(u) == exponent_invariants(v)
                        and pair_counts(u) == pair_counts(v))
    verdict = decide(u, v, max_len=max_len, max_nodes=max_nodes,
                     budget=budget)
    return RelationReport(pi_equal, invariants_equal, verdict)


def relation_neighbors(word: BraidWord,
                       max_len: int | None = None) -> list[BraidWord]:
    """Distinct freely reduced words one relation application away.

    Includes split applications (a relation applied with part of its
    pattern materialized on the spot), so words may grow; max_len
    bounds that growth and defaults to the word's length plus 2.
    """
    st = get_store(word.strands)
    if max_len is None:
        max_len = len(word.codes) + 2
    edges = _edges(st.std, True)
    reduced = free_reduce_bytes(word.codes, st.std.inverse_table)
    out = [BraidWord(word.strands, nw)
           for nw, _, _ in neighbors(reduced, edges.patterns,
                                     edges.replacements,
                                     st.std.inverse_table, max_len, b"")]
    return out
