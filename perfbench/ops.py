"""One benchmark operation per workload, and the correctness gate.

prepare() turns an input's text into library objects before the clock
starts.  run_op() is the timed operation; it calls the library only
through `api`, a namespace the tracer can fill with wrapped callables.
check() is the gate, run after the timed section: it replays witnesses
and compares verdicts and invariants against the known answers, and
returns a failure message or None.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

from workloads import HARD_MAX_NODES

# OracleVerdict.reason text -> rung of the decision ladder.  Reasons not
# listed here are counted as rung "other" and listed by text.
RUNGS = {
    "strand permutations differ": "unequal_permutation",
    "signed exponent sums differ": "unequal_exponents",
    "signed pair counts differ": "unequal_pair_counts",
    "free reduction closes": "free_reduction",
    "pure parts freely equal": "pure_parts_equal",
    "found by direct search": "direct_search",
    "sweep meets the other side's normal form": "sweep_meets_nf",
    "normal form meets the other side's sweep": "nf_meets_sweep",
    "normal forms agree": "normal_forms_agree",
    "fusing search met": "fusing_search",
    "full search met": "full_search",
    "all invariants agree but no chain found within bounds": "unknown",
}
RUNG_NAMES = tuple(dict.fromkeys(RUNGS.values())) + ("other",)

# Library calls the workloads make directly, with the span name the
# tracer gives each.
API = {
    "decide": "oracle.decide",
    "parse_braid_word": "words.parse_braid_word",
    "permutation_of": "perms.permutation_of",
    "to_pure_times_coset": "fusing.to_pure_times_coset",
    "rewrite_R": "schreier.rewrite_R",
    "normal_form": "decomposition.normal_form",
    "recompose": "decomposition.recompose",
    "format_normal_form": "decomposition.format_normal_form",
    "parse_normal_form": "decomposition.parse_normal_form",
}


def rung_of(reason: str) -> str:
    return RUNGS.get(reason, "other")


def library_api():
    import braidforge
    return types.SimpleNamespace(
        **{name: getattr(braidforge, name) for name in API})


@dataclass
class Record:
    """What one operation produced, kept for the gate and the tallies."""

    item: tuple
    u: object = None
    v: object = None
    verdict: object = None
    word: object = None
    nf: object = None
    back: object = None
    nf_again: object = None
    bounded: bool = False
    error: str | None = None


def prepare(workload: str, item: tuple):
    from braidforge import parse_braid_word
    if workload == "roundtrip":
        return parse_braid_word(item[0], 3)
    if workload == "hard":
        return parse_braid_word(item[0], 3), parse_braid_word(item[1], 3)
    if workload == "relations":
        return item[1], item[2]
    if workload == "pipeline":
        return int(item[0]), item[1]
    raise ValueError(workload)


def run_op(workload: str, prepared, api, rec: Record) -> None:
    """The timed operation; fills rec.  Exceptions propagate to the
    caller, which counts them as failures."""
    if workload == "roundtrip":
        w = prepared
        back = api.recompose(api.normal_form(w))
        rec.u, rec.v = back, w
        rec.verdict = api.decide(back, w)
    elif workload == "relations":
        rec.u, rec.v = prepared
        rec.verdict = api.decide(rec.u, rec.v)
    elif workload == "hard":
        rec.u, rec.v = prepared
        rec.verdict = api.decide(rec.u, rec.v, max_nodes=HARD_MAX_NODES)
    elif workload == "pipeline":
        from braidforge import concat_words, invert_word
        from braidforge.errors import ResourceBoundError
        n, text = prepared
        w = api.parse_braid_word(text, n)
        rec.word = w
        api.permutation_of(w)
        dec = api.to_pure_times_coset(w)
        api.rewrite_R(concat_words(w, invert_word(dec.coset.braid_word)))
        try:
            nf = api.normal_form(w)
        except ResourceBoundError:
            rec.bounded = True
            return
        rec.nf = nf
        rec.back = api.recompose(nf)
        rec.nf_again = api.parse_normal_form(api.format_normal_form(nf), n)
    else:
        raise ValueError(workload)


def decided(workload: str, rec: Record) -> bool:
    if rec.error is not None:
        return False
    if workload == "pipeline":
        return not rec.bounded
    return rec.verdict.verdict.value != "Unknown"


def witness_ok(witness, u, v) -> bool:
    """Does the witness replay, move by move against the bare relation
    table, from u * v^-1 down to the empty word?"""
    from braidforge.chains import validate_chain
    from braidforge.errors import CertificateError
    from braidforge.relations import standard_moves
    table = standard_moves(u.strands)
    inv = table.inverse_table
    start = u.codes + bytes(inv[c] for c in reversed(v.codes))
    if witness.start != start:
        return False
    try:
        return validate_chain(witness, table) == b""
    except CertificateError:
        return False


def check(workload: str, rec: Record) -> str | None:
    """The gate for one operation: a failure message, or None."""
    if rec.error is not None:
        return rec.error
    if workload == "pipeline":
        return None if rec.bounded else _check_pipeline(rec)
    res = rec.verdict
    status = res.verdict.value
    if workload in ("roundtrip", "relations") and status != "Equal":
        return f"known Equal pair came back {status} ({res.reason})"
    if status == "Equal":
        if res.witness is None:
            return "Equal verdict without a witness"
        if not witness_ok(res.witness, rec.u, rec.v):
            return f"witness does not replay ({res.reason})"
    return None


def _check_pipeline(rec: Record) -> str | None:
    from braidforge import exponent_invariants, pair_counts, permutation_of
    w, back = rec.word, rec.back
    if permutation_of(back) != permutation_of(w):
        return "recompose changed the permutation"
    if exponent_invariants(back) != exponent_invariants(w):
        return "recompose changed the exponent sums"
    if pair_counts(back) != pair_counts(w):
        return "recompose changed the pair counts"
    if rec.nf_again != rec.nf:
        return "parse_normal_form(format_normal_form(nf)) != nf"
    return None


def tampered_witnesses(witness):
    """Broken copies of a real witness: its last step dropped, and one
    substitution turned into a non-move."""
    from braidforge.chains import Chain, Step
    steps = witness.steps
    out = [Chain(witness.start, steps[:-1])]
    for k, s in enumerate(steps):
        if s.lhs and s.rhs:
            bad = Step(s.pos, s.lhs, s.rhs + s.rhs[:1])
            out.append(Chain(witness.start,
                             steps[:k] + (bad,) + steps[k + 1:]))
            break
    return out


def tamper_check(records) -> str | None:
    """Prove the gate rejects bad witnesses, on a witness from this run
    (or a fixed braid-relation witness when the run produced none)."""
    from braidforge import decide, parse_braid_word
    for rec in records:
        res = rec.verdict
        if (res is not None and res.witness is not None
                and len(res.witness.steps) > 1):
            u, v, witness = rec.u, rec.v, res.witness
            break
    else:
        u = parse_braid_word("s1 s2 s1", 3)
        v = parse_braid_word("s2 s1 s2", 3)
        witness = decide(u, v).witness
    if not witness_ok(witness, u, v):
        return "tamper check: the genuine witness does not replay"
    for bad in tampered_witnesses(witness):
        if witness_ok(bad, u, v):
            return "tamper check: the gate accepted a tampered witness"
    return None
