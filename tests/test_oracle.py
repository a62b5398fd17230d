import random

import pytest

from braidforge import (CertificateError, DomainError, Verdict, decide,
                        free_reduce, normal_form, parse_braid_word,
                        parse_fusing_word, recompose, validate_chain)
from braidforge.certs import CertStore
from braidforge.chains import Chain, _rev_inv
from braidforge.oracle import SMALL_SEARCH_NODES
from braidforge.relations import standard_moves, standard_relation_instances
from braidforge.search import tiered_chain


def w(text, n=3):
    return parse_braid_word(text, n)


def check_witness(result, u, v):
    """Replay the witness against the bare move table; this is the
    external half of the oracle contract."""
    assert result.witness is not None
    table = standard_moves(result.strands)
    inv = table.inverse_table
    assert result.witness.start == u.codes + _rev_inv(v.codes, inv)
    assert validate_chain(result.witness, table) == b""


def test_identical_words_are_equal():
    res = decide(w("s1 v2 t1"), w("s1 v2 t1"))
    assert res.verdict is Verdict.EQUAL
    check_witness(res, w("s1 v2 t1"), w("s1 v2 t1"))


def test_free_reduction_equalities():
    res = decide(w("s1 S1", 2), w("", 2))
    assert res.verdict is Verdict.EQUAL
    assert res.reason == "free reduction closes"
    check_witness(res, w("s1 S1", 2), w("", 2))


def test_braid_relation_is_equal_with_checkable_witness():
    res = decide(w("s1 s2 s1"), w("s2 s1 s2"))
    assert res.verdict is Verdict.EQUAL
    check_witness(res, w("s1 s2 s1"), w("s2 s1 s2"))


def test_every_defining_relation_passes():
    for rel in standard_relation_instances(3):
        res = decide(rel.lhs, rel.rhs)
        assert res.verdict is Verdict.EQUAL, rel.name
        check_witness(res, rel.lhs, rel.rhs)


def test_permutation_mismatch_is_unequal():
    res = decide(w("s1", 2), w("", 2))
    assert res.verdict is Verdict.UNEQUAL
    assert res.reason == "strand permutations differ"
    assert res.witness is None


def test_exponent_mismatch_is_unequal():
    res = decide(w("s1 s1", 2), w("", 2))
    assert res.verdict is Verdict.UNEQUAL
    assert res.reason == "signed exponent sums differ"


def test_pair_count_mismatch_is_unequal():
    res = decide(w("s1 s1 S2 S2"), w(""))
    assert res.verdict is Verdict.UNEQUAL
    assert res.reason == "signed pair counts differ"


def test_sigma_and_tau_crossings_differ():
    res = decide(w("s1", 2), w("t1", 2))
    assert res.verdict is Verdict.UNEQUAL


def test_strand_count_mismatch_raises():
    with pytest.raises(DomainError):
        decide(w("s1", 2), w("s1", 3))


def test_fusing_words_are_accepted():
    res = decide(parse_fusing_word("m[1,2] m[1,3] m[2,3]", 3),
                 parse_fusing_word("m[2,3] m[1,3] m[1,2]", 3))
    assert res.verdict is Verdict.EQUAL


def test_tiny_bounds_give_unknown_not_unequal():
    res = decide(w("s1 s2 S1"), w("S2 s1 s2"),
                 max_nodes=1, budget=1)
    assert res.verdict is Verdict.UNKNOWN
    assert res.witness is None
    full = decide(w("s1 s2 S1"), w("S2 s1 s2"))
    assert full.verdict is Verdict.EQUAL
    check_witness(full, w("s1 s2 S1"), w("S2 s1 s2"))


def test_normal_form_round_trip_decides_equal():
    rng = random.Random(11)
    for _ in range(15):
        text = " ".join(rng.choice("sStTv") + str(rng.randint(1, 2))
                        for _ in range(rng.randint(0, 8)))
        word = w(text)
        back = recompose(normal_form(word))
        res = decide(back, word)
        assert res.verdict is Verdict.EQUAL, text
        check_witness(res, back, word)


def test_round_trip_missed_by_the_probe_answers_on_a_normal_form_rung():
    # From the round-trip acceptance corpus (seed 20240822): the rebuilt
    # word is not within a small crossing-level search of the original.
    word = w("s1 s2")
    back = recompose(normal_form(word))
    ru, rv = free_reduce(back).codes, free_reduce(word).codes
    assert tiered_chain(ru, rv, standard_moves(3),
                        max_len=len(ru) + len(rv) + 4,
                        max_nodes=SMALL_SEARCH_NODES) is None
    res = decide(back, word)
    assert res.verdict is Verdict.EQUAL
    assert res.reason == "sweep meets the other side's normal form"
    check_witness(res, back, word)


def test_normal_forms_agree_when_a_trace_ends_unreduced():
    # Both flattened normal forms end in a cancelling pair, so each
    # trace ends two letters longer than the form the rung compares.
    u = w("s2 v2 v1 s1 v2 v1 t1 v2")
    v = w("v2 v1 t1 v2 v1 s1 s2 v2")
    res = decide(u, v)
    assert res.reason == "normal forms agree"
    check_witness(res, u, v)


def test_direct_search_reports_the_probe_bound():
    assert SMALL_SEARCH_NODES == 1_000
    res = decide(w("s1 s2 s1"), w("s2 s1 s2"))
    assert res.reason == "found by direct search"
    assert res.bounds["max_nodes"] == SMALL_SEARCH_NODES
    capped = decide(w("s1 s2 s1"), w("s2 s1 s2"), max_nodes=500)
    assert capped.bounds["max_nodes"] == 500


def test_a_lift_that_does_not_close_is_a_certificate_error(monkeypatch):
    lift = CertStore.lift_fusing_chain

    def broken(self, chain):
        lifted = lift(self, chain)
        return Chain(lifted.start, lifted.steps[:-1])

    u, v = w("v1 s2 v1"), w("v2 s1 v2")
    assert decide(u, v).reason == "pure parts freely equal"
    monkeypatch.setattr(CertStore, "lift_fusing_chain", broken)
    with pytest.raises(CertificateError, match="does not close"):
        decide(u, v)


def test_to_json_shape():
    res = decide(w("s1 s2 s1"), w("s2 s1 s2"))
    data = res.to_json()
    assert data["schema"] == 1
    assert data["status"] == "Equal"
    assert data["strands"] == 3
    assert data["witness_steps"] == len(res.witness.steps)
    assert data["witness"]["start"].split()[0] == "s1"
    step = data["witness"]["steps"][0]
    assert set(step) == {"pos", "lhs", "rhs"}
    hidden = res.to_json(include_witness=False)
    assert hidden["witness"] is None
    assert hidden["witness_steps"] == data["witness_steps"]


def test_unequal_to_json_has_no_witness():
    data = decide(w("s1", 2), w("t1", 2)).to_json()
    assert data["status"] == "Unequal"
    assert data["witness"] is None
    assert data["witness_steps"] == 0
