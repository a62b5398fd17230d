import random

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import (DomainError, ResourceBoundError, Verdict, decide,
                        flatten, format_normal_form, normal_form,
                        parse_braid_word, parse_fusing_word,
                        parse_normal_form, recompose, to_pure_times_coset)
from braidforge.certs import get_store
from braidforge.chains import validate_chain
from braidforge.decomposition import (ConjugatedLetter, Layer,
                                      LayeredNormalForm, conjugate_letter,
                                      _traced_normal_form, pair_counts)
from braidforge.errors import BraidSyntaxError
from braidforge.fusing import Family, FusingLetter, _sweep_raw
from braidforge.relations import pure_relation_instances


def test_levels_are_one_below_the_larger_strand():
    assert FusingLetter(Family.MU, 1, 2).level == 1
    assert FusingLetter(Family.MU, 1, 3).level == 2
    assert FusingLetter(Family.GAMMA, 2, 3).level == 2
    assert FusingLetter(Family.GAMMA, 1, 4).level == 3


def test_normal_form_frozen_example():
    nf = normal_form(parse_fusing_word("m[1,2] m[1,3]", 3))
    assert format_normal_form(nf) == (
        "w2: M[3,2] m[1,3] m[3,2]^[M[1,2]]\n"
        "w1: m[1,2]\n"
        "coset:")


def test_normal_form_is_deterministic():
    w = parse_braid_word("s1 t2 S1 v1 s2", 3)
    assert normal_form(w) == normal_form(w)


def test_layers_run_high_to_low_and_letters_match_their_layer():
    nf = normal_form(parse_braid_word("s1 t2 v1 s2 S1", 3))
    assert [layer.level for layer in nf.layers] == [2, 1]
    for layer in nf.layers:
        for cl in layer.letters:
            assert cl.level == layer.level
            for c in cl.conjugator:
                assert c.level < cl.level


def test_recompose_round_trips_through_the_oracle():
    for text in ("s1 s2 s1", "t1 v2 S1", "v1 t2 s1 S2"):
        w = parse_braid_word(text, 3)
        back = recompose(normal_form(w))
        res = decide(back, w)
        assert res.verdict is Verdict.EQUAL, text


def test_conjugation_rule_frozen_case():
    cl = ConjugatedLetter(FusingLetter(Family.MU, 1, 3))
    out = conjugate_letter(cl, FusingLetter(Family.MU, 1, 2))
    assert [str(r) for r in out] == ["m[3,2]^[m[1,2]]", "m[1,3]", "M[3,2]"]


def test_conjugated_letter_validation():
    with pytest.raises(DomainError):
        ConjugatedLetter(FusingLetter(Family.MU, 1, 2, -1))
    with pytest.raises(DomainError):
        ConjugatedLetter(FusingLetter(Family.MU, 1, 3), 1,
                         (FusingLetter(Family.GAMMA, 1, 3),))
    with pytest.raises(DomainError):
        # ascending m never keeps a conjugator; the rule table absorbs it
        ConjugatedLetter(FusingLetter(Family.MU, 1, 3), 1,
                         (FusingLetter(Family.MU, 1, 2),))


def test_conjugated_letter_flat_spelling():
    cl = ConjugatedLetter(FusingLetter(Family.GAMMA, 1, 3), -1,
                          (FusingLetter(Family.MU, 1, 2),))
    assert str(cl) == "G[1,3]^[m[1,2]]"
    assert cl.flat() == (FusingLetter(Family.MU, 1, 2, -1),
                        FusingLetter(Family.GAMMA, 1, 3, -1),
                        FusingLetter(Family.MU, 1, 2))
    assert cl.inverse().flat() == (FusingLetter(Family.MU, 1, 2, -1),
                                   FusingLetter(Family.GAMMA, 1, 3),
                                   FusingLetter(Family.MU, 1, 2))


def test_layer_validation():
    with pytest.raises(DomainError):
        Layer(2, (ConjugatedLetter(FusingLetter(Family.MU, 1, 2)),))
    cl = ConjugatedLetter(FusingLetter(Family.MU, 3, 1))
    with pytest.raises(DomainError):
        Layer(2, (cl, cl.inverse()))


def test_layer_order_is_enforced():
    nf = normal_form(parse_braid_word("s1 s2", 3))
    with pytest.raises(DomainError):
        LayeredNormalForm(3, tuple(reversed(nf.layers)), nf.coset)


def test_pair_counts_examples():
    assert pair_counts(parse_fusing_word("m[1,2] M[1,2]", 3)) == {}
    assert pair_counts(parse_braid_word("s1 v2 t1", 3)) == {
        ((1, 2), Family.MU): 1,
        ((2, 3), Family.GAMMA): 1,
    }
    with pytest.raises(DomainError):
        pair_counts("not a word")


def test_pair_counts_invariant_under_pure_relations():
    for rel in pure_relation_instances(3):
        assert pair_counts(rel.lhs) == pair_counts(rel.rhs)


def test_pair_counts_match_between_word_and_normal_form():
    rng = random.Random(3)
    for _ in range(20):
        text = " ".join(rng.choice("sStTv") + str(rng.randint(1, 2))
                        for _ in range(rng.randint(0, 10)))
        w = parse_braid_word(text, 3)
        assert pair_counts(w) == pair_counts(normal_form(w))


def token(n):
    return st.tuples(st.sampled_from(["s", "S", "t", "T", "v"]),
                     st.integers(1, n - 1)).map(lambda p: f"{p[0]}{p[1]}")


@settings(max_examples=30, deadline=None)
@given(st.lists(token(3), max_size=8))
def test_format_parse_round_trip(tokens):
    nf = normal_form(parse_braid_word(" ".join(tokens), 3))
    again = parse_normal_form(format_normal_form(nf), 3)
    assert again == nf


def test_parse_normal_form_rejects_non_transversal_coset():
    with pytest.raises(BraidSyntaxError):
        parse_normal_form("w2:\nw1:\ncoset: v1 v1", 3)


def test_parse_normal_form_rejects_garbage():
    with pytest.raises(BraidSyntaxError):
        parse_normal_form("w9000: what\ncoset:", 3)


def test_budget_bounds_the_rewriting():
    w = parse_braid_word("s1 s2 s1 t2 S1 v2 s1 t1 S2", 3)
    with pytest.raises(ResourceBoundError):
        normal_form(w, budget=1)
    normal_form(w, budget=100000)


def test_traced_normal_form_rewrites_the_pure_part_into_its_normal_form():
    rng = random.Random(5)
    cases = [(3, rng.randint(0, 8)) for _ in range(25)]
    cases += [(4, rng.randint(1, 5)) for _ in range(3)]
    for n, length in cases:
        text = " ".join(rng.choice("sStTv") + str(rng.randint(1, n - 1))
                        for _ in range(length))
        w = parse_braid_word(text, n)
        store = get_store(n)
        pure, _ = _sweep_raw(w)
        chain = _traced_normal_form(pure, store)
        assert chain.start == store.enc(pure.letters), text
        assert validate_chain(chain, store.fus) == store.enc(
            flatten(normal_form(w)).letters), text


def test_traced_normal_form_keeps_the_budget():
    w = parse_braid_word("s1 s2 s1 t2 S1 v2 s1 t1 S2", 3)
    with pytest.raises(ResourceBoundError):
        _traced_normal_form(_sweep_raw(w)[0], get_store(3), budget=1)


def test_flatten_multiplies_layers_in_order():
    nf = normal_form(parse_fusing_word("m[1,2] m[1,3]", 3))
    flat = flatten(nf)
    texts = [str(l) for l in flat.letters]
    assert texts == ["M[3,2]", "m[1,3]", "m[1,2]", "m[3,2]", "M[1,2]",
                     "m[1,2]"]
