import pytest
from hypothesis import given, settings, strategies as st

from braidforge import (NotPureError, Verdict, coset_map, decide,
                        expand_fusing, format_braid_word, format_fusing_word,
                        parse_braid_word, permutation_of, rewrite_R,
                        schreier_representative, schreier_system,
                        to_pure_times_coset, transposition)
from braidforge.schreier import derive_pure_relations, nontrivial_canonical_pairs
from braidforge.words import Kind


def test_transversal_sizes():
    for n, size in ((2, 2), (3, 6), (4, 24), (5, 120)):
        assert len(schreier_system(n)) == size


def test_representatives_cover_every_permutation_once():
    for n in (2, 3, 4):
        images = {permutation_of(rep.braid_word).images
                  for rep in schreier_system(n)}
        assert len(images) == len(schreier_system(n))


def test_representative_lookup_inverts_permutation_of():
    for n in (3, 4):
        for rep in schreier_system(n):
            again = schreier_representative(permutation_of(rep.braid_word), n)
            assert again == rep


def test_prefixes_of_representatives_are_representatives():
    codes = {rep.braid_word.codes for rep in schreier_system(4)}
    for rep in schreier_system(4):
        word = rep.braid_word
        for cut in range(len(word.codes) + 1):
            assert word.codes[:cut] in codes


def test_coset_map_examples():
    assert format_braid_word(
        coset_map(parse_braid_word("s1 v2 t1", 3)).braid_word) == "v1 v2 v1"
    assert format_braid_word(
        coset_map(parse_braid_word("s1 t1", 2)).braid_word) == ""
    assert format_braid_word(
        coset_map(parse_braid_word("v2 v1", 3)).braid_word) == "v2 v1"


def test_schreier_generator_expansion_is_the_defining_word():
    """The generator for (representative, letter) is rep * letter * rep'
    with rep' the representative of the combined coset: the sweep of
    rep * letter has that single letter as its pure part, and its
    expansion must be that exact group element."""
    from braidforge import concat_words, invert_word

    for n in (2, 3):
        for coset in schreier_system(n):
            for kind in "st":
                for i in range(1, n):
                    lam = coset.braid_word
                    full = concat_words(lam, parse_braid_word(f"{kind}{i}", n))
                    gen = to_pure_times_coset(full).pure
                    assert len(gen.letters) == 1
                    tail = coset_map(full).braid_word
                    target = concat_words(full, invert_word(tail))
                    res = decide(expand_fusing(gen), target)
                    assert res.verdict is Verdict.EQUAL

    lam = schreier_representative(transposition(3, 1, 2), 3).braid_word
    assert format_fusing_word(to_pure_times_coset(
        concat_words(lam, parse_braid_word("s1", 3))).pure) == "m[2,1]"
    assert format_fusing_word(to_pure_times_coset(
        parse_braid_word("t2", 3)).pure) == "g[2,3]"


def test_rewrite_R_frozen_examples():
    assert format_fusing_word(
        rewrite_R(parse_braid_word("s1 t1", 2))) == "m[1,2] g[2,1]"
    assert format_fusing_word(
        rewrite_R(parse_braid_word("S1 s1", 2))) == ""
    assert format_fusing_word(
        rewrite_R(parse_braid_word("v1 s2 t2 v1", 3))) == "m[1,3] g[3,1]"


def test_rewrite_R_requires_purity():
    with pytest.raises(NotPureError) as exc:
        rewrite_R(parse_braid_word("s1 s2 s1", 3))
    assert exc.value.permutation is not None
    assert not exc.value.permutation.is_identity()


def test_sweep_images_of_relation_sides():
    """The core computation: both sides of the three-crossing exchange
    sweep to reversed products over the same strand pairs."""
    dec = to_pure_times_coset(parse_braid_word("s1 s2 s1", 3))
    assert format_fusing_word(dec.pure) == "m[1,2] m[1,3] m[2,3]"
    dec2 = to_pure_times_coset(parse_braid_word("s2 s1 s2", 3))
    assert format_fusing_word(dec2.pure) == "m[2,3] m[1,3] m[1,2]"
    assert dec.coset == dec2.coset
    dec3 = to_pure_times_coset(parse_braid_word("t2 s1 s2", 3))
    assert format_fusing_word(dec3.pure) == "g[2,3] m[1,3] m[1,2]"
    dec4 = to_pure_times_coset(parse_braid_word("S1", 2))
    assert format_fusing_word(dec4.pure) == "M[2,1]"


def token(n):
    kinds = st.sampled_from(["s", "S", "t", "T", "v"])
    idx = st.integers(min_value=1, max_value=n - 1)
    return st.tuples(kinds, idx).map(lambda p: f"{p[0]}{p[1]}")


@settings(max_examples=40, deadline=None)
@given(st.lists(token(3), max_size=8))
def test_rewrite_round_trip_is_oracle_equal(tokens):
    """expand(R(w)) must be the same group element as any pure w."""
    w = parse_braid_word(" ".join(tokens), 3)
    if not permutation_of(w).is_identity():
        w = parse_braid_word(" ".join(tokens + tokens), 3)
        if not permutation_of(w).is_identity():
            return
    res = decide(expand_fusing(rewrite_R(w)), w)
    assert res.verdict is Verdict.EQUAL


def test_derived_relation_frozen_example():
    """Conjugating the mixed exchange by the identity coset gives the
    reversed-product pair on the fusing side."""
    for rel in derive_pure_relations(3):
        if (rel.base_name == "singular braid (1,2)"
                and not rel.coset.blocks):
            assert format_fusing_word(rel.lhs) == "m[1,2] m[1,3] g[2,3]"
            assert format_fusing_word(rel.rhs) == "g[2,3] m[1,3] m[1,2]"
            assert not rel.trivial
            break
    else:
        pytest.fail("expected derivation not found")


def test_derived_relation_counts():
    assert len(nontrivial_canonical_pairs(3)) == 24
    assert len(nontrivial_canonical_pairs(4)) == 132


def test_trivial_derivations_come_only_from_virtual_relations():
    for rel in derive_pure_relations(3):
        has_v = any(l.kind is Kind.V for w in (rel.base_lhs, rel.base_rhs)
                    for l in w.letters)
        assert rel.trivial == has_v, rel.base_name
