import itertools

import pytest
from hypothesis import given, strategies as st

from braidforge import (DomainError, Permutation, format_permutation,
                        identity_permutation, parse_braid_word,
                        permutation_of, transposition)


def test_images_validated():
    with pytest.raises(DomainError):
        Permutation((1, 1, 3))


def test_permutation_of_reads_left_to_right():
    w = parse_braid_word("v1 v2", 3)
    perm = permutation_of(w)
    assert perm(1) == 3  # v1 sends 1 to 2, then v2 sends 2 to 3
    assert perm(2) == 1
    assert perm(3) == 2


def test_permutation_of_frozen_example():
    assert format_permutation(permutation_of(parse_braid_word("s1 v2 t1", 3))) == "(1 3)"


def test_sigma_tau_and_v_all_transpose():
    for text in ("s1", "S1", "t1", "T1", "v1"):
        assert permutation_of(parse_braid_word(text, 2)) == transposition(2, 1, 2)


def test_pure_words_have_identity_image():
    for text in ("", "s1 S1", "v1 v1", "s1 v1 t1 v1"):
        assert permutation_of(parse_braid_word(text, 3)).is_identity()


def perms(n):
    return st.permutations(range(1, n + 1)).map(
        lambda images: Permutation(tuple(images)))


@given(perms(5))
def test_inverse_composes_to_identity(p):
    inv = p.inverse()
    for x in range(1, 6):
        assert inv(p(x)) == x
        assert p(inv(x)) == x


def token(n):
    kinds = st.sampled_from(["s", "S", "t", "T", "v"])
    idx = st.integers(min_value=1, max_value=n - 1)
    return st.tuples(kinds, idx).map(lambda p: f"{p[0]}{p[1]}")


def words(n, max_size=10):
    return st.lists(token(n), max_size=max_size).map(
        lambda toks: parse_braid_word(" ".join(toks), n))


@given(words(4), words(4))
def test_permutation_of_is_multiplicative(u, v):
    from braidforge import concat_words

    pu, pv, puv = (permutation_of(u), permutation_of(v),
                   permutation_of(concat_words(u, v)))
    for x in range(1, 5):
        assert puv(x) == pv(pu(x))


def test_format_permutation_cycles():
    assert format_permutation(identity_permutation(4)) == "()"
    assert format_permutation(Permutation((2, 3, 1))) == "(1 2 3)"
    assert format_permutation(Permutation((2, 1, 4, 3))) == "(1 2)(3 4)"


def test_all_of_s4_reachable():
    seen = set()
    for length in range(0, 7):
        for combo in itertools.product(["v1", "v2", "v3"], repeat=length):
            seen.add(permutation_of(parse_braid_word(" ".join(combo), 4)).images)
        if len(seen) == 24:
            break
    assert len(seen) == 24
