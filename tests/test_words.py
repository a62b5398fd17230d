import pytest
from hypothesis import given, strategies as st

from braidforge import (BraidSyntaxError, BraidWord, IndexRangeError, Kind,
                        concat_words, exponent_invariants, format_braid_word,
                        free_reduce, invert_word, parse_braid_word)


def test_parse_tokens():
    w = parse_braid_word("s1 v2 T1", 3)
    letters = list(w.letters)
    assert [(l.kind, l.index, l.exponent) for l in letters] == [
        (Kind.SIGMA, 1, 1), (Kind.V, 2, 1), (Kind.TAU, 1, -1)]


def test_parse_empty_is_identity():
    w = parse_braid_word("", 4)
    assert len(w.codes) == 0
    assert format_braid_word(w) == ""


def test_format_round_trip():
    text = "s1 v2 T1 S2 t1 v1"
    assert format_braid_word(parse_braid_word(text, 3)) == text


def test_parse_rejects_bad_tokens():
    with pytest.raises(BraidSyntaxError):
        parse_braid_word("x1", 3)
    with pytest.raises(BraidSyntaxError):
        parse_braid_word("s", 3)
    # V1 is tolerated on input since v is its own inverse, but it always
    # formats back in lowercase
    assert parse_braid_word("V1", 3) == parse_braid_word("v1", 3)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(IndexRangeError):
        parse_braid_word("s3", 3)  # needs 4 strands
    with pytest.raises(IndexRangeError):
        parse_braid_word("v0", 3)


def test_free_reduce_examples():
    assert format_braid_word(free_reduce(parse_braid_word("s1 v2 v2 S1", 3))) == ""
    assert format_braid_word(free_reduce(parse_braid_word("s1 S1 t2", 3))) == "t2"
    # v is its own inverse, sigma/tau are not
    assert format_braid_word(free_reduce(parse_braid_word("s1 s1", 2))) == "s1 s1"
    assert format_braid_word(free_reduce(parse_braid_word("t1 t1", 2))) == "t1 t1"


def test_invert_word_example():
    w = parse_braid_word("s1 v2 T1", 3)
    assert format_braid_word(invert_word(w)) == "t1 v2 S1"


def test_concat_strand_mismatch():
    with pytest.raises(Exception):
        concat_words(parse_braid_word("s1", 2), parse_braid_word("s1", 3))


def token(n):
    kinds = st.sampled_from(["s", "S", "t", "T", "v"])
    idx = st.integers(min_value=1, max_value=n - 1)
    return st.tuples(kinds, idx).map(lambda p: f"{p[0]}{p[1]}")


def words(n, max_size=12):
    return st.lists(token(n), max_size=max_size).map(
        lambda toks: parse_braid_word(" ".join(toks), n))


@given(words(4))
def test_free_reduce_idempotent(w):
    once = free_reduce(w)
    assert free_reduce(once) == once


@given(words(4))
def test_double_inverse(w):
    assert invert_word(invert_word(w)) == w


@given(words(4))
def test_word_times_inverse_reduces_away(w):
    assert free_reduce(concat_words(w, invert_word(w))).codes == b""


@given(words(4), words(4))
def test_exponent_invariants_additive(u, v):
    a = exponent_invariants(u)
    b = exponent_invariants(v)
    c = exponent_invariants(concat_words(u, v))
    assert c.sigma_sum == a.sigma_sum + b.sigma_sum
    assert c.tau_sum == a.tau_sum + b.tau_sum
    assert c.v_parity == (a.v_parity + b.v_parity) % 2


@given(words(4))
def test_free_reduce_preserves_invariants(w):
    assert exponent_invariants(free_reduce(w)) == exponent_invariants(w)


def test_exponent_invariants_example():
    inv = exponent_invariants(parse_braid_word("s1 s2 S1 t1 v2 v1 v2", 3))
    assert (inv.sigma_sum, inv.tau_sum, inv.v_parity) == (1, 1, 1)


def test_braid_word_is_hashable_value():
    a = parse_braid_word("s1 t2", 3)
    b = parse_braid_word("s1 t2", 3)
    assert a == b and hash(a) == hash(b)
    assert a != parse_braid_word("s1 t2", 4)


def test_codes_round_trip():
    w = parse_braid_word("s2 T1 v1", 3)
    assert BraidWord(3, w.codes) == w
