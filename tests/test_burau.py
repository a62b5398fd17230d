import json

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import (BraidWord, CertificateError, Verdict, decide,
                        normal_form, parse_braid_word, recompose,
                        validate_chain, validate_unequal)
from braidforge import burau
from braidforge.burau import PARAMS, BurauParams, UnequalCertificate, image
from braidforge.chains import Builder
from braidforge.cli import run
from braidforge.relations import standard_moves, standard_relation_instances


def w(text, n=3):
    return parse_braid_word(text, n)


def token(n):
    kinds = st.sampled_from(["s", "S", "t", "T", "v"])
    idx = st.integers(min_value=1, max_value=n - 1)
    return st.tuples(kinds, idx).map(lambda p: f"{p[0]}{p[1]}")


def words(n, max_size):
    return st.lists(token(n), max_size=max_size).map(
        lambda toks: parse_braid_word(" ".join(toks), n))


# -- soundness: nothing the oracle certifies Equal is ever separated ----

def test_every_defining_relation_has_equal_images():
    for n in range(2, 6):
        assert burau.relations_hold(n, PARAMS)
        for rel in standard_relation_instances(n):
            assert image(rel.lhs) == image(rel.rhs), (n, rel.name)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=5).flatmap(
    lambda n: words(n, max_size=10)))
def test_normal_form_round_trips_have_equal_images(word):
    assert image(recompose(normal_form(word))) == image(word)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_defining_moves_never_separate(data):
    n = data.draw(st.sampled_from((3, 4)))
    table = standard_moves(n)
    inv = table.inverse_table
    codes = [8 * (i - 1) + off for i in range(1, n) for off in range(5)]
    start = data.draw(words(n, max_size=6)).codes
    bld = Builder(start, inv)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        word = bld.word
        hits = [(pos, lhs, rhs)
                for lhs, rhs in zip(table.patterns, table.replacements)
                for pos in range(len(word) - len(lhs) + 1)
                if word.startswith(lhs, pos)]
        k = data.draw(st.integers(min_value=0, max_value=len(hits)))
        if k < len(hits):
            bld.splice(*hits[k])
        else:
            code = data.draw(st.sampled_from(codes))
            pos = data.draw(st.integers(min_value=0, max_value=len(word)))
            bld.splice(pos, b"", bytes((code, inv[code])))
    assert validate_chain(bld.chain(), table) == bld.word
    assert image(BraidWord(n, start)) == image(BraidWord(n, bld.word))


# -- certificates --------------------------------------------------------

FIXED = (w("s1 s1 s2 s2"), w("s2 s2 s1 s1"))


def fixed_certificate():
    res = decide(*FIXED)
    assert res.verdict is Verdict.UNEQUAL
    assert res.reason == "twisted Burau images differ"
    assert res.witness is None
    return res.certificate


def test_oracle_certificate_validates():
    cert = fixed_certificate()
    assert cert.params == PARAMS
    assert cert.strands == 3
    validate_unequal(cert, *FIXED)


def test_forbidden_relation_is_separated_only_with_the_twist():
    u, v = w("v1 s2 s1"), w("s2 s1 v2")
    assert image(u) != image(v)
    untwisted = PARAMS._replace(q=1)
    assert burau.relations_hold(3, untwisted)
    assert image(u, untwisted) == image(v, untwisted)


def test_edited_image_entry_is_rejected():
    cert = fixed_certificate()
    rows = [list(row) for row in cert.left]
    rows[0][0] = (rows[0][0] + 1) % PARAMS.p
    bad = cert._replace(left=tuple(map(tuple, rows)))
    with pytest.raises(CertificateError, match="left image"):
        validate_unequal(bad, *FIXED)


def test_equal_images_are_rejected():
    u, v = w("s1 s2 s1"), w("s2 s1 s2")
    cert = UnequalCertificate(PARAMS, image(u), image(v))
    with pytest.raises(CertificateError, match="images are equal"):
        validate_unequal(cert, u, v)


def test_alpha_plus_beta_zero_is_rejected():
    cert = fixed_certificate()
    params = PARAMS._replace(beta=PARAMS.p - PARAMS.alpha)
    with pytest.raises(CertificateError, match="alpha \\+ beta"):
        validate_unequal(cert._replace(params=params), *FIXED)


def test_certificate_for_another_pair_is_rejected():
    cert = fixed_certificate()
    with pytest.raises(CertificateError):
        validate_unequal(cert, w("s1 s1 s2 s2"), w("s2 s1 s1 s2"))
    with pytest.raises(CertificateError):
        validate_unequal(cert, FIXED[1], FIXED[0])
    with pytest.raises(CertificateError):
        validate_unequal(cert, w("s1 s1 s2 s2", 4), w("s2 s2 s1 s1", 4))


def test_equal_images_continue_the_ladder():
    res = decide(w("s1 s2 s1"), w("s2 s1 s2"))
    assert res.verdict is Verdict.EQUAL
    assert res.certificate is None
    assert res.to_json()["certificate"] is None


def test_to_json_carries_the_certificate():
    res = decide(*FIXED)
    data = res.to_json(include_witness=False)
    cert = data["certificate"]
    assert cert["p"] == PARAMS.p
    assert cert["left"] == [list(row) for row in res.certificate.left]
    assert cert["right"] == [list(row) for row in res.certificate.right]
    assert cert["left"] != cert["right"]
    assert json.loads(json.dumps(data)) == data


@pytest.fixture
def broken_tau(monkeypatch):
    """The singular crossing mapped to the virtual block: t t^-1 = 1
    still holds, the twist s t = t s does not."""
    blocks = burau._blocks

    def broken(params: BurauParams):
        sigma, sigma_inv, _, _, virtual = blocks(params)
        return (sigma, sigma_inv, virtual, virtual, virtual)

    burau.relations_hold.cache_clear()
    monkeypatch.setattr(burau, "_blocks", broken)
    yield
    monkeypatch.undo()
    burau.relations_hold.cache_clear()


def test_a_failing_relation_is_a_certificate_error(broken_tau):
    with pytest.raises(CertificateError, match="twist"):
        decide(*FIXED)


def test_a_failing_relation_exits_4(broken_tau, capsys):
    assert run(["decide", "-n", "3", "s1 s1 s2 s2", "s2 s2 s1 s1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("braidforge: internal error: ")
