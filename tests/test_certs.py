import random

import pytest

from braidforge import (CertificateError, parse_braid_word, parse_fusing_word,
                        to_pure_times_coset, validate_chain)
from braidforge.certs import get_store
from braidforge.decomposition import (ConjugatedLetter, _twist_rewrite,
                                      conjugate_letter)
from braidforge.fusing import Family, FusingLetter
from braidforge.search import tiered_chain

STORE = get_store(3)


def all_letters(n=3):
    out = []
    for fam in (Family.MU, Family.GAMMA):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for e in (1, -1):
                    out.append(FusingLetter(fam, i, j, e))
    return out


def test_get_store_is_cached_per_strand_count():
    assert get_store(3) is STORE
    assert get_store(4) is not STORE


def test_certified_sweep_agrees_with_the_plain_sweep():
    for text in ("s1 s2 s1", "t2 s1 s2", "S1 v1 t2", "v1 v2", "s1 S1", ""):
        w = parse_braid_word(text, 3)
        chain, pure, coset = STORE.certified_sweep(w)
        dec = to_pure_times_coset(w)
        assert coset == dec.coset
        assert chain.start == w.codes
        end = validate_chain(chain, STORE.std)
        assert end == STORE.rho_word(pure.letters) + coset.braid_word.codes


def test_certified_sweep_random_words():
    rng = random.Random(7)
    for _ in range(25):
        text = " ".join(
            rng.choice("sStTv") + str(rng.randint(1, 2))
            for _ in range(rng.randint(0, 10)))
        w = parse_braid_word(text, 3)
        chain, pure, coset = STORE.certified_sweep(w)
        end = validate_chain(chain, STORE.std)
        assert end == STORE.rho_word(pure.letters) + coset.braid_word.codes


def test_every_fusing_substitution_has_a_crossing_certificate():
    fus = STORE.fus
    seen = 0
    for a, b in zip(fus.patterns, fus.replacements):
        if not a or not b:
            continue
        lhs = tuple(STORE.alph.letters[c] for c in a)
        rhs = tuple(STORE.alph.letters[c] for c in b)
        chain = STORE.fusing_step_cert(lhs, rhs)
        assert chain.start == STORE.rho_word(lhs)
        assert validate_chain(chain, STORE.std) == STORE.rho_word(rhs)
        seen += 1
    assert seen > 0


def test_fusing_step_cert_rejects_non_relations():
    lhs = (FusingLetter(Family.MU, 1, 2),)
    rhs = (FusingLetter(Family.GAMMA, 1, 2),)
    with pytest.raises(CertificateError):
        STORE.fusing_step_cert(lhs, rhs)


def test_lift_fusing_chain_round_trip():
    start_w = parse_fusing_word("m[1,2] m[1,3] g[2,3]", 3)
    goal_w = parse_fusing_word("g[2,3] m[1,3] m[1,2]", 3)
    start = STORE.enc(start_w.letters)
    goal = STORE.enc(goal_w.letters)
    fchain = tiered_chain(start, goal, STORE.fus, max_len=7,
                          max_nodes=200000, require=True)
    lifted = STORE.lift_fusing_chain(fchain)
    assert lifted.start == STORE.rho_word(start_w.letters)
    assert validate_chain(lifted, STORE.std) == STORE.rho_word(goal_w.letters)


def test_lift_covers_cancellations_and_insertions():
    """A fusing chain that only cancels an inverse pair lifts to plain
    free reduction of the expansions."""
    from braidforge.chains import Chain, Step

    letters = parse_fusing_word("g[1,3] G[1,3]", 3).letters
    start = STORE.enc(letters)
    fchain = Chain(start, (Step(0, start, b""),))
    validate_chain(fchain, STORE.fus)
    lifted = STORE.lift_fusing_chain(fchain)
    assert validate_chain(lifted, STORE.std) == b""


def test_reduce_lift_tracks_free_reduction():
    letters = parse_fusing_word("m[1,2] M[1,2] g[2,3]", 3).letters
    chain, remaining = STORE.reduce_lift(letters)
    assert remaining == parse_fusing_word("g[2,3]", 3).letters
    assert chain.start == STORE.rho_word(letters)
    assert validate_chain(chain, STORE.std) == STORE.rho_word(remaining)


def test_transport_block_pushes_a_letter_through_virtuals():
    block = parse_braid_word("v2 v1", 3).codes
    g = FusingLetter(Family.MU, 1, 2)
    chain, image = STORE.transport_block(block, g)
    assert chain.start == block + STORE.rho(g)
    assert validate_chain(chain, STORE.std) == STORE.rho(image) + block


def test_v_word_chain_connects_equal_virtual_words():
    a = parse_braid_word("v1 v2 v1", 3).codes
    b = parse_braid_word("v2 v1 v2", 3).codes
    chain = STORE.v_word_chain(a, b)
    assert chain.start == a
    assert validate_chain(chain, STORE.std) == b


def test_conjugation_macros_certify_and_match_the_rule_table():
    checked = 0
    for base in all_letters():
        if base.exponent != 1:
            continue
        for exp in (1, -1):
            cl = ConjugatedLetter(base, exp, ())
            for y in all_letters():
                if y.level >= cl.level:
                    continue
                result = conjugate_letter(cl, y)
                goal = STORE.enc(
                    tuple(l for r in result for l in r.flat()))
                chain = STORE.conj_chain(cl, y)
                assert chain.start == STORE.enc(
                    (y.inverse(),) + cl.flat() + (y,))
                assert validate_chain(chain, STORE.fus) == goal
                checked += 1
    assert checked == 128


def test_twist_macros_certify_all_redexes():
    found = 0
    for a in all_letters():
        for b in all_letters():
            new = _twist_rewrite(a, b)
            if new is None:
                continue
            chain = STORE.twist_chain(a, b)
            assert chain.start == STORE.enc((a, b))
            assert validate_chain(chain, STORE.fus) == STORE.enc(new)
            found += 1
    assert found == 24


def test_twist_chain_rejects_non_redexes():
    with pytest.raises(CertificateError):
        STORE.twist_chain(FusingLetter(Family.MU, 1, 2),
                          FusingLetter(Family.MU, 2, 1))
