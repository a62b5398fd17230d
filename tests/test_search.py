import pytest

from braidforge import (CertificateError, parse_braid_word,
                        parse_fusing_word, validate_chain)
from braidforge.chains import chain_end
from braidforge.fusing import fusing_alphabet
from braidforge.relations import MoveTable, fusing_moves, standard_moves
from braidforge.search import _edges, _EdgeSet, bfs_chain, tiered_chain

TABLE = standard_moves(3)


def codes(text):
    return parse_braid_word(text, 3).codes


def test_braid_relation_found_at_distance_one():
    chain = bfs_chain(codes("s1 s2 s1"), codes("s2 s1 s2"), TABLE,
                      max_len=10, max_nodes=1000)
    assert chain is not None
    assert validate_chain(chain, TABLE) == codes("s2 s1 s2")
    assert len(chain.steps) == 1


def test_trivial_goal_needs_no_steps():
    chain = bfs_chain(codes("s1 v2"), codes("s1 v2"), TABLE,
                      max_len=10, max_nodes=10)
    assert chain is not None
    assert chain.steps == ()


def test_reduction_only_chains():
    """Start and goal that agree after free cancellation connect without
    touching the relation table."""
    chain = bfs_chain(codes("s1 S1 v2"), codes("v2 t1 T1"), TABLE,
                      max_len=10, max_nodes=10)
    assert chain is not None
    assert validate_chain(chain, TABLE) == codes("v2 t1 T1")


def test_far_apart_words_return_none():
    assert bfs_chain(codes("s1"), codes("t1"), TABLE,
                     max_len=6, max_nodes=5000) is None


def test_node_budget_cuts_off():
    assert bfs_chain(codes("s1 s2 s1 s1 s2 s1"),
                     codes("s2 s1 s2 s2 s1 s2"), TABLE,
                     max_len=8, max_nodes=3) is None


def test_multi_step_detour():
    """v2 s1 v2 has no direct move to v1 s2 v1; the path goes through a
    conjugation relation on each side."""
    chain = bfs_chain(codes("v1 v2 s1 v2 v1"), codes("s2"), TABLE,
                      max_len=8, max_nodes=100000)
    assert chain is not None
    assert validate_chain(chain, TABLE) == codes("s2")


def test_split_tier_reaches_what_plain_moves_miss():
    """Substituting into the middle of an inverse pair needs the split
    edge set; the plain tier cannot see the overlap."""
    fus = fusing_moves(3)
    alph = fusing_alphabet(3)

    def f(text):
        return alph.encode(parse_fusing_word(text, 3))

    start = f("M[3,2] M[1,2] m[3,1] m[3,2]")
    goal = f("m[3,1] M[1,2]")
    assert bfs_chain(start, goal, fus, max_len=8, max_nodes=200000,
                     split=False) is None
    chain = bfs_chain(start, goal, fus, max_len=8, max_nodes=200000,
                      split=True)
    assert chain is not None
    assert validate_chain(chain, fus) == goal


def test_tiered_chain_falls_through_to_split():
    fus = fusing_moves(3)
    alph = fusing_alphabet(3)
    start = alph.encode(parse_fusing_word("M[3,2] M[1,2] m[3,1] m[3,2]", 3))
    goal = alph.encode(parse_fusing_word("m[3,1] M[1,2]", 3))
    chain = tiered_chain(start, goal, fus, max_len=8, max_nodes=200000)
    assert chain is not None
    assert chain_end(chain) == goal


def test_tiered_chain_require_raises():
    with pytest.raises(CertificateError):
        tiered_chain(codes("s1"), codes("t1"), TABLE,
                     max_len=6, max_nodes=2000, require=True)


def test_chains_start_at_the_unreduced_input():
    """Callers hand in raw code strings; the chain must be anchored there,
    not at the reduced form the search actually walks."""
    raw = codes("s1 S1 s1 s2 s1")
    chain = bfs_chain(raw, codes("s2 s1 s2"), TABLE,
                      max_len=10, max_nodes=1000)
    assert chain is not None
    assert chain.start == raw
    assert validate_chain(chain, TABLE) == codes("s2 s1 s2")


def test_equal_rebuilt_table_shares_its_edge_set():
    rebuilt = standard_moves.__wrapped__(3)
    assert rebuilt is not TABLE and rebuilt == TABLE
    assert rebuilt.patterns is not TABLE.patterns
    for split in (False, True):
        assert _edges(rebuilt, split) is _edges(TABLE, split)
    assert _edges(TABLE, True) is not _edges(TABLE, False)


def test_edge_set_rejects_an_unreduced_replacement():
    inv = TABLE.inverse_table
    s1, s1_inv = codes("s1"), codes("S1")
    bad = MoveTable((s1,), (codes("s2") + s1 + s1_inv,), inv, frozenset())
    with pytest.raises(CertificateError, match="not freely reduced"):
        _EdgeSet(bad, False)
