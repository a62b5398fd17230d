import pytest
from hypothesis import given, settings, strategies as st

from braidforge import CertificateError, Chain, Step, validate_chain
from braidforge.chains import (Builder, _rev_inv, apply_step, chain_concat,
                               chain_end, chain_invert, chain_mirror,
                               erase_loops, reduction_steps)
from braidforge.kernel import free_reduce_bytes
from braidforge.relations import standard_moves
from braidforge.words import parse_braid_word

TABLE = standard_moves(3)
INV = TABLE.inverse_table


def codes(text, n=3):
    return parse_braid_word(text, n).codes


def braid_move():
    """One oriented instance of the three-crossing exchange, as bytes."""
    return codes("s1 s2 s1"), codes("s2 s1 s2")


def test_apply_step_checks_context():
    word = codes("s1 s2 s1")
    lhs, rhs = braid_move()
    assert apply_step(word, Step(0, lhs, rhs)) == rhs
    with pytest.raises(CertificateError):
        apply_step(word, Step(1, lhs, rhs))


def test_validate_accepts_table_moves_cancellations_insertions():
    lhs, rhs = braid_move()
    word = codes("v1") + lhs + codes("v1")
    chain = Chain(word, (
        Step(1, lhs, rhs),                      # defining relation
        Step(0, b"", codes("s2 S2")),           # insertion
        Step(0, codes("s2 S2"), b""),           # cancellation
    ))
    end = validate_chain(chain, TABLE)
    assert end == codes("v1") + rhs + codes("v1")


def test_validate_rejects_non_moves():
    word = codes("s1")
    with pytest.raises(CertificateError):
        validate_chain(Chain(word, (Step(0, codes("s1"), codes("s2")),)), TABLE)
    # a non-inverse pair is not a cancellation
    with pytest.raises(CertificateError):
        validate_chain(Chain(codes("s1 s2"), (Step(0, codes("s1 s2"), b""),)),
                       TABLE)
    # out of range
    with pytest.raises(CertificateError):
        validate_chain(Chain(word, (Step(5, codes("s1"), b""),)), TABLE)


def test_cancellation_requires_inverse_on_the_right():
    # S1 s1 cancels, s1 s1 does not
    validate_chain(Chain(codes("S1 s1"), (Step(0, codes("S1 s1"), b""),)),
                   TABLE)
    with pytest.raises(CertificateError):
        validate_chain(Chain(codes("s1 s1"), (Step(0, codes("s1 s1"), b""),)),
                       TABLE)


def test_chain_invert_round_trips():
    lhs, rhs = braid_move()
    chain = Chain(lhs, (Step(0, lhs, rhs), Step(0, b"", codes("v2 v2"))))
    back = chain_invert(chain)
    assert back.start == chain_end(chain)
    assert chain_end(back) == lhs
    validate_chain(back, TABLE)


def test_chain_concat_requires_meeting_point():
    lhs, rhs = braid_move()
    first = Chain(lhs, (Step(0, lhs, rhs),))
    second = Chain(rhs, (Step(0, rhs, lhs),))
    joined = chain_concat(first, second)
    assert chain_end(joined) == lhs
    with pytest.raises(CertificateError):
        chain_concat(first, first)


def test_chain_mirror_conjugates_by_reverse_invert():
    lhs, rhs = braid_move()
    chain = Chain(lhs, (Step(0, lhs, rhs),))
    mirrored = chain_mirror(chain, INV)
    # s1 s2 s1 reversed-inverted is S1 S2 S1
    assert mirrored.start == codes("S1 S2 S1")
    assert chain_end(mirrored) == codes("S2 S1 S2")
    validate_chain(mirrored, TABLE)


def test_reduction_steps_replay_to_free_reduction():
    word = codes("s1 v2 v2 S1 t1")
    steps = reduction_steps(word, INV)
    chain = Chain(word, steps)
    assert validate_chain(chain, TABLE) == free_reduce_bytes(word, INV)
    assert chain_end(chain) == codes("t1")


def test_builder_embeds_a_chain_at_an_offset():
    lhs, rhs = braid_move()
    bld = Builder(codes("t2") + lhs + codes("v1"), INV)
    bld.embed(Chain(lhs, (Step(0, lhs, rhs),)), 1)
    assert bld.word == codes("t2") + rhs + codes("v1")
    assert bld.chain() == Chain(codes("t2") + lhs + codes("v1"),
                                (Step(1, lhs, rhs),))


def test_builder_reduce_then_expand_returns_to_the_word():
    word = codes("t1 s1 v2 v2 S1 s2")
    span = word[1:5]
    bld = Builder(word, INV)
    bld.reduce_span(1, len(span))
    assert bld.word == codes("t1 s2")
    bld.expand_span(1, span)
    assert bld.word == word
    chain = bld.chain()
    assert chain.start == word
    assert validate_chain(chain, TABLE) == word


def test_builder_expands_pairs_from_the_outside_in():
    inner = codes("s1 v2 T1")
    bld = Builder(codes("t2 t2"), INV)
    bld.expand_span(1, inner + _rev_inv(inner, INV))
    assert bld.steps == [Step(1 + t, b"", bytes((c, INV[c])))
                         for t, c in enumerate(inner)]
    assert bld.word == codes("t2") + inner + _rev_inv(inner, INV) + codes("t2")


def test_builder_rejects_a_step_that_does_not_fit():
    lhs, rhs = braid_move()
    bld = Builder(codes("t1") + lhs, INV)
    with pytest.raises(CertificateError):
        bld.splice(0, lhs, rhs)
    with pytest.raises(CertificateError):
        bld.embed(Chain(lhs, (Step(0, lhs, rhs),)), 2)
    assert bld.word == codes("t1") + lhs and bld.steps == []


def test_an_insertion_out_of_range_is_refused_where_it_is_made():
    pair = codes("s2 S2")
    word = codes("t1 v1")
    bld = Builder(word, INV)
    with pytest.raises(CertificateError, match="out of range"):
        bld.splice(7, b"", pair)
    assert bld.word == word and bld.steps == []
    with pytest.raises(CertificateError, match="out of range"):
        apply_step(word, Step(-1, b"", pair))
    for pos in (7, -1):
        with pytest.raises(CertificateError, match="out of range"):
            chain_end(Chain(word, (Step(pos, b"", pair),)))
    # The ends themselves are in range.
    assert apply_step(word, Step(2, b"", pair)) == word + pair
    assert apply_step(word, Step(0, b"", pair)) == pair + word


def test_erase_loops_cuts_a_substitution_round_trip():
    lhs, rhs = braid_move()
    word = codes("t1") + lhs
    chain = Chain(word, (Step(1, lhs, rhs), Step(1, rhs, lhs),
                         Step(1, lhs, rhs)))
    assert erase_loops(chain) == Chain(word, (Step(1, lhs, rhs),))


def test_erase_loops_cuts_a_detour_back_to_the_start():
    word = codes("s1 t2")
    chain = Chain(word, (Step(1, b"", codes("v1 v1")),
                         Step(1, codes("v1 v1"), b"")))
    assert erase_loops(chain) == Chain(word, ())


def test_erase_loops_rejects_a_broken_chain():
    with pytest.raises(CertificateError):
        erase_loops(Chain(codes("s1"), (Step(0, codes("s2"), b""),)))


LETTERS = [f"{k}{i}" for k in "sStTv" for i in (1, 2)]


@st.composite
def chains_with_detours(draw):
    """A valid chain of table moves, insertions and cancellations on 3
    strands, with detours injected: an insertion followed by its
    cancellation, and a substitution followed by its reverse."""
    start = codes(" ".join(draw(st.lists(st.sampled_from(LETTERS),
                                         max_size=8))))
    word = start
    steps: list[Step] = []

    def push(step):
        nonlocal word
        steps.append(step)
        word = apply_step(word, step)

    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["move", "pair", "cancel"]))
        detour = draw(st.booleans())
        if kind == "move":
            matches = [(pos, a, b)
                       for a, b in zip(TABLE.patterns, TABLE.replacements)
                       for pos in range(len(word) - len(a) + 1)
                       if word[pos:pos + len(a)] == a]
            if not matches:
                continue
            pos, a, b = draw(st.sampled_from(matches))
            push(Step(pos, a, b))
            if detour:
                push(Step(pos, b, a))
        elif kind == "pair":
            pos = draw(st.integers(0, len(word)))
            c = codes(draw(st.sampled_from(LETTERS)))[0]
            pair = bytes((c, INV[c]))
            push(Step(pos, b"", pair))
            if detour:
                push(Step(pos, pair, b""))
        else:
            spots = [pos for pos in range(len(word) - 1)
                     if word[pos + 1] == INV[word[pos]]]
            if spots:
                pos = draw(st.sampled_from(spots))
                push(Step(pos, word[pos:pos + 2], b""))
    return Chain(start, tuple(steps))


@settings(max_examples=80, deadline=None)
@given(chains_with_detours())
def test_erase_loops_keeps_the_ends_and_only_shortens(chain):
    end = validate_chain(chain, TABLE)
    erased = erase_loops(chain)
    assert erased.start == chain.start
    assert validate_chain(erased, TABLE) == end
    assert len(erased.steps) <= len(chain.steps)
    assert erase_loops(erased) == erased
    visited = [erased.start]
    for step in erased.steps:
        visited.append(apply_step(visited[-1], step))
    assert len(set(visited)) == len(visited)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), max_size=6),
       st.lists(st.sampled_from(LETTERS), max_size=8),
       st.lists(st.sampled_from(LETTERS), max_size=6))
def test_builder_round_trips_a_span_in_context(left, middle, right):
    """Reducing a span in context and growing it back gives a valid chain
    back to the start, whose halves are each other's inverse."""
    left, middle, right = (codes(" ".join(p)) for p in (left, middle, right))
    word = left + middle + right
    bld = Builder(word, INV)
    bld.reduce_span(len(left), len(middle))
    assert bld.word == left + free_reduce_bytes(middle, INV) + right
    half = len(bld.steps)
    bld.expand_span(len(left), middle)
    chain = bld.chain()
    assert validate_chain(chain, TABLE) == word
    first = Chain(word, chain.steps[:half])
    assert chain_invert(first).steps == chain.steps[half:]
