"""The byte-string kernel against references spelled out here.

neighbors reduces only at the two splice seams; the reference below
fully re-reduces every occurrence's splice, in pattern-major order, so
any seam it misses shows up as a difference.
"""

import importlib.util
import os
import random

from hypothesis import given, settings, strategies as st

from braidforge import kernel, search
from braidforge.relations import fusing_moves, standard_moves
from braidforge.search import _edges
from braidforge.words import parse_braid_word

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def letter_codes(n):
    """The code of every crossing generator and its inverse on n strands."""
    return parse_braid_word(" ".join(f"{k}{i}" for i in range(1, n)
                                     for k in "sStTv"), n).codes


def random_cases(seed=7, count=200):
    table = standard_moves(3)
    alphabet = sorted(set(b"".join(table.patterns)) | set(letter_codes(3)))
    rng = random.Random(seed)
    for _ in range(count):
        yield bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))


def reference_neighbors(w, patterns, replacements, inv, max_len):
    """Every occurrence of every pattern, scanned pattern by pattern,
    spliced and fully reduced; duplicates and long words dropped."""
    out, seen = [], {w}
    for mi, pat in enumerate(patterns):
        for pos in range(len(w) - len(pat) + 1):
            if w[pos:pos + len(pat)] != pat:
                continue
            nw = kernel.free_reduce_bytes(
                w[:pos] + replacements[mi] + w[pos + len(pat):], inv)
            if len(nw) <= max_len and nw not in seen:
                seen.add(nw)
                out.append((nw, pos, mi))
    return out


def test_free_reduce_is_reduced_and_stable():
    inv = standard_moves(3).inverse_table
    for w in random_cases():
        r = kernel.free_reduce_bytes(w, inv)
        assert all(r[k + 1] != inv[r[k]] for k in range(len(r) - 1))
        assert kernel.free_reduce_bytes(r, inv) == r


def test_reduce_with_events_replays():
    inv = standard_moves(3).inverse_table
    for w in random_cases(seed=8):
        reduced, events = kernel.reduce_with_events(w, inv)
        cur = w
        for pos in events:
            assert cur[pos + 1] == inv[cur[pos]]
            cur = cur[:pos] + cur[pos + 2:]
        assert cur == reduced
        assert reduced == kernel.free_reduce_bytes(w, inv)


def test_neighbors_substitutions_are_reduced_and_bounded():
    table = standard_moves(3)
    inv = table.inverse_table
    for w in random_cases(seed=9, count=50):
        reduced = kernel.free_reduce_bytes(w, inv)
        for nw, pos, mi in kernel.neighbors(reduced, list(table.patterns),
                                            list(table.replacements), inv,
                                            len(reduced) + 2, b""):
            assert kernel.free_reduce_bytes(nw, inv) == nw
            assert len(nw) <= len(reduced) + 2
            assert nw != reduced


def test_kernel_module_exposes_one_implementation():
    assert kernel.IMPLEMENTATION == "pure"
    assert kernel.free_reduce_bytes(b"", b"") == b""


def test_kernel_keeps_the_positional_six_argument_call():
    """The benchmark calls neighbors positionally with plain lists and an
    empty insertion alphabet, reads IMPLEMENTATION, and traces the
    searches through the module-level name search.neighbors."""
    table = standard_moves(4)
    inv = table.inverse_table
    patterns, replacements = list(table.patterns), list(table.replacements)
    assert search.neighbors is kernel.neighbors
    assert isinstance(kernel.IMPLEMENTATION, str)
    for w in random_cases(seed=13, count=40):
        w = kernel.free_reduce_bytes(w, inv)
        got = kernel.neighbors(w, patterns, replacements, inv,
                               len(w) + 2, b"")
        assert got == reference_neighbors(w, patterns, replacements, inv,
                                          len(w) + 2)


def test_benchmark_binding_sites_all_resolve():
    """The benchmark traces the library by rebinding the module-level
    names in perfbench/tracer.py's SITES; a site that no longer resolves
    is only reported on stderr and its metrics silently drop out."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, span in tracer.SITES:
        owner, leaf = tracer.Tracer._resolve(module_name, attr)
        assert owner is not None, f"{module_name}.{attr} ({span}) is gone"


def test_insertions_into_a_reduced_word_add_nothing():
    table = standard_moves(3)
    inv = table.inverse_table
    for w in random_cases(seed=14, count=40):
        w = kernel.free_reduce_bytes(w, inv)
        args = (w, table.patterns, table.replacements, inv, len(w) + 2)
        assert (kernel.neighbors(*args, letter_codes(3))
                == kernel.neighbors(*args, b""))


# A toy alphabet for the seam cases: a/A, b/B, c/C, d/D are inverse
# pairs and e is only ever the matched pattern.
TOY = {ch: k for k, ch in enumerate("aAbBcCdDeE")}
TOY_INV = bytes(k ^ 1 if k < len(TOY) else k for k in range(256))


def toy(text):
    return bytes(TOY[ch] for ch in text)


def one_move(word, repl, max_len=99):
    w = toy(word)
    pats, repls = [toy("e")], [toy(repl)]
    got = kernel.neighbors(w, pats, repls, TOY_INV, max_len, b"")
    assert got == reference_neighbors(w, pats, repls, TOY_INV, max_len)
    return [(nw, pos) for nw, pos, _ in got]


def test_seam_replacement_used_up_from_the_left_cancels_into_the_right():
    # c b a | A B | C d: a A and b B cancel, then c meets C.
    assert one_move("cbaeCd", "AB") == [(toy("d"), 3)]


def test_seam_replacement_used_up_from_the_right():
    # d c | B A | a b C: the tail A a, then B b cancel, then c meets C.
    assert one_move("dceabC", "BA") == [(toy("d"), 2)]


def test_seam_cut_at_both_ends():
    # c a | A c B | b d: one letter cancels on each side, c survives.
    assert one_move("caebd", "AcB") == [(toy("ccd"), 2)]


def test_seam_length_bound_counts_the_reduced_word():
    # Each replacement here is longer than its pattern and fits only
    # because something cancels at a seam.
    assert one_move("caebd", "AcB", max_len=3) == [(toy("ccd"), 2)]
    assert one_move("caebd", "AcB", max_len=2) == []
    assert one_move("dceabC", "BA", max_len=1) == [(toy("d"), 2)]
    assert one_move("cbaeCd", "AB", max_len=1) == [(toy("d"), 3)]
    # An empty replacement lets the outer parts meet, even when w itself
    # is longer than the bound.
    assert one_move("e", "") == [(b"", 0)]
    assert one_move("ceC", "", max_len=0) == [(b"", 1)]
    assert one_move("ceD", "", max_len=1) == []


TABLES = st.sampled_from([(make, n) for make in (standard_moves, fusing_moves)
                          for n in (3, 4, 5)])


@settings(max_examples=120, deadline=None)
@given(TABLES, st.booleans(), st.data())
def test_neighbors_match_the_full_reduction_reference(table_at, split, data):
    make, n = table_at
    table = make(n)
    inv = table.inverse_table
    edges = _edges(table, split)
    alphabet = sorted(set(b"".join(table.patterns)))
    letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=14))
    w = kernel.free_reduce_bytes(bytes(letters), inv)
    max_len = len(w) + data.draw(st.integers(-2, 4))
    assert (kernel.neighbors(w, edges.patterns, edges.replacements, inv,
                             max_len, b"")
            == reference_neighbors(w, edges.patterns, edges.replacements,
                                   inv, max_len))
