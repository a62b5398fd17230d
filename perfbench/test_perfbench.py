"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke test runs every workload at a tiny size, plain and traced.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(9) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(3114) == 99.5
    assert run.tail_percentile(10000) == 99.9


def test_times_are_scaled_by_the_reference_around_each_operation():
    r = run.REFERENCE_S
    p = {"latencies": [1.0, 2.0, 0.5],
         "op_spans": [(0.0, 1.0), (1.0, 3.0), (10.0, 10.5)],
         # twice as slow as the reference during the first two
         # operations, at its speed around the last one
         "samples": [(0.0, 2 * r), (1.5, 2 * r), (2.9, 2 * r),
                     (10.2, r)]}
    assert run.at_reference_speed(p) == [0.5, 1.0, 0.5]


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 98) == 98
    assert run.percentile([7], 99.9) == 7


def test_unrecognised_reason_counts_as_other():
    assert ops.rung_of("found by direct search") == "direct_search"
    assert ops.rung_of("a reason from a later ladder") == "other"


def test_gate_rejects_tampered_witnesses():
    assert ops.tamper_check([]) is None


def test_missing_binding_site_is_left_out(monkeypatch, capsys):
    import braidforge.oracle
    original = braidforge.oracle.tiered_chain
    monkeypatch.setattr(tracer, "SITES", (
        ("braidforge.oracle", "no_such_name", "gone.span"),
        ("braidforge.oracle", "tiered_chain", "search.tiered_chain"),
    ))
    t = tracer.Tracer()
    t.install()
    assert t.missing == ["gone.span"]
    assert braidforge.oracle.tiered_chain is not original
    t.uninstall()
    assert braidforge.oracle.tiered_chain is original
    assert "no_such_name is gone" in capsys.readouterr().err


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap(lambda: sum(range(20000)), "inner")
    outer = t.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    rows = t.summary()
    assert rows["inner"]["calls"] == 3 and rows["outer"]["calls"] == 1
    assert abs(rows["outer"]["s"] - rows["outer"]["self_s"]
               - rows["inner"]["s"]) < 1e-9


def test_inputs_follow_the_seed_and_the_strata():
    a = workloads.inputs("roundtrip", 1)
    assert a == workloads.inputs("roundtrip", 1, 0)
    assert a != workloads.inputs("roundtrip", 2)
    assert a != workloads.inputs("roundtrip", 1, 1)
    assert len(a) == sum(workloads.STRATA["roundtrip"])
    top = set(workloads.load_pool("roundtrip")[-1])
    assert sum(item in top for item in a) == workloads.STRATA["roundtrip"][-1]
    assert workloads.inputs("hard", 1)[-1] == workloads.HARD_FIXED_PAIR


def test_relation_catalogue_size():
    assert len(workloads.relation_pairs()) == 194 + 51 + 1312


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
