"""End-to-end benchmark of braidforge's decide and normal-form pipeline.

    python3 perfbench/run.py --workload roundtrip [--seed 20240822]
        [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from ./src.
Each workload is a closed loop with one caller.  A run is a sequence of
passes, each a fresh single-threaded child process (perfbench/child.py)
that sets up, runs every input of its round (fixed by the seed and the
round number) in order and gates the results.  With --trace 0 rounds
follow each other until the operations have run for --seconds, and the
end-to-end metrics pool the operations of all rounds.  Times are scaled
to reference speed by a fixed piece of work timed while they run (see
reference.py).  With --trace 1 round 0 runs plain and traced: the
traced pass gives the per-layer metrics, the pair the tracing
overhead.

Every metric is printed as "name value unit", then the environment, and
last one JSON line: {"correct", "attempted", "failed", "metrics"}.
--smoke runs every workload at a tiny size, traced and plain, and checks
that each metric named in BENCHMARK.json comes out with its unit.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from ops import API, RUNG_NAMES  # noqa: E402
from reference import PERIOD, REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20240822
MIN_ROUNDS = 2        # rounds per plain run, at the least
SETUPS_PER_ROUND = 3  # set-up-only passes after each round
CHILD_TIMEOUT = 100  # seconds one pass may take
WALL_LIMIT = 120     # no new round starts after this many seconds
SMOKE_SCALE = 0.03
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# The workloads' direct calls into the library other than decide,
# reported inclusive.
PIPELINE_SPANS = tuple(span for call, span in API.items()
                       if call != "decide")


def per_layer_units() -> dict:
    units = {
        "kernel.neighbors.calls": "count",
        "kernel.neighbors.self_s": "s",
        "kernel.neighbors.words_out": "count",
        "search.bfs_chain.calls": "count",
        "search.bfs_chain.hits": "count",
        "search.bfs_chain.hit_ratio": "ratio",
        "search.bfs_chain.self_s": "s",
    }
    for caller in ("from_oracle", "from_certs"):
        units[f"search.tiered_chain.{caller}.calls"] = "count"
        units[f"search.tiered_chain.{caller}.s"] = "s"
    for layer in ("certs.certified_sweep", "certs.lift_fusing_chain",
                  "chains.validate_chain",
                  "decomposition.traced_normal_form"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["chains.validate_chain.steps"] = "count"
    for layer in PIPELINE_SPANS:
        units[f"{layer}.s"] = "s"
    units["oracle.decide.self_s"] = "s"
    for rung in RUNG_NAMES:
        units[f"oracle.rung.{rung}.count"] = "count"
        units[f"oracle.rung.{rung}.s"] = "s"
    for case in ("free_reduce_bytes", "reduce_with_events", "neighbors"):
        units[f"kernel.micro.{case}_ms"] = "ms"
    units.update({
        "trace.overhead_frac": "ratio",
        "trace.unattributed_frac": "ratio",
        "latency_p50_ms": "ms",
        "decided_frac": "ratio",
        "fail_frac": "ratio",
        "witness_steps_total": "count",
        "witness_steps_max": "count",
        "nf_letters_total": "count",
        "latency_tail_pct": "%",
        "wall.ops_per_s": "1/s",
        "wall.latency_tail_ms": "ms",
        "wall.setup_s": "s",
        "reference.sample_ms": "ms",
    })
    return units


# -- statistics -------------------------------------------------------

def rank(count: int, pct: float) -> int:
    """Nearest rank of a percentile among `count` samples (1-based)."""
    per_mille = round(pct * 10)
    return max(1, -(-per_mille * count // 1000))


def tail_percentile(count: int) -> float:
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count - rank(count, pct) >= 10:
            best = pct
    return best


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(len(sorted_values), pct) - 1]


# -- child processes ----------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BRAIDFORGE_PURE", "BRAIDFORGE_BUDGET")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {spec} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spec(workload: str, seed: int, round_: int, scale: float, *,
         trace: bool = False, setup_only: bool = False,
         micro: bool = False) -> dict:
    return {"workload": workload, "seed": seed, "round": round_,
            "scale": scale, "trace": trace, "setup_only": setup_only,
            "micro": micro}


def busy(result: dict) -> float:
    return sum(result["latencies"])


def reference_time(samples: list, start: float, end: float) -> float:
    """Mean reference time over the samples taken from PERIOD before
    `start` to PERIOD after `end` (the nearest two when none were)."""
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - PERIOD)
    hi = bisect.bisect_right(times, end + PERIOD)
    if hi - lo < 1:
        lo, hi = max(0, lo - 1), hi + 1
    return statistics.fmean(s for _, s in samples[lo:hi])


def at_reference_speed(result: dict) -> list:
    """Each operation's time at reference speed: its time times
    REFERENCE_S over the reference time measured while it ran (see
    reference.py)."""
    samples = result["samples"]
    return [lat * REFERENCE_S / reference_time(samples, start, end)
            for lat, (start, end) in zip(result["latencies"],
                                         result["op_spans"])]


def setup_at_reference_speed(result: dict) -> float:
    samples = result["setup_samples"]
    return result["setup_s"] * REFERENCE_S / statistics.fmean(
        s for _, s in samples)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> dict:
    """Run round after round, each a fresh process on the round's own
    inputs (drawn from the seed and the round number), until the
    operations have run for `seconds` and for at least MIN_ROUNDS
    rounds; SETUPS_PER_ROUND set-ups follow each round.  A traced run
    does round 0 plain and traced.  A smoke run (scale < 1) does one
    round and one extra set-up."""
    wall0 = time.monotonic()
    rounds, traced, setups = [], [], []
    while True:
        rounds.append(run_child(spec(workload, seed, len(rounds), scale)))
        setups.append(rounds[-1])
        if trace:
            traced.append(run_child(spec(workload, seed, 0, scale,
                                         trace=True, micro=True)))
        for _ in range(SETUPS_PER_ROUND if scale >= 1 else 1):
            setups.append(run_child(spec(workload, seed, 0, scale,
                                         setup_only=True)))
        total = sum(busy(p) for p in rounds)
        if (trace or scale < 1 or time.monotonic() - wall0 > WALL_LIMIT
                or (total >= seconds and len(rounds) >= MIN_ROUNDS)):
            break
    return {"rounds": rounds, "traced": traced, "setups": setups}


def pooled(m: dict, scale=at_reference_speed) -> list:
    """Every operation time of the run's rounds, at reference speed (or
    as `scale` gives it), in ascending order."""
    return sorted(t for p in m["rounds"] for t in scale(p))


def wall(result: dict) -> list:
    return result["latencies"]


def tail_ms(m: dict, scale=at_reference_speed) -> float:
    """The median over the rounds of each round's tail percentile.  On
    relations the tail percentile falls where operation times jump from
    a few to some twenty milliseconds; taken over the pooled rounds it
    would be the fastest of many samples of the slow group, and move
    with that group's noise."""
    pct = tail_percentile(len(m["rounds"][0]["latencies"]))
    return statistics.median(percentile(sorted(scale(p)), pct)
                             for p in m["rounds"]) * 1000


# -- metrics ------------------------------------------------------------

def end_to_end(m: dict) -> dict:
    """The end-to-end metrics, at reference speed: the operations'
    figures over all the run's rounds, set-up as the median of the
    run's set-ups."""
    lat = pooled(m)
    return {
        "setup_s": statistics.median(setup_at_reference_speed(p)
                                     for p in m["setups"]),
        "ops_per_s": len(lat) / sum(lat),
        "latency_tail_ms": tail_ms(m),
        # the median, not the largest: the number of rounds depends on
        # the machine's speed, and each round draws its own inputs
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in m["rounds"]),
    }


def latency_figures(m: dict) -> dict:
    """Printed with every run but not bounded: the median of
    sub-millisecond operations, and the figures in wall-clock time with
    the reference time they were scaled by."""
    lat = pooled(m)
    raw = pooled(m, wall)
    refs = [s for p in m["rounds"] for _, s in p["samples"]]
    return {"latency_p50_ms": percentile(lat, 50) * 1000,
            "latency_tail_pct":
                tail_percentile(len(m["rounds"][0]["latencies"])),
            "wall.ops_per_s": len(raw) / sum(raw),
            "wall.latency_tail_ms": tail_ms(m, wall),
            "wall.setup_s": statistics.median(p["setup_s"]
                                              for p in m["setups"]),
            "reference.sample_ms": statistics.median(refs) * 1000}


def verdict_metrics(passes: list) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    out = {
        "decided_frac": sum(p["decided"] for p in passes) / attempted,
        "fail_frac": sum(len(p["failures"]) for p in passes) / attempted,
        "witness_steps_total": sum(p["witness_steps_total"] for p in passes),
        "witness_steps_max": max(p["witness_steps_max"] for p in passes),
        "nf_letters_total": sum(p["nf_letters_total"] for p in passes),
    }
    for rung in RUNG_NAMES:
        tallies = [p["rungs"].get(rung, (0, 0.0)) for p in passes]
        out[f"oracle.rung.{rung}.count"] = sum(t[0] for t in tallies)
        out[f"oracle.rung.{rung}.s"] = sum(t[1] for t in tallies)
    return out


SPAN_METRICS = {
    "kernel.neighbors": ("calls", "self_s", "words_out"),
    "search.bfs_chain": ("calls", "hits", "self_s"),
    "search.tiered_chain.from_oracle": ("calls", "s"),
    "search.tiered_chain.from_certs": ("calls", "s"),
    "certs.certified_sweep": ("calls", "self_s"),
    "certs.lift_fusing_chain": ("calls", "self_s"),
    "chains.validate_chain": ("calls", "self_s", "steps"),
    "decomposition.traced_normal_form": ("calls", "self_s"),
    **{name: ("s",) for name in PIPELINE_SPANS},
    "oracle.decide": ("self_s",),
}


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    spans: dict[str, dict] = {}
    missing = set()
    for p in traced:
        missing.update(p["missing_spans"])
        for name, row in p["spans"].items():
            acc = spans.setdefault(name, {})
            for key, val in row.items():
                acc[key] = acc.get(key, 0) + val
    out = {}
    for name, keys in SPAN_METRICS.items():
        if name in missing:
            continue
        row = spans.get(name, {})
        for key in keys:
            out[f"{name}.{key}"] = row.get(key, 0)
    if "search.bfs_chain" not in missing:
        calls = out["search.bfs_chain.calls"]
        out["search.bfs_chain.hit_ratio"] = (
            out["search.bfs_chain.hits"] / calls if calls else 0.0)
    for p in traced:
        for case, ms in p.get("micro", {}).items():
            out[f"kernel.micro.{case}_ms"] = ms
    plain_s = sum(sum(at_reference_speed(p)) for p in m["rounds"])
    traced_s = sum(sum(at_reference_speed(p)) for p in traced)
    out["trace.overhead_frac"] = traced_s / plain_s - 1
    op = spans.get("op", {"s": 0.0, "self_s": 0.0})
    out["trace.unattributed_frac"] = (op["self_s"] / op["s"]
                                      if op["s"] else 0.0)
    out.update(verdict_metrics(traced))
    out.update(latency_figures(m))
    return out


# -- environment ----------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "braidforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, m: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "kernel_implementation": m["rounds"][0]["implementation"],
        "rounds": len(m["rounds"]),
        "passes": len(m["rounds"]) + len(m["traced"]),
    }


# -- entry points ----------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, dict, dict]:
    """(result, all metrics, measurement) for one run."""
    m = measure(workload, seed, seconds, trace, scale)
    passes = m["rounds"] + m["traced"]
    failures = [f for p in passes for f in p["failures"]]
    tamper = [p["tamper_error"] for p in passes if p["tamper_error"]]
    e2e = end_to_end(m)
    everything = {**e2e, **latency_figures(m),
                  **verdict_metrics(m["rounds"][:1])}
    if trace:
        shown = per_layer(m)
        everything.update(shown)
        units = per_layer_units()
    else:
        units = END_TO_END
        shown = e2e
    result = {
        "correct": not failures and not tamper,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures) + len(tamper),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()},
    }
    m["failures"] = failures + tamper
    return result, everything, m


def report(args, result: dict, everything: dict, m: dict) -> None:
    units = {**per_layer_units(), **END_TO_END}
    for name, value in everything.items():
        print(f"{name} {value:.6g} {units[name]}")
    other = sorted({r for p in m["rounds"] + m["traced"]
                    for r in p["other_reasons"]})
    for reason in other:
        print(f"oracle.rung.other reason: {reason}")
    for failure in m["failures"][:10]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(environment(args, m)))
    print(json.dumps(result))


def smoke() -> int:
    """Every workload, tiny, plain and traced: each metric BENCHMARK.json
    names must come out with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bad = 0
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            t0 = time.monotonic()
            result, _, _ = run(workload, DEFAULT_SEED, 0, trace,
                               SMOKE_SCALE)
            got = result["metrics"]
            problems = [f"{x['name']} missing" for x in bench[section]
                        if x["name"] not in got]
            problems += [f"{x['name']} unit {got[x['name']]['unit']}"
                         for x in bench[section] if x["name"] in got
                         and got[x["name"]]["unit"] != x["unit"]]
            if not result["correct"]:
                problems.append("gate failed")
            bad += bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {workload} "
                  f"trace={int(trace)} {len(got)} metrics "
                  f"{time.monotonic() - t0:.1f}s "
                  + "; ".join(problems))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidforge", "__init__.py")):
        print(f"perfbench: no braidforge sources under {SRC}; run from "
              "the root of a braidforge checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, everything, m = run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    report(args, result, everything, m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
