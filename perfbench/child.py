"""One benchmark pass in a fresh process: set up, run the inputs, gate.

    python3 perfbench/child.py '<json spec>'

run.py starts this; the spec names the workload, seed, scale and
whether to trace.  The last line of standard output is
a JSON object with the pass's timings, tallies and gate results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(workload: str) -> tuple[float, list]:
    """Import the library and build the workload's certificate stores;
    returns the seconds taken and the reference samples from then."""
    from reference import Sampler
    from workloads import STRANDS
    with Sampler() as sampler:
        t0 = time.perf_counter()
        from braidforge.certs import get_store
        for n in STRANDS[workload]:
            get_store(n)
        took = time.perf_counter() - t0 - sampler.spent
    return took, sampler.samples


def kernel_micro() -> dict:
    """The kernel cases of benchmarks/bench_kernel.py that still have a
    caller in src, through braidforge.kernel on its fixed 4-strand
    corpus: best of three, in milliseconds."""
    import random

    from braidforge import kernel
    from braidforge.relations import standard_moves
    from braidforge.words import parse_braid_word
    from workloads import random_word_text

    table = standard_moves(4)
    inv = table.inverse_table
    patterns = list(table.patterns)
    replacements = list(table.replacements)
    rng = random.Random(20240822)
    words = [parse_braid_word(random_word_text(rng, 4, 40), 4).codes
             for _ in range(400)]
    cases = {
        "free_reduce_bytes": lambda f: [f(w, inv) for w in words],
        "reduce_with_events": lambda f: [f(w, inv) for w in words],
        "neighbors": lambda f: [f(w, patterns, replacements, inv,
                                  len(w) + 2, b"") for w in words],
    }
    out = {}
    for name, body in cases.items():
        fn = getattr(kernel, name, None)
        if fn is None:
            print(f"perfbench: braidforge.kernel.{name} is gone; "
                  f"kernel.micro.{name}_ms is left out", file=sys.stderr)
            continue
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            body(fn)
            best = min(best, time.perf_counter() - t0)
        out[name] = best * 1000
    return out


def main(spec: dict) -> dict:
    workload = spec["workload"]
    setup_s, setup_samples = setup(workload)
    from braidforge import kernel
    result = {"setup_s": setup_s, "setup_samples": setup_samples,
              "implementation": kernel.IMPLEMENTATION}
    if spec.get("setup_only"):
        return result

    import ops
    from workloads import DECIDE_WORKLOADS, WARMED, inputs, warm_up_pairs
    if workload in WARMED:
        from braidforge import decide
        for lhs, rhs in warm_up_pairs(workload):
            decide(lhs, rhs)
    items = inputs(workload, spec["seed"], spec["round"], spec["scale"])
    prepared = [ops.prepare(workload, item) for item in items]
    api = ops.library_api()
    run_op = ops.run_op
    tracer = None
    if spec["trace"]:
        from tracer import OP_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        tracer.wrap_api(api, ops.API)
        run_op = tracer.wrap(run_op, OP_SPAN)

    from reference import Sampler
    records = []
    latencies = []  # seconds, the reference samples taken out
    spans = []      # (start, end) of each operation on the clock
    clock = time.perf_counter
    with Sampler() as sampler:
        for item, inp in zip(items, prepared):
            rec = ops.Record(item)
            spent = sampler.spent
            t0 = clock()
            try:
                run_op(workload, inp, api, rec)
            except Exception as exc:  # counted as a failed operation
                rec.error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            latencies.append(t1 - t0 - (sampler.spent - spent))
            spans.append((t0, t1))
            records.append(rec)
    if tracer is not None:
        tracer.uninstall()

    # Everything below is outside the timed section.
    failures = []
    rungs: dict[str, list] = {}
    other_reasons = []
    witness_steps = []
    nf_letters = 0
    for rec, lat in zip(records, latencies):
        msg = ops.check(workload, rec)
        if msg is not None:
            failures.append(f"{' | '.join(map(str, rec.item))}: {msg}")
        if workload in DECIDE_WORKLOADS and rec.verdict is not None:
            rung = ops.rung_of(rec.verdict.reason)
            if rung == "other":
                other_reasons.append(rec.verdict.reason)
            tally = rungs.setdefault(rung, [0, 0.0])
            tally[0] += 1
            tally[1] += lat
            if rec.verdict.witness is not None:
                witness_steps.append(len(rec.verdict.witness.steps))
        if rec.nf is not None:
            from braidforge import flatten
            nf_letters += len(flatten(rec.nf).letters)
    tamper = None
    if workload in DECIDE_WORKLOADS:
        tamper = ops.tamper_check(records)

    result.update({
        "latencies": latencies,
        "op_spans": spans,
        "samples": sampler.samples,
        "attempted": len(records),
        "failures": failures,
        "decided": sum(ops.decided(workload, r) for r in records),
        "rungs": rungs,
        "other_reasons": sorted(set(other_reasons)),
        "witness_steps_total": sum(witness_steps),
        "witness_steps_max": max(witness_steps, default=0),
        "nf_letters_total": nf_letters,
        "tamper_error": tamper,
    })
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["missing_spans"] = tracer.missing
    if spec.get("micro"):
        result["micro"] = kernel_micro()
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
