"""Regenerate the frozen input pools in perfbench/pools/.

    python3 perfbench/build_pools.py [workload ...]

Draws POOL_SIZE seeded inputs per pooled workload, times one operation
on each (after a warm-up pass over the first few, so that certificate
caches are filled), sorts by that time and writes the pool with each
input's stratum.  The timings only order the inputs; a pool is rebuilt
only when a workload's definition changes, never to follow the library,
so that two commits are always measured on the same inputs.
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import workloads  # noqa: E402

WARMUP = 20


def build(workload: str) -> None:
    rng = random.Random(f"pool:{workload}:{workloads.POOL_SEED}")
    items = [workloads.generate(workload, rng)
             for _ in range(workloads.POOL_SIZE[workload])]
    api = ops.library_api()
    for item in items[:WARMUP]:
        ops.run_op(workload, ops.prepare(workload, item), api,
                   ops.Record(item))
    timed = []
    for item in items:
        prepared = ops.prepare(workload, item)
        t0 = time.perf_counter()
        ops.run_op(workload, prepared, api, ops.Record(item))
        timed.append((time.perf_counter() - t0, item))
    timed.sort(key=lambda pair: pair[0])
    sizes = workloads.strata_sizes(workload, len(timed))
    os.makedirs(workloads.POOL_DIR, exist_ok=True)
    with open(workloads.pool_path(workload), "w", encoding="utf-8") as fh:
        fh.write(f"# {workload} pool: seed {workloads.POOL_SEED}, "
                 f"{len(timed)} inputs sorted by one timed operation; "
                 "columns: stratum, ms, input fields\n")
        k = 0
        for stratum, size in enumerate(sizes):
            for cost, item in timed[k:k + size]:
                fh.write("\t".join((str(stratum), f"{cost * 1000:.2f}")
                                   + item) + "\n")
            k += size
    print(f"{workload}: {len(timed)} inputs, "
          f"{sum(c for c, _ in timed):.1f} s in total")


if __name__ == "__main__":
    for name in sys.argv[1:] or ("roundtrip", "pipeline", "hard"):
        build(name)
