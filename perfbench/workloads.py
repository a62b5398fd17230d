"""Workload corpora for the braidforge benchmark.

Three workloads draw their inputs from frozen pools in perfbench/pools/;
the relation catalogue is enumerated from the library's own relation
tables.  A pool is a list of seeded random inputs, sorted by the
time one operation on it took when the pool was built and cut into
strata (see STRATA).  A round of a run takes a fixed number of inputs
from every stratum, chosen and shuffled by the run's seed and the round
number.  The mix of cheap and expensive inputs is therefore the same in
every round while the inputs themselves change; plain random draws
would let the handful of very slow inputs (about 3 % of them carry half
the time) decide the figures.  The pools and their
strata are frozen so that a change to the library never changes the
inputs the benchmark feeds it.

build_pools.py regenerates the pools; nothing here times anything.
"""

from __future__ import annotations

import itertools
import os
import random

POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools")

# Pool seed: the library's acceptance seed.
POOL_SEED = 20240822

# Inputs per run from each stratum, cheapest first: each stratum's share
# of the pool.  The finer cuts at the expensive end keep the few slowest
# inputs at a fixed count per run.
STRATA = {
    "roundtrip": (100, 60, 10, 10, 10, 4, 2, 2, 1, 1),
    "pipeline": (400, 240, 80, 40, 16, 8, 8, 4, 2, 1, 1),
    "hard": (10, 10, 10, 10, 5, 3, 2),
}
POOL_SIZE = {"roundtrip": 4000, "pipeline": 3000, "hard": 800}

# decide()'s search bound in the hard workload.
HARD_MAX_NODES = 2000
HARD_FIXED_PAIR = ("s1 s1 s2 s2", "s2 s2 s1 s1")

# Strand counts each workload touches; set-up builds their stores.
STRANDS = {
    "roundtrip": (3,),
    "relations": (2, 3, 4, 5),
    "pipeline": (3, 4, 5),
    "hard": (3,),
}

DECIDE_WORKLOADS = ("roundtrip", "relations", "hard")

# Workloads whose passes start from a certificate store warmed, untimed,
# by the relation catalogue on their strand count.  A long-lived process
# has a warm store after its first few operations; from a cold one, an
# operation's time would depend on whether it happens to be the first to
# need a certificate.  relations measures the cold store.
WARMED = ("roundtrip", "hard")
WORKLOADS = ("roundtrip", "relations", "pipeline", "hard")


# -- seeded generators (pool building only) --------------------------

def random_word_text(rng: random.Random, strands: int, length: int) -> str:
    return " ".join(rng.choice("sStTv") + str(rng.randint(1, strands - 1))
                    for _ in range(length))


def generate(workload: str, rng: random.Random):
    """One raw input for a pooled workload, as plain text fields."""
    if workload == "roundtrip":
        return (random_word_text(rng, 3, rng.randint(1, 8)),)
    if workload == "pipeline":
        n = rng.randint(3, 5)
        return (str(n), random_word_text(rng, n, rng.randint(10, 20)))
    if workload == "hard":
        return hard_pair(rng)
    raise ValueError(workload)


def _fusing_text(rng: random.Random) -> str:
    i, j = rng.sample((1, 2, 3), 2)
    return f"{rng.choice('mMgG')}[{i},{j}]"


def hard_pair(rng: random.Random):
    """(a b, b a) for two-letter fusing words a, b, as crossing words.

    Pairs whose two sides are freely the same word are drawn again:
    free reduction answers them before the ladder starts.
    """
    from braidforge import (expand_fusing, format_braid_word, free_reduce,
                            parse_fusing_word)
    while True:
        a = f"{_fusing_text(rng)} {_fusing_text(rng)}"
        b = f"{_fusing_text(rng)} {_fusing_text(rng)}"
        u = expand_fusing(parse_fusing_word(f"{a} {b}", 3))
        v = expand_fusing(parse_fusing_word(f"{b} {a}", 3))
        if free_reduce(u).codes != free_reduce(v).codes:
            return format_braid_word(u), format_braid_word(v)


# -- pools ------------------------------------------------------------

def pool_path(workload: str) -> str:
    return os.path.join(POOL_DIR, f"{workload}.tsv")


def strata_sizes(workload: str, total: int) -> list[int]:
    """How many of `total` pool inputs go to each stratum."""
    counts = STRATA[workload]
    sizes = [round(total * c / sum(counts)) for c in counts[:-1]]
    sizes.append(total - sum(sizes))
    return sizes


def load_pool(workload: str) -> list[list[tuple[str, ...]]]:
    """The pool as a list of strata, each a list of input text tuples."""
    strata: list[list[tuple[str, ...]]] = [[] for _ in STRATA[workload]]
    with open(pool_path(workload), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            stratum, _cost_ms, *fields = line.rstrip("\n").split("\t")
            strata[int(stratum)].append(tuple(fields))
    if any(not s for s in strata):
        raise ValueError(f"pool {workload} has an empty stratum")
    return strata


def pooled_inputs(workload: str, seed: int,
                  round_: int) -> list[tuple[str, ...]]:
    """A round's inputs for a pooled workload: STRATA[k] inputs from
    stratum k of the pool, picked and shuffled by the seed and the
    round, so every round gets the same mix of cheap and expensive
    inputs."""
    rng = random.Random(f"{workload}:{seed}:{round_}")
    items: list[tuple[str, ...]] = []
    for stratum, count in zip(load_pool(workload), STRATA[workload]):
        items.extend(rng.sample(stratum, count))
    rng.shuffle(items)
    return items


# -- the relation catalogue --------------------------------------------

def relation_pairs() -> list[tuple[str, object, object]]:
    """Every pair the relations workload decides, as (tag, lhs, rhs)
    crossing words: the defining relations on 2-5 strands, the string
    presentation on 2-4 strands, and every relabelling conjugation
    lambda^-1 rho(g) lambda = rho(alpha . g) on 2-4 strands."""
    from braidforge import (Family, FusingLetter, act_permutation,
                            concat_words, expand_letter, invert_word,
                            permutation_of, schreier_system)
    from braidforge.relations import (elementary_string_relation_instances,
                                      standard_relation_instances)
    pairs: list[tuple[str, object, object]] = []
    for n in range(2, 6):
        for rel in standard_relation_instances(n):
            pairs.append((f"defining n={n} {rel.name}", rel.lhs, rel.rhs))
    for n in range(2, 5):
        for rel in elementary_string_relation_instances(n):
            pairs.append((f"string n={n} {rel.name}", rel.lhs, rel.rhs))
    for n in range(2, 5):
        for coset in schreier_system(n):
            lam = coset.braid_word
            alpha = permutation_of(lam)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                for fam, exp in ((Family.MU, 1), (Family.MU, -1),
                                 (Family.GAMMA, 1), (Family.GAMMA, -1)):
                    letter = FusingLetter(fam, i, j, exp)
                    lhs = concat_words(invert_word(lam),
                                       expand_letter(letter, n), lam)
                    rhs = expand_letter(act_permutation(alpha, letter), n)
                    pairs.append((f"relabel n={n} {lam} {letter}", lhs, rhs))
    return pairs


def warm_up_pairs(workload: str) -> list[tuple[object, object]]:
    return [(lhs, rhs) for _, lhs, rhs in relation_pairs()
            if lhs.strands in STRANDS[workload]]


def inputs(workload: str, seed: int, round_: int = 0,
           scale: float = 1.0) -> list:
    """Every input of one round of a run, in the order they run (a
    prefix of them for smoke runs, scale < 1).  relations decides the
    whole catalogue in its fixed order, from cold certificate caches,
    in every round; the seed does not enter: the catalogue is the input,
    and a fixed order keeps the operations that pay for cold caches the
    same from run to run."""
    items = (relation_pairs() if workload == "relations"
             else pooled_inputs(workload, seed, round_))
    if scale < 1:
        items = items[:max(1, round(len(items) * scale))]
    if workload == "hard":
        items.append(HARD_FIXED_PAIR)
    return items
