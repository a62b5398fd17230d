"""Self-test batteries covering the package's headline guarantees.

Each suite runs a fixed battery against the public API and returns a
SuiteResult saying what ran, whether it passed, and reproducers for
anything that failed.  run_all drives every suite in order; the CLI's
verify-suite subcommand and the acceptance tests both call into here so
there is exactly one definition of what "the package works" means.

The random suites draw from a local seeded generator, so results are
reproducible and independent of global RNG state.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .burau import image
from .decomposition import normal_form, pair_counts, recompose
from .fusing import Family, FusingLetter, act_permutation, expand_letter
from .oracle import Verdict, decide
from .perms import permutation_of, schreier_representative, schreier_system
from .relations import (elementary_string_relation_instances,
                        pure_relation_instances,
                        standard_relation_instances)
from .schreier import (canonical_fusing_pair, derive_pure_relations,
                       nontrivial_canonical_pairs)
from .words import (BraidWord, Kind, concat_words, exponent_invariants,
                    format_braid_word, invert_word, parse_braid_word)

__all__ = [
    "DEFAULT_SEED",
    "SuiteResult",
    "run_all",
    "defining_relations_suite",
    "string_presentation_suite",
    "derived_relations_suite",
    "conjugation_rule_suite",
    "relabeling_suite",
    "round_trip_suite",
    "stability_suite",
    "coset_system_suite",
]

DEFAULT_SEED = 20240822

# Relation families whose sweep images are local enough that the layered
# normal form provably cannot tell the two sides apart; the stability
# suite treats a structural mismatch there as a build failure.  The
# remaining families are measured and reported only.
STRICT_STABILITY_FAMILIES = frozenset({1, 2, 7, 8})


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    summary: str
    elapsed: float
    failures: tuple[str, ...] = ()
    report: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.summary} ({self.elapsed:.1f}s)"


def _random_word(rng: random.Random, strands: int, max_len: int,
                 min_len: int = 1) -> BraidWord:
    tokens = []
    for _ in range(rng.randint(min_len, max_len)):
        kind = rng.choice("sStTv")
        tokens.append(f"{kind}{rng.randint(1, strands - 1)}")
    return parse_braid_word(" ".join(tokens), strands)


def defining_relations_suite(max_strands: int = 5) -> SuiteResult:
    """Every instantiated defining relation must decide Equal."""
    t0 = time.time()
    failures = []
    total = 0
    for n in range(2, max_strands + 1):
        for rel in standard_relation_instances(n):
            total += 1
            res = decide(rel.lhs, rel.rhs)
            if res.verdict is not Verdict.EQUAL:
                failures.append(
                    f"n={n} {rel.name}: {res.verdict.value} ({res.reason})")
    return SuiteResult(
        "defining relations", not failures,
        f"{total} instances on 2..{max_strands} strands, "
        f"{len(failures)} not Equal",
        time.time() - t0, tuple(failures[:10]))


def string_presentation_suite(max_strands: int = 4) -> SuiteResult:
    """The two-string presentation's relations, expanded to crossings,
    must decide Equal."""
    t0 = time.time()
    failures = []
    total = 0
    for n in range(2, max_strands + 1):
        for rel in elementary_string_relation_instances(n):
            total += 1
            res = decide(rel.lhs, rel.rhs)
            if res.verdict is not Verdict.EQUAL:
                failures.append(
                    f"n={n} {rel.name}: {res.verdict.value} ({res.reason})")
    return SuiteResult(
        "string presentation", not failures,
        f"{total} instances on 2..{max_strands} strands, "
        f"{len(failures)} not Equal",
        time.time() - t0, tuple(failures[:10]))


def derived_relations_suite(strand_counts: tuple[int, ...] = (3, 4)
                            ) -> SuiteResult:
    """Sweeping the conjugated defining relations must reproduce exactly
    the declared pure-subgroup relation set, and the pairs that collapse
    to nothing must all come from relations involving a virtual letter.
    """
    t0 = time.time()
    failures = []
    total = 0
    for n in strand_counts:
        derived = set(nontrivial_canonical_pairs(n))
        declared = set()
        for rel in pure_relation_instances(n):
            key, _ = canonical_fusing_pair(rel.lhs, rel.rhs)
            declared.add(key)
        total += len(declared)
        extras = len(derived - declared)
        gaps = len(declared - derived)
        if extras or gaps:
            failures.append(f"n={n}: {extras} extra pairs, {gaps} missing")
        for rel in derive_pure_relations(n):
            has_v = any(l.kind is Kind.V for w in (rel.base_lhs, rel.base_rhs)
                        for l in w.letters)
            if rel.trivial and not has_v:
                failures.append(
                    f"n={n}: virtual-free relation {rel.name} at coset "
                    f"{rel.coset} collapsed")
            if has_v and not rel.trivial:
                failures.append(
                    f"n={n}: virtual relation {rel.name} at coset "
                    f"{rel.coset} did not collapse")
    return SuiteResult(
        "derived pure relations", not failures,
        f"exact pair-set match on {strand_counts} strands "
        f"({total} canonical pairs)",
        time.time() - t0, tuple(failures[:10]))


def _invert_token(token: str) -> str:
    head = token[0]
    return (head.upper() if head.islower() else head.lower()) + token[1:]


def _conjugated(inner: str, conjugator: str) -> str:
    return f"{_invert_token(conjugator)} {inner} {conjugator}"


def conjugation_rule_identities() -> list[tuple[str, int, str, str]]:
    """The conjugation-rule identity battery as fusing-word texts.

    These are the equalities the layered rewriting leans on: how a
    generator on strand pair {i,k}, {k,i}, {j,k}, or {k,j} moves past a
    generator on {i,j}, plus the no-op case for disjoint pairs.  Each
    entry is (tag, strands, lhs text, rhs text) with conjugation a^b
    spelled out as b^-1 a b.
    """
    cases: list[tuple[str, int, str, str]] = []
    C = _conjugated
    for (i, j, k) in ((1, 2, 3), (2, 1, 3)):
        mik, mki = f"m[{i},{k}]", f"m[{k},{i}]"
        mjk, mkj = f"m[{j},{k}]", f"m[{k},{j}]"
        Mik, Mkj = f"M[{i},{k}]", f"M[{k},{j}]"
        gik, gki = f"g[{i},{k}]", f"g[{k},{i}]"
        gjk, gkj = f"g[{j},{k}]", f"g[{k},{j}]"
        Gjk, Gkj = f"G[{j},{k}]", f"G[{k},{j}]"
        mij, Mij = f"m[{i},{j}]", f"M[{i},{j}]"
        gij, Gij = f"g[{i},{j}]", f"G[{i},{j}]"

        def case(tag: str, lhs: str, rhs: str, i=i, j=j, k=k) -> None:
            cases.append((f"{tag} ({i},{j},{k})", 3, lhs, rhs))

        case("high-asc m^m", C(mik, mij), f"{C(mkj, mij)} {mik} {Mkj}")
        case("high-asc m^M", C(mik, Mij), f"{Mkj} {mik} {C(mkj, Mij)}")
        case("high-asc m^g", C(mik, gij),
             f"{C(Gjk, gij)} {C(Mkj, gij)} {C(gkj, gij)} {mik} {mjk}")
        case("high-asc m^G", C(mik, Gij),
             f"{mjk} {mik} {C(Gjk, Gij)} {C(Mkj, Gij)} {C(gkj, Gij)}")
        case("high-asc g^m", C(gik, mij), f"{C(mkj, mij)} {gik} {Mkj}")
        case("high-asc g^M", C(gik, Mij), f"{Mkj} {gik} {C(mkj, Mij)}")

        case("high-desc m^m", C(mki, mij), f"{mkj} {mki} {C(Mkj, mij)}")
        case("high-desc m^M", C(mki, Mij), f"{C(Mkj, Mij)} {mki} {mkj}")
        case("high-desc m^g", C(mki, gij), f"{mkj} {mki} {C(Mkj, gij)}")
        case("high-desc m^G", C(mki, Gij), f"{C(Mkj, Gij)} {mki} {mkj}")
        case("high-desc g^m", C(gki, mij), f"{mkj} {gki} {C(Mkj, mij)}")
        case("high-desc g^M", C(gki, Mij), f"{C(Mkj, Mij)} {gki} {mkj}")

        case("low-asc m^m", C(mjk, mij),
             f"{mik} {mjk} {mkj} {Mik} {C(Mkj, mij)}")
        case("low-asc m^M", C(mjk, Mij),
             f"{C(Mkj, Mij)} {Mik} {mkj} {mjk} {mik}")
        case("low-asc m^g", C(mjk, gij),
             f"{C(gjk, gij)} {C(mkj, gij)} {C(Gkj, gij)}")
        case("low-asc m^G", C(mjk, Gij),
             f"{C(gjk, Gij)} {C(mkj, Gij)} {C(Gkj, Gij)}")
        case("low-asc g^m", C(gjk, mij),
             f"{mik} {gjk} {mkj} {Mik} {C(Mkj, mij)}")
        case("low-asc g^M", C(gjk, Mij),
             f"{C(Mkj, Mij)} {Mik} {mkj} {gjk} {mik}")

        case("low-desc g^m", C(gkj, mij),
             f"{C(mkj, mij)} {mik} {Mkj} {gkj} {Mik}")
        case("low-desc g^M", C(gkj, Mij),
             f"{Mik} {gkj} {Mkj} {mik} {C(mkj, Mij)}")

    disjoint: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for low in ((1, 2), (1, 3), (2, 3)):
        rest = tuple(x for x in (1, 2, 3, 4) if x not in low)
        for ij in (low, low[::-1]):
            for kl in (rest, rest[::-1]):
                if max(ij) < max(kl):
                    disjoint.append((ij, kl))
    for (i, j), (k, l) in disjoint:
        for fam in "mg":
            base = f"{fam}[{k},{l}]"
            for conj in (f"m[{i},{j}]", f"M[{i},{j}]",
                         f"g[{i},{j}]", f"G[{i},{j}]"):
                cases.append((f"disjoint {base}^{conj}", 4,
                              C(base, conj), base))
    return cases


def conjugation_rule_suite() -> SuiteResult:
    """Every conjugation-rule identity must decide Equal."""
    from .fusing import parse_fusing_word

    t0 = time.time()
    failures = []
    cases = conjugation_rule_identities()
    for tag, n, lhs, rhs in cases:
        res = decide(parse_fusing_word(lhs, n), parse_fusing_word(rhs, n))
        if res.verdict is not Verdict.EQUAL:
            failures.append(
                f"{tag}: {res.verdict.value} ({res.reason}) "
                f"[{lhs} = {rhs}]")
    return SuiteResult(
        "conjugation rules", not failures,
        f"{len(cases)} identities, {len(failures)} not Equal",
        time.time() - t0, tuple(failures[:10]))


def relabeling_suite(max_strands: int = 4) -> SuiteResult:
    """Conjugating a fusing generator by a coset representative must
    equal the index-relabeled generator, for every representative and
    every generator."""
    t0 = time.time()
    failures = []
    total = 0
    for n in range(2, max_strands + 1):
        for coset in schreier_system(n):
            lam = coset.braid_word
            alpha = permutation_of(lam)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                for fam, exp in ((Family.MU, 1), (Family.MU, -1),
                                 (Family.GAMMA, 1), (Family.GAMMA, -1)):
                    total += 1
                    letter = FusingLetter(fam, i, j, exp)
                    relabeled = act_permutation(alpha, letter)
                    lhs = concat_words(invert_word(lam),
                                       expand_letter(letter, n), lam)
                    res = decide(lhs, expand_letter(relabeled, n))
                    if res.verdict is not Verdict.EQUAL:
                        failures.append(
                            f"n={n} rep={lam} {letter}: "
                            f"{res.verdict.value} ({res.reason})")
    return SuiteResult(
        "index relabeling", not failures,
        f"{total} conjugations on 2..{max_strands} strands, "
        f"{len(failures)} not Equal",
        time.time() - t0, tuple(failures[:10]))


def round_trip_suite(samples: int = 1000, invariant_samples: int = 1000,
                     seed: int = DEFAULT_SEED) -> SuiteResult:
    """Rebuilding a word from its normal form must be oracle-Equal to
    the original (3 strands, short words; Unknown counts as failure),
    and must preserve the permutation, exponent, and pair-count
    invariants and the twisted Burau image on longer words up to 5
    strands."""
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    unknown = 0
    for _ in range(samples):
        w = _random_word(rng, 3, 8)
        back = recompose(normal_form(w))
        res = decide(back, w)
        if res.verdict is not Verdict.EQUAL:
            unknown += 1
            if len(failures) < 10:
                failures.append(
                    f"{format_braid_word(w)!r}: {res.verdict.value} "
                    f"({res.reason})")
    bad_invariants = bad_images = 0
    for _ in range(invariant_samples):
        n = rng.randint(2, 5)
        w = _random_word(rng, n, 20)
        back = recompose(normal_form(w))
        if (permutation_of(back) != permutation_of(w)
                or exponent_invariants(back) != exponent_invariants(w)
                or pair_counts(back) != pair_counts(w)):
            bad_invariants += 1
            if len(failures) < 10:
                failures.append(f"invariants drift: {format_braid_word(w)!r}")
        if image(back) != image(w):
            bad_images += 1
            if len(failures) < 10:
                failures.append(
                    f"representation images differ: {format_braid_word(w)!r}")
    return SuiteResult(
        "normal form round trip",
        unknown == 0 and bad_invariants == 0 and bad_images == 0,
        f"{samples} oracle round trips ({unknown} not Equal), "
        f"{invariant_samples} invariant checks ({bad_invariants} drifted, "
        f"{bad_images} with different representation images), "
        f"seed {seed}",
        time.time() - t0, tuple(failures))


def stability_suite(samples: int = 500,
                    seed: int = DEFAULT_SEED) -> SuiteResult:
    """Replacing one side of a defining relation inside a random context
    must leave the normal form structurally unchanged.

    Families whose letters commute with the sweep context (inverse
    pairs, the virtual involution, the twist, and distant commuting) are
    hard failures; the interleaving families are measured and reported,
    since rewriting there can settle on distinct stable forms whose
    equality the oracle still certifies.
    """
    t0 = time.time()
    rng = random.Random(seed)
    rels = standard_relation_instances(3)
    mismatches: dict[int, int] = {}
    counts: dict[int, int] = {}
    failures = []
    for _ in range(samples):
        rel = rng.choice(rels)
        a = _random_word(rng, 3, 3, min_len=0)
        b = _random_word(rng, 3, 3, min_len=0)
        u = concat_words(a, rel.lhs, b)
        v = concat_words(a, rel.rhs, b)
        counts[rel.family] = counts.get(rel.family, 0) + 1
        if normal_form(u) != normal_form(v):
            mismatches[rel.family] = mismatches.get(rel.family, 0) + 1
            if rel.family in STRICT_STABILITY_FAMILIES and len(failures) < 10:
                failures.append(
                    f"family {rel.family} {rel.name}: a="
                    f"{format_braid_word(a)!r} b={format_braid_word(b)!r}")
    strict_bad = sum(mismatches.get(f, 0) for f in STRICT_STABILITY_FAMILIES)
    report = {f"family {f}": f"{mismatches.get(f, 0)}/{counts.get(f, 0)}"
              for f in sorted(counts)}
    reported = ", ".join(f"{k}: {v}" for k, v in report.items())
    return SuiteResult(
        "normal form stability", strict_bad == 0,
        f"{samples} contexted relation pairs, seed {seed}; "
        f"mismatches {reported}",
        time.time() - t0, tuple(failures), report)


def coset_system_suite(max_strands: int = 6) -> SuiteResult:
    """The coset transversal must have one representative per
    permutation and be closed under prefixes."""
    t0 = time.time()
    failures = []
    for n in range(2, max_strands + 1):
        system = schreier_system(n)
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        if len(system) != expected:
            failures.append(f"n={n}: {len(system)} representatives, "
                            f"expected {expected}")
        images = {permutation_of(rep.braid_word).images for rep in system}
        if len(images) != len(system):
            failures.append(f"n={n}: representative permutations collide")
        for rep in system:
            word = rep.braid_word
            for cut in range(len(word.codes) + 1):
                prefix = BraidWord(n, word.codes[:cut])
                again = schreier_representative(permutation_of(prefix), n)
                if again.braid_word.codes != prefix.codes:
                    failures.append(
                        f"n={n}: prefix {format_braid_word(prefix)!r} of "
                        f"{format_braid_word(word)!r} is not canonical")
    return SuiteResult(
        "coset system", not failures,
        f"transversals checked on 2..{max_strands} strands",
        time.time() - t0, tuple(failures[:10]))


def run_all(quick: bool = False, seed: int = DEFAULT_SEED,
            max_strands: int | None = None) -> list[SuiteResult]:
    """Run every suite; max_strands caps (never extends) the built-in
    strand ranges, quick cuts the random sample counts tenfold."""
    def cap(default: int) -> int:
        if max_strands is None:
            return default
        return max(2, min(default, max_strands))

    scale = 10 if quick else 1
    return [
        defining_relations_suite(cap(5)),
        string_presentation_suite(cap(4)),
        derived_relations_suite(tuple(m for m in (3, 4) if m <= cap(4))),
        conjugation_rule_suite(),
        relabeling_suite(cap(4)),
        round_trip_suite(1000 // scale, 1000 // scale, seed),
        stability_suite(500 // scale, seed),
        coset_system_suite(cap(6)),
    ]
