"""Command line front end: every pipeline stage as a subcommand.

Commands read braid words from their arguments (pass "-" to read from
stdin, which makes the stages pipeable) and print plain text by default
or versioned JSON with --json.  Exit codes: 0 success, 1 domain error or
failed verification, 2 resource bound exceeded, 3 usage error, 4 internal
error (a prover produced a certificate that does not check).
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import DEFAULT_SEED, run_all
from .decomposition import (_default_budget, format_normal_form,
                            normal_form, parse_normal_form, recompose)
from .errors import CertificateError, DomainError, ResourceBoundError
from .fusing import format_fusing_word, to_pure_times_coset
from .oracle import decide
from .perms import coset_map, format_permutation, permutation_of
from .schreier import nontrivial_canonical_pairs, rewrite_R
from .words import format_braid_word, parse_braid_word

USAGE_EXIT = 3
INTERNAL_EXIT = 4


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool uses 2
    for resource bounds, so usage errors move to 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _word_arg(text: str, strands: int):
    if text == "-":
        text = sys.stdin.read()
    return parse_braid_word(text, strands)


def _text_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _emit(args, plain: str, payload: dict) -> None:
    if args.json:
        print(json.dumps({"schema": 1, **payload}, indent=2))
    else:
        print(plain)


def _cmd_pi(args) -> int:
    perm = permutation_of(_word_arg(args.word, args.strands))
    _emit(args, format_permutation(perm),
          {"cycles": format_permutation(perm), "images": list(perm.images)})
    return 0


def _cmd_coset(args) -> int:
    rep = coset_map(_word_arg(args.word, args.strands))
    _emit(args, format_braid_word(rep.braid_word),
          {"representative": format_braid_word(rep.braid_word),
           "blocks": rep.block_display()})
    return 0


def _cmd_to_pure(args) -> int:
    dec = to_pure_times_coset(_word_arg(args.word, args.strands))
    pure = format_fusing_word(dec.pure)
    rep = format_braid_word(dec.coset.braid_word)
    _emit(args, f"pure: {pure}\ncoset: {rep}",
          {"pure": pure, "coset": rep})
    return 0


def _cmd_rewrite(args) -> int:
    fus = rewrite_R(_word_arg(args.word, args.strands))
    _emit(args, format_fusing_word(fus),
          {"fusing_word": format_fusing_word(fus)})
    return 0


def _cmd_derive_relations(args) -> int:
    pairs = nontrivial_canonical_pairs(args.strands)
    if args.json:
        records = []
        for rel in pairs.values():
            records.append({
                "lhs": format_fusing_word(rel.lhs),
                "rhs": format_fusing_word(rel.rhs),
                "family": rel.family,
                "base": rel.base_name,
                "coset": format_braid_word(rel.coset.braid_word),
            })
        print(json.dumps({"schema": 1, "strands": args.strands,
                          "relations": records}, indent=2))
    else:
        for rel in pairs.values():
            print(f"{format_fusing_word(rel.lhs)} = "
                  f"{format_fusing_word(rel.rhs)}")
    return 0


def _cmd_normal_form(args) -> int:
    nf = normal_form(_word_arg(args.word, args.strands),
                     budget=_budget(args))
    if args.json:
        layers = [{"level": layer.level,
                   "letters": [str(cl) for cl in layer.letters]}
                  for layer in nf.layers]
        print(json.dumps({"schema": 1,
                          "layers": layers,
                          "coset": format_braid_word(nf.coset.braid_word)},
                         indent=2))
    else:
        print(format_normal_form(nf))
    return 0


def _cmd_recompose(args) -> int:
    nf = parse_normal_form(_text_arg(args.normal_form), args.strands)
    word = recompose(nf)
    _emit(args, format_braid_word(word),
          {"word": format_braid_word(word)})
    return 0


def _cmd_decide(args) -> int:
    u = _word_arg(args.left, args.strands)
    v = _word_arg(args.right, args.strands)
    verdict = decide(u, v, max_len=args.max_len, max_nodes=args.max_nodes,
                     budget=_budget(args))
    print(json.dumps(verdict.to_json(include_witness=not args.no_witness),
                     indent=2))
    return 0


def _cmd_verify_suite(args) -> int:
    results = run_all(quick=args.quick, seed=args.seed,
                      max_strands=args.strands)
    passed = sum(r.passed for r in results)
    if args.json:
        print(json.dumps({
            "schema": 1,
            "passed": passed == len(results),
            "suites": [{"name": r.name, "passed": r.passed,
                        "summary": r.summary, "elapsed": round(r.elapsed, 2),
                        "failures": list(r.failures)}
                       for r in results],
        }, indent=2))
    else:
        for result in results:
            print(result.line())
            for failure in result.failures:
                print(f"       {failure}")
        print(f"{passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 1


def _add_strands(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", "--strands", type=int, required=True,
                        help="number of strands (required)")


def _budget(args) -> int:
    """--budget, else BRAIDFORGE_BUDGET read by the library's rules."""
    return _default_budget() if args.budget is None else args.budget


def build_parser() -> _Parser:
    parser = _Parser(prog="braidforge",
                     description="virtual singular braid words: permutation "
                                 "images, pure-subgroup rewriting, layered "
                                 "normal forms, and certified equality")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="strand permutation of a word")
    _add_strands(p)
    p.add_argument("word", help='braid word, e.g. "s1 v2 T1" ("-" = stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pi)

    p = sub.add_parser("coset", help="canonical coset representative")
    _add_strands(p)
    p.add_argument("word", help='braid word ("-" = stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_coset)

    p = sub.add_parser("to-pure",
                       help="split a word into pure part times representative")
    _add_strands(p)
    p.add_argument("word", help='braid word ("-" = stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_to_pure)

    p = sub.add_parser("rewrite",
                       help="rewrite a pure word over the fusing generators")
    _add_strands(p)
    p.add_argument("word", help='pure braid word ("-" = stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("derive-relations",
                       help="derived pure-subgroup relations, deduplicated")
    _add_strands(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_derive_relations)

    p = sub.add_parser("normal-form", help="layered normal form of a word")
    _add_strands(p)
    p.add_argument("word", help='braid word ("-" = stdin)')
    p.add_argument("--budget", type=int,
                   help="cap on rewriting work (env BRAIDFORGE_BUDGET)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_normal_form)

    p = sub.add_parser("recompose",
                       help="rebuild a braid word from a printed normal form")
    _add_strands(p)
    p.add_argument("normal_form",
                   help='normal form text as printed ("-" = stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_recompose)

    p = sub.add_parser("decide",
                       help="are two words the same group element (JSON out)")
    _add_strands(p)
    p.add_argument("left", help='braid word ("-" = stdin)')
    p.add_argument("right", help="braid word")
    p.add_argument("--max-len", type=int, default=None,
                   help="cap on intermediate word length in searches")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="cap on stored search states")
    p.add_argument("--budget", type=int,
                   help="cap on rewriting work (env BRAIDFORGE_BUDGET)")
    p.add_argument("--no-witness", action="store_true",
                   help="omit the step list from the JSON record")
    p.add_argument("--json", action="store_true",
                   help="accepted for uniformity; decide always prints JSON")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("verify-suite",
                       help="run the self-test batteries and print a table")
    _add_strands(p)
    p.add_argument("--quick", action="store_true",
                   help="tenfold smaller random samples")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_suite)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.fn(args)
    except ResourceBoundError as exc:
        print(f"braidforge: resource bound: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"braidforge: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"braidforge: internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
