"""Command-line driver: parse, normalize, verify, and emit results.

Exit codes: 0 success, 2 parse or usage error (such as --max-iter 0),
3 algorithm error (iteration limit, radical failure, unsupported
characteristic), 4 verification or --check failure.  Diagnostics go to
stderr; with --json nothing but the result document ever reaches stdout.
The document's ``options.radical`` is the constant "auto", kept for
schema stability: there is one radical path.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ClosureKitError,
    IterationLimitExceeded,
    NonPrimeModulus,
    ParseError,
    StrategyFailed,
    UnsupportedCharacteristic,
    VerificationFailed,
)
from .groebner import ideals_equal
from .idealops import radical
from .normalize import NormalizationResult, normalize, presentation, verify_result
from .parser import parse_input
from .ring import DEGREVLEX, LEX

SCHEMA = "closure-kit/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALGORITHM = 3
EXIT_VERIFY = 4

_ORDERS = {"lex": LEX, "degrevlex": DEGREVLEX}


def build_result_document(result: NormalizationResult, options: dict,
                          include_trace: bool) -> dict:
    components = []
    for comp in result.components:
        pres = comp.presentation
        components.append({
            "variables": list(pres.ring.variables),
            "relations": [g.input_form() for g in pres.defining.groebner_basis()],
            "adjoined": [
                {
                    "name": adj.name,
                    "level": adj.level,
                    "numerator": adj.numerator.input_form(),
                    "denominator": adj.denominator.input_form(),
                }
                for adj in pres.adjoined
            ],
            "iterations": comp.iterations,
        })
    return {
        "schema": SCHEMA,
        "components": components,
        "trace": list(result.trace) if include_trace else [],
        "options": {
            "order": options["order"],
            "radical": "auto",
            "max_iter": options["max_iter"],
        },
    }


def emit_json(document: dict) -> str:
    return json.dumps(document, separators=(",", ":"))


def _emit_text(document: dict, out):
    print(f"components: {len(document['components'])}", file=out)
    for i, comp in enumerate(document["components"]):
        print(f"component {i}:", file=out)
        print(f"  variables: {', '.join(comp['variables'])}", file=out)
        relations = comp["relations"] or ["0"]
        print(f"  relations: {', '.join(relations)}", file=out)
        for adj in comp["adjoined"]:
            print(f"  adjoined: {adj['name']} = ({adj['numerator']}) / "
                  f"({adj['denominator']})  [level {adj['level']}]", file=out)
        print(f"  iterations: {comp['iterations']}", file=out)
    for event in document["trace"]:
        print(f"trace: {event}", file=out)


def run_cli(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="closure-kit",
        description="Normalization of reduced affine rings over QQ or GF(p).")
    sub = parser.add_subparsers(dest="command", required=True)
    norm = sub.add_parser("normalize", help="normalize the ring in FILE")
    norm.add_argument("file")
    norm.add_argument("--order", choices=sorted(_ORDERS), default="degrevlex")
    norm.add_argument("--max-iter", type=int, default=32)
    norm.add_argument("--json", action="store_true",
                      help="emit the result document as JSON on stdout")
    norm.add_argument("--verify", action="store_true",
                      help="run the independent certification checks")
    norm.add_argument("--check", action="store_true",
                      help="require the input ideal to be radical")
    norm.add_argument("--trace", action="store_true",
                      help="include the event trace in the output")

    try:
        args = parser.parse_args(argv)
        if args.max_iter < 1:
            norm.error(f"argument --max-iter: must be at least 1, got {args.max_iter}")
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK

    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        doc = parse_input(text, _ORDERS[args.order])
    except ParseError as exc:
        print(f"{args.file}:{exc.location()}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonPrimeModulus as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    options = {"order": args.order, "max_iter": args.max_iter}

    try:
        start = presentation(doc.ring, doc.generators)
        if args.check and not ideals_equal(radical(start.defining), start.defining):
            print("check failed: input ideal is not radical", file=sys.stderr)
            return EXIT_VERIFY
        result = normalize(start, max_iterations=args.max_iter)
        if args.verify:
            verify_result(start, result)
    except (IterationLimitExceeded, StrategyFailed, UnsupportedCharacteristic) as exc:
        print(f"algorithm error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ClosureKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM

    document = build_result_document(result, options, args.trace)
    if args.json:
        print(emit_json(document))
    else:
        _emit_text(document, sys.stdout)
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
