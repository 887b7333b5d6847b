"""Command-line front end.

Subcommands: run a ranker over a suite, trace a single trajectory to CSV,
re-verify the stall instances, export/validate manifests, and run the weight
search.  Identical invocations produce byte-identical output; reals are
formatted with 17 significant digits so traces diff cleanly across platforms.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from blowup_lab.benchmarks import (
    ManifestError,
    builtin_suites,
    get_suite,
    load_manifest,
    save_manifest,
)
from blowup_lab.core import ParseError, State, VariableSet, parse_polynomial
from blowup_lab.features import FEATURE_NAMES, extract_features
from blowup_lab.harness import (
    DEFAULT_CAP,
    DEFAULT_WINDOW,
    HarnessConfig,
    score_benchmark,
    simulate_case,
    verify_counterexamples,
)
from blowup_lab.rankers import RankerTemplate, get_ranker, ranker_names
from blowup_lab.search import hill_climb

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_BAD_ARGS = 2
EXIT_MANIFEST = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


@contextmanager
def _writing(path: str):
    # an output path that cannot be written is a bad argument, not an
    # unsolved case
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _writing(path):
        Path(path).write_text(text, encoding="utf-8")


def _resolve_suite(name: str):
    if name in builtin_suites():
        return name, get_suite(name)
    path = Path(name)
    if path.exists():
        return path.name, load_manifest(path)
    raise ValueError(f"unknown suite {name!r}: not a builtin and not a file")


def _cmd_run(args) -> int:
    ranker = get_ranker(args.ranker)
    suite_name, cases = _resolve_suite(args.suite)
    cfg = HarnessConfig(window=args.m, cap=args.cap)
    report = score_benchmark(
        ranker, cases, cfg, suite_name=suite_name, ranker_name=args.ranker
    )
    payload = json.dumps(report.to_json_dict(), indent=2)
    if args.json:
        _write_text(args.json, payload + "\n")
        print(
            f"{suite_name} / {args.ranker}: solved {report.solved_count}/{len(report.reports)}, "
            f"violations {_fmt(report.total_violations)}, max plateau {report.max_plateau}"
        )
    else:
        print(payload)
    return EXIT_OK if report.all_solved else EXIT_UNSOLVED


def _cmd_trace(args) -> int:
    ranker = get_ranker(args.ranker)
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    vars = VariableSet(names=names, char_p=args.p)
    ideal = parse_polynomial(args.poly, vars)
    cfg = HarnessConfig(window=args.m, cap=args.cap)
    state = State.initial(ideal, vars)
    trajectory, feature_stream, rank_stream, audit = simulate_case(state, ranker, cfg)

    # a rank the ranker raised on is None and gets empty cells
    rank_width = next((len(tuple(r)) for r in rank_stream if r is not None), 0)
    header = (
        ["step", "center_kind", "center_var", "exc"]
        + list(FEATURE_NAMES)
        + [f"rank_{i}" for i in range(rank_width)]
        + ["best_so_far", "violation_flags"]
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for t in range(len(feature_stream)):
        if t < len(trajectory.centers):
            center = trajectory.centers[t]
            center_kind = center.kind
            center_var = vars.names[center.var_index]
            exc = str(trajectory.excs[t])
        else:
            center_kind = ""
            center_var = ""
            exc = ""
        rank = rank_stream[t]
        row = (
            [str(t), center_kind, center_var, exc]
            + [_fmt(v) for v in feature_stream[t]]
            + ([""] * rank_width if rank is None else [_fmt(v) for v in rank])
            + [str(int(audit.best_improved[t])), str(audit.step_flags[t])]
        )
        writer.writerow(row)
    text = buffer.getvalue()
    if args.csv:
        _write_text(args.csv, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    findings = verify_counterexamples()
    if args.json:
        print(json.dumps(findings.to_json_dict(), indent=2))
    else:
        print(f"lex tuple stalls at window 10:        {findings.lex_tuple_delay_m10} (expected True)")
        print(f"discretized rank stalls at window 5:  {findings.disc_delay_m5} (expected True)")
        print(f"catastrophe ranker clears at window 5: {findings.r100_clean_m5} (expected True)")
        print(f"discrete rank at step 0: {findings.disc_rank_step0}")
        print(f"discrete rank at step 9: {findings.disc_rank_step9}")
        print(f"continuous c2 first hits 0 at step:   {findings.lex_c2_first_zero_step}")
    return EXIT_OK if findings.all_match_expected else EXIT_UNSOLVED


def _cmd_export(args) -> int:
    cases = get_suite(args.suite)
    with _writing(args.out):
        save_manifest(cases, args.out)
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cases = load_manifest(args.path)
    # run starts each case by extracting its initial state's features, so a
    # case they overflow on is refused here; later steps can still grow
    # exponents, so this does not promise that run never fails
    for case in cases:
        try:
            extract_features(case.initial_state())
        except (ArithmeticError, ValueError) as exc:
            raise ManifestError(
                f"case {case.name!r}: initial-state features: {type(exc).__name__}: {exc}"
            ) from exc
    print(f"{args.path}: {len(cases)} cases OK")
    return EXIT_OK


def _cmd_search(args) -> int:
    suite_name, cases = _resolve_suite(args.suite)
    cfg = HarnessConfig(window=args.m, cap=args.cap)
    template = RankerTemplate.depth_charge()
    weights, report, history = hill_climb(
        template, cases, cfg, budget=args.budget, seed=args.seed,
        restarts=args.restarts,
    )
    result = {
        "suite": suite_name,
        "seed": args.seed,
        "budget": args.budget,
        "restarts": args.restarts,
        "best_weights": list(weights),
        "saturated_score": report.saturated_score,
        "solved": report.solved_count,
        "cases": len(report.reports),
    }
    payload = json.dumps(result, indent=2)
    if args.weights_out:
        _write_text(args.weights_out, payload + "\n")
    print(payload)
    if args.history_out:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["evaluation", "score"])
        for index, score in history:
            writer.writerow([str(index), _fmt(score)])
        _write_text(args.history_out, buffer.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowup-lab",
        description="Blow-up simulator, ranking functions and descent harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="score a ranker over a suite")
    run.add_argument("--ranker", required=True, help=f"one of: {', '.join(ranker_names())}")
    run.add_argument("--suite", required=True, help="builtin suite name or manifest path")
    run.add_argument("--m", type=int, default=DEFAULT_WINDOW, help="bounded-delay window")
    run.add_argument("--cap", type=int, default=DEFAULT_CAP, help="step cap")
    run.add_argument("--json", default=None, help="write the full report to this file")
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", help="per-step trace of one trajectory as CSV")
    trace.add_argument("--ranker", required=True)
    trace.add_argument("--poly", required=True, help='polynomial text, e.g. "z^3 + x^6 + w^6"')
    trace.add_argument("--p", type=int, default=3, help="characteristic")
    trace.add_argument("--vars", default="x,y,w,z", help="comma-separated variables, elimination last")
    trace.add_argument("--m", type=int, default=DEFAULT_WINDOW)
    trace.add_argument("--cap", type=int, default=DEFAULT_CAP)
    trace.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    verify = sub.add_parser("verify-counterexamples", help="re-check the stall instances")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    export = sub.add_parser("export-suite", help="write a builtin suite as a JSON manifest")
    export.add_argument("--suite", required=True)
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export)

    validate = sub.add_parser(
        "validate-manifest", help="parse a manifest and extract each case's initial features"
    )
    validate.add_argument("path")
    validate.set_defaults(func=_cmd_validate)

    search = sub.add_parser("search", help="hill-climb ranker weights against the harness")
    search.add_argument("--suite", required=True)
    search.add_argument("--budget", type=int, required=True, help="candidate evaluations")
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--restarts", type=int, default=0)
    search.add_argument("--m", type=int, default=DEFAULT_WINDOW)
    search.add_argument("--cap", type=int, default=DEFAULT_CAP)
    search.add_argument("--weights-out", default=None)
    search.add_argument("--history-out", default=None)
    search.set_defaults(func=_cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OverflowError as exc:
        print(f"error: OverflowError: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    raise SystemExit(main())
