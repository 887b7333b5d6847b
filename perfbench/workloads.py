"""Workload definitions shared by the repetition worker and the reference recorder.

Every workload is built from its seed alone and is scored through the public
``blowup_lab`` API.  ``build_inputs`` is the set-up a user pays on every
invocation; ``run_pass`` is one timed pass of closed-loop load (one caller,
the next case only after the previous one returns).  Outputs are projected
onto the fields recorded in the reference files, so a later change that adds a
reported field still compares equal.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

WORKLOADS = ("builtin_sweep", "surrogate_long", "search_focused", "wide_generators")
DEFAULT_SEED = 1

SWEEP_SUITES = ("broad24", "focused71", "extended100")
SWEEP_RANKERS = ("two_component", "clean_lex", "disc_lex", "r100")
WINDOW = 5
SWEEP_CAP = 30
SURROGATE_COUNT = 200
SEARCH_BUDGET = 10
#: Workloads that score one suite with one ranker: (ranker, step cap).
SINGLE_PAIR = {"surrogate_long": ("r100", 120), "wide_generators": ("disc_lex", 30)}
WIDE_GENERATORS = range(10, 16)
WIDE_DEGREES = range(5, 8)
WIDE_ROUNDS = 3

#: Case fields compared against the reference (the ``to_json_dict`` keys).
CASE_KEYS = ("name", "violations", "solved", "increases", "max_plateau")

#: Candidate evaluations per hill-climb pass: the free start plus the budget.
SEARCH_EVALS = SEARCH_BUDGET + 1
FOCUSED71_CASES = 71
SEARCH_OPS = SEARCH_EVALS * FOCUSED71_CASES

#: Cases timed in one pass.
OPS_PER_PASS = {
    "builtin_sweep": 780,
    "surrogate_long": SURROGATE_COUNT,
    "search_focused": SEARCH_OPS,
    "wide_generators": len(WIDE_GENERATORS) * len(WIDE_DEGREES) * WIDE_ROUNDS,
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def project_case(case_dict: dict) -> dict:
    return {k: case_dict[k] for k in CASE_KEYS}


# --- the seeded wide-generator manifest -------------------------------------

def _monomials_of_degree(degree: int, nvars: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(degree - first, nvars - 1):
            yield (first,) + rest


def wide_manifest_entries(seed: int) -> tuple[list[dict], dict]:
    """Manifest entries for ``wide_generators`` and the (k, d) counts drawn.

    Each case is dim 4, p = 3: ``z^3`` plus k distinct z-free monomials of one
    total degree d.  Every (k, d) pair occurs WIDE_ROUNDS times, so the
    2^k Hilbert-Samuel cost is balanced across seeds; the seed shuffles the
    pairs and draws the monomials.
    """
    rng = random.Random(seed)
    pairs = [(k, d) for k in WIDE_GENERATORS for d in WIDE_DEGREES] * WIDE_ROUNDS
    rng.shuffle(pairs)
    names = ("x", "y", "w")
    entries = []
    for i, (k, d) in enumerate(pairs):
        pool = list(_monomials_of_degree(d, len(names)))
        chosen = rng.sample(pool, k)
        terms = ["z^3"]
        for exps in chosen:
            terms.append("*".join(f"{n}^{e}" for n, e in zip(names, exps) if e > 0))
        entries.append({
            "name": f"wide_s{seed}_{i:03d}_k{k}_d{d}",
            "p": 3,
            "dim": 4,
            "vars": ["x", "y", "w", "z"],
            "poly": " + ".join(terms),
            "notes": f"generated(wide, seed={seed}, k={k}, d={d})",
        })
    distribution: dict[str, int] = {}
    for k, d in sorted(pairs):
        key = f"k={k},d={d}"
        distribution[key] = distribution.get(key, 0) + 1
    return entries, distribution


def wide_manifest_path(build_dir: Path, seed: int) -> Path:
    return build_dir / f"wide_generators_seed{seed}.json"


def write_wide_manifest(build_dir: Path, seed: int) -> tuple[Path, dict]:
    entries, distribution = wide_manifest_entries(seed)
    path = wide_manifest_path(build_dir, seed)
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return path, distribution


# --- set-up and one pass -----------------------------------------------------

def plain_call(name, fn, *args, **kwargs):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def build_inputs(workload: str, seed: int, build_dir: Path, span):
    """Build, load or generate the workload's inputs through the public API.

    ``span(name, fn, *args)`` calls fn and may record it; the untraced worker
    passes a plain caller.
    """
    import blowup_lab
    from blowup_lab import benchmarks

    if workload == "builtin_sweep":
        return {
            name: span("core.parse", getattr(benchmarks, name)) for name in SWEEP_SUITES
        }
    if workload == "surrogate_long":
        return span(
            "benchmarks.generate", blowup_lab.generate_broad_surrogates, seed, SURROGATE_COUNT
        )
    if workload == "search_focused":
        return span("core.parse", benchmarks.focused71)
    if workload == "wide_generators":
        return span("core.parse", blowup_lab.load_manifest, wide_manifest_path(build_dir, seed))
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, seed: int, inputs, span, calibrator=None,
             clock=time.perf_counter):
    """One timed pass.  Returns (outputs, operation times as (start,
    seconds) pairs, attempted, failures).

    Each case is timed as its own ``score_benchmark((case,), ...)`` call, in
    suite order.  On search_focused, where ``hill_climb`` scores whole
    suites, a case is timed from its ``run_trajectory`` call to the next
    case's, or to the end of the evaluation.  A calibrator, if given, may
    take a reference sample before a case starts; that time is in no case's.
    """
    import blowup_lab
    from blowup_lab import HarnessConfig, RankerTemplate, get_ranker

    calibrate = calibrator.maybe_sample if calibrator is not None else (lambda: None)

    score = blowup_lab.score_benchmark
    outputs = []
    latencies = []
    failures = []

    def score_cases(ranker_name, cases, cfg, suite_name):
        ranker = get_ranker(ranker_name)
        for case in cases:
            calibrate()
            start = clock()
            try:
                report = span(
                    "harness.score_benchmark", score, ranker, (case,), cfg,
                    suite_name, ranker_name,
                )
            except Exception as exc:  # a raising case is a failed operation
                latencies.append((start, clock() - start))
                failures.append(f"{suite_name}/{ranker_name}/{case.name}: {exc!r}")
                outputs.append(None)
                continue
            latencies.append((start, clock() - start))
            outputs.append(project_case(report.reports[0].to_json_dict()))

    if workload == "builtin_sweep":
        cfg = HarnessConfig(window=WINDOW, cap=SWEEP_CAP)
        for suite_name in SWEEP_SUITES:
            for ranker_name in SWEEP_RANKERS:
                score_cases(ranker_name, inputs[suite_name], cfg, suite_name)
        return outputs, latencies, len(outputs), failures
    if workload in SINGLE_PAIR:
        ranker_name, cap = SINGLE_PAIR[workload]
        score_cases(ranker_name, inputs, HarnessConfig(window=WINDOW, cap=cap), workload)
        return outputs, latencies, len(outputs), failures
    if workload == "search_focused":
        from blowup_lab import harness, search

        cfg = HarnessConfig(window=WINDOW, cap=SWEEP_CAP)
        inner_trajectory = harness.run_trajectory
        inner_score = search.score_benchmark
        case_starts = []
        case_ends = []
        scores = []

        def marked_trajectory(*args, **kwargs):
            # a case's work starts with its trajectory; it ends where the
            # next case's trajectory is called, or where the evaluation
            # returns
            if case_starts:
                case_ends.append(clock())
            calibrate()
            case_starts.append(clock())
            return inner_trajectory(*args, **kwargs)

        def timed_score(*args, **kwargs):
            case_starts.clear()
            case_ends.clear()
            report = inner_score(*args, **kwargs)
            case_ends.append(clock())
            latencies.extend((a, b - a) for a, b in zip(case_starts, case_ends))
            scores.append(report.saturated_score)
            return report

        harness.run_trajectory = marked_trajectory
        search.score_benchmark = timed_score
        try:
            weights, report, history = span(
                "search.hill_climb", blowup_lab.hill_climb,
                RankerTemplate.depth_charge(), inputs, cfg, SEARCH_BUDGET, seed,
            )
        except Exception as exc:
            return [None], latencies, SEARCH_OPS, [f"hill_climb: {exc!r}"]
        finally:
            harness.run_trajectory = inner_trajectory
            search.score_benchmark = inner_score
        outputs.append({
            "best_weights": list(weights),
            "history": [list(h) for h in history],
            "candidate_scores": scores,
            "saturated_score": report.saturated_score,
            "solved": report.solved_count,
            "cases": [project_case(r.to_json_dict()) for r in report.reports],
        })
        return outputs, latencies, SEARCH_OPS, failures
    raise ValueError(f"unknown workload {workload!r}")


def counterexample_findings() -> dict:
    from blowup_lab import verify_counterexamples

    return verify_counterexamples().to_json_dict()


# --- invariants applied on every seed ---------------------------------------

def invariant_errors(workload: str, outputs) -> list[str]:
    """Solved must coincide with zero violations; search history must be
    a strictly increasing record ending at the best report's score."""
    errors = []
    cases = []
    for out in outputs:
        if out is None:
            continue
        if workload == "search_focused":
            history = out["history"]
            scores = [s for _, s in history]
            if any(b <= a for a, b in zip(scores, scores[1:])):
                errors.append("search history is not strictly increasing")
            if scores[-1] != out["saturated_score"]:
                errors.append("search history does not end at the best score")
            if sum(1 for c in out["cases"] if c["solved"]) != out["solved"]:
                errors.append("search solved count disagrees with its cases")
            if max(out["candidate_scores"]) != out["saturated_score"]:
                errors.append("search best score is not the best candidate's score")
            cases.extend(out["cases"])
        else:
            cases.append(out)
    for case in cases:
        if case["solved"] != (case["violations"] == 0):
            errors.append(f"{case['name']}: solved={case['solved']} with "
                          f"{case['violations']} violations")
    return errors
