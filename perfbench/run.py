"""blowup-lab benchmark: one workload, closed-loop load, fresh process per repetition.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each timed repetition is one pass of
the workload in a fresh interpreter (``perfbench/worker.py``) with
``BLOWUP_LAB_THREADS`` unset, so the package runs with workers=1 and pays its
own warm-up, as a ``blowup-lab run`` invocation does.  Repetitions continue
until the next one would end after S seconds (at least MIN_REPS).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions, prints the per-layer metrics and the tracing overhead,
and runs the layer probes.  Every output is checked (see README.md); the last
stdout line is the JSON result and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIR = HERE / "reference"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 150
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BLOWUP_LAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--build-dir", str(BUILD_DIR)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]}") from exc


def prepare(workload: str, seed: int) -> dict:
    """Benchmark-side input preparation, outside every timed process."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    info = {}
    if workload == "wide_generators":
        path, distribution = wl.write_wide_manifest(BUILD_DIR, seed)
        proc = subprocess.run(
            [sys.executable, "-m", "blowup_lab.cli", "validate-manifest", str(path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"validate-manifest rejected {path}: {proc.stderr.strip()}")
        info["kd_distribution"] = distribution
        info["validate_manifest"] = proc.stdout.strip()
    return info


def read_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        raise BenchError(f"missing reference file {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def load_reference(workload: str, seed: int):
    """(kind, reference) where kind is "full", "digest" or None."""
    ref = read_reference(workload)
    if workload == "builtin_sweep":
        outputs = [
            wl.project_case(case)
            for suite in wl.SWEEP_SUITES
            for ranker in wl.SWEEP_RANKERS
            for case in ref["pairs"][f"{suite}/{ranker}"]["cases"]
        ]
        return "full", {"outputs": outputs, "counterexamples": ref["counterexamples"]}
    if seed == ref["default_seed"]:
        return "full", {"outputs": ref["outputs"]}
    if str(seed) in ref["digests"]:
        return "digest", {"digest": ref["digests"][str(seed)]}
    return None, None


def check_reps(workload: str, seed: int, reps: list[dict]) -> tuple[int, int, list[str], str]:
    """Count attempted and failed operations over all repetitions.

    An operation fails if it raised, if its output differs from the
    reference, from the first repetition's output, or breaks an invariant.
    """
    kind, ref = load_reference(workload, seed)
    if kind == "full":
        described = f"reference outputs recorded at the seed commit (seed {seed})"
    elif kind == "digest":
        described = f"reference digest recorded at the seed commit (seed {seed})"
    else:
        described = f"invariants only: no reference recorded for seed {seed}"
    described += "; identical outputs in every repetition; solved <=> zero violations"
    if workload == "builtin_sweep":
        described += "; verify_counterexamples findings"

    first = reps[0]["outputs"]
    attempted = 0
    failed = 0
    messages: list[str] = []
    for index, rep in enumerate(reps):
        outputs = rep["outputs"]
        attempted += rep["attempted"]
        bad = set()
        for message in rep["failures"]:
            messages.append(f"rep {index}: raised: {message}")
        bad.update(i for i, out in enumerate(outputs) if out is None)
        if len(outputs) != len(first):
            bad.update(range(len(outputs)))
            messages.append(f"rep {index}: {len(outputs)} outputs, first rep had {len(first)}")
        else:
            differing = [i for i, (a, b) in enumerate(zip(outputs, first)) if a != b]
            bad.update(differing)
            if differing:
                messages.append(f"rep {index}: {len(differing)} outputs differ from rep 0")
        if kind == "full":
            expected = ref["outputs"]
            if len(expected) != len(outputs):
                bad.update(range(len(outputs)))
            for i, (out, exp) in enumerate(zip(outputs, expected)):
                if out != exp:
                    bad.add(i)
                    if len(messages) < 20:
                        messages.append(f"rep {index}: output {i} differs from the reference")
        elif kind == "digest" and wl.digest(outputs) != ref["digest"]:
            bad.update(range(len(outputs)))
            messages.append(f"rep {index}: outputs differ from the reference digest")
        invariant = wl.invariant_errors(workload, outputs)
        messages.extend(f"rep {index}: {m}" for m in invariant[:5])
        # a search pass has one output standing for all its evaluations
        scale = rep["attempted"] // max(1, len(outputs))
        failed += min(len(bad) * scale + len(invariant), rep["attempted"])
        if workload == "builtin_sweep":
            attempted += 1
            if rep["counterexamples"] != ref["counterexamples"]:
                failed += 1
                messages.append(f"rep {index}: verify_counterexamples findings differ")
    return attempted, failed, messages, described


def check_probe(probe: dict) -> tuple[int, int, list[str]]:
    pair = read_reference("builtin_sweep")["pairs"]["extended100/r100"]
    expected = [wl.project_case(c) for c in pair["cases"]]
    messages = list(probe["errors"])
    if probe["extended100_r100"] != expected:
        messages.append("probe: extended100 x r100 differs from the reference")
    return probe["attempted"], min(len(messages), probe["attempted"]), messages


def percentile(sorted_values: list[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(workload: str) -> float:
    """Highest ladder percentile with at least ten operations beyond it."""
    n = wl.OPS_PER_PASS[workload]
    return next(q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= 10)


def fastest_op_times(reps: list[dict]) -> list[float]:
    """Each case's fastest measured time over the passes."""
    return [min(times) for times in zip(*(r["latencies_s"] for r in reps))]


def reference_op_times(reps: list[dict]) -> list[float]:
    """Each case's median time over the passes, in reference seconds (see
    calibrate.py): the host's speed phases outlast a run, so measured
    times are scaled by the reference loop's speed around each case."""
    return [statistics.median(times) for times in zip(*(r["ref_latencies_s"] for r in reps))]


def end_to_end(workload: str, reps: list[dict], attempted: int, failed: int):
    cases = wl.OPS_PER_PASS[workload]
    if workload == "builtin_sweep":
        evals = len(wl.SWEEP_SUITES) * len(wl.SWEEP_RANKERS)
    elif workload == "search_focused":
        evals = wl.SEARCH_EVALS
    else:
        evals = 1
    latencies = sorted(reference_op_times(reps))
    pass_s = sum(latencies)
    q = tail_percentile(workload)
    metrics = {
        "setup_s": (statistics.median(r["setup_ref_s"] for r in reps), "s"),
        "cases_per_s": (cases / pass_s, "1/s"),
        "evals_per_s": (evals / pass_s, "1/s"),
        "case_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "case_ms.tail": (1e3 * percentile(latencies, q), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    beyond = len(latencies) - math.ceil(q / 100.0 * len(latencies))
    notes = [
        "times are reference seconds: measured time x the reference loop's "
        "nominal over its local duration (calibrate.py)",
        f"case_ms.tail is p{q:g} of {len(latencies)} cases ({beyond} beyond it), "
        f"each the median of {len(reps)} passes",
        f"passes {len(reps)}; sum of case times {pass_s:.4f} reference s; "
        f"median pass {statistics.median(r['pass_s'] for r in reps):.4f} s measured; "
        f"host slowdown against the reference "
        f"{statistics.median(r['host_slowdown'] for r in reps):.3f}",
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)",
    ]
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict], probe: dict, declared: dict):
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    values.update(probe["probes"])
    values["harness.workers2_speedup"] = probe["workers2_speedup"]
    values["cli.run_overhead_ms"] = probe["cli_run_overhead_ms"]
    values["trace.overhead_frac"] = (
        sum(fastest_op_times(traced)) / sum(fastest_op_times(untraced)) - 1.0)
    missing = [n for n in units if n not in values]
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    split = probe["split_ms"]
    notes = [
        "extended100 x r100 traced split (ms): "
        + ", ".join(f"{k} {v:.1f}" for k, v in split.items()),
        f"workers=1 {probe['workers1_ms']:.1f} ms, workers=2 {probe['workers2_ms']:.1f} ms",
        f"traced passes {len(traced)}, untraced passes {len(untraced)}",
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "blowup_lab" / "__init__.py").is_file():
        print(f"error: no blowup_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))

    started = time.perf_counter()
    info = prepare(args.workload, args.seed)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    reps: dict[str, list[dict]] = {m: [] for m in modes}
    walls: list[float] = []
    loop_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for mode in modes:
            reps[mode].append(run_child(base + ["--mode", mode, "--rep", str(len(reps[mode]))]))
        walls.append(time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= MIN_REPS and (
            elapsed + statistics.median(walls) > args.seconds or elapsed > RUN_LIMIT_S
        ):
            break

    all_reps = [r for m in modes for r in reps[m]]
    attempted, failed, messages, described = check_reps(args.workload, args.seed, all_reps)
    if args.trace:
        probe = run_child(base + ["--mode", "probe"])
        p_attempted, p_failed, p_messages = check_probe(probe)
        attempted += p_attempted
        failed += p_failed
        messages += p_messages
        metrics, notes = per_layer(reps["untraced"], reps["traced"], probe, declared)
    else:
        metrics, notes = end_to_end(args.workload, reps["untraced"], attempted, failed)

    correct = failed == 0 and not messages
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"{platform.machine()}")
    print(f"check: {described}")
    for key, value in info.items():
        print(f"{key}: {json.dumps(value) if isinstance(value, dict) else value}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for message in messages[:20]:
        print(f"MISMATCH {message}")
    print(f"wall {time.perf_counter() - started:.1f} s")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = BUILD_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "info": info, "notes": notes,
                                  "messages": messages}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
