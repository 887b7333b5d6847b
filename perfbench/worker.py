"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode untraced|traced|probe
        --build-dir DIR --rep K

Prints one JSON object on its last stdout line.  Set-up time runs from the
first statement of this file, before ``blowup_lab`` is imported, to the
moment the inputs are ready; a process-wide cache warmed here never reaches
another repetition.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S, Calibrator  # noqa: E402


def _minimal_generator_count(state) -> int:
    # z-free monomials of minimal total degree, minus those divisible by
    # another: the generator count that sets the 2^k inclusion-exclusion cost
    z = state.vars.elim_index
    base = {m.exponents for m in state.ideal if m.exponents[z] == 0}
    if not base:
        return 0
    d = min(sum(e) for e in base)
    gens = [e for e in base if sum(e) == d]
    return sum(
        1 for g in gens
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)
    )


def _layer_metrics(tracer, lo, hi, kept, workload, outputs) -> dict:
    """Per-layer counts and self times of one traced pass."""
    own = tracer.self_times(lo, hi)
    spans = tracer.spans[lo:hi]
    calls = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1

    trajectories = kept["simulator.run_trajectory"]
    states = sum(len(t.states) for t in trajectories)
    steps = sum(len(t.centers) for t in trajectories)
    tail = sum(
        1 for t in trajectories for a, b in zip(t.states, t.states[1:]) if a.ideal == b.ideal
    )
    feature_states = kept["features.extract_features"]
    hs_states = kept["features.hilbert_samuel_base"]
    n_features = len(feature_states)
    audits = kept["harness.audit_trajectory"]
    probes = kept["harness.check_determinism"]
    structural = sum(1 for a in audits if a.report.structural_failure)
    structural += sum(1 for ok in probes if not ok)
    evals = calls.get("harness.score_benchmark", 0)
    eval_s = tracer.durations("harness.score_benchmark", lo, hi)
    improvements = 0
    if workload == "search_focused" and outputs and outputs[0] is not None:
        improvements = len(outputs[0]["history"]) - 1

    features_s = own.get("features.extract_features", 0.0) + own.get(
        "features.hilbert_samuel_base", 0.0)
    harness_s = sum(own.get(n, 0.0) for n in (
        "harness.score_benchmark", "harness.audit_trajectory", "harness.check_determinism"))
    return {
        "simulator.busy_s": own.get("simulator.run_trajectory", 0.0),
        "simulator.states": states,
        "simulator.steps": steps,
        "simulator.monomial_phase_frac":
            sum(1 for t in trajectories if t.monomial_step is not None) / len(trajectories),
        "simulator.tail_state_frac": tail / states,
        "features.busy_s": features_s,
        "features.calls": n_features,
        "features.distinct_state_frac":
            len({(s.ideal, s.boundary) for s in feature_states}) / n_features,
        "features.distinct_ideal_frac":
            len({s.ideal for s in feature_states}) / n_features,
        "features.hs_busy_s": own.get("features.hilbert_samuel_base", 0.0),
        "features.hs_max_generators":
            max((_minimal_generator_count(s) for s in {s.ideal: s for s in hs_states}.values()),
                default=0),
        "rankers.busy_s": own.get("rankers.Ranker.__call__", 0.0),
        "rankers.calls": calls.get("rankers.Ranker.__call__", 0),
        "harness.busy_s": harness_s,
        "harness.audit_s": sum(tracer.durations("harness.audit_trajectory", lo, hi)),
        "harness.probe_s": sum(tracer.durations("harness.check_determinism", lo, hi)),
        "harness.structural_failures": structural,
        "search.evals": evals,
        "search.eval_ms": 1e3 * sum(eval_s) / evals,
        "search.improvements": improvements,
        "search.feature_calls_per_eval": n_features / evals,
    }


def run_repetition(args) -> dict:
    build_dir = Path(args.build_dir)
    tracer = None
    span = wl.plain_call
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.call
    inputs = wl.build_inputs(args.workload, args.seed, build_dir, span)
    setup_end = time.perf_counter()
    setup_s = setup_end - T0

    calibrator = None
    if tracer is not None:
        setup_spans = tracer.mark()
        for kept in tracer.kept.values():
            kept.clear()
    else:
        calibrator = Calibrator()
    start = time.perf_counter()
    outputs, timed, attempted, failures = wl.run_pass(
        args.workload, args.seed, inputs, span, calibrator)
    pass_s = time.perf_counter() - start
    if tracer is not None:
        pass_end = tracer.mark()
        kept = {name: list(values) for name, values in tracer.kept.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies_s": [seconds for _, seconds in timed],
        "attempted": attempted,
        "failures": failures,
        "outputs": outputs,
        "peak_rss_mb": rss_mb,
    }
    if calibrator is not None:
        result["ref_latencies_s"] = [seconds * calibrator.scale(t) for t, seconds in timed]
        result["setup_ref_s"] = setup_s * calibrator.scale(setup_end)
        result["host_slowdown"] = median(calibrator.durations) / REFERENCE_S
    if args.workload == "builtin_sweep":
        # untimed check of the documented stall instances
        try:
            result["counterexamples"] = wl.counterexample_findings()
        except Exception as exc:
            result["counterexamples"] = {"error": repr(exc)}
    if tracer is not None:
        layers = _layer_metrics(tracer, setup_spans, pass_end, kept, args.workload, outputs)
        layers["core.parse_ms"] = 1e3 * sum(tracer.durations("core.parse", 0, setup_spans))
        layers["benchmarks.generate_ms"] = 1e3 * sum(
            tracer.durations("benchmarks.generate", 0, setup_spans))
        result["layers"] = layers
        tracer.write(build_dir / "spans" / f"{args.workload}-rep{args.rep}.csv")
    return result


def run_probe(args) -> dict:
    """Layer probes that do not fit inside a pass, on extended100 x r100:
    workers=2 against workers=1, the time ``cli.main(["run", ...])`` spends
    outside its own score_benchmark call, and the traced layer split.  Also
    times whichever input layer (parse or generate) the workload's set-up
    lacks."""
    import contextlib
    import io

    import blowup_lab
    from blowup_lab import HarnessConfig, cli, get_ranker
    from blowup_lab.benchmarks import extended100

    build_dir = Path(args.build_dir)
    cases = extended100()
    ranker = get_ranker("r100")
    cfg = HarnessConfig(window=wl.WINDOW, cap=wl.SWEEP_CAP)
    clock = time.perf_counter
    errors = []

    def score(workers):
        start = clock()
        report = blowup_lab.score_benchmark(
            ranker, cases, cfg, suite_name="extended100", ranker_name="r100", workers=workers)
        return clock() - start, report.to_json_dict()

    json_path = build_dir / "probe_run.json"
    argv = ["run", "--ranker", "r100", "--suite", "extended100", "--m", str(wl.WINDOW),
            "--cap", str(wl.SWEEP_CAP), "--json", str(json_path)]

    inner = []
    real_score = cli.score_benchmark

    def timed_score(*a, **k):
        start = clock()
        try:
            return real_score(*a, **k)
        finally:
            inner.append(clock() - start)

    cli.score_benchmark = timed_score

    def run_cli():
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        elapsed = clock() - start
        return elapsed - inner[-1], json.loads(json_path.read_text(encoding="utf-8"))

    _, reference = score(1)  # warm-up, and the report every other run must equal
    ops = 1
    t1, t2, overhead = [], [], []
    for _ in range(3):
        for workers, sink in ((1, t1), (2, t2)):
            elapsed, payload = score(workers)
            sink.append(elapsed)
            if payload != reference:
                errors.append(f"workers={workers} report differs from the first run")
        elapsed, payload = run_cli()
        overhead.append(elapsed)
        if payload != reference:
            errors.append("cli run --json differs from score_benchmark")
        ops += 3

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    splits = []
    for _ in range(3):
        lo = tracer.mark()
        start = clock()
        traced = tracer.call("harness.score_benchmark", blowup_lab.score_benchmark,
                             ranker, cases, cfg, "extended100", "r100").to_json_dict()
        traced_s = clock() - start
        if traced != reference:
            errors.append("traced extended100 x r100 report differs from untraced")
        own = tracer.self_times(lo, tracer.mark())
        splits.append({
            "end_to_end": traced_s,
            "simulate": own["simulator.run_trajectory"],
            "features": own["features.extract_features"] + own["features.hilbert_samuel_base"],
            "rank": own["rankers.Ranker.__call__"],
            "audit": own["harness.audit_trajectory"],
            "probe_and_glue": own["harness.check_determinism"] + own["harness.score_benchmark"],
        })
        ops += 1
    split_ms = {k: 1e3 * median(s[k] for s in splits) for k in splits[0]}

    probes = {}
    if args.workload == "surrogate_long":
        # the set-up generates; time parsing the same cases from a manifest
        generated = blowup_lab.generate_broad_surrogates(args.seed, wl.SURROGATE_COUNT)
        path = build_dir / "probe_surrogates.json"
        blowup_lab.save_manifest(generated, path)
        times = []
        for _ in range(3):
            start = clock()
            loaded = blowup_lab.load_manifest(path)
            times.append(clock() - start)
        if [(c.name, c.ideal) for c in loaded] != [(c.name, c.ideal) for c in generated]:
            errors.append("surrogate manifest round trip changed the cases")
        probes["core.parse_ms"] = 1e3 * median(times)
    else:
        # the set-up parses; time the program's generator at the same seed
        times = []
        for _ in range(3):
            start = clock()
            blowup_lab.generate_broad_surrogates(args.seed, wl.SURROGATE_COUNT)
            times.append(clock() - start)
        probes["benchmarks.generate_ms"] = 1e3 * median(times)

    return {
        "errors": errors,
        "attempted": ops + 1,
        "extended100_r100": [wl.project_case(c) for c in reference["cases"]],
        "workers2_speedup": median(t1) / median(t2),
        "workers1_ms": 1e3 * median(t1),
        "workers2_ms": 1e3 * median(t2),
        "cli_run_overhead_ms": 1e3 * median(overhead),
        "split_ms": split_ms,
        "probes": probes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("untraced", "traced", "probe"))
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args()
    result = run_probe(args) if args.mode == "probe" else run_repetition(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
