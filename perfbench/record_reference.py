"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py --workload NAME [--seeds 0-63]

builtin_sweep: the full ``to_json_dict`` of all 12 suite x ranker pairs,
scored as ``blowup-lab run`` scores them (one ``score_benchmark`` call per
pair), and the ``verify_counterexamples()`` findings.

Seeded workloads: the full projected outputs at DEFAULT_SEED and a digest of
the projected outputs for every seed in --seeds.  Run only on a commit whose
outputs are known to be right; the files are written to perfbench/reference/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BUILD_DIR = HERE.parent / ".bench_build" / "perfbench"


def seeded_outputs(workload: str, seed: int) -> list:
    if workload == "wide_generators":
        wl.write_wide_manifest(BUILD_DIR, seed)
    inputs = wl.build_inputs(workload, seed, BUILD_DIR, wl.plain_call)
    outputs, _, _, failures = wl.run_pass(workload, seed, inputs, wl.plain_call)
    if failures:
        raise RuntimeError(f"{workload} seed {seed} raised: {failures[:3]}")
    return outputs


def record_builtin() -> dict:
    from blowup_lab import HarnessConfig, get_ranker, score_benchmark
    from blowup_lab.benchmarks import get_suite

    cfg = HarnessConfig(window=wl.WINDOW, cap=wl.SWEEP_CAP)
    pairs = {}
    for suite in wl.SWEEP_SUITES:
        for ranker in wl.SWEEP_RANKERS:
            report = score_benchmark(
                get_ranker(ranker), get_suite(suite), cfg, suite_name=suite, ranker_name=ranker)
            pairs[f"{suite}/{ranker}"] = report.to_json_dict()
    return {"pairs": pairs, "counterexamples": wl.counterexample_findings()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seeds", default="0-63", help="inclusive range A-B")
    args = parser.parse_args()
    BUILD_DIR.mkdir(parents=True, exist_ok=True)

    if args.workload == "builtin_sweep":
        payload = record_builtin()
    else:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        digests = {}
        for seed in range(lo, hi + 1):
            digests[str(seed)] = wl.digest(seeded_outputs(args.workload, seed))
            print(f"{args.workload} seed {seed} {digests[str(seed)][:12]}", flush=True)
        outputs = seeded_outputs(args.workload, wl.DEFAULT_SEED)
        if digests.get(str(wl.DEFAULT_SEED), wl.digest(outputs)) != wl.digest(outputs):
            raise RuntimeError("default-seed outputs are not reproducible")
        payload = {"default_seed": wl.DEFAULT_SEED, "outputs": outputs, "digests": digests}
        if args.workload == "wide_generators":
            payload["kd_distribution"] = wl.wide_manifest_entries(wl.DEFAULT_SEED)[1]

    path = HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
