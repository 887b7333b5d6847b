from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import patch

import pytest

import blowup_lab
from blowup_lab.benchmarks import broad24, extended100, focused71, generate_broad_surrogates
from blowup_lab.core import State, VariableSet, parse_polynomial
from blowup_lab.harness import (
    DISC_STALL_POLY,
    FLAG_ALIGN_F0,
    FLAG_ALIGN_F14,
    FLAG_DELAY,
    FLAG_NORMALIZATION,
    HEAVY_WEIGHT,
    LEX_STALL_POLY,
    LIGHT_WEIGHT,
    STAGES,
    STRUCTURAL_PENALTY,
    HarnessConfig,
    audit_trajectory,
    check_determinism,
    score_benchmark,
    simulate_case,
    verify_counterexamples,
)
from blowup_lab.rankers import RankerTemplate, get_ranker, ranker_names


def _features(n, monomial_at=None, f0=None, f14=None):
    stream = []
    for t in range(n):
        fv = [0.0] * 26
        fv[0] = 3.0 if f0 is None else float(f0[t])
        fv[14] = 0.0 if f14 is None else float(f14[t])
        if monomial_at is not None and t >= monomial_at:
            fv[9] = 1.0
            fv[0] = 0.0
        stream.append(tuple(fv))
    return stream


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(window=0)
    with pytest.raises(ValueError):
        HarnessConfig(cap=-1)
    # a float, bool or str would score at an int cap or fail at the first step
    for value in (30.0, True, "30"):
        with pytest.raises(TypeError):
            HarnessConfig(window=value)
        with pytest.raises(TypeError):
            HarnessConfig(cap=value)
    # the rest of the protocol is fixed: only the window and the cap are settable
    assert [f.name for f in dataclasses.fields(HarnessConfig)] == ["window", "cap"]


def test_strictly_decreasing_stream_is_clean():
    n = 12
    ranks = [(3.0, float(n - t)) for t in range(n - 1)] + [(0.0, 0.0)]
    features = _features(n, monomial_at=n - 1)
    for m in range(1, 9):
        report = audit_trajectory(ranks, features, HarnessConfig(window=m)).report
        assert report.solved
        assert report.total_violations == 0


def test_constant_stream_delay_accrual():
    # 12 equal non-monomial entries: the gap reaches the window at t=5 and a
    # violation accrues on every later stalled step as well
    ranks = [(3.0, 1.0)] * 12
    features = _features(12)
    report = audit_trajectory(ranks, features, HarnessConfig(window=5)).report
    assert report.delay_violations == 7
    assert report.max_plateau == 11  # eleven consecutive repeats
    assert not report.solved


def test_delay_stops_at_monomial_entry():
    ranks = [(3.0, 1.0)] * 7 + [(0.0, 0.0)]
    features = _features(8, monomial_at=7)
    report = audit_trajectory(ranks, features, HarnessConfig(window=5)).report
    # stalled steps before the monomial entry: t = 5, 6
    assert report.delay_violations == 2


def test_normalization_violations_both_directions():
    ranks = [(3.0, 1.0), (1.0, 1.0), (0.0, 1.0)]
    features = _features(3, monomial_at=1)
    report = audit_trajectory(ranks, features, HarnessConfig()).report
    # t=1 is monomial but rank[0] != 0; t=2 would be fine
    assert report.normalization_violations == 1

    ranks = [(0.0, 1.0), (3.0, 1.0)]
    features = _features(2)
    report = audit_trajectory(ranks, features, HarnessConfig()).report
    # t=0 is non-monomial but rank[0] == 0
    assert report.normalization_violations == 1


def test_alignment_penalties_weighted():
    cfg = HarnessConfig()
    # f0 drops 3 -> 2 at t=1 while the rank stays put
    ranks = [(3.0, 5.0), (3.0, 5.0)]
    features = _features(2, f0=[3, 2])
    report = audit_trajectory(ranks, features, cfg).report
    assert report.align_f0 == HEAVY_WEIGHT
    assert report.align_f14 == 0.0

    # f14 drops at t=1 while the rank increases
    ranks = [(3.0, 5.0), (3.0, 6.0)]
    features = _features(2, f14=[2.0, 1.0])
    report = audit_trajectory(ranks, features, cfg).report
    assert report.align_f14 == LIGHT_WEIGHT
    assert report.align_f0 == 0.0

    # a strict rank drop silences both penalties
    ranks = [(3.0, 5.0), (2.0, 6.0)]
    features = _features(2, f0=[3, 2], f14=[2.0, 1.0])
    report = audit_trajectory(ranks, features, cfg).report
    assert report.total_violations == 0


def test_structural_penalty_on_nan():
    cfg = HarnessConfig()
    ranks = [(3.0, 1.0), (3.0, float("nan"))]
    report = audit_trajectory(ranks, _features(2), cfg).report
    assert report.structural_failure
    assert report.total_violations == STRUCTURAL_PENALTY
    assert not report.solved


def test_structural_penalty_on_crash_marker_and_shape():
    cfg = HarnessConfig()
    report = audit_trajectory([(3.0, 1.0), None], _features(2), cfg).report
    assert report.structural_failure
    report = audit_trajectory([(3.0, 1.0), (3.0, 1.0, 1.0)], _features(2), cfg).report
    assert report.structural_failure


def test_exact_int_beyond_float_range_is_a_finite_rank():
    # an exact int passes the gate without a float conversion, so a value
    # past the float range is finite and compares exactly
    ranks = [(3, 10**400 + 1), (3, 10**400), (0, 0)]
    audit = audit_trajectory(ranks, _features(3, monomial_at=2), HarnessConfig())
    assert not audit.report.structural_failure
    assert audit.report.solved
    assert audit.best_improved == (True, True, True)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        audit_trajectory([(1.0,)], _features(2), HarnessConfig()).report
    # scoring's own rank streams may outrun their prefix vectors; a caller's
    # may not
    with pytest.raises(ValueError):
        audit_trajectory([(1.0,)] * 3, _features(2), HarnessConfig()).report


def test_local_increase_and_plateau_diagnostics():
    ranks = [(3.0, 3.0), (3.0, 3.0), (3.0, 4.0), (3.0, 2.0), (3.0, 2.0), (3.0, 2.0)]
    report = audit_trajectory(ranks, _features(6), HarnessConfig()).report
    assert report.local_increases == 1
    assert report.max_plateau == 2  # two consecutive repeats of (3, 2)


def test_best_stream_is_running_lex_min():
    ranks = [(3.0, 5.0), (3.0, 7.0), (3.0, 4.0), (3.0, 6.0), (0.0, 0.0)]
    features = _features(5, monomial_at=4)
    audit = audit_trajectory(ranks, features, HarnessConfig())
    assert audit.best_improved == (True, False, True, False, True)


def test_delay_monotone_in_window():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 25)
        ranks = [(float(rng.randint(1, 4)), float(rng.randint(0, 5))) for _ in range(n)]
        features = _features(n)
        delays = [
            audit_trajectory(ranks, features, HarnessConfig(window=m)).report.delay_violations
            for m in range(1, 11)
        ]
        assert all(a >= b for a, b in zip(delays, delays[1:]))


def test_check_determinism_positive_and_negative(vars4):
    fv = tuple(float(i) for i in range(26))
    assert check_determinism(get_ranker("r100"), fv)

    calls = itertools.count()

    def counter_stub(_fv):
        return (next(calls),)

    assert not check_determinism(counter_stub, fv)

    def clock_stub(_fv):
        return (time.time(),)

    assert not check_determinism(clock_stub, fv)


def test_score_benchmark_saturated_formula(suite_focused71, default_cfg):
    report = score_benchmark(
        get_ranker("disc_lex"), suite_focused71, default_cfg, "focused71", "disc_lex"
    )
    assert report.saturated_score == 2.0 * 71
    assert report.all_solved


def test_score_benchmark_staged_totals_single_stage(suite_broad24, suite_extended100, default_cfg):
    # two_component misses broad24 cases 8 and 17 and extended100 cases 95
    # and 99, so the violations fall into the first stage and the second
    cases = list(suite_broad24) + list(suite_extended100[90:])
    report = score_benchmark(get_ranker("two_component"), cases, default_cfg)
    totals = [r.total_violations for r in report.reports]
    prefix_totals = [sum(totals if prefix is None else totals[:prefix]) for prefix, _ in STAGES]
    assert 0 < prefix_totals[0] < prefix_totals[1] == report.total_violations
    assert report.staged_violations == sum(
        weight * total for (_, weight), total in zip(STAGES, prefix_totals)
    )


def test_score_benchmark_order_invariant_totals(suite_focused71, default_cfg):
    cases = list(suite_focused71[:10])
    forward = score_benchmark(get_ranker("r100"), cases, default_cfg, "fwd")
    backward = score_benchmark(get_ranker("r100"), list(reversed(cases)), default_cfg, "bwd")
    assert forward.total_violations == backward.total_violations
    assert forward.solved_count == backward.solved_count


def test_score_benchmark_parallel_matches_serial(suite_focused71, default_cfg):
    cases = suite_focused71[:16]
    serial = score_benchmark(get_ranker("disc_lex"), cases, default_cfg, "s", workers=1)
    parallel = score_benchmark(get_ranker("disc_lex"), cases, default_cfg, "s", workers=4)
    assert serial == parallel


_IMPORT_THEN_SCORE = """
import sys
import blowup_lab
from blowup_lab import HarnessConfig, get_ranker, score_benchmark
from blowup_lab.benchmarks import focused71
print("concurrent.futures" in sys.modules)
args = (get_ranker("disc_lex"), focused71()[:12], HarnessConfig(), "s")
serial = score_benchmark(*args, workers=1)
print(score_benchmark(*args, workers=2) == serial, "concurrent.futures" in sys.modules)
"""


def test_thread_pool_is_imported_only_for_workers():
    # a serial scoring never reaches the pool: importing the package loads no
    # concurrent.futures (with its logging and queue), and workers=2 still
    # gives the serial report
    src = str(Path(blowup_lab.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_THEN_SCORE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=120,
        check=True,
    )
    assert child.stdout.decode().split() == ["False", "True", "True"]


def test_score_benchmark_flags_nondeterministic_ranker(suite_focused71, default_cfg):
    calls = itertools.count()

    class Jitter:
        name = "jitter"

        def __call__(self, fv):
            return (float(fv[0]) + 0.25 if fv[9] != 1 else 0.0, float(next(calls)))

    report = score_benchmark(Jitter(), suite_focused71[:3], default_cfg, "s")
    assert all(r.structural_failure for r in report.reports)
    assert not report.all_solved


def test_one_shot_ranks_score_as_tuples(suite_focused71, default_cfg):
    # the rank table reads a rank once, when it enters, so every state with a
    # repeated vector is audited on what a one-shot generator yielded
    disc = get_ranker("disc_lex")
    want = score_benchmark(disc, suite_focused71, default_cfg, ranker_name="disc_lex")
    assert want.all_solved
    for form in (lambda fv: (v for v in disc(fv)), lambda fv: list(disc(fv))):
        assert score_benchmark(form, suite_focused71, default_cfg, ranker_name="disc_lex") == want


def test_rank_that_raises_while_read_is_a_crash(suite_focused71, default_cfg):
    # the rank is read where the ranker is called: a generator that raises
    # part-way through is a crash of that case, not of the whole scoring
    disc = get_ranker("disc_lex")

    def cut_short(fv):
        yield from disc(fv)[:2]
        raise ValueError("boom")

    cases = suite_focused71[:3]
    report = score_benchmark(cut_short, cases, default_cfg)
    assert [r.structural_failure for r in report.reports] == [True] * 3
    _, _, ranks, _ = simulate_case(cases[0].initial_state(), cut_short, default_cfg)
    assert all(r is None for r in ranks)


def test_scoring_calls_the_timed_hooks_once_per_case(suite_focused71, default_cfg):
    # the benchmark times each case from its harness.run_trajectory call, and
    # its tracer wraps these module attributes
    harness = blowup_lab.harness
    names = ("run_trajectory", "audit_trajectory", "check_determinism")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(patch.object(harness, name, counted(name, getattr(harness, name))))
        report = score_benchmark(get_ranker("disc_lex"), suite_focused71, default_cfg)
    assert report.all_solved
    assert calls == dict.fromkeys(names, len(suite_focused71))


def test_score_benchmark_empty_suite_rejected(default_cfg):
    with pytest.raises(ValueError):
        score_benchmark(get_ranker("r100"), [], default_cfg)


def test_suite_report_json_shape(suite_focused71, default_cfg):
    report = score_benchmark(
        get_ranker("disc_lex"), suite_focused71[:5], default_cfg, "mini", "disc_lex"
    )
    payload = report.to_json_dict()
    assert payload["suite"] == "mini"
    assert payload["ranker"] == "disc_lex"
    assert payload["m"] == 5 and payload["cap"] == 30
    assert len(payload["cases"]) == 5
    assert set(payload["cases"][0]) == {"name", "violations", "solved", "increases", "max_plateau"}
    json.dumps(payload)  # serializable


def test_saturated_score_sums_left_to_right(suite_focused71, default_cfg):
    # search candidate 1 of `search --suite focused71 --budget 50 --seed 1`;
    # a compensated sum (float sum() from Python 3.12 on) gives ...bebcp+5
    template = RankerTemplate.depth_charge()
    weights = list(template.default_weights())
    weights[2] = -3.2158381264339324
    report = score_benchmark(template.instantiate(weights), suite_focused71, default_cfg)
    assert report.saturated_score.hex() == "-0x1.df7267806beb8p+5"


def test_saturated_score_example_values(suite_extended100, default_cfg):
    # r100 solves 99 of extended100; the one stubborn case at 10 violations
    # costs tanh(10 / 10) against the 99 solved
    report = score_benchmark(get_ranker("r100"), suite_extended100, default_cfg)
    assert report.solved_count == 99
    unsolved = [case for case in report.reports if not case.solved]
    assert [case.name for case in unsolved] == ["p3_A4_deep_variable_w"]
    assert unsolved[0].total_violations == 10.0
    assert report.saturated_score == 2.0 * 99 - math.tanh(1.0)


def test_verify_counterexamples_findings():
    findings = verify_counterexamples()
    assert findings.lex_tuple_delay_m10
    assert findings.disc_delay_m5
    assert findings.r100_clean_m5
    assert findings.all_match_expected
    assert findings.disc_rank_step0 == (3, 4280, 531, 5000, 220)
    assert findings.disc_rank_step9 == (3, 999, 511, 4770, 210)
    assert findings.lex_c2_first_zero_step == 2


def test_audit_step_flags(vars4):
    cfg = HarnessConfig(window=2)
    ranks = [(3.0, 1.0)] * 5
    audit = audit_trajectory(ranks, _features(5), cfg)
    assert audit.step_flags[0] == 0
    assert audit.step_flags[2] & FLAG_DELAY
    assert audit.best_improved[0] and not any(audit.best_improved[1:])


def test_simulate_case_records_crash_as_none(vars4, default_cfg):
    state = State.initial(parse_polynomial("z^3 + x^6", vars4), vars4)

    def exploder(fv):
        raise RuntimeError("boom")

    _, _, ranks, _ = simulate_case(state, exploder, default_cfg)
    assert all(r is None for r in ranks)


def test_step_flags_account_for_the_report():
    # a trace explains a run's verdict: in an audit that is not structural,
    # the per-step flags reproduce every count of the report
    cfg = HarnessConfig(cap=30)
    audited = 0
    for ranker in map(get_ranker, ranker_names()):
        for case in broad24() + focused71() + extended100():
            _, _, _, audit = simulate_case(case.initial_state(), ranker, cfg)
            report = audit.report
            if report.structural_failure:
                continue
            flagged = {
                flag: sum(1 for f in audit.step_flags if f & flag)
                for flag in (FLAG_DELAY, FLAG_NORMALIZATION, FLAG_ALIGN_F0, FLAG_ALIGN_F14)
            }
            assert flagged[FLAG_DELAY] == report.delay_violations, case.name
            assert flagged[FLAG_NORMALIZATION] == report.normalization_violations, case.name
            assert flagged[FLAG_ALIGN_F0] * HEAVY_WEIGHT == report.align_f0, case.name
            assert flagged[FLAG_ALIGN_F14] * LIGHT_WEIGHT == report.align_f14, case.name
            audited += 1
    assert audited == 4 * (24 + 71 + 100)


def test_audit_detail_digest_is_pinned():
    # the report, the per-step flags and the best-so-far marks of every
    # builtin-suite case under every ranker at cap 30, and of 200 generated
    # cases under r100 at cap 120: the trace CSV is made of these, so a change
    # to the audit that moves any of them moves the digest
    digest = hashlib.sha256()
    count = 0
    runs = [(name, broad24() + focused71() + extended100(), 30) for name in ranker_names()]
    runs.append(("r100", generate_broad_surrogates(1, 200), 120))
    for name, cases, cap in runs:
        cfg = HarnessConfig(cap=cap)
        ranker = get_ranker(name)
        for case in cases:
            _, features, ranks, _ = simulate_case(case.initial_state(), ranker, cfg)
            audit = audit_trajectory(ranks, features, cfg, name=case.name)
            detail = (audit.report.to_json_dict(), audit.step_flags, audit.best_improved)
            digest.update(repr(detail).encode())
            count += len(ranks)
    assert count == 47_496
    assert digest.hexdigest() == (
        "e781d1ac827179b65796bdc938459860d86185ed2f73f01fa2747f86447dff1e"
    )


def test_evaluated_audit_is_the_public_audit_of_the_streams():
    # simulate_case returns _evaluate's audit of the gated ranks over the
    # prefix vectors, the one scoring makes; the public audit of its raw
    # ranks over every state's vector must give the same report, step flags
    # and best-so-far marks, to the bit
    vars4 = VariableSet.standard(4, 3)
    runs = [(c.initial_state(), 5) for c in broad24() + focused71() + extended100()]
    for poly in (LEX_STALL_POLY, DISC_STALL_POLY):
        state = State.initial(parse_polynomial(poly, vars4), vars4)
        runs += [(state, 5), (state, 10)]
    assert len(runs) == 24 + 71 + 100 + 4
    for ranker in map(get_ranker, ranker_names()):
        for state, window in runs:
            cfg = HarnessConfig(window=window, cap=30)
            _, features, ranks, got = simulate_case(state, ranker, cfg)
            assert repr(got) == repr(audit_trajectory(ranks, features, cfg))
