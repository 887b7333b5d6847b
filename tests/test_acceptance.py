"""End-to-end acceptance checks.

Each test re-derives one headline result at its stated tolerance (exact
integers unless noted) and prints a one-line verdict, so running

    pytest tests/test_acceptance.py -v -s

gives a pass/fail line per criterion.
"""

from __future__ import annotations

import math
import random

import numpy as np

from blowup_lab.benchmarks import (
    PROVENANCE_RECONSTRUCTED,
    broad24,
    extended100,
    focused71,
)
from blowup_lab.core import (
    Boundary,
    IdealSpec,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
)
from blowup_lab.features import extract_features, hilbert_samuel_base
from blowup_lab.harness import (
    DISC_STALL_POLY,
    LEX_STALL_POLY,
    HarnessConfig,
    audit_trajectory,
    check_determinism,
    score_benchmark,
    simulate_case,
)
from blowup_lab.rankers import discretize, get_ranker, lex_compare, ranker_names
from blowup_lab.simulator import run_trajectory, step

VARS4 = VariableSet.standard(4, 3)
CFG = HarnessConfig()


def _verdict(label: str, ok: bool) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_two_component_focused71():
    report = score_benchmark(
        get_ranker("two_component"), focused71(), CFG, "focused71", "two_component"
    )
    ok = (
        report.total_violations == 0
        and report.solved_count == 71
        and report.max_plateau == 2
    )
    _verdict(
        "1. continuous two-component ranker, focused71: "
        f"violations={report.total_violations} solved={report.solved_count}/71 "
        f"max_plateau={report.max_plateau} (targets 0, 71, 2)",
        ok,
    )


def test_criterion_2_disc_lex_focused71():
    report = score_benchmark(
        get_ranker("disc_lex"), focused71(), CFG, "focused71", "disc_lex"
    )
    ok = (
        report.total_violations == 0
        and report.solved_count == 71
        and report.max_plateau == 2
    )
    _verdict(
        "2. discretized lex ranker, focused71: "
        f"violations={report.total_violations} solved={report.solved_count}/71 "
        f"max_plateau={report.max_plateau} (targets 0, 71, 2)",
        ok,
    )


def test_criterion_3_r100_extended100():
    report = score_benchmark(
        get_ranker("r100"), extended100(), CFG, "extended100", "r100"
    )
    exact = [
        r for r, c in zip(report.reports, extended100())
        if c.provenance != PROVENANCE_RECONSTRUCTED
    ]
    reconstructed = [
        r for r, c in zip(report.reports, extended100())
        if c.provenance == PROVENANCE_RECONSTRUCTED
    ]
    ok = (
        len(exact) == 95
        and all(r.solved and r.total_violations == 0 for r in exact)
        and report.max_plateau == 2
        and len(reconstructed) == 5
    )
    summary = ", ".join(
        f"{r.name}={'solved' if r.solved else f'{r.total_violations} violations'}"
        for r in reconstructed
    )
    _verdict(
        "3. catastrophe-term ranker, extended100: all 95 fully-specified cases "
        f"clean={all(r.solved for r in exact)} max_plateau={report.max_plateau}; "
        f"reconstructed (exempt): {summary}",
        ok,
    )


def test_criterion_4_lex_tuple_stall():
    state = State.initial(parse_polynomial(LEX_STALL_POLY, VARS4), VARS4)
    cfg10 = HarnessConfig(window=10)
    _, features, ranks, audit = simulate_case(state, get_ranker("clean_lex"), cfg10)
    report = audit.report
    cfg5 = HarnessConfig(window=5)
    report5 = audit_trajectory(ranks, features, cfg5, name="lex-stall").report
    first_zero = next((t for t, r in enumerate(ranks) if r[1] == 0.0), None)
    ok = (
        report.delay_violations >= 1
        and report5.delay_violations >= 1
        and first_zero == 2
    )
    _verdict(
        "4. continuous lex tuple stalls: delay violations at m=10 "
        f"({report.delay_violations}) and m=5 ({report5.delay_violations}); "
        f"second component first hits 0 at step {first_zero} (target 2)",
        ok,
    )


def test_criterion_5_disc_stall_and_r100_repair():
    state = State.initial(parse_polynomial(DISC_STALL_POLY, VARS4), VARS4)
    _, _, ranks, audit = simulate_case(state, get_ranker("disc_lex"), CFG)
    report = audit.report
    _, _, _, r_audit = simulate_case(state, get_ranker("r100"), CFG)
    r_report = r_audit.report
    ok = (
        report.delay_violations >= 1
        and ranks[0] == (3, 4280, 531, 5000, 220)
        and ranks[9] == (3, 999, 511, 4770, 210)
        and r_report.total_violations == 0
    )
    _verdict(
        "5. heavy-tail instance: discretized rank stalls at m=5 "
        f"(delay={report.delay_violations}), step0={ranks[0]} step9={ranks[9]} "
        f"(exact targets), catastrophe ranker clean={r_report.total_violations == 0}",
        ok,
    )


def _random_fv(rng):
    fv = [0.0] * 26
    fv[9] = float(rng.random() < 0.25)
    fv[0] = float(rng.randint(1, 12))
    fv[1] = float(rng.randint(0, 40))
    fv[2] = float(rng.randint(0, 4))
    fv[3] = float(rng.randint(1, 5))
    fv[4] = float(rng.randint(0, 4))
    fv[5] = float(rng.randint(0, 6))
    fv[6] = float(rng.randint(0, 1))
    fv[7] = rng.choice([0.0, fv[0] / max(1.0, fv[1]), fv[0]])
    fv[8] = float(rng.randint(0, 12))
    fv[10] = float(rng.randint(0, 1))
    fv[11] = rng.choice([fv[0], 1.0 / (1.0 + abs(fv[0] - fv[1]))])
    fv[12] = float(rng.randint(0, 4))
    fv[13] = float(rng.randint(0, 30))
    fv[14] = rng.randint(0, 60) / max(1.0, fv[0])
    fv[15] = float(rng.randint(0, 3))
    fv[16] = float(rng.randint(0, 12))
    fv[17] = float(rng.randint(1, 4))
    fv[18] = float(rng.randint(0, 6))
    fv[19] = float(rng.randint(0, 3))
    fv[20] = float(rng.randint(0, 5))
    fv[21] = float(rng.randint(0, 5000))
    fv[22] = rng.choice([float(rng.randint(0, 40)), 1000.0])
    fv[23] = float(rng.randint(0, 12))
    fv[24] = float(rng.randint(0, 4))
    fv[25] = float(rng.randint(0, 120))
    return tuple(fv)


def test_criterion_6a_determinism_fuzz():
    rng = random.Random(601)
    rankers = [get_ranker(name) for name in ranker_names()]
    ok = True
    for _ in range(10_000):
        fv = _random_fv(rng)
        for ranker in rankers:
            if not check_determinism(ranker, fv):
                ok = False
                break
    _verdict("6a. determinism of all built-in rankers on 10^4 fuzzed vectors", ok)


def test_criterion_6b_normalization_on_benchmarks():
    rankers = [get_ranker(name) for name in ranker_names()]
    ok = True
    for case in extended100() + broad24():
        trajectory = run_trajectory(case.initial_state(), CFG.cap)
        for state in trajectory.states:
            fv = extract_features(state)
            for ranker in rankers:
                first = ranker(fv)[0]
                if fv[9] == 1.0:
                    ok = ok and first == 0
                else:
                    ok = ok and first > 0
    _verdict("6b. monomial gate: first rank component is 0 iff monomial phase, "
             "across every benchmark trajectory and ranker", ok)


def _brute_force_count(generators, num_vars, bound):
    grid = np.indices((bound,) * num_vars).reshape(num_vars, -1).T
    grid = grid[grid.sum(axis=1) < bound]
    if not generators:
        return len(grid)
    gens = np.array(generators)
    divisible = (grid[:, None, :] >= gens[None, :, :]).all(axis=2).any(axis=1)
    return int((~divisible).sum())


def test_criterion_6c_hilbert_samuel_oracle():
    rng = random.Random(603)
    ok = True
    for _ in range(1000):
        generators = []
        for _ in range(rng.randint(1, 5)):
            g = tuple(rng.randint(0, 13) for _ in range(3))
            if sum(g) > 0:
                generators.append(g)
        if not generators:
            generators = [(1, 0, 0)]
        base_order = min(sum(g) for g in generators)  # this is the f1 of the state
        assert base_order <= 40
        n = base_order + 1
        exps = [(0, 0, 0, 3)] + [g + (0,) for g in generators]
        ideal = IdealSpec(tuple(TaggedMonomial(infer_tag(e, VARS4), e) for e in exps))
        state = State.initial(ideal, VARS4)
        if hilbert_samuel_base(state) != _brute_force_count(generators, 3, n):
            ok = False
            break
    _verdict("6c. Hilbert-Samuel proxy equals the brute-force divisibility "
             "enumeration on 10^3 random generator sets (base order <= 40)", ok)


def test_criterion_6d_lex_total_order_laws():
    rng = random.Random(604)
    ok = True
    for _ in range(10_000):
        a = tuple(rng.randint(-5, 5) for _ in range(3))
        b = tuple(rng.randint(-5, 5) for _ in range(3))
        c = tuple(rng.randint(-5, 5) for _ in range(3))
        ok = ok and lex_compare(a, b) == (-1 if a < b else (1 if a > b else 0))
        ok = ok and lex_compare(a, b) == -lex_compare(b, a)
        if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
            ok = ok and lex_compare(a, c) <= 0
    _verdict("6d. lexicographic comparison satisfies the total-order laws "
             "on 10^4 sampled triples", ok)


def test_criterion_6e_discretize_monotone():
    rng = random.Random(605)
    ok = True
    for _ in range(10_000):
        raw = tuple(rng.uniform(-100, 100) for _ in range(5))
        index = rng.randrange(5)
        delta = rng.uniform(0, 50)
        bumped = tuple(v + delta if i == index else v for i, v in enumerate(raw))
        ok = ok and discretize(bumped)[index] >= discretize(raw)[index]
    _verdict("6e. discretization is componentwise monotone on 10^4 random raw ranks", ok)


def test_criterion_6f_tieperm_orderings_solved():
    cases = [c for c in focused71() if "tieperm" in c.name]
    assert len(cases) == 18
    report = score_benchmark(get_ranker("r100"), cases, CFG, "tieperm", "r100")
    ok = report.all_solved
    _verdict("6f. all six orderings of each tie-permutation polynomial are "
             "solved by the catastrophe-term ranker", ok)


def test_criterion_6g_harness_invariants():
    # strict stepwise descent until the monomial entry is clean for every window
    ok = True
    rng = random.Random(607)
    for _ in range(50):
        n = rng.randint(2, 20)
        ranks = [(3.0, float(n - t)) for t in range(n - 1)] + [(0.0, 0.0)]
        features = []
        for t in range(n):
            fv = [0.0] * 26
            fv[0] = 3.0
            if t == n - 1:
                fv[9] = 1.0
                fv[0] = 0.0
            features.append(tuple(fv))
        for m in range(1, 11):
            report = audit_trajectory(ranks, features, HarnessConfig(window=m)).report
            ok = ok and report.total_violations == 0

    # delay violations never increase as the window grows
    for _ in range(50):
        n = rng.randint(2, 25)
        ranks = [(float(rng.randint(1, 3)), float(rng.randint(0, 4))) for _ in range(n)]
        features = []
        for t in range(n):
            fv = [0.0] * 26
            fv[0] = 3.0
            features.append(tuple(fv))
        delays = [
            audit_trajectory(ranks, features, HarnessConfig(window=m)).report.delay_violations
            for m in range(1, 11)
        ]
        ok = ok and all(a >= b for a, b in zip(delays, delays[1:]))
    _verdict("6g. harness invariants: strict descent is clean for every window; "
             "delay violations are nonincreasing in the window", ok)


def test_criterion_7_simulator_micro_traces():
    # the three elementary step examples, exactly
    s1, c1, e1 = step(State.initial(parse_polynomial("z^3 + x^6", VARS4), VARS4))
    ok = (
        e1 == 3
        and c1.kind == "codim2" and c1.var_index == 0
        and [m.exponents for m in s1.ideal] == [(0, 0, 0, 3), (3, 0, 0, 0)]
        and s1.boundary.multiplicities == (3, 0, 0, 0)
    )

    s2, c2, e2 = step(State.initial(parse_polynomial("z^3", VARS4), VARS4))
    ok = ok and (
        e2 == 3
        and c2.kind == "divisor_z"
        and [m.exponents for m in s2.ideal] == [(0, 0, 0, 3)]
        and s2.boundary.multiplicities == (0, 0, 0, 3)
    )

    s3, c3, e3 = step(
        State(parse_polynomial("z^3 + x^3", VARS4), Boundary((3, 0, 0, 0)), VARS4)
    )
    ok = ok and (
        e3 == 3
        and c3.kind == "codim2" and c3.var_index == 0
        and [m.exponents for m in s3.ideal] == [(0, 0, 0, 3)]
        and s3.boundary.multiplicities == (6, 0, 0, 0)
    )

    # z^3 + x^6 runs to the cap; the order proxy is pinned at 3 and, once the
    # divisor tail is entered at step 3, the boundary mass grows by exactly 3
    # per step (the step-2 -> step-3 restriction resets 6 to 3 first)
    trajectory = run_trajectory(State.initial(parse_polynomial("z^3 + x^6", VARS4), VARS4), 30)
    fvs = [extract_features(s) for s in trajectory.states]
    masses = [fv[25] for fv in fvs]
    ok = ok and len(trajectory.states) == 31
    ok = ok and trajectory.monomial_step is None
    ok = ok and all(fv[0] == 3.0 for fv in fvs)
    ok = ok and masses[:4] == [0.0, 3.0, 6.0, 3.0]
    ok = ok and all(b - a == 3.0 for a, b in zip(masses[3:], masses[4:]))
    _verdict("7. simulator micro-traces: the three elementary step examples are "
             "exact; z^3+x^6 runs to the cap with order 3 throughout and boundary "
             "mass climbing 3 per step through the divisor tail", ok)
