from __future__ import annotations

import functools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab.benchmarks import builtin_suites, focused71
from blowup_lab.core import State, parse_polynomial
from blowup_lab.features import extract_features
from blowup_lab.harness import HarnessConfig, simulate_case
from blowup_lab.rankers import (
    EQUAL,
    GREATER,
    LESS,
    RankerTemplate,
    discretize,
    get_ranker,
    lex_compare,
    rank_clean_lex,
    rank_r100_raw,
    rank_two_component,
    ranker_names,
)
from blowup_lab.simulator import DEFAULT_CAP, run_trajectory

ZERO_MONOMIAL_FV = tuple(1.0 if i == 9 else 0.0 for i in range(26))


def _fv(text, vars4):
    return extract_features(State.initial(parse_polynomial(text, vars4), vars4))


def _disc_raw_oracle(fv):
    """The hand-coded disc_lex raw rank that the depth-charge template replaced."""
    f0 = float(fv[0])
    f1 = float(fv[1])
    f5 = float(fv[5])
    f8 = float(fv[8])
    f9 = int(fv[9])
    f10 = float(fv[10])
    f14 = float(fv[14])
    f18 = float(fv[18])
    f19 = float(fv[19])
    f20 = float(fv[20])
    f21 = float(fv[21])
    f23 = float(fv[23])
    f24 = float(fv[24])
    f25 = float(fv[25])

    c1 = 0.0 if f9 == 1 else f0

    c2 = 0.5 * f14 + 0.5 * f21 + 0.05 * f1 + 0.01 * f5

    c3 = f10 + f19 + 0.1 * f20

    interaction = f10 * f24 * (1.0 - f23)
    c4 = -1.0 * (
        4.0 * (f24 ** 3)
        + 1.0 * f25
        + 5.0 * (1.0 - f23) * f24
        + 10.0 * interaction
    )

    c5 = f18 + 0.5 * f8

    return (c1, c2, c3, c4, c5)


def test_registry_names():
    assert set(ranker_names()) == {"two_component", "clean_lex", "disc_lex", "r100"}
    assert get_ranker("disc_lex").discretized
    assert get_ranker("r100").discretized
    assert not get_ranker("two_component").discretized
    assert not get_ranker("clean_lex").discretized
    assert get_ranker("disc_lex").name == "disc_lex"


def test_registry_discretized_override():
    # a discretized ranker's raw attribute is its undiscretized rank
    disc = get_ranker("disc_lex")
    fv = ZERO_MONOMIAL_FV
    assert disc.raw(fv) == _disc_raw_oracle(fv)
    assert disc(fv) == discretize(disc.raw(fv))
    with pytest.raises(ValueError):
        get_ranker("nope")


def test_two_component_monomial_gate():
    assert rank_two_component(ZERO_MONOMIAL_FV)[0] == 0.0


def test_two_component_cross_case(vars4):
    rank = rank_two_component(_fv("z^3 + x^9 + y^6 + w^6", vars4))
    assert rank[0] == 3.25
    # frozen from direct formula evaluation: the saturated third component
    # contributes exactly -50 * 5581750, the fourth -212.5 up to rounding
    assert rank[1] == pytest.approx(290250787.5, abs=1e-6)


def test_two_component_gate_arithmetic():
    fv = list(ZERO_MONOMIAL_FV)
    fv[9] = 0.0
    fv[0] = 3.0
    assert rank_two_component(tuple(fv))[0] == 3.25


def test_clean_lex_cross_case(vars4):
    c1, c2, c3, c4, c5 = rank_clean_lex(_fv("z^3 + x^9 + y^6 + w^6", vars4))
    assert c1 == 3.25
    assert c2 == 2.0
    assert c3 == -50.0  # tanh saturates
    assert c4 == pytest.approx(-0.85, abs=1e-12)
    assert c5 == 0.0


def test_disc_raw_heavy_tail_instance(vars4):
    raw = get_ranker("disc_lex").raw(_fv("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4))
    assert raw[0] == 3.0
    assert raw[1] == pytest.approx(42.8, abs=1e-12)
    assert raw[2] == pytest.approx(3.1, abs=1e-12)
    assert raw[3] == 26.0
    assert raw[4] == 2.0
    assert discretize(raw) == (3, 4280, 531, 5000, 220)


def test_disc_raw_monomial_gate():
    raw = get_ranker("disc_lex").raw(ZERO_MONOMIAL_FV)
    assert raw == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_r100_monomial_gate_and_catastrophe():
    c1, c2, c3, c4, c5 = rank_r100_raw(ZERO_MONOMIAL_FV)
    assert c1 == 0.0
    assert c2 == 0.0
    assert c3 == 0.0
    # frozen: 1000 * exp(0.01 + 0.5*tanh(1)) with every activation at zero
    assert c4 == pytest.approx(-1478.1585320594293, rel=1e-12)
    assert c5 == 0.0


def test_discretize_examples():
    assert discretize((3.0, 42.8, 3.1, 26.0, 2.0)) == (3, 4280, 531, 5000, 220)
    assert discretize((0.0, 0.0, 0.0, 0.0, 0.0)) == (0, 0, 500, 5000, 200)
    assert discretize((0.0, 0.0, 0.0, -(math.e - 1.0), 0.0))[3] == 4900


def test_discretize_floor_is_mathematical():
    # floors move toward minus infinity on negative inputs
    assert discretize((-1.5, -0.015, -50.5, 0.0, -20.05)) == (-2, -2, -5, 5000, -1)


def test_discretize_clamps_fourth_component():
    assert discretize((0.0, 0.0, 0.0, -1e30, 0.0))[3] == 0


def test_discretize_rejects_wrong_length():
    with pytest.raises(ValueError):
        discretize((1.0, 2.0))


def _reference_discretize(raw):
    """discretize as written before its fourth component became one comparison."""
    if len(raw) != 5:
        raise ValueError(f"discretization expects 5 components, got {len(raw)}")
    c1, c2, c3, c4, c5 = raw
    d1 = math.floor(c1)
    d2 = math.floor(100.0 * c2)
    d3 = math.floor(10.0 * (c3 + 50.0))
    d4 = 5000 - math.floor(100.0 * math.log(1.0 + max(0.0, -c4)))
    if d4 < 0:
        d4 = 0
    d5 = math.floor(10.0 * (c5 + 20.0))
    return (d1, d2, d3, d4, d5)


def _discretize_outcome(function, raw):
    """The image as (type, value) pairs, floats by float.hex, or the exception class."""
    try:
        image = function(raw)
    except Exception as exc:
        return type(exc)
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in image)


_EDGE = st.sampled_from(
    (0, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 10**400, -(10**400))
)
_COMPONENT = st.one_of(_EDGE, st.integers(), st.floats())


@settings(max_examples=1500, deadline=None)
@given(st.lists(_COMPONENT, min_size=4, max_size=6))
@example([-0.0] * 5)
@example([math.nan] * 5)
@example([0.0, 0.0, 0.0, -math.exp(49.995), 0.0])  # d4 = 1, the last unclamped value
@example([0.0, 0.0, 0.0, -math.exp(50.0), 0.0])
@example([0.0, 0.0, 0.0, -math.inf, math.nan])
@example([math.nan, 0.0, 0.0, -math.inf, 0.0])
def test_discretize_matches_reference(raw):
    assert _discretize_outcome(discretize, raw) == _discretize_outcome(_reference_discretize, raw)


def test_discretize_matches_reference_on_builtin_raw_ranks():
    # two_component's pairs take the length check
    for name in ranker_names():
        raw_rank = get_ranker(name).raw
        for fv in _builtin_vectors():
            raw = raw_rank(fv)
            assert _discretize_outcome(discretize, raw) == _discretize_outcome(
                _reference_discretize, raw
            )


def test_lex_compare_examples():
    assert lex_compare((3, 4280, 531, 5000, 220), (3, 999, 511, 4770, 210)) == GREATER
    assert lex_compare((0, 5), (0, 5)) == EQUAL
    assert lex_compare((2, 9), (3, 0)) == LESS


def test_lex_compare_length_mismatch():
    with pytest.raises(ValueError):
        lex_compare((1, 2), (1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
)
def test_lex_compare_total_order_laws(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    # trichotomy against the built-in tuple order
    assert lex_compare(a, b) == (-1 if a < b else (1 if a > b else 0))
    assert lex_compare(a, b) == -lex_compare(b, a)
    if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
        assert lex_compare(a, c) <= 0


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.floats(-100, 100) for _ in range(5)]),
    st.integers(min_value=0, max_value=4),
    st.floats(0, 50),
)
def test_discretize_monotone_componentwise(raw, index, delta):
    bumped = tuple(v + delta if i == index else v for i, v in enumerate(raw))
    low = discretize(raw)
    high = discretize(bumped)
    assert high[index] >= low[index]


def _random_fv(rng):
    fv = [0.0] * 26
    fv[9] = float(rng.random() < 0.2)
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


def _hex(rank):
    return tuple(v.hex() for v in rank)


@functools.lru_cache(maxsize=None)
def _builtin_vectors():
    """Every builtin-suite state's feature vector at the default cap."""
    return tuple(
        extract_features(state)
        for cases in builtin_suites().values()
        for case in cases
        for state in run_trajectory(case.initial_state(), DEFAULT_CAP).states
    )


def test_disc_lex_template_matches_hand_coded_oracle():
    # The oracle sums left to right from its first term, the template from
    # 0.0; they differ only where every term of a sum is -0.0, which no
    # feature produces.
    raw = get_ranker("disc_lex").raw
    disc = get_ranker("disc_lex")
    template = RankerTemplate.depth_charge()
    seeded = template.instantiate(template.default_weights())
    vectors = list(_builtin_vectors())
    rng = random.Random(7)
    vectors += [_random_fv(rng) for _ in range(2000)]
    for fv in vectors:
        expected = _disc_raw_oracle(fv)
        assert _hex(raw(fv)) == _hex(expected)
        assert disc(fv) == seeded(fv) == discretize(expected)


def _template_oracle(weights, fv):
    """The template's generic evaluation before its sums were unrolled.

    The gate, then each linear component as a loop over its (feature index,
    weight) terms from 0.0 in declaration order, with the depth charge third.
    """
    def linear(indices, ws):
        total = 0.0
        for index, w in zip(indices, ws):
            total = total + w * float(fv[index])
        return total

    w0, w1, w2, w3 = weights[7:11]
    f10 = float(fv[10])
    f23 = float(fv[23])
    f24 = float(fv[24])
    f25 = float(fv[25])
    interaction = f10 * f24 * (1.0 - f23)
    charge = -1.0 * (w0 * (f24 ** 3) + w1 * f25 + w2 * (1.0 - f23) * f24 + w3 * interaction)
    return (
        0.0 if int(fv[9]) == 1 else float(fv[0]),
        linear((14, 21, 1, 5), weights[0:4]),
        linear((10, 19, 20), weights[4:7]),
        charge,
        linear((18, 8), weights[11:13]),
    )


_WEIGHT = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 20.0, -20.0)),
    st.floats(-20.0, 20.0),
)
_VECTOR = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: _random_fv(random.Random(seed))),
    st.deferred(lambda: st.sampled_from(_builtin_vectors())),
)


@settings(max_examples=400, deadline=None)
@given(st.tuples(*[_WEIGHT] * 13), st.lists(_VECTOR, min_size=1, max_size=8))
@example((-0.0,) * 13, [ZERO_MONOMIAL_FV])
@example(tuple(float(i) for i in range(1, 14)), [tuple(float(i + 1) for i in range(26))])
def test_template_matches_generic_evaluation(weights, vectors):
    ranker = RankerTemplate.depth_charge().instantiate(weights)
    for fv in vectors:
        expected = _template_oracle(weights, fv)
        assert _hex(ranker.raw(fv)) == _hex(expected)
        assert ranker(fv) == discretize(expected)


def test_rankers_finite_on_fuzzed_inputs():
    rng = random.Random(99)
    rankers = [get_ranker(name) for name in ranker_names()]
    for _ in range(2000):
        fv = _random_fv(rng)
        for ranker in rankers:
            rank = ranker(fv)
            assert all(math.isfinite(v) for v in rank)


def test_normalization_gate_on_fuzzed_inputs():
    rng = random.Random(100)
    rankers = [get_ranker(name) for name in ranker_names()]
    for _ in range(2000):
        fv = _random_fv(rng)
        for ranker in rankers:
            first = ranker(fv)[0]
            if fv[9] == 1.0:
                assert first == 0
            else:
                assert first > 0


# Scalarization dominance: the weights separate the component hierarchy once
# a component moves by more than the worst-case swing of everything below it.
# (|c3| <= 50, |c4| <= 22326, |c5| <= 55 are the bounds the weights were sized
# for; at smaller separations the weighted sum genuinely reorders, so the
# property is asserted exactly at those margins.  Real streams leave them:
# see the builtin-suite disagreement count below.)
_SEPARATIONS = {1: 2.001, 2: 2.001, 3: 0.45, 4: 0.001}
_BOUNDS = {1: (0.0, 60.0), 2: (-50.0, 50.0), 3: (-22326.0, 0.0), 4: (0.0, 55.0)}


def _scalarize(components):
    c1, c2, c3, c4, c5 = components
    return 284669250.0 * c2 + 5581750.0 * c3 + 250.0 * c4 + c5


def test_scalarization_respects_hierarchy_at_documented_margins():
    rng = random.Random(123)
    for _ in range(2000):
        pivot = rng.choice([1, 2, 3])
        lo, hi = _BOUNDS[pivot]
        base = [0.0] * 5
        for i in (1, 2, 3, 4):
            a, b = _BOUNDS[i]
            base[i] = rng.uniform(a, b)
        bumped = list(base)
        bumped[pivot] = base[pivot] + _SEPARATIONS[pivot]
        for i in range(pivot + 1, 5):
            a, b = _BOUNDS[i]
            bumped[i] = rng.uniform(a, b)  # lower components are free
        if bumped[pivot] > _BOUNDS[pivot][1]:
            continue
        assert _scalarize(bumped) > _scalarize(base)


def test_two_component_disagrees_with_exact_lex_on_builtin_suites():
    # consecutive-state pairs whose order under the scalar (c2..c5) differs
    # from exact lex over (c2, c3, c4, c5), at the default cap of 30
    expected = {"broad24": (6, 619), "focused71": (3, 2070), "extended100": (3, 2940)}
    observed = {}
    for name, cases in builtin_suites().items():
        pairs = disagreements = 0
        for case in cases:
            trajectory = run_trajectory(case.initial_state(), DEFAULT_CAP)
            stream = [extract_features(s) for s in trajectory.states]
            for a, b in zip(stream, stream[1:]):
                pairs += 1
                scalar = lex_compare(rank_two_component(a)[1:], rank_two_component(b)[1:])
                exact = lex_compare(rank_clean_lex(a)[1:], rank_clean_lex(b)[1:])
                disagreements += scalar != exact
        observed[name] = (disagreements, pairs)
    assert observed == expected


def test_ranker_callables_are_pure(vars4):
    fv = _fv("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4)
    for name in ranker_names():
        ranker = get_ranker(name)
        assert ranker(fv) == ranker(fv)


# The horizon law.  On a fixed-point tail only f25 moves, by exc per step, and
# in the discretized rankers it reaches only c4, so d4 = 5000 -
# floor(100 * ln(1 + |c4|)) moves by about 100 * |dc4| / |c4| per step.  Once
# |c4 / dc4| passes about 100 * m, d4 stays flat for a whole window of m steps
# and the rank stalls: the log scale 100 and the window m set the horizon, not
# the weights, and it is at most 100 * (m + 1) steps after tail entry.
# Measured at cap 1,200, the last first failure is at step 527 (m = 5) and
# 1,038 (m = 10) for disc_lex and 419 and 946 for r100; the seeded templates
# below fail within 9 steps of tail entry, most of them before it.
def _law_rankers():
    template = RankerTemplate()
    rng = random.Random(7)
    drawn = {
        f"template {i}": template.instantiate([rng.uniform(-20, 20) for _ in range(template.size())])
        for i in range(3)
    }
    return {"disc_lex": get_ranker("disc_lex"), "r100": get_ranker("r100"), **drawn}


@pytest.mark.parametrize("m", [5, 10])
def test_fixed_point_tails_fail_within_the_horizon_law(m):
    cfg = HarnessConfig(window=m, cap=1200)
    for name, ranker in _law_rankers().items():
        tails = 0
        for case in focused71():
            run, _, ranks, audit = simulate_case(case.initial_state(), ranker, cfg)
            if not run.tail_len:
                continue
            tails += 1
            steps = zip(audit.step_flags, ranks)
            first = next((t for t, (flags, rank) in enumerate(steps) if flags or rank is None), None)
            assert first is not None, (name, case.name)
            assert first - (len(run.prefix) - 1) <= 100 * (m + 1), (name, case.name)
        assert tails == 69
