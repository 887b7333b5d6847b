"""Differential tests of the ideal-keyed memos against the plain computation.

The uncached path is the memoized function's own ``__wrapped__``, swapped in
for the module attribute its caller looks up, so both sides run the same
code and differ only in the memo.  Trajectories are also compared with a
plain loop that steps to the cap and checks for monomial phase after every
step, where ``run_trajectory`` stops at a fixed-ideal V(z) tail and
``simulate_case`` derives the tail's features by arithmetic.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab import features, simulator
from blowup_lab.benchmarks import broad24, extended100, focused71, generate_broad_surrogates
from blowup_lab.core import (
    MIXED,
    OBLIQUE,
    PURE_BASE,
    PURE_Z,
    Boundary,
    IdealSpec,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
)
from blowup_lab.features import extract_features
from blowup_lab.harness import HarnessConfig, score_benchmark, simulate_case
from blowup_lab.rankers import get_ranker, ranker_names
from blowup_lab.simulator import MEMO_ENTRIES, is_monomial_phase, run_trajectory

_TAGS = (PURE_Z, PURE_BASE, MIXED, OBLIQUE, "custom")


@st.composite
def _states(draw):
    dim = draw(st.integers(3, 5))
    vars = VariableSet.standard(dim, draw(st.sampled_from((2, 3, 5))))
    exponents = st.tuples(*[st.integers(0, 7)] * dim).filter(any)
    monomials = []
    for e in draw(st.lists(exponents, min_size=1, max_size=6)):
        # mostly the inferred tag, so monic z-powers occur; sometimes another
        tag = draw(st.sampled_from((infer_tag(e, vars),) * 3 + _TAGS))
        monomials.append(TaggedMonomial(tag, e))
    boundary = draw(st.tuples(*[st.integers(0, 12)] * dim))
    return State(IdealSpec(tuple(monomials)), Boundary(boundary), vars)


def _hex(fv):
    return [v.hex() for v in fv]


@settings(max_examples=300, deadline=None)
@given(state=_states())
def test_memoized_features_match_uncached(state):
    # warm the memo with the same ideal under another boundary and another
    # characteristic, so a key that missed a field would hand back the wrong
    # entry
    other_p = VariableSet(state.vars.names, 7)
    extract_features(State.initial(state.ideal, other_p))
    extract_features(State.initial(state.ideal, state.vars))
    memoized = extract_features(state)
    with patch.object(features, "_ideal_features", features._ideal_features.__wrapped__):
        plain = extract_features(state)
    assert _hex(memoized) == _hex(plain)


def _plain_trajectory(initial, cap):
    # run_trajectory as a plain loop: the uncached chart and the monomial-phase
    # check after every step, including steps that keep the ideal
    states, centers, excs = [initial], [], []
    if is_monomial_phase(initial.ideal):
        return states, centers, excs, 0
    with patch.object(simulator, "_chart", simulator._chart.__wrapped__):
        for k in range(cap):
            current, center, exc = simulator.step(states[-1])
            states.append(current)
            centers.append(center)
            excs.append(exc)
            if is_monomial_phase(current.ideal):
                return states, centers, excs, k + 1
    return states, centers, excs, None


@settings(max_examples=150, deadline=None)
@given(state=_states(), cap=st.integers(0, 40))
def test_step_memo_matches_uncached_chart(state, cap):
    memoized = run_trajectory(state, cap)
    states, centers, excs, monomial_step = _plain_trajectory(state, cap)
    assert memoized.states == tuple(states)
    assert memoized.centers == tuple(centers)
    assert memoized.excs == tuple(excs)
    assert memoized.monomial_step == monomial_step


def _rank_hex(rank):
    return None if rank is None else [v.hex() if isinstance(v, float) else v for v in rank]


# exc = 0 under a codim2 center needs an all-zero monomial, which the parser
# cannot produce.  The chart drops that monomial, so the ideal changes and the
# loop runs on; feature extraction rejects the state (f24 has no exponent).
_VARS4 = VariableSet.standard(4, 3)
_ZERO_MONOMIAL = State.initial(
    IdealSpec(
        (
            TaggedMonomial(MIXED, (0, 0, 0, 0)),
            TaggedMonomial(MIXED, (1, 0, 0, 2)),
            TaggedMonomial(PURE_BASE, (0, 2, 0, 0)),
        )
    ),
    _VARS4,
)


# random small ideals mostly reach monomial phase within a few steps; the
# suite cases mostly end in a fixed-ideal tail (a few never repeat an ideal)
_CASES = broad24() + focused71() + extended100() + generate_broad_surrogates(1, 40)


@st.composite
def _case_states(draw):
    case = draw(st.sampled_from(_CASES))
    boundary = draw(st.tuples(*[st.integers(0, 12)] * case.vars.dim))
    return State(case.ideal, Boundary(boundary), case.vars)


@settings(max_examples=60, deadline=None)
@given(
    state=st.one_of(_states(), _case_states()),
    cap=st.one_of(st.integers(0, 40), st.integers(41, 4096), st.just(4096)),
    ranker=st.sampled_from(ranker_names()),
)
@example(state=_ZERO_MONOMIAL, cap=30, ranker="disc_lex")
def test_compact_tail_matches_plain_loop(state, cap, ranker):
    trajectory = run_trajectory(state, cap)
    states, centers, excs, monomial_step = _plain_trajectory(state, cap)
    assert trajectory.states == tuple(states)
    assert trajectory.centers == tuple(centers)
    assert trajectory.excs == tuple(excs)
    assert trajectory.monomial_step == monomial_step
    assert len(trajectory.prefix) + trajectory.tail_len == len(states)

    rank_fn = get_ranker(ranker)
    cfg = HarnessConfig(cap=cap)
    try:
        plain_features = [extract_features(s) for s in states]
    except ValueError:
        with pytest.raises(ValueError):
            simulate_case(state, rank_fn, cfg)
        return
    plain_ranks = []
    for fv in plain_features:
        try:
            plain_ranks.append(rank_fn(fv))
        except Exception:
            plain_ranks.append(None)
    _, feature_stream, rank_stream = simulate_case(state, rank_fn, cfg)
    assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in plain_features]
    assert [_rank_hex(r) for r in rank_stream] == [_rank_hex(r) for r in plain_ranks]


def test_fixed_point_tail_is_kept_as_a_count():
    cap = 4096
    state = State.initial(parse_polynomial("z^3 + x^6 + w^6", _VARS4), _VARS4)
    trajectory, feature_stream, _ = simulate_case(state, get_ranker("r100"), HarnessConfig(cap=cap))
    assert trajectory.monomial_step is None
    assert trajectory.tail_len == cap + 1 - len(trajectory.prefix) > 4000
    assert len(trajectory.states) == len(feature_stream) == cap + 1
    assert trajectory.centers[-1].kind == simulator.DIVISOR_Z
    assert trajectory.prefix[-1].ideal is trajectory.prefix[-2].ideal


def test_builtin_sweep_computes_each_ideal_once():
    # the benchmark's builtin_sweep order: each suite under every ranker in
    # turn; the memo bound must hold all of them, so every distinct ideal
    # misses exactly once
    cfg = HarnessConfig(window=5, cap=30)
    suites = [broad24(), focused71(), extended100()]
    features._ideal_features.cache_clear()
    for cases in suites:
        for name in ("two_component", "clean_lex", "disc_lex", "r100"):
            score_benchmark(get_ranker(name), cases, cfg)
    misses = features._ideal_features.cache_info().misses
    ideals = {
        (s.ideal, s.vars)
        for cases in suites
        for case in cases
        for s in run_trajectory(case.initial_state(), cfg.cap).states
    }
    assert misses == len(ideals) == 555


def test_memos_stay_within_their_bound():
    memos = (simulator._chart, features._ideal_features)
    for memo in memos:
        memo.cache_clear()
    cases = generate_broad_surrogates(1, 200)
    score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=120))
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize == MEMO_ENTRIES
        assert info.misses > MEMO_ENTRIES  # the bound was actually reached
        assert info.currsize <= MEMO_ENTRIES
