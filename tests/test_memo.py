"""Differential tests of the ideal-keyed memos against the plain computation.

The uncached path is the memoized function's own ``__wrapped__``, swapped in
for the module attribute its caller looks up, so both sides run the same
code and differ only in the memo.  Trajectories are also compared with a
plain loop that steps to the cap and checks for monomial phase after every
step, where ``run_trajectory`` stops at a fixed-ideal V(z) tail and
``simulate_case`` derives the tail's features by arithmetic.  The harness's
feature-stream memo is compared cold and warm against plain per-state
``extract_features``.
"""

from __future__ import annotations

import sys
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab import features, harness, simulator
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
from blowup_lab.harness import (
    DISC_STALL_POLY,
    STREAM_VECTORS,
    HarnessConfig,
    audit_trajectory,
    score_benchmark,
    simulate_case,
)
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


def _key(state, cap):
    # the stream memo's key: the initial state's fields and the cap
    return (state.ideal, state.boundary.multiplicities, state.vars, cap)


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


_INITIAL_STATES = [case.initial_state() for case in _CASES]


@settings(max_examples=60, deadline=None)
@given(
    state=st.one_of(_states(), _case_states(), st.sampled_from(_INITIAL_STATES)),
    cap=st.one_of(
        st.sampled_from((0, 1, 30, 120)),
        st.integers(0, 40),
        st.integers(41, 4096),
        st.just(4096),
    ),
    ranker=st.sampled_from(ranker_names()),
)
@example(state=_ZERO_MONOMIAL, cap=30, ranker="disc_lex")
def test_compact_tail_matches_plain_loop(state, cap, ranker):
    # simulate_case runs cold (its stream memo cleared) and then warm, and
    # both must give the plain loop's features, ranks and audit
    trajectory = run_trajectory(state, cap)
    states, centers, excs, monomial_step = _plain_trajectory(state, cap)
    assert trajectory.states == tuple(states)
    assert trajectory.centers == tuple(centers)
    assert trajectory.excs == tuple(excs)
    assert trajectory.monomial_step == monomial_step
    assert len(trajectory.prefix) + trajectory.tail_len == len(states)

    rank_fn = get_ranker(ranker)
    cfg = HarnessConfig(cap=cap)
    harness._streams.clear()
    try:
        plain_features = [extract_features(s) for s in states]
    except ValueError:
        for _ in range(2):
            with pytest.raises(ValueError):
                simulate_case(state, rank_fn, cfg)
        assert not harness._streams
        return
    plain_ranks = []
    for fv in plain_features:
        try:
            plain_ranks.append(rank_fn(fv))
        except Exception:
            plain_ranks.append(None)
    plain_audit = audit_trajectory(plain_ranks, plain_features, cfg)
    for _ in ("cold", "warm"):
        _, feature_stream, rank_stream = simulate_case(state, rank_fn, cfg)
        assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in plain_features]
        assert [_rank_hex(r) for r in rank_stream] == [_rank_hex(r) for r in plain_ranks]
        assert audit_trajectory(rank_stream, feature_stream, cfg) == plain_audit
    assert list(harness._streams) == [_key(state, cap)]


def test_fixed_point_tail_is_kept_as_a_count():
    cap = 4096
    state = State.initial(parse_polynomial("z^3 + x^6 + w^6", _VARS4), _VARS4)
    trajectory, feature_stream, _ = simulate_case(state, get_ranker("r100"), HarnessConfig(cap=cap))
    assert trajectory.monomial_step is None
    assert trajectory.tail_len == cap + 1 - len(trajectory.prefix) > 4000
    assert len(trajectory.states) == len(feature_stream) == cap + 1
    assert trajectory.centers[-1].kind == simulator.DIVISOR_Z
    assert trajectory.prefix[-1].ideal is trajectory.prefix[-2].ideal


@pytest.fixture
def cold_memos():
    """Clear every process-wide memo: a warm feature-stream memo skips the
    ideal memos, whose misses the tests below count."""
    simulator._chart.cache_clear()
    features._ideal_features.cache_clear()
    harness._streams.clear()


def _held_vectors():
    return sum(map(len, harness._streams.values())) // harness._VECTOR.size


def test_returned_streams_are_the_callers_own(cold_memos):
    state = focused71()[0].initial_state()
    rank_fn = get_ranker("disc_lex")
    cfg = HarnessConfig(cap=120)
    _, feature_stream, rank_stream = simulate_case(state, rank_fn, cfg)
    want = [_hex(fv) for fv in feature_stream]
    assert len(want) == 121
    feature_stream[0] = (0.0,) * 26
    feature_stream.reverse()
    del feature_stream[-40:]
    rank_stream.clear()
    _, again, ranks = simulate_case(state, rank_fn, cfg)
    assert [_hex(fv) for fv in again] == want
    assert len(ranks) == 121


def _stream_hex(result):
    _, feature_stream, rank_stream = result
    return [_hex(fv) for fv in feature_stream], [_rank_hex(r) for r in rank_stream]


def test_list_boundary_scores_as_its_tuple():
    ideal = parse_polynomial(DISC_STALL_POLY, _VARS4)
    listed = State(ideal, Boundary([0, 0, 0, 0]), _VARS4)
    tupled = State.initial(ideal, _VARS4)
    assert listed == tupled and hash(listed) == hash(tupled)
    rank_fn = get_ranker("disc_lex")
    cfg = HarnessConfig()
    harness._streams.clear()
    want = _stream_hex(simulate_case(tupled, rank_fn, cfg))
    harness._streams.clear()
    assert _stream_hex(simulate_case(listed, rank_fn, cfg)) == want
    # warm, from the entry the list form left
    assert _stream_hex(simulate_case(tupled, rank_fn, cfg)) == want


def test_each_scoring_runs_every_trajectory(cold_memos):
    # a warm stream memo still simulates and ranks every case, but extracts
    # no feature: focused71's 62 distinct initial states have 677 prefix
    # states at the default cap, so even the first scoring hits 9 times
    cases = focused71()
    trajectories = []
    extractions = []
    real_trajectory = harness.run_trajectory
    real_extract = harness.extract_features

    def counted_trajectory(*args, **kwargs):
        trajectories.append(args[0])
        return real_trajectory(*args, **kwargs)

    def counted_extract(state):
        extractions.append(state)
        return real_extract(state)

    reports = []
    with patch.object(harness, "run_trajectory", counted_trajectory), patch.object(
        harness, "extract_features", counted_extract
    ):
        for _ in range(2):
            reports.append(score_benchmark(get_ranker("disc_lex"), cases, HarnessConfig()))
            assert len(extractions) == 677
    assert len(trajectories) == 142
    assert reports[0] == reports[1]


def test_threads_share_the_stream_memo(cold_memos):
    # workers=2 equals workers=1 with the memo cold and warm; then more
    # workers than cores, with a short switch interval, over more cases
    # than the memo holds, so that threads insert and evict at once
    cases = broad24() + focused71() + extended100()
    ranker = get_ranker("r100")
    cfg = HarnessConfig()
    runs = []
    for workers in ((1, 2), (2, 1)):
        harness._streams.clear()
        runs += [score_benchmark(ranker, cases, cfg, "s", "r100", workers=w) for w in workers]
    assert all(run == runs[0] for run in runs)

    many = generate_broad_surrogates(2, 600)
    harness._streams.clear()
    serial = score_benchmark(ranker, many, cfg, "s", "r100")
    harness._streams.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = score_benchmark(ranker, many, cfg, "s", "r100", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert len(harness._streams) <= MEMO_ENTRIES
    assert _held_vectors() <= STREAM_VECTORS


def test_stream_memo_holds_at_most_its_vector_budget(cold_memos):
    # the two broad24 cases that never repeat an ideal keep an 8,001-vector
    # prefix each at cap 8000: together past the budget, so the older goes
    assert STREAM_VECTORS == MEMO_ENTRIES * (simulator.DEFAULT_CAP + 1) == 15872
    cases = [c for c in broad24() if c.name in ("AS_flavor_A3", "A4_AS_flavor")]
    assert len(cases) == 2
    cfg = HarnessConfig(cap=8000)
    first = score_benchmark(get_ranker("disc_lex"), cases, cfg)
    assert list(harness._streams) == [_key(cases[1].initial_state(), 8000)]
    assert _held_vectors() == 8001 <= STREAM_VECTORS
    assert score_benchmark(get_ranker("disc_lex"), cases, cfg) == first
    assert _held_vectors() <= STREAM_VECTORS


def test_builtin_sweep_computes_each_ideal_once(cold_memos):
    # the benchmark's builtin_sweep order: each suite under every ranker in
    # turn; the memo bound must hold all of them, so every distinct ideal
    # misses exactly once
    cfg = HarnessConfig(window=5, cap=30)
    suites = [broad24(), focused71(), extended100()]
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


def test_memos_stay_within_their_bound(cold_memos):
    memos = (simulator._chart, features._ideal_features)
    cases = generate_broad_surrogates(1, 200)
    score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=120))
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize == MEMO_ENTRIES
        assert info.misses > MEMO_ENTRIES  # the bound was actually reached
        assert info.currsize <= MEMO_ENTRIES

    # the stream memo keys by (initial state, cap): two more caps give 600
    # distinct keys, and it keeps the newest MEMO_ENTRIES of them
    keys = [_key(c.initial_state(), 120) for c in cases]
    for cap in (60, 30):
        score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=cap))
        keys += [_key(c.initial_state(), cap) for c in cases]
    assert len(set(keys)) == len(keys) > MEMO_ENTRIES
    assert list(harness._streams) == keys[-MEMO_ENTRIES:]
    assert _held_vectors() <= STREAM_VECTORS
