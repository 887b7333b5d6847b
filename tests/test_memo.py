"""Differential tests of the ideal-keyed memos against the plain computation.

The uncached path is the memoized function's own ``__wrapped__``, swapped in
for the module attribute its caller looks up, so both sides run the same
code and differ only in the memo.  Trajectories are also compared with a
plain loop that steps to the cap and checks for monomial phase after every
step, where ``run_trajectory`` stops at a fixed-ideal V(z) tail and
``simulate_case`` derives the tail's features by arithmetic.  The run memo
``simulator._held_run`` is compared cold and warm against its plain loop,
``simulator._stepped``, and the harness's feature streams, which live as long
as their runs, against plain per-state ``extract_features``.  The rank table of
one scoring is compared with a plain loop that calls the ranker on every state,
and scoring's reports with the public audit of that loop's streams.
The ideal feature kernel and the chart, which take each monomial's facts and
image from the per-monomial memos ``features._monomial_facts`` and
``simulator._rewrite``, are compared with the plain per-feature kernel and
the plain rewrite in ``oracles.py``.
"""

from __future__ import annotations

import gc
import json
import math
import struct
import sys
import weakref
from collections.abc import Iterator
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab import features, harness, search, simulator
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
    HarnessConfig,
    audit_trajectory,
    score_benchmark,
    simulate_case,
)
from blowup_lab.rankers import RankerTemplate, get_ranker, ranker_names
from blowup_lab.search import hill_climb
from blowup_lab.simulator import (
    DEFAULT_CAP,
    MEMO_ENTRIES,
    MONOMIAL_MEMO_ENTRIES,
    is_monomial_phase,
    run_trajectory,
)
from oracles import plain_chart, plain_ideal_features

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
    # the run memo's key
    return (state, cap)


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
    # float.hex keeps the sign of zero; the type tells 1 from 1.0 and True
    if rank is None:
        return None
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in rank]


_VARS4 = VariableSet.standard(4, 3)

# random small ideals mostly reach monomial phase within a few steps; the
# suite cases mostly end in a fixed-ideal tail (a few never repeat an ideal)
_CASES = broad24() + focused71() + extended100() + generate_broad_surrogates(1, 40)
# broad24's two cases that never repeat an ideal: their prefix runs to the cap
_NEVER_REPEATS = tuple(c for c in broad24() if c.name in ("AS_flavor_A3", "A4_AS_flavor"))


@st.composite
def _case_states(draw):
    case = draw(st.sampled_from(_CASES))
    boundary = draw(st.tuples(*[st.integers(0, 12)] * case.vars.dim))
    return State(case.ideal, Boundary(boundary), case.vars)


_INITIAL_STATES = [case.initial_state() for case in _CASES]
# its run never repeats an ideal, and its features overflow within cap 4096
_OVERFLOWS = State(
    IdealSpec(
        tuple(
            TaggedMonomial(MIXED, e)
            for e in ((3, 0, 3), (6, 6, 2), (1, 1, 2), (0, 3, 1), (3, 0, 3), (0, 5, 4))
        )
    ),
    Boundary((0, 0, 0)),
    VariableSet(("x", "y", "z"), 2),
)


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
@example(state=_NEVER_REPEATS[0].initial_state(), cap=120, ranker="disc_lex")
@example(state=_OVERFLOWS, cap=4096, ranker="two_component")
def test_compact_tail_matches_plain_loop(state, cap, ranker):
    # simulate_case runs cold (the streams cleared, and a fresh copy of the
    # ranker, so its rank table too), then warm, then with the builtin ranker,
    # whose table earlier examples filled; each must give the plain loop's
    # features, ranks and audit.  A warm call reuses the run, and its stream,
    # exactly when the cap is at most the default, and only the last run's
    # stream is left
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
    except OverflowError:
        # a run whose exponents grow at every step outgrows a double: scoring
        # raises as the plain loop does
        with pytest.raises(OverflowError):
            simulate_case(state, rank_fn, cfg)
        return
    plain_ranks = []
    for fv in plain_features:
        try:
            plain_ranks.append(rank_fn(fv))
        except Exception:
            plain_ranks.append(None)
    plain_audit = audit_trajectory(plain_ranks, plain_features, cfg)
    fresh = replace(rank_fn)
    assert fresh == rank_fn and fresh is not rank_fn
    for rank_with in (fresh, fresh, rank_fn):
        run, feature_stream, rank_stream = simulate_case(state, rank_with, cfg)
        assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in plain_features]
        assert [_rank_hex(r) for r in rank_stream] == [_rank_hex(r) for r in plain_ranks]
        assert audit_trajectory(rank_stream, feature_stream, cfg) == plain_audit
        assert (run is trajectory) == (cap <= DEFAULT_CAP)
    assert list(harness._streams) == [run]
    assert _streams_match_their_runs()


def _streams_match_their_runs(extract=extract_features):
    # each held run, handed back by run_trajectory, gives simulate_case the
    # tuples a fresh extraction of its states gives, bit for bit (the sign of
    # zero too); and a ranker that returns its own vector gets each state's
    # vector back, so the rank-table keys held with the run match its states
    for run in list(harness._streams):
        states = list(run.prefix)
        for _ in range(run.tail_len):
            states.append(simulator.step(states[-1])[0])
        want = [_hex(extract(s)) for s in states]
        with patch.object(harness, "run_trajectory", lambda initial, cap: run):
            _, fvs, ranks = simulate_case(run.prefix[0], lambda fv: fv, HarnessConfig())
        if not all(type(fv) is tuple for fv in fvs) or not (
            [_hex(fv) for fv in fvs] == want == [_hex(r) for r in ranks]
        ):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    state=st.one_of(_states(), _case_states(), st.sampled_from(_INITIAL_STATES)),
    cap=st.integers(0, 40),
)
def test_trajectory_memo_matches_plain_loop(state, cap):
    # cold (the run memo cleared), then warm; a run is held exactly when its
    # cap is at most DEFAULT_CAP, and a warm call hands back the held run
    simulator._held_run.cache_clear()
    plain = simulator._stepped(state, cap)
    cold = run_trajectory(state, cap)
    warm = run_trajectory(state, cap)
    for trajectory in (cold, warm):
        assert trajectory.prefix == plain.prefix
        assert trajectory.tail_len == plain.tail_len
        assert trajectory.centers == plain.centers
        assert trajectory.excs == plain.excs
        assert trajectory.monomial_step == plain.monomial_step
    held = cap <= DEFAULT_CAP
    assert simulator._held_run.cache_info().currsize == held
    assert (warm is cold) == held


def test_non_int_caps_are_refused():
    # a float or bool cap equals an int key, so it would hit a held run
    state = focused71()[0].initial_state()
    held = run_trajectory(state, 30)
    assert simulator._held_run(state, 30.0) is held
    assert simulator._held_run(state, True) is run_trajectory(state, 1)
    for cap in (30.0, True, "30"):
        with pytest.raises(TypeError):
            run_trajectory(state, cap)


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
    """Clear every process-wide memo: a warm feature stream or run skips the
    ideal memos, whose misses the tests below count, and a warm rank table
    skips the ranker.  A stream lives as long as its run, so clearing the run
    memo drops the streams."""
    harness._tables.clear()
    simulator._chart.cache_clear()
    features._ideal_features.cache_clear()
    simulator._rewrite.cache_clear()
    features._monomial_facts.cache_clear()
    _cold_runs()


def _cold_runs():
    simulator._held_run.cache_clear()
    gc.collect()


def test_cold_memos_clears_every_memo(request):
    simulate_case(focused71()[0].initial_state(), get_ranker("r100"), HarnessConfig())
    memos = (
        simulator._chart,
        features._ideal_features,
        simulator._rewrite,
        features._monomial_facts,
        simulator._held_run,
    )
    assert harness._streams and harness._tables
    assert all(memo.cache_info().currsize for memo in memos)
    request.getfixturevalue("cold_memos")
    assert not harness._streams and not harness._tables
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def _held_vectors():
    assert _streams_match_their_runs()
    return sum(len(run.prefix) for run in harness._streams)


def test_returned_streams_are_the_callers_own(cold_memos):
    # the second call hands out a copy of the stream the first one kept
    state = focused71()[0].initial_state()
    rank_fn = get_ranker("disc_lex")
    cfg = HarnessConfig()
    first, feature_stream, rank_stream = simulate_case(state, rank_fn, cfg)
    want = [_hex(fv) for fv in feature_stream]
    assert len(want) == DEFAULT_CAP + 1
    feature_stream[0] = (0.0,) * 26
    feature_stream.reverse()
    del feature_stream[-10:]
    rank_stream.clear()
    again_run, again, ranks = simulate_case(state, rank_fn, cfg)
    assert again_run is first and first in harness._streams
    assert [_hex(fv) for fv in again] == want
    assert len(ranks) == DEFAULT_CAP + 1


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
    # warm memos still call run_trajectory on and rank every case, but step
    # and extract nothing: focused71's 62 distinct initial states have 677
    # prefix states at the default cap, so even the first scoring hits 9 times
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
            assert simulator._held_run.cache_info().misses == 62
            assert len(extractions) == 677
    assert len(trajectories) == 142
    assert len(harness._streams) == 62
    assert reports[0] == reports[1]


def test_warm_scoring_builds_no_state_and_extracts_nothing():
    # once a scoring has run, each case hands back its one initial state, the
    # run memo its run, and the stream memo its vectors: a warm scoring builds
    # no State and extracts no feature vector, and still runs every case
    cases = focused71()
    ranker = get_ranker("disc_lex")
    cfg = HarnessConfig()
    want = score_benchmark(ranker, cases, cfg)
    built = []
    extracted = []
    runs = []
    post_init = State.__post_init__
    real_trajectory = harness.run_trajectory

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_extract(state):
        extracted.append(state)
        return extract_features(state)

    def counted_trajectory(*args, **kwargs):
        runs.append(args[0])
        return real_trajectory(*args, **kwargs)

    with patch.object(State, "__post_init__", counted_post_init), patch.object(
        harness, "extract_features", counted_extract
    ), patch.object(harness, "run_trajectory", counted_trajectory):
        assert score_benchmark(ranker, cases, cfg) == want
        State.initial(cases[0].ideal, cases[0].vars)  # the patch counts
    assert len(built) == 1 and not extracted
    assert len(runs) == len(cases)
    assert all(run is case.initial_state() for run, case in zip(runs, cases))


def test_threads_share_the_stream_memo(cold_memos):
    # workers=2 equals workers=1 with the per-case memos cold and warm, and
    # each call with a fresh copy of the ranker, so that threads fill a cold
    # rank table at once; then more workers than cores, with a short switch
    # interval, over more cases than the run memo holds, so that threads
    # insert and evict runs, and drop their streams, at once
    cases = broad24() + focused71() + extended100()
    ranker = get_ranker("r100")
    cfg = HarnessConfig()
    runs = []
    for workers in ((1, 2), (2, 1)):
        _cold_runs()
        runs += [
            score_benchmark(replace(ranker), cases, cfg, "s", "r100", workers=w)
            for w in workers
        ]
    assert all(run == runs[0] for run in runs)

    many = generate_broad_surrogates(2, 600)
    assert len({_key(c.initial_state(), cfg.cap) for c in many}) > MEMO_ENTRIES
    _cold_runs()
    serial = score_benchmark(ranker, many, cfg, "s", "r100")
    _cold_runs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = score_benchmark(replace(ranker), many, cfg, "s", "r100", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert len(harness._streams) <= MEMO_ENTRIES
    assert simulator._held_run.cache_info().currsize <= MEMO_ENTRIES
    assert _streams_match_their_runs()

    # focused71 at cap 4096 has 8,343 bit-distinct vectors: threads share one
    # table past its bound, which the call drops when it returns
    disc = get_ranker("disc_lex")
    cfg = HarnessConfig(cap=4096)
    serial = score_benchmark(replace(disc), focused71(), cfg)
    assert score_benchmark(replace(disc), focused71(), cfg, workers=2) == serial


def test_stream_memo_holds_at_most_its_vector_budget(cold_memos):
    # the two broad24 cases that never repeat an ideal have an 8,001-state
    # prefix at cap 8000: neither its run nor its stream outlives the
    # scoring, so each scoring steps and extracts it again.  At the default
    # cap their runs are held, and with them their 31-vector streams
    cases = _NEVER_REPEATS
    assert len(cases) == 2
    cfg = HarnessConfig(cap=8000)
    first = score_benchmark(get_ranker("disc_lex"), cases, cfg)
    assert not harness._streams and not simulator._held_run.cache_info().currsize
    assert score_benchmark(get_ranker("disc_lex"), cases, cfg) == first
    assert not harness._streams and not simulator._held_run.cache_info().currsize

    score_benchmark(get_ranker("disc_lex"), cases, HarnessConfig())
    held = [run_trajectory(c.initial_state(), DEFAULT_CAP) for c in cases]
    assert list(harness._streams) == held
    assert _held_vectors() == 2 * (DEFAULT_CAP + 1)


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

    # the run memo keys by (initial state, cap) and holds only caps up to
    # DEFAULT_CAP: more caps give more distinct keys than it holds, and it
    # keeps the newest MEMO_ENTRIES.  The streams left are exactly those of
    # the runs it holds
    keys = [_key(c.initial_state(), 120) for c in cases]
    for cap in (60, 30, 20, 10):
        score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=cap))
        keys += [_key(c.initial_state(), cap) for c in cases]
    assert len(set(keys)) == len(keys)
    run_keys = [k for k in keys if k[-1] <= DEFAULT_CAP]
    assert len(run_keys) > MEMO_ENTRIES
    before = simulator._held_run.cache_info()
    assert before.misses == len(run_keys) and before.currsize == MEMO_ENTRIES
    held = [run_trajectory(*k) for k in run_keys[-MEMO_ENTRIES:]]
    assert simulator._held_run.cache_info().misses == before.misses
    assert set(harness._streams) == set(held) and len(harness._streams) == MEMO_ENTRIES
    assert _streams_match_their_runs()

    # the per-monomial memos: 1,200 surrogates at cap 30 bring 4,319 distinct
    # monomials, past the bound
    score_benchmark(get_ranker("r100"), generate_broad_surrogates(1, 1200), HarnessConfig())
    for memo in (features._monomial_facts, simulator._rewrite):
        info = memo.cache_info()
        assert info.maxsize == MONOMIAL_MEMO_ENTRIES
        assert info.misses > MONOMIAL_MEMO_ENTRIES
        assert info.currsize <= MONOMIAL_MEMO_ENTRIES


# The rank table: a scoring calls the ranker once per bit-distinct feature
# vector, and every state still gets the rank the plain loop gives it.

_FIXED_TAIL_IDEAL = parse_polynomial("z^3 + x^6 + w^6", _VARS4)
_BUILTIN_STATES = [c.initial_state() for c in broad24() + focused71() + extended100()]
_SURROGATE_STATES = [c.initial_state() for c in generate_broad_surrogates(3, 40)]


def _signed_zero_features(state):
    # keeps what the audit and the tail read (f0, f9, f14 and f25) and sets
    # the other 22 features to a zero signed by the parity of the first base
    # multiplicity, so that many vectors differ only in the sign of zero.  A
    # V(z) tail keeps every base multiplicity at 0, so the tail is still its
    # entry vector with f25 moved
    zero = -0.0 if state.boundary.multiplicities[0] % 2 else 0.0
    return tuple(v if i in (0, 9, 14, 25) else zero for i, v in enumerate(extract_features(state)))


def _reads_zero_signs(fv):
    return tuple(math.copysign(1.0, v) for v in fv[1:25]) + (fv[0], fv[25])


def _raises_on_some(fv):
    if int(fv[25]) % 3 == 1:
        raise ArithmeticError("f25 is 1 mod 3")
    return (fv[0], fv[25], 1)


class _Big(int):
    """An int subclass, which the rank gate checks without a float conversion."""


def _raise(rank):
    raise ArithmeticError("no rank")


def _cut_short(rank):
    yield from rank[:2]
    raise ArithmeticError("rank cut short")


#: What a ranker may hand back for its rank r: ranks the gate refuses (None,
#: NaN, inf, bool, a shorter rank, an empty tuple), a raise, a generator that
#: raises while it is read, and forms the gate reads as a rank (an int
#: subclass past the float range, a list, a one-shot generator)
_RANK_FORMS = {
    "none": lambda r: None,
    "nan": lambda r: r[:1] + (math.nan,) + r[2:],
    "inf": lambda r: r[:1] + (-math.inf,) + r[2:],
    "bool": lambda r: r[:1] + (True,) + r[2:],
    "big": lambda r: r[:1] + (_Big(10**400),) + r[2:],
    "list": list,
    "short": lambda r: r[:-1],
    "empty": lambda r: (),
    "generator": lambda r: (v for v in r),
    "raises": _raise,
    "cut_short": _cut_short,
}


class _StateCase:
    """A suite case over a given initial state."""

    def __init__(self, name, state):
        self.name = name
        self._state = state

    def initial_state(self):
        return self._state


def _plain_ranks(rank_with, fvs):
    # a one-shot rank is read inside the try, so one that raises while it is
    # read is a crash
    ranks = []
    for fv in fvs:
        try:
            rank = rank_with(fv)
            ranks.append(tuple(rank) if isinstance(rank, Iterator) else rank)
        except ArithmeticError:
            ranks.append(None)
    return ranks


@settings(max_examples=60, deadline=None)
@given(
    initials=st.lists(
        st.one_of(
            st.sampled_from(_BUILTIN_STATES), st.sampled_from(_SURROGATE_STATES), _states()
        ),
        min_size=1,
        max_size=5,
    ),
    cap=st.sampled_from((0, 1, 30, 120)),
    kind=st.sampled_from(("zero_signs", "counted", "raises")),
    signed=st.booleans(),
    forms=st.lists(st.sampled_from(sorted(_RANK_FORMS)), max_size=3),
)
# past 2**53, float() rounds tail masses that differ by exc to one f25: from
# this state, the 7 prefix vectors are distinct and the 31 vectors at cap 30
# only 25
@example(
    initials=[State(_FIXED_TAIL_IDEAL, Boundary((0, 0, 0, 2**54)), _VARS4)],
    cap=30,
    kind="counted",
    signed=False,
    forms=["generator"],
)
def test_rank_table_matches_plain_loop(initials, cap, kind, signed, forms):
    calls = []
    rank_fn = {"zero_signs": _reads_zero_signs, "raises": _raises_on_some}.get(
        kind, lambda fv: (fv[0], fv[14], fv[25])
    )

    def ranker(fv):
        calls.append(fv)
        return rank_fn(fv)

    def formed(fv):
        # the ranker's rank, or one of the drawn forms of it, chosen by f25
        rank = rank_fn(fv)
        k = int(fv[25]) % (len(forms) + 1)
        return rank if k == len(forms) else _RANK_FORMS[forms[k]](rank)

    extract = _signed_zero_features if signed else extract_features
    plain_features = []
    plain_ranks = []
    for state in initials:
        fvs = [extract(s) for s in simulator._stepped(state, cap).states]
        plain_features.append(fvs)
        plain_ranks.append([_rank_hex(r) for r in _plain_ranks(ranker, fvs)])

    def distinct(streams):
        return len({struct.pack("26d", *fv) for fvs in streams for fv in fvs})

    def check(rank_with, state, fvs, ranks):
        _, feature_stream, rank_stream = simulate_case(state, rank_with, cfg)
        assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in fvs]
        assert [_rank_hex(r) for r in rank_stream] == ranks

    cfg = HarnessConfig(cap=cap)
    cases = list(zip(initials, plain_features, plain_ranks))
    harness._streams.clear()
    try:
        with patch.object(harness, "extract_features", extract):
            # one call per case with one ranker object, whose table the calls
            # share: the first pass ranks each bit-distinct vector once, and
            # the second ranks nothing
            n = distinct(plain_features)
            for want in (n, 0):
                calls.clear()
                for case in cases:
                    check(ranker, *case)
                assert len(calls) == want
            # two objects that compare equal but rank differently: each gets
            # its own table, so neither sees the other's ranks
            a, b = _EqualRanker(ranker, 0), _EqualRanker(ranker, 1)
            assert a == b and hash(a) == hash(b)
            for shifted, want in ((a, n), (b, n), (a, 0)):
                calls.clear()
                for state, fvs, ranks in cases:
                    check(shifted, state, fvs, [shifted.shift_hex(r) for r in ranks])
                assert len(calls) == want
            # scoring audits the table's gated ranks; the plain loop's full
            # streams, through the public audit, give the same reports, with
            # the formed ranker's table cold and then warm
            suite = [_StateCase(f"case{i}", state) for i, state in enumerate(initials)]
            want = [
                json.dumps(audit_trajectory(_plain_ranks(formed, fvs), fvs, cfg, c.name).report.to_json_dict())
                for c, fvs in zip(suite, plain_features)
            ]
            for _ in range(2):
                reports = score_benchmark(formed, suite, cfg).reports
                assert [json.dumps(r.to_json_dict()) for r in reports] == want
        assert len(harness._streams) == len({(s, cap) for s in initials if cap <= DEFAULT_CAP})
        assert _streams_match_their_runs(extract)
    finally:
        # no stream of the altered features outlives the test
        harness._streams.clear()


class _EqualRanker:
    """Rankers that all compare equal and hash alike, but append ``shift``
    to the wrapped rank: a table keyed by equality would mix them up."""

    def __init__(self, rank_fn, shift):
        self.rank_fn = rank_fn
        self.shift = shift

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0

    def __call__(self, fv):
        return self.rank_fn(fv) + (self.shift,)

    def shift_hex(self, rank_hex):
        return None if rank_hex is None else rank_hex + [("int", self.shift)]


_SUITES = {
    "focused71": focused71,
    "extended100": extended100,
    "broad24": broad24,
    "surrogates": lambda: generate_broad_surrogates(1, 200),
    "builtin": lambda: broad24() + focused71() + extended100(),
}


@pytest.mark.parametrize(
    "suite, cap, distinct",
    [
        ("focused71", 30, 211),
        ("extended100", 30, 404),
        ("broad24", 30, 270),
        ("broad24", 120, 900),
        ("surrogates", 120, 2478),
        ("surrogates-per-case", 120, 2478),
        ("builtin-per-case", 30, 674),
    ],
)
def test_each_scoring_ranks_each_bit_distinct_vector_once(suite, cap, distinct):
    # focused71 ranks 2,141 states at cap 30 and the surrogates 24,200 at cap
    # 120; the purity probe adds its two direct calls per case.  Scored one
    # case per call (-per-case), as the benchmark scores them, the calls share
    # the ranker's table, so the count is that of one call over all the cases
    per_case = suite.endswith("-per-case")
    cases = _SUITES[suite.removesuffix("-per-case")]()
    rank_fn = get_ranker("disc_lex")
    calls = []

    def counted(fv):
        calls.append(fv)
        return rank_fn(fv)

    cfg = HarnessConfig(cap=cap)
    if per_case:
        reports = tuple(
            score_benchmark(counted, (case,), cfg, ranker_name="disc_lex").reports[0]
            for case in cases
        )
    else:
        reports = score_benchmark(counted, cases, cfg, ranker_name="disc_lex").reports
    assert not any(r.structural_failure for r in reports)
    assert len(calls) - 2 * len(cases) == distinct
    assert reports == score_benchmark(rank_fn, cases, cfg).reports


# Rank-table lifetime: a table is kept by ranker identity for as long as the
# ranker lives, and between calls holds at most MONOMIAL_MEMO_ENTRIES ranks.
# Each test reads it through a ranker's calls and liveness.


def _counted(rank_fn):
    # a ranker that records each vector it is called on
    calls = []

    def counted(fv):
        calls.append(fv)
        return rank_fn(fv)

    return counted, calls


def test_each_candidate_table_lasts_one_evaluation():
    # every hill-climb candidate is a fresh Ranker: its table is kept when its
    # evaluation returns, and goes with the candidate
    candidates = []
    held_after_scoring = []

    class Recorded(RankerTemplate):
        def instantiate(self, weights):
            ranker = super().instantiate(weights)
            candidates.append(weakref.ref(ranker))
            return ranker

    def scored(ranker, *args, **kwargs):
        report = score_benchmark(ranker, *args, **kwargs)
        held_after_scoring.append(id(ranker) in harness._tables)
        return report

    before = set(harness._tables)
    with patch.object(search, "score_benchmark", scored):
        hill_climb(Recorded(), focused71(), HarnessConfig(), budget=5, seed=1)
    gc.collect()
    assert len(candidates) == len(held_after_scoring) == 6 and all(held_after_scoring)
    assert all(ref() is None for ref in candidates)
    assert set(harness._tables) <= before


def test_rank_table_goes_with_its_ranker():
    # broad24 has 270 bit-distinct vectors: a second scoring with one object
    # calls it only for the probe, an equal object has a table of its own,
    # and no table keeps its ranker alive
    counted, calls = _counted(get_ranker("disc_lex"))
    cases = broad24()
    first, equal = _EqualRanker(counted, 0), _EqualRanker(counted, 0)
    for ranker, ranked in ((first, 270), (first, 0), (equal, 270), (equal, 0)):
        calls.clear()
        score_benchmark(ranker, cases, HarnessConfig())
        assert len(calls) == ranked + 2 * len(cases)
    refs = [weakref.ref(first), weakref.ref(equal)]
    del first, equal, ranker
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_rank_table_past_its_bound_is_dropped_on_return():
    # focused71 at cap 4096 has 8,343 bit-distinct vectors: the bound is
    # checked once the call returns, so within the call each is ranked once,
    # and the table is then dropped, so the next call ranks them all again
    counted, calls = _counted(get_ranker("disc_lex"))
    cases = focused71()
    cfg = HarnessConfig(cap=4096)
    first = score_benchmark(counted, cases, cfg)
    assert (first.solved_count, first.total_violations) == (2, 175390)
    assert len(calls) == 8343 + 2 * len(cases)
    calls.clear()
    assert score_benchmark(counted, cases, cfg) == first
    assert len(calls) == 8343 + 2 * len(cases)


def test_call_that_raises_keeps_its_ranks():
    # the suite ends in a case whose initial features overflow, so the call
    # raises there; a second call over the cases before it finds every rank
    # the first one made, and calls the ranker only for the probe
    counted, calls = _counted(get_ranker("disc_lex"))
    cases = focused71()
    huge = parse_polynomial(f"z^3 + x^{10**320}", _VARS4)
    overflows = _StateCase("overflows", State.initial(huge, _VARS4))
    with pytest.raises(OverflowError):
        score_benchmark(counted, cases + (overflows,), HarnessConfig())
    assert len(calls) == 211 + 2 * len(cases)
    calls.clear()
    report = score_benchmark(counted, cases, HarnessConfig(), ranker_name="disc_lex")
    assert len(calls) == 2 * len(cases)
    assert report == score_benchmark(get_ranker("disc_lex"), cases, HarnessConfig())


def test_held_and_unheld_runs_share_one_table():
    # broad24's runs are held at cap 30 and not at cap 120, and each cap-30 run
    # is the start of its cap-120 run: one object ranks the 270 vectors at
    # cap 30, only the 630 new ones at cap 120, and none at cap 30 again, and
    # gives the reports that fresh objects give
    counted, calls = _counted(get_ranker("disc_lex"))
    cases = broad24()
    for cap, ranked in ((30, 270), (120, 630), (30, 0)):
        cfg = HarnessConfig(cap=cap)
        calls.clear()
        report = score_benchmark(counted, cases, cfg, ranker_name="disc_lex")
        assert len(calls) == ranked + 2 * len(cases)
        assert report == score_benchmark(replace(get_ranker("disc_lex")), cases, cfg)


def test_ranker_without_weak_references_gets_a_table_per_call():
    # a __slots__ = () instance takes no weak reference: each call ranks each
    # bit-distinct vector of the call once, and keeps nothing
    rank_fn = get_ranker("disc_lex")
    calls = []

    class Unreferenced:
        __slots__ = ()

        def __call__(self, fv):
            calls.append(fv)
            return rank_fn(fv)

    ranker = Unreferenced()
    with pytest.raises(TypeError):
        weakref.ref(ranker)
    cases = focused71()
    want = score_benchmark(rank_fn, cases, HarnessConfig())
    for _ in range(2):
        calls.clear()
        assert score_benchmark(ranker, cases, HarnessConfig(), ranker_name="disc_lex") == want
        assert len(calls) == 211 + 2 * len(cases)
        assert id(ranker) not in harness._tables


# The per-monomial memos: the ideal feature kernel and the chart aggregate
# each monomial's facts and image, and give what the plain per-feature kernel
# and the plain rewrite give.

_PRIMES = (2, 3, 5, 7, 2**31 - 1)


@st.composite
def _ideals(draw):
    # dims 1-6 with z last; exponents include multiples of p, so that the
    # divisibility masks and the p-adic depth see more than 0
    dim = draw(st.integers(1, 6))
    p = draw(st.sampled_from(_PRIMES))
    vars = VariableSet(tuple(f"x{i}" for i in range(dim - 1)) + ("z",), p)
    exponent = st.one_of(
        st.integers(0, 9), st.integers(1, 3).map(lambda k: k * p), st.just(p * p)
    )
    exponents = st.tuples(*[exponent] * dim).filter(any)
    monomials = []
    for e in draw(st.lists(exponents, min_size=1, max_size=8)):
        # mostly the inferred tag, so monic z-powers occur; else any tag, which
        # puts pure-z tags on mixed support
        tag = draw(st.sampled_from((infer_tag(e, vars),) * 3 + _TAGS))
        monomials.append(TaggedMonomial(tag, e))
    if draw(st.booleans()):
        monomials.append(draw(st.sampled_from(monomials)))
    return IdealSpec(tuple(monomials)), vars


def _assert_kernels_match_plain(ideal, vars):
    values, min_base, terms = features._ideal_features.__wrapped__(ideal, vars)
    plain_values, plain_min_base, plain_terms = plain_ideal_features(ideal, vars)
    assert _hex(values) == _hex(plain_values)
    assert min_base == plain_min_base
    assert terms == plain_terms

    chart, center, exc = simulator._chart.__wrapped__(ideal, vars)
    plain, plain_center, plain_exc = plain_chart(ideal, vars)
    assert [(m.tag, m.exponents) for m in chart] == [(m.tag, m.exponents) for m in plain]
    assert (center, exc) == (plain_center, plain_exc)


@settings(max_examples=400, deadline=None)
@given(ideal_vars=_ideals(), other_p=st.sampled_from(_PRIMES))
def test_monomial_memos_match_plain_kernels(ideal_vars, other_p):
    # the same monomials in another characteristic first, so that a facts key
    # that missed p would hand back the other characteristic's facts
    ideal, vars = ideal_vars
    features._ideal_features.__wrapped__(ideal, VariableSet(vars.names, other_p))
    _assert_kernels_match_plain(ideal, vars)


def test_monomial_memos_match_plain_kernels_on_the_suites():
    seen = set()
    for case in _CASES + generate_broad_surrogates(1, 200):
        for state in run_trajectory(case.initial_state(), 120).prefix:
            if state.ideal and (state.ideal, state.vars) not in seen:
                seen.add((state.ideal, state.vars))
                _assert_kernels_match_plain(state.ideal, state.vars)
    assert len(seen) > 1500


@pytest.mark.parametrize(
    "suite, cap, facts, rewrites",
    [
        ("focused71", 30, 64, 132),
        ("extended100", 30, 201, 340),
        ("broad24", 30, 159, 214),
        ("surrogates", 120, 1376, 2295),
    ],
)
def test_each_monomial_is_worked_out_once_per_cold_scoring(
    cold_memos, suite, cap, facts, rewrites
):
    # facts are keyed by (monomial, p) and images by (monomial, chart variable,
    # exc); one miss per distinct key that the scoring's ideals and steps hold
    cases = _SUITES[suite]()
    score_benchmark(get_ranker("disc_lex"), cases, HarnessConfig(cap=cap))
    fact_keys = set()
    rewrite_keys = set()
    for case in cases:
        run = run_trajectory(case.initial_state(), cap)
        for k, state in enumerate(run.prefix):
            fact_keys.update((m, state.vars.char_p) for m in state.ideal)
            if k < len(run.prefix) - 1:
                step = (run.centers[k].var_index, run.excs[k])
                rewrite_keys.update((m,) + step for m in state.ideal)
    assert features._monomial_facts.cache_info().misses == len(fact_keys) == facts
    assert simulator._rewrite.cache_info().misses == len(rewrite_keys) == rewrites
