"""The process-wide memos leave every result unchanged, read through public
observables only.

Scoring is compared with the plain oracles in ``oracles.py``, which step,
extract and rank every state with no memo: ``score_benchmark`` with
``plain_score`` cold and warm, runs with ``plain_run``, extracted features
with ``plain_features``, and the ideal feature kernel and the chart with the
plain per-feature kernel and the plain rewrite.  How much a memo holds, and
how long, is read from ``memos()`` after ``clear_memos()``, from how often a
ranker, ``run_trajectory`` or ``extract_features`` is called, and from
whether a ranker is still alive after ``gc.collect()``.  The values a run
builds without the public constructors' checks are compared with the ones
those constructors build.
"""

from __future__ import annotations

import doctest
import functools
import gc
import importlib
import json
import math
import pickle
import pkgutil
import struct
import sys
import weakref
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blowup_lab
from blowup_lab import clear_memos, features, harness, memos, search, simulator
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
    run_trajectory,
)
from oracles import (
    plain_chart,
    plain_features,
    plain_ideal_features,
    plain_ranks,
    plain_run,
    plain_score,
)

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
    assert _hex(extract_features(state)) == _hex(plain_features(state))


@settings(max_examples=150, deadline=None)
@given(state=_states(), cap=st.integers(0, 40))
def test_step_memo_matches_uncached_chart(state, cap):
    memoized = run_trajectory(state, cap)
    states, centers, excs, monomial_step = plain_run(state, cap)
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
    # simulate_case runs cold (every memo cleared, and a fresh copy of the
    # ranker), then warm, then with the builtin ranker; each must give the
    # plain loop's features, ranks and audit.  A warm call reuses the run, and
    # its stream, exactly when the cap is at most the default; only then is a
    # stream held, and only the one run's
    clear_memos()
    trajectory = run_trajectory(state, cap)
    states, centers, excs, monomial_step = plain_run(state, cap)
    assert trajectory.states == tuple(states)
    assert trajectory.centers == tuple(centers)
    assert trajectory.excs == tuple(excs)
    assert trajectory.monomial_step == monomial_step
    assert len(trajectory.prefix) + trajectory.tail_len == len(states)

    rank_fn = get_ranker(ranker)
    cfg = HarnessConfig(cap=cap)
    try:
        plain_features = [extract_features(s) for s in states]
    except OverflowError:
        # a run whose exponents grow at every step outgrows a double: scoring
        # raises as the plain loop does
        with pytest.raises(OverflowError):
            simulate_case(state, rank_fn, cfg)
        return
    want_ranks = plain_ranks(rank_fn, plain_features)
    plain_audit = audit_trajectory(want_ranks, plain_features, cfg)
    fresh = replace(rank_fn)
    assert fresh == rank_fn and fresh is not rank_fn
    for rank_with in (fresh, fresh, rank_fn):
        run, feature_stream, rank_stream, audit = simulate_case(state, rank_with, cfg)
        assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in plain_features]
        assert [_rank_hex(r) for r in rank_stream] == [_rank_hex(r) for r in want_ranks]
        assert audit == plain_audit
        assert (run is trajectory) == (cap <= DEFAULT_CAP)
    assert memos()["streams"][0] == (1 if cap <= DEFAULT_CAP else 0)


@settings(max_examples=150, deadline=None)
@given(
    state=st.one_of(_states(), _case_states(), st.sampled_from(_INITIAL_STATES)),
    cap=st.integers(0, 40),
)
def test_trajectory_memo_matches_plain_loop(state, cap):
    # cold (every memo cleared), then warm; a run is held exactly when its
    # cap is at most DEFAULT_CAP, and a warm call hands back the held run
    clear_memos()
    states, centers, excs, monomial_step = plain_run(state, cap)
    cold = run_trajectory(state, cap)
    warm = run_trajectory(state, cap)
    for trajectory in (cold, warm):
        assert trajectory.states == tuple(states)
        assert trajectory.centers == tuple(centers)
        assert trajectory.excs == tuple(excs)
        assert trajectory.monomial_step == monomial_step
    held = cap <= DEFAULT_CAP
    assert memos()["runs"][0] == held
    assert (warm is cold) == held


# The simulator builds a run's later monomials, ideals, boundaries and states,
# and the zero-boundary state f21 reads, without the public constructors'
# checks.  Each must be the value the public constructor builds from its
# fields: the same fields, cached hash and exponent lengths included, before
# and after a pickle round trip.


def _public_copy(value):
    if isinstance(value, TaggedMonomial):
        return TaggedMonomial(value.tag, value.exponents)
    if isinstance(value, IdealSpec):
        return IdealSpec(tuple(_public_copy(m) for m in value.monomials))
    if isinstance(value, Boundary):
        return Boundary(value.multiplicities)
    return State(_public_copy(value.ideal), _public_copy(value.boundary), value.vars)


def _assert_built_as_public(values):
    for value in values:
        public = _public_copy(value)
        loaded = pickle.loads(pickle.dumps(value))
        assert type(value) is type(loaded) is type(public)
        assert value.__dict__ == loaded.__dict__ == public.__dict__
        assert hash(value) == hash(loaded) == hash(public)


def _derived_values(initials, cap):
    # every state a run steps to, with its boundary, its ideal and the ideal's
    # monomials, and the state each distinct ideal's f21 reads; by identity
    values = {}
    f21_states = []
    for initial in initials:
        for state in run_trajectory(initial, cap).states[1:]:
            for value in (state, state.boundary, state.ideal, *state.ideal.monomials):
                values[id(value)] = value
    ideals = {(v.ideal, v.vars) for v in values.values() if isinstance(v, State)}
    real = features.hilbert_samuel_base

    def recording(state):
        f21_states.append(state)
        return real(state)

    with patch.object(features, "hilbert_samuel_base", recording):
        for ideal, vars in ideals:
            if ideal:
                features._ideal_features.__wrapped__(ideal, vars)
    return list(values.values()) + f21_states


@pytest.mark.parametrize("cap", [30, 120])
def test_derived_values_are_built_as_public(cold_memos, cap):
    cases = broad24() + focused71() + extended100() + generate_broad_surrogates(1, 200)
    values = _derived_values([case.initial_state() for case in cases], cap)
    kinds = {type(v) for v in values}
    assert kinds == {TaggedMonomial, IdealSpec, Boundary, State}
    _assert_built_as_public(values)


@settings(max_examples=100, deadline=None)
@given(state=_states(), cap=st.integers(0, 40))
def test_derived_values_of_drawn_states_are_built_as_public(state, cap):
    _assert_built_as_public(_derived_values([state], cap))


def test_non_int_caps_are_refused():
    # a float or bool cap equals an int, so it would hash to a held run's key
    state = focused71()[0].initial_state()
    run_trajectory(state, 30)
    for cap in (30.0, True, "30"):
        with pytest.raises(TypeError):
            run_trajectory(state, cap)


def test_fixed_point_tail_is_kept_as_a_count():
    cap = 4096
    state = State.initial(parse_polynomial("z^3 + x^6 + w^6", _VARS4), _VARS4)
    cfg = HarnessConfig(cap=cap)
    trajectory, feature_stream, _, _ = simulate_case(state, get_ranker("r100"), cfg)
    assert trajectory.monomial_step is None
    assert trajectory.tail_len == cap + 1 - len(trajectory.prefix) > 4000
    assert len(trajectory.states) == len(feature_stream) == cap + 1
    assert trajectory.centers[-1].kind == simulator.DIVISOR_Z
    assert trajectory.prefix[-1].ideal == trajectory.prefix[-2].ideal != trajectory.prefix[-3].ideal


def test_tail_starts_at_the_first_repeated_ideal():
    # ideals compare by value: a run's prefix ends at the first state whose
    # ideal equals its predecessor's, so no tail state is stepped or extracted
    # as a prefix state, whichever ideal objects the chart memo hands back
    tailed = 0
    for cap in (30, 120):
        for case in broad24() + extended100() + generate_broad_surrogates(1, 200):
            run = run_trajectory(case.initial_state(), cap)
            ideals = [state.ideal for state in run.prefix]
            repeats = [k for k in range(1, len(ideals)) if ideals[k] == ideals[k - 1]]
            if run.tail_len:
                tailed += 1
                assert repeats == [len(ideals) - 1], case.name
    assert tailed == 631


@pytest.fixture
def cold_memos():
    """Empty every process-wide memo, so that the counts a test reads start
    at 0 and no warm run, stream or rank table skips the work it counts."""
    clear_memos()


_MEMO_NAMES = (
    "chart",
    "rewrite",
    "runs",
    "monomial_facts",
    "ideal_features",
    "streams",
    "rank_tables",
)


def test_cold_memos_clears_every_memo(cold_memos):
    # one scoring fills every memo; clearing empties each, streams and rank
    # tables included, and keeps its bound
    assert tuple(memos()) == _MEMO_NAMES
    assert all(entries == 0 for entries, *_ in memos().values())
    score_benchmark(get_ranker("r100"), focused71(), HarnessConfig())
    warm = memos()
    assert all(entries > 0 for entries, *_ in warm.values())
    clear_memos()
    cold = memos()
    assert all(entries == 0 for entries, *_ in cold.values())
    assert [m[1] for m in cold.values()] == [m[1] for m in warm.values()]
    assert cold["runs"] == (0, MEMO_ENTRIES, 0, 0)
    assert cold["streams"] == (0, MEMO_ENTRIES, 0, 0)
    assert cold["rank_tables"] == (0, MONOMIAL_MEMO_ENTRIES, None, None)


def test_readme_examples_run():
    # README's >>> example: a cold focused71 scoring and the runs memo's report
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert doctest.testfile(str(readme), module_relative=False) == (0, 5)


#: The package's caches and module-level mappings that memos() does not
#: report, each with the reason
_NOT_MEMOS = {
    "core._is_prime": "a characteristic's primality, read when a case is parsed, not scored",
    "benchmarks.broad24": "a builtin suite: a constant tuple of cases, built on first use",
    "benchmarks.focused71": "a builtin suite: a constant tuple of cases, built on first use",
    "benchmarks.extended100": "a builtin suite: a constant tuple of cases, built on first use",
    "benchmarks.BenchmarkCase._initial": "a case's initial State, held as long as the case",
    "simulator.Trajectory.states": "a run's stepped-out states, held as long as the run",
    "rankers._RANKERS": "the builtin rankers by name, fixed at import",
}


def _package_caches():
    # (object, the names it is found under) for every functools cache wrapper,
    # cached_property and module-level mapping that the package defines
    found = {}
    for info in pkgutil.iter_modules(blowup_lab.__path__):
        module = importlib.import_module(f"blowup_lab.{info.name}")
        scopes = [(info.name, vars(module))]
        scopes += [
            (f"{info.name}.{value.__name__}", vars(value))
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for scope, namespace in scopes:
            for name, value in namespace.items():
                if name.startswith("__"):
                    continue
                if (
                    hasattr(value, "cache_info")
                    or isinstance(value, functools.cached_property)
                    or isinstance(value, Mapping)
                ):
                    found.setdefault(id(value), (value, []))[1].append(f"{scope}.{name}")
    return list(found.values())


def _entries(memo):
    return memo.cache_info().currsize if hasattr(memo, "cache_info") else len(memo)


def test_every_cache_is_a_memo_or_exempt(cold_memos):
    # each cache or mapping of the package is either exempt, or a memo that
    # memos() reports and clear_memos() empties
    found = _package_caches()
    assert {name for _, names in found for name in names} >= set(_NOT_MEMOS)
    registered = [(memo, names) for memo, names in found if not set(names) & set(_NOT_MEMOS)]
    assert len(registered) == len(memos())
    score_benchmark(get_ranker("r100"), focused71(), HarnessConfig())
    reported = memos()
    for memo, names in registered:
        assert not isinstance(memo, functools.cached_property), names
        assert _entries(memo) > 0, names
        if hasattr(memo, "cache_info"):
            info = memo.cache_info()
            assert (info.currsize, info.maxsize, info.hits, info.misses) in reported.values(), names
    clear_memos()
    assert all(_entries(memo) == 0 for memo, _ in registered)


def test_returned_streams_are_the_callers_own(cold_memos):
    # the second call hands out a copy of the stream the first one kept
    state = focused71()[0].initial_state()
    rank_fn = get_ranker("disc_lex")
    cfg = HarnessConfig()
    first, feature_stream, rank_stream, _ = simulate_case(state, rank_fn, cfg)
    want = [_hex(fv) for fv in feature_stream]
    assert len(want) == DEFAULT_CAP + 1
    feature_stream[0] = (0.0,) * 26
    feature_stream.reverse()
    del feature_stream[-10:]
    rank_stream.clear()
    again_run, again, ranks, _ = simulate_case(state, rank_fn, cfg)
    assert again_run is first and memos()["streams"][0] == 1
    assert [_hex(fv) for fv in again] == want
    assert len(ranks) == DEFAULT_CAP + 1


def _stream_hex(result):
    _, feature_stream, rank_stream, _ = result
    return [_hex(fv) for fv in feature_stream], [_rank_hex(r) for r in rank_stream]


def test_list_boundary_scores_as_its_tuple():
    ideal = parse_polynomial(DISC_STALL_POLY, _VARS4)
    listed = State(ideal, Boundary([0, 0, 0, 0]), _VARS4)
    tupled = State.initial(ideal, _VARS4)
    assert listed == tupled and hash(listed) == hash(tupled)
    rank_fn = get_ranker("disc_lex")
    cfg = HarnessConfig()
    clear_memos()
    want = _stream_hex(simulate_case(tupled, rank_fn, cfg))
    clear_memos()
    assert _stream_hex(simulate_case(listed, rank_fn, cfg)) == want
    # warm, from the entry the list form left
    assert _stream_hex(simulate_case(tupled, rank_fn, cfg)) == want


def test_each_scoring_runs_every_trajectory(cold_memos):
    # warm memos still call run_trajectory on and rank every case, but step
    # and extract nothing: focused71's 62 distinct initial states have 617
    # prefix states at the default cap, so even the first scoring hits 9 times.
    # A case's stream is looked up right after its run, so the streams memo
    # counts as the runs memo does
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
        for hits in (9, 80):
            reports.append(score_benchmark(get_ranker("disc_lex"), cases, HarnessConfig()))
            assert memos()["streams"] == memos()["runs"] == (62, MEMO_ENTRIES, hits, 62)
            assert len(extractions) == 617
    assert len(trajectories) == 142
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
    # insert and evict runs and streams at once
    cases = broad24() + focused71() + extended100()
    ranker = get_ranker("r100")
    cfg = HarnessConfig()
    runs = []
    for workers in ((1, 2), (2, 1)):
        clear_memos()
        runs += [
            score_benchmark(replace(ranker), cases, cfg, "s", "r100", workers=w)
            for w in workers
        ]
    assert all(run == runs[0] for run in runs)

    many = generate_broad_surrogates(2, 600)
    assert len({c.initial_state() for c in many}) > MEMO_ENTRIES
    clear_memos()
    serial = score_benchmark(ranker, many, cfg, "s", "r100")
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = score_benchmark(replace(ranker), many, cfg, "s", "r100", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert memos()["streams"][0] <= memos()["runs"][0] <= MEMO_ENTRIES
    # the runs and streams the threads left give a fresh table serial's report
    assert score_benchmark(replace(ranker), many, cfg, "s", "r100") == serial

    # focused71 at cap 4096 has 8,343 bit-distinct vectors: threads share one
    # table past its bound, which the call drops when it returns
    disc = get_ranker("disc_lex")
    cfg = HarnessConfig(cap=4096)
    serial = score_benchmark(replace(disc), focused71(), cfg)
    assert score_benchmark(replace(disc), focused71(), cfg, workers=2) == serial


def test_stream_memo_holds_at_most_its_vector_budget(cold_memos):
    # the two broad24 cases that never repeat an ideal have an 8,001-state
    # prefix at cap 8000: neither its run nor its stream outlives the
    # scoring, so each scoring steps and extracts all of it again.  At the
    # default cap their runs are held, and with them their 31-vector streams,
    # so only the first scoring extracts
    cases = _NEVER_REPEATS
    assert len(cases) == 2
    extracted = []

    def counted(state):
        extracted.append(state)
        return extract_features(state)

    with patch.object(harness, "extract_features", counted):
        for cap, held, counts in ((8000, 0, (16002, 16002)), (DEFAULT_CAP, 2, (62, 0))):
            cfg = HarnessConfig(cap=cap)
            reports = []
            for want in counts:
                extracted.clear()
                reports.append(score_benchmark(get_ranker("disc_lex"), cases, cfg))
                assert len(extracted) == want
                assert memos()["streams"][0] == memos()["runs"][0] == held
            assert reports[0] == reports[1]


def test_runs_held_above_the_default_cap_hold_no_stream(cold_memos):
    # a stream is held only beside a run that the runs memo hands out, so a
    # caller that keeps the runs simulate_case returns above DEFAULT_CAP keeps
    # no stream with them; at the default cap each distinct case keeps one
    ranker = get_ranker("disc_lex")
    for cap, runs, held in ((120, 71, 0), (DEFAULT_CAP, 62, 62)):
        cfg = HarnessConfig(cap=cap)
        kept = [simulate_case(c.initial_state(), ranker, cfg)[0] for c in focused71()]
        assert len({id(run) for run in kept}) == runs
        assert memos()["streams"][0] == memos()["runs"][0] == held


def test_builtin_sweep_computes_each_ideal_once(cold_memos):
    # the benchmark's builtin_sweep order: each suite under every ranker in
    # turn; the memo bound must hold all of them, so every distinct ideal
    # misses exactly once
    cfg = HarnessConfig(window=5, cap=30)
    suites = [broad24(), focused71(), extended100()]
    for cases in suites:
        for name in ("two_component", "clean_lex", "disc_lex", "r100"):
            score_benchmark(get_ranker(name), cases, cfg)
    misses = memos()["ideal_features"][3]
    ideals = {
        (s.ideal, s.vars)
        for cases in suites
        for case in cases
        for s in run_trajectory(case.initial_state(), cfg.cap).states
    }
    assert misses == len(ideals) == 555


def test_memos_stay_within_their_bound(cold_memos):
    cases = generate_broad_surrogates(1, 200)
    score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=120))
    for name in ("chart", "ideal_features"):
        entries, bound, _, misses = memos()[name]
        assert bound == MEMO_ENTRIES
        assert misses > MEMO_ENTRIES  # the bound was actually reached
        assert entries <= MEMO_ENTRIES

    # the run memo keys by (initial state, cap) and holds only caps up to
    # DEFAULT_CAP: more caps give more distinct keys than it holds, and it
    # keeps the newest MEMO_ENTRIES.  The streams left are those of the newest
    # MEMO_ENTRIES scored runs
    keys = [(c.initial_state(), 120) for c in cases]
    for cap in (60, 30, 20, 10):
        score_benchmark(get_ranker("r100"), cases, HarnessConfig(cap=cap))
        keys += [(c.initial_state(), cap) for c in cases]
    assert len(set(keys)) == len(keys)
    run_keys = [k for k in keys if k[-1] <= DEFAULT_CAP]
    assert len(run_keys) > MEMO_ENTRIES
    entries, bound, _, misses = memos()["runs"]
    assert (entries, bound, misses) == (MEMO_ENTRIES, MEMO_ENTRIES, len(run_keys))
    for k in run_keys[-MEMO_ENTRIES:]:
        run_trajectory(*k)
    assert memos()["runs"][3] == misses
    assert memos()["streams"][0] == MEMO_ENTRIES

    # the per-monomial memos: 1,200 surrogates at cap 30 bring 4,319 distinct
    # monomials, past the bound
    score_benchmark(get_ranker("r100"), generate_broad_surrogates(1, 1200), HarnessConfig())
    for name in ("monomial_facts", "rewrite"):
        entries, bound, _, misses = memos()[name]
        assert bound == MONOMIAL_MEMO_ENTRIES
        assert misses > MONOMIAL_MEMO_ENTRIES
        assert entries <= MONOMIAL_MEMO_ENTRIES


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
    want_ranks = []
    for state in initials:
        fvs = [extract(s) for s in plain_run(state, cap)[0]]
        plain_features.append(fvs)
        want_ranks.append([_rank_hex(r) for r in plain_ranks(ranker, fvs)])

    def distinct(streams):
        return len({struct.pack("26d", *fv) for fvs in streams for fv in fvs})

    def check(rank_with, state, fvs, ranks):
        _, feature_stream, rank_stream, _ = simulate_case(state, rank_with, cfg)
        assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in fvs]
        assert [_rank_hex(r) for r in rank_stream] == ranks

    cfg = HarnessConfig(cap=cap)
    cases = list(zip(initials, plain_features, want_ranks))
    clear_memos()
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
                json.dumps(audit_trajectory(plain_ranks(formed, fvs), fvs, cfg, c.name).report.to_json_dict())
                for c, fvs in zip(suite, plain_features)
            ]
            for _ in range(2):
                reports = score_benchmark(formed, suite, cfg).reports
                assert [json.dumps(r.to_json_dict()) for r in reports] == want
        assert memos()["streams"][0] == len({s for s in initials if cap <= DEFAULT_CAP})
    finally:
        # no stream of the altered features outlives the test
        clear_memos()


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


def test_each_candidate_table_lasts_one_evaluation(cold_memos):
    # every hill-climb candidate is a fresh Ranker: its table, focused71's 211
    # ranks, is kept when its evaluation returns, and goes with the candidate
    candidates = []
    held_after_scoring = []

    class Recorded(RankerTemplate):
        def instantiate(self, weights):
            ranker = super().instantiate(weights)
            candidates.append(weakref.ref(ranker))
            return ranker

    def scored(ranker, *args, **kwargs):
        report = score_benchmark(ranker, *args, **kwargs)
        held_after_scoring.append(memos()["rank_tables"][0])
        return report

    with patch.object(search, "score_benchmark", scored):
        hill_climb(Recorded(), focused71(), HarnessConfig(), budget=5, seed=1)
    gc.collect()
    assert len(candidates) == 6 and held_after_scoring == [211] * 6
    assert all(ref() is None for ref in candidates)
    assert memos()["rank_tables"][0] == 0


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
    # focused71 at cap 4096 has 8,343 bit-distinct vectors: the case that
    # crosses the bound drops the table and the call goes on filling it, so
    # within the call each is ranked once, and the next call ranks them all again
    counted, calls = _counted(get_ranker("disc_lex"))
    cases = focused71()
    cfg = HarnessConfig(cap=4096)
    first = score_benchmark(counted, cases, cfg)
    assert (first.solved_count, first.total_violations) == (2, 175390)
    assert len(calls) == 8343 + 2 * len(cases)
    calls.clear()
    assert score_benchmark(counted, cases, cfg) == first
    assert len(calls) == 8343 + 2 * len(cases)


def test_simulate_case_drops_a_rank_table_past_its_bound():
    # the 5,001 states of z^3 + x^6 + w^6 at cap 5000 have 5,000 bit-distinct
    # vectors, past the 4,096 ranks a table may keep: each is ranked once in
    # the call, the table is not kept, and the next call ranks them all again
    # (cap 4096 would not do: its 4,096 ranks make a table that is kept)
    counted, calls = _counted(get_ranker("disc_lex"))
    state = State.initial(_FIXED_TAIL_IDEAL, _VARS4)
    cfg = HarnessConfig(cap=5000)
    held = memos()["rank_tables"][0]
    _, features, _, _ = simulate_case(state, counted, cfg)
    assert len(features) == 5001
    assert len(calls) == len(set(calls)) == 5000
    assert memos()["rank_tables"][0] == held
    calls.clear()
    simulate_case(state, counted, cfg)
    assert len(calls) == 5000


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
    held = memos()["rank_tables"][0]
    for _ in range(2):
        calls.clear()
        assert score_benchmark(ranker, cases, HarnessConfig(), ranker_name="disc_lex") == want
        assert len(calls) == 211 + 2 * len(cases)
        assert memos()["rank_tables"][0] == held


# Tail runs: a ranker keeps one run of gated ranks per fixed-ideal tail, by
# (entry vector, entry mass, exc).  These cases all enter the fixed ideal z^3
# under V(z), after prefixes of 2 to 11 states, at entry masses 3, 4 and 6
# (exc 3), so their tails share every key with one another or none: a run
# keyed without the entry mass would hand mass 6 the ranks of mass 3's tail,
# one step ahead.  The first case has the shortest tail and the second the
# longest, so the second extends the first's run and the rest slice it.

_TAIL_POLYS = ("z^3 + x^12 + w^6 + y^9", "z^3", "z^3 + x^6 + w^6", "z^3 + x^6 + w^6 + y^5")
_TAIL_CASES = tuple(
    _StateCase(
        f"{poly} | z^{z}",
        State(parse_polynomial(poly, _VARS4), Boundary((0, 0, 0, z)), _VARS4),
    )
    for z in (0, 1, 3)
    for poly in _TAIL_POLYS
)
_TAIL_CAPS = (0, 1, 29, 30, 31, 120, 1200)


def _tail_pure(fv):
    return (fv[0], fv[25] % 7, fv[25])


def _tail_crashes(fv):
    if int(fv[25]) % 5 == 4:
        raise ArithmeticError("f25 is 4 mod 5")
    return _tail_pure(fv)


def _tail_malformed(fv):
    # a NaN when f25 is 4 mod 5, else a shorter rank when it is 6 mod 7
    if int(fv[25]) % 5 == 4:
        return (fv[0], math.nan, fv[25])
    return _tail_pure(fv)[: 2 if int(fv[25]) % 7 == 6 else 3]


def _tail_generator(fv):
    # a one-shot rank, which raises while it is read when f25 is 10 mod 11
    yield from _tail_pure(fv)[:2]
    if int(fv[25]) % 11 == 10:
        raise ArithmeticError("rank cut short")
    yield fv[25]


_TAIL_RANKERS = {
    "pure": _tail_pure,
    "crashes": _tail_crashes,
    "malformed": _tail_malformed,
    "generator": _tail_generator,
}


@functools.lru_cache(maxsize=None)
def _plain_tail_streams(cap):
    return tuple(
        [plain_features(s) for s in plain_run(case.initial_state(), cap)[0]] for case in _TAIL_CASES
    )


def test_tail_cases_share_one_fixed_ideal():
    entries = set()
    for case in _TAIL_CASES:
        run = run_trajectory(case.initial_state(), 120)
        entry = run.prefix[-1]
        entries.add((entry.ideal, entry.boundary.mass, run.excs[-1], len(run.prefix)))
    assert {e[0] for e in entries} == {parse_polynomial("z^3", _VARS4)}
    assert {e[1:3] for e in entries} == {(3, 3), (4, 3), (6, 3)}
    assert {e[3] for e in entries} == {2, 6, 8, 11}


@pytest.mark.parametrize("cap", _TAIL_CAPS)
@pytest.mark.parametrize("kind", sorted(_TAIL_RANKERS))
def test_tail_runs_match_plain_ranks(cap, kind):
    # one fresh ranker object per test, so its table and runs start empty:
    # simulate_case gives every state the plain loop's vector and rank, and
    # calls the ranker once per bit-distinct vector over all the cases, then
    # not at all; score_benchmark gives plain_score's reports, cold and warm,
    # over the suite and one case per call
    rank_fn = _TAIL_RANKERS[kind]
    calls = []

    def ranker(fv):
        calls.append(fv)
        return rank_fn(fv)

    cfg = HarnessConfig(cap=cap)
    streams = _plain_tail_streams(cap)
    want_ranks = [[_rank_hex(r) for r in plain_ranks(rank_fn, fvs)] for fvs in streams]
    distinct = len({struct.pack("26d", *fv) for fvs in streams for fv in fvs})
    clear_memos()
    for ranked in (distinct, 0):
        calls.clear()
        for case, fvs, ranks in zip(_TAIL_CASES, streams, want_ranks):
            _, feature_stream, rank_stream, _ = simulate_case(case.initial_state(), ranker, cfg)
            assert [_hex(fv) for fv in feature_stream] == [_hex(fv) for fv in fvs]
            assert [_rank_hex(r) for r in rank_stream] == ranks
        assert len(calls) == ranked

    want = plain_score(ranker, _TAIL_CASES, cfg)
    for cold in (True, False):
        if cold:
            clear_memos()
        assert score_benchmark(ranker, _TAIL_CASES, cfg) == want
        each = [score_benchmark(ranker, (case,), cfg).reports[0] for case in _TAIL_CASES]
        assert tuple(each) == want.reports


def test_tail_runs_extend_and_slice_across_caps():
    # one ranker object over every cap, longest last and then shorter again:
    # a run grows past its length only, and a shorter tail reads a slice of
    # it, so the ranker is called once per bit-distinct vector of the longest
    calls = []

    def ranker(fv):
        calls.append(fv)
        return _tail_pure(fv)

    clear_memos()
    for cap in _TAIL_CAPS + tuple(reversed(_TAIL_CAPS)):
        cfg = HarnessConfig(cap=cap)
        for case, fvs in zip(_TAIL_CASES, _plain_tail_streams(cap)):
            _, _, rank_stream, _ = simulate_case(case.initial_state(), ranker, cfg)
            assert rank_stream == [_tail_pure(fv) for fv in fvs]
    longest = _plain_tail_streams(max(_TAIL_CAPS))
    assert len(calls) == len({struct.pack("26d", *fv) for fvs in longest for fv in fvs})


# Scoring against the plain oracle: every report, cold and warm, one call per
# suite and one per case, equals the one plain_score gives.

_SCORED_SURROGATES = generate_broad_surrogates(5, 60)


@st.composite
def _suites(draw):
    # a few builtin cases, surrogates or random initial states
    kind = draw(st.sampled_from(("builtin", "surrogates", "random")))
    if kind == "random":
        states = draw(st.lists(_states(), min_size=1, max_size=3))
        return [_StateCase(f"random{i}", state) for i, state in enumerate(states)]
    pool = broad24() + extended100() if kind == "builtin" else _SCORED_SURROGATES
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


_rankers = st.one_of(
    st.sampled_from(ranker_names()).map(get_ranker),
    st.tuples(*[st.floats(-20.0, 20.0)] * RankerTemplate().size()).map(
        RankerTemplate().instantiate
    ),
)


def _scored(score, ranker, cases, cfg):
    try:
        return json.dumps(score(ranker, cases, cfg).to_json_dict())
    except OverflowError:
        return "OverflowError"


@settings(max_examples=100, deadline=None)
@given(cases=_suites(), cap=st.integers(0, 200), window=st.integers(1, 10), ranker=_rankers)
# fixed-ideal tails of 193-195 steps: a tail rank that missed its f25 step
# would stall the discretized rank
@example(cases=list(focused71()[:3]), cap=200, window=5, ranker=get_ranker("disc_lex"))
def test_scoring_matches_plain_score(cases, cap, window, ranker):
    cfg = HarnessConfig(window=window, cap=cap)
    entries = [m[0] for m in memos().values()]
    want = _scored(plain_score, ranker, cases, cfg)
    want_each = [_scored(plain_score, ranker, [case], cfg) for case in cases]
    # the oracle reads and fills no memo
    assert [m[0] for m in memos().values()] == entries
    # cold, then warm with the same ranker object: one call per suite first,
    # then one call per case first
    for per_case_first in (False, True):
        clear_memos()
        for per_case in (per_case_first, not per_case_first, False):
            if per_case:
                assert [_scored(score_benchmark, ranker, [c], cfg) for c in cases] == want_each
            else:
                assert _scored(score_benchmark, ranker, cases, cfg) == want


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
    extract_features(State.initial(ideal, VariableSet(vars.names, other_p)))
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
    assert memos()["monomial_facts"][3] == len(fact_keys) == facts
    assert memos()["rewrite"][3] == len(rewrite_keys) == rewrites
