"""Differential test of ``audit_trajectory`` against its lex_compare form.

``_reference_audit`` keeps the audit as it was written before it compared
ranks in native tuple order, once per consecutive pair: every comparison goes
through ``lex_compare`` and each pass makes its own.  The two must agree on
every report field and on the per-step detail, which a structural failure
keeps for the steps before the first malformed rank.  The audit of the ranks
that scoring has gated, over a trajectory's prefix vectors, must agree with
the public audit of the full streams.
"""

from __future__ import annotations

import math
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab import harness
from blowup_lab.harness import (
    FLAG_ALIGN_F0,
    FLAG_ALIGN_F14,
    FLAG_DELAY,
    FLAG_NORMALIZATION,
    HEAVY_WEIGHT,
    LIGHT_WEIGHT,
    STRUCTURAL_PENALTY,
    HarnessConfig,
    TrajectoryAudit,
    ViolationReport,
    audit_trajectory,
    score_benchmark,
)
from blowup_lab.rankers import lex_compare

try:
    import numpy
except ImportError:  # the numpy values below are then left out
    numpy = None


def _reference_is_malformed(rank) -> bool:
    if rank is None:
        return True
    try:
        values = tuple(rank)
    except TypeError:
        return True
    if not values:
        return True
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return True
        if not math.isfinite(v):
            return True
    return False


def _reference_audit(
    ranks: Sequence,
    features: Sequence[Sequence[float]],
    cfg: HarnessConfig,
    name: str = "case",
) -> TrajectoryAudit:
    if len(ranks) != len(features):
        raise ValueError("rank and feature streams must have equal length")
    if not ranks:
        raise ValueError("empty trajectory")

    n = len(ranks)
    tau = next((t for t in range(n) if features[t][9] == 1), n)

    cut = next(
        (
            t
            for t, r in enumerate(ranks)
            if _reference_is_malformed(r) or len(tuple(r)) != len(tuple(ranks[0]))
        ),
        n,
    )
    if cut < n:
        report = ViolationReport(
            name=name,
            total_violations=STRUCTURAL_PENALTY,
            delay_violations=0,
            normalization_violations=0,
            align_f0=0.0,
            align_f14=0.0,
            structural_failure=True,
            local_increases=0,
            max_plateau=0,
            solved=False,
        )
        # the steps before the first malformed rank keep their detail
        flags, improved = (), ()
        if cut:
            before = _reference_audit(ranks[:cut], features[:cut], cfg, name)
            flags, improved = before.step_flags, before.best_improved
        return TrajectoryAudit(
            report=report,
            step_flags=flags + (0,) * (n - cut),
            best_improved=improved + (False,) * (n - cut),
        )

    ranks = [tuple(r) for r in ranks]
    flags = [0] * n

    normalization = 0
    for t in range(n):
        monomial = features[t][9] == 1
        ok = (ranks[t][0] == 0) if monomial else (ranks[t][0] > 0)
        if not ok:
            normalization += 1
            flags[t] |= FLAG_NORMALIZATION

    best = ranks[0]
    improved = [True] + [False] * (n - 1)
    last_improve = 0
    delay = 0
    for t in range(1, n):
        if lex_compare(ranks[t], best) < 0:
            best = ranks[t]
            last_improve = t
            improved[t] = True
        if t < tau and t - last_improve >= cfg.window:
            delay += 1
            flags[t] |= FLAG_DELAY

    align_hi = min(tau, n - 1)
    align_f0_count = 0
    align_f14_count = 0
    for t in range(1, align_hi + 1):
        decreased = lex_compare(ranks[t], ranks[t - 1]) < 0
        if features[t][0] < features[t - 1][0] and not decreased:
            align_f0_count += 1
            flags[t] |= FLAG_ALIGN_F0
        if features[t][14] < features[t - 1][14] and not decreased:
            align_f14_count += 1
            flags[t] |= FLAG_ALIGN_F14

    local_increases = sum(
        1 for t in range(1, n) if lex_compare(ranks[t], ranks[t - 1]) > 0
    )
    max_plateau = 0
    run_length = 0
    for t in range(1, n):
        if lex_compare(ranks[t], ranks[t - 1]) == 0:
            run_length += 1
        else:
            run_length = 0
        max_plateau = max(max_plateau, run_length)

    align_f0 = HEAVY_WEIGHT * align_f0_count
    align_f14 = LIGHT_WEIGHT * align_f14_count
    total = float(normalization + delay) + align_f0 + align_f14

    report = ViolationReport(
        name=name,
        total_violations=total,
        delay_violations=delay,
        normalization_violations=normalization,
        align_f0=align_f0,
        align_f14=align_f14,
        structural_failure=False,
        local_increases=local_increases,
        max_plateau=max_plateau,
        solved=total == 0,
    )
    return TrajectoryAudit(report=report, step_flags=tuple(flags), best_improved=tuple(improved))


class _Level(IntEnum):
    LOW = 1
    HIGH = 3


class _Real(float):
    pass


# int and float subclasses that the gate accepts only past its exact-type
# fast path, and (with numpy) a numpy float, which is a float subclass too
_SUBCLASSED = (_Level.LOW, _Level.HIGH, _Real(0.5), _Real(-0.0))
if numpy is not None:
    _SUBCLASSED += (numpy.float64(2.0), numpy.float64(0.5))

# a small pool, so that ties, repeats and plateaus are common; 2**53 + 1 and
# its nearest float differ only under exact int/float comparison
_VALUES = st.one_of(
    st.sampled_from((0, 1, 2, 3, 2**53 + 1, 0.0, -0.0, 0.5, 1.0, 2.0, 3.0, float(2**53))),
    st.sampled_from(_SUBCLASSED),
    st.integers(-5, 5),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)

# values and shapes the structural gate must reject; numpy.int64, Fraction
# and Decimal are numbers but neither int nor float
_REJECTED = (Fraction(1, 2), Decimal(1), False, -math.inf)
if numpy is not None:
    _REJECTED += (numpy.int64(1),)
_MALFORMED = st.sampled_from(
    (None, (), 7, (float("nan"), 1.0), (float("inf"), 1.0), (True, 1.0), ("a", 1.0))
    + tuple((value, 1.0) for value in _REJECTED)
    + tuple((1.0, value) for value in _REJECTED)
)


@st.composite
def _streams(draw):
    n = draw(st.integers(1, 14))
    width = draw(st.integers(1, 4))
    rank = st.lists(_VALUES, min_size=width, max_size=width)
    pool = draw(st.lists(rank, min_size=1, max_size=4))
    ranks = []
    for _ in range(n):
        source = draw(st.sampled_from(("pool", "repeat", "fresh")))
        if source == "repeat" and ranks:
            values = list(ranks[-1])
        elif source == "fresh":
            values = draw(rank)
        else:
            values = list(draw(st.sampled_from(pool)))
        ranks.append(tuple(values) if draw(st.booleans()) else values)
    if draw(st.integers(0, 3)) == 0:
        t = draw(st.integers(0, n - 1))
        ragged = draw(st.lists(_VALUES, min_size=width + 1, max_size=width + 2))
        ranks[t] = draw(st.one_of(_MALFORMED, st.just(tuple(ragged))))
    features = []
    for _ in range(n):
        fv = [0.0] * 26
        fv[0] = float(draw(st.integers(0, 3)))
        fv[9] = float(draw(st.integers(0, 4)) == 0)
        fv[14] = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))
        features.append(tuple(fv))
    return ranks, features


_configs = st.builds(HarnessConfig, window=st.integers(1, 6))


@settings(max_examples=600, deadline=None)
@given(stream=_streams(), cfg=_configs)
def test_audit_matches_lex_compare_reference(stream, cfg):
    ranks, features = stream
    got = audit_trajectory(ranks, features, cfg, name="c")
    want = _reference_audit(ranks, features, cfg, name="c")
    assert got == want
    # repr tells -0.0 from 0.0, so the same rank objects must have been kept
    assert repr(got) == repr(want)


@settings(max_examples=400, deadline=None)
@given(stream=_streams(), cfg=_configs, data=st.data())
def test_scoring_audit_of_gated_ranks_matches_public_audit(stream, cfg, data):
    # scoring hands the audit each rank gated once (a one-item list for a
    # malformed one) and only the prefix vectors: every tail step reads the
    # entry vector, which a V(z) tail repeats in f0, f9 and f14
    ranks, prefix = stream
    tail = data.draw(st.lists(st.sampled_from(ranks), max_size=6))
    ranks = ranks + tail
    features = prefix + [prefix[-1]] * len(tail)
    gated = harness._GatedRanks(harness._as_rank(r) or [r] for r in ranks)
    got = audit_trajectory(gated, prefix, cfg, name="c")
    want = audit_trajectory(ranks, features, cfg, name="c")
    assert got == want
    assert repr(got) == repr(want)


class _Big(int):
    pass


def _descending(kind):
    # 0 in monomial phase, else a huge int that falls as the boundary mass rises
    def rank(fv):
        return (0,) if fv[9] == 1 else (kind(10**400 - int(fv[25])), fv[0])

    return rank


def test_an_int_past_the_float_range_is_a_finite_rank(suite_focused71):
    # an int is finite by type: converting 10**400 to float would raise
    # OverflowError out of the audit and abort the whole suite
    features = [tuple([0.0] * 26)] * 2
    reports = [
        audit_trajectory([rank, rank], features, HarnessConfig(), name="c").report
        for rank in ((_Big(10**400),), (10**400,))
    ]
    assert reports[0] == reports[1]
    assert not reports[0].structural_failure

    cfg = HarnessConfig()
    cases = suite_focused71[:8]
    subclassed = score_benchmark(_descending(_Big), cases, cfg, "s", "huge")
    exact = score_benchmark(_descending(int), cases, cfg, "s", "huge")
    assert subclassed == exact
    assert not any(r.structural_failure for r in exact.reports)
