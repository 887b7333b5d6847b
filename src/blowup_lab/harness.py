"""Scoring harness: bounded-delay descent, normalization, alignment, purity.

A ranker is scored over simulated trajectories.  Violations accrue from four
sources: structural failures (non-finite or malformed ranks), breaks of the
monomial-phase normalization of the first component, bounded-delay stalls of
the best-so-far rank, and misalignment with drops of the order proxies f0
(heavier) and f14 (lighter).  Secondary diagnostics (local increases, plateau
lengths) are recorded but carry no penalty.

The protocol is fixed: only the window and the step cap are settable
(``HarnessConfig``).  The alignment weights ``HEAVY_WEIGHT``/``LIGHT_WEIGHT``,
the ``STRUCTURAL_PENALTY`` and the curriculum ``STAGES`` are module constants.
"""

from __future__ import annotations

import math
import struct
import weakref
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

from blowup_lab import features, simulator
from blowup_lab.core import State, VariableSet, parse_polynomial
from blowup_lab.features import NUM_FEATURES, extract_features
from blowup_lab.rankers import get_ranker
from blowup_lab.simulator import DEFAULT_CAP, MEMO_ENTRIES, MONOMIAL_MEMO_ENTRIES, run_trajectory

FLAG_DELAY = 1
FLAG_NORMALIZATION = 2
FLAG_ALIGN_F0 = 4
FLAG_ALIGN_F14 = 8

DEFAULT_WINDOW = 5

#: Violations per missed f0 drop (heavy) and per missed f14 drop (light).
HEAVY_WEIGHT = 1.0
LIGHT_WEIGHT = 0.5
#: Violations charged to a structurally broken trajectory.
STRUCTURAL_PENALTY = 1000.0
#: Curriculum: (case prefix, weight) per stage; None is the whole suite.
STAGES: tuple[tuple[Optional[int], float], ...] = ((20, 1.0), (40, 2.0), (None, 4.0))


@dataclass(frozen=True)
class HarnessConfig:
    """The bounded-delay window and the step cap.

    Delay accrues one violation per stalled step once the gap reaches the
    window, and alignment includes the monomial-entry step.  The rest of the
    protocol is HEAVY_WEIGHT, LIGHT_WEIGHT, STRUCTURAL_PENALTY and STAGES.
    """

    window: int = DEFAULT_WINDOW
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if type(self.window) is not int or type(self.cap) is not int:
            raise TypeError("window and cap must be ints")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")


@dataclass(frozen=True)
class ViolationReport:
    """Per-trajectory audit result."""

    name: str
    total_violations: float
    delay_violations: int
    normalization_violations: int
    align_f0: float
    align_f14: float
    structural_failure: bool
    local_increases: int
    max_plateau: int
    solved: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "violations": self.total_violations,
            "solved": self.solved,
            "increases": self.local_increases,
            "max_plateau": self.max_plateau,
        }


@dataclass(frozen=True)
class TrajectoryAudit:
    """ViolationReport plus the per-step data used by trace export."""

    report: ViolationReport
    step_flags: tuple[int, ...]
    best_improved: tuple[bool, ...]


def _as_rank(rank) -> Optional[tuple]:
    """The rank as a tuple, or None when it is malformed."""
    if rank is None:
        return None
    try:
        values = tuple(rank)
    except TypeError:
        return None
    if not values:
        return None
    for v in values:
        # exact int and float first; bool, other subclasses and non-finite
        # floats take the isinstance chain, where an int is finite by type
        if type(v) is int or (type(v) is float and math.isfinite(v)):
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        if isinstance(v, float) and not math.isfinite(v):
            return None
    return values


def audit_trajectory(
    ranks: Sequence,
    features: Sequence[Sequence[float]],
    cfg: HarnessConfig,
    name: str = "case",
) -> TrajectoryAudit:
    """Score one rank/feature stream and keep the per-step flag detail.

    A malformed rank (None, non-finite, or of another length than the first)
    makes the report a structural failure.  The per-step flags and best-so-far
    marks are then those of the steps before the first malformed rank, and
    0/False from it on.
    """
    # _evaluate passes _GatedRanks: ranks gated once per distinct rank (a list
    # for a malformed one) over the prefix vectors, and its fixed-ideal tail as
    # (tail run, summaries, tail length), audited once per entry state by
    # _tail_summary and read here as slices; a gated step past the vectors
    # reads the last one.  The raw branch serves callers outside the package.
    # The switch stays here, not in a private core, as the benchmark's tracer
    # times scoring's audits by wrapping this function; re-gating every step
    # cost 5-8% of surrogate_long's cases per second
    gated = type(ranks) is _GatedRanks
    if not gated and len(ranks) != len(features):
        raise ValueError("rank and feature streams must have equal length")
    if not ranks:
        raise ValueError("empty trajectory")

    tail = ranks.tail if gated else None
    n = len(ranks)
    last = len(features) - 1
    tau = next((t for t in range(last + 1) if features[t][9] == 1), n)
    window = cfg.window
    flags = [0] * n
    improved = [False] * n
    normalization = delay = align_f0_count = align_f14_count = 0
    local_increases = max_plateau = run_length = last_improve = 0
    prev = best = prev_fv = width = None

    # One pass: a step's detail depends only on tau and the steps up to it,
    # so stopping at the first malformed rank keeps the detail before it.
    # Native tuple order equals lex_compare on the gated ranks, which are
    # equal-length tuples of finite ints and floats.
    for t, rank in enumerate(ranks if gated else map(_as_rank, ranks)):
        if type(rank) is not tuple or (len(rank) != width and prev is not None):
            if tail:
                flags += [0] * tail[2]
                improved += [False] * tail[2]
            return _structural(name, tuple(flags), tuple(improved))
        if t <= last:
            fv = features[t]
        flag = 0
        # normalization: first component is 0 exactly in monomial phase
        if not ((rank[0] == 0) if fv[9] == 1 else (rank[0] > 0)):
            normalization += 1
            flag = FLAG_NORMALIZATION

        if prev is None:
            best = rank
            width = len(rank)
            improved[0] = True
        else:
            # the running best is at most prev, so only a decrease can beat it;
            # a plateau counts the consecutive indices that repeat a rank
            decreased = rank < prev
            if decreased:
                run_length = 0
                if rank < best:
                    best = rank
                    last_improve = t
                    improved[t] = True
            elif rank != prev:
                local_increases += 1
                run_length = 0
            else:
                run_length += 1
                if run_length > max_plateau:
                    max_plateau = run_length

            # bounded delay on the running best, before monomial entry
            if t < tau and t - last_improve >= window:
                delay += 1
                flag |= FLAG_DELAY

            # alignment: proxy drops must be reflected by an immediate rank
            # decrease, up to and including the monomial-entry step
            if t <= tau and not decreased:
                if fv[0] < prev_fv[0]:
                    align_f0_count += 1
                    flag |= FLAG_ALIGN_F0
                if fv[14] < prev_fv[14]:
                    align_f14_count += 1
                    flag |= FLAG_ALIGN_F14

        flags[t] = flag
        prev, prev_fv = rank, fv

    flags = tuple(flags)
    improved = tuple(improved)
    if tail:
        # a tail's audit depends on the run and on the entry state alone: the
        # window, the entry rank, the best so far, the steps since it last
        # improved (clamped to the window, past which the delay never lapses
        # without an improvement) and the plateau length
        run, summaries, tail_len = tail
        entry = (window, prev, best, min(n - 1 - last_improve, window), run_length)
        summary = summaries.get(entry)
        if summary is None:
            if len(summaries) >= TAIL_SUMMARIES:
                summaries.clear()
            summary = summaries[entry] = _tail_summary(run, *entry)
        elif summary[3] and len(summary[0]) < len(run):
            # kept from a shorter run: walked on over the ranks it lacks
            summary = summaries[entry] = _walk_tail(run, window, *summary)
        tail_flags, tail_improved, (normalizations, delays, increases, longer), _ = summary
        good = len(tail_flags)
        if tail_len > good:
            rest = tail_len - good
            flags += tail_flags + (0,) * rest
            return _structural(name, flags, improved + tail_improved + (False,) * rest)
        flags += tail_flags[:tail_len]
        improved += tail_improved[:tail_len]
        normalization += bisect_left(normalizations, tail_len)
        delay += bisect_left(delays, tail_len)
        local_increases += bisect_left(increases, tail_len)
        max_plateau = max(max_plateau, run_length + bisect_left(longer, tail_len))

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
    return TrajectoryAudit(report=report, step_flags=flags, best_improved=improved)


def _structural(name: str, flags: tuple, improved: tuple) -> TrajectoryAudit:
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
    return TrajectoryAudit(report, flags, improved)


def _tail_summary(run: tuple, window: int, prev: tuple, best: tuple, gap: int, plateau: int):
    # The audit of a fixed-ideal tail's gated ranks entered from this state:
    # (flags, best-so-far marks, events, walk).  The flags and marks are those
    # of the steps before the first malformed rank.  The events are the steps,
    # in order, that break normalization, that are delayed, that increase, and
    # that make a plateau longer than the entry plateau and every one before
    # (by one each), so the counts of the first j steps are the events before
    # j, the longest plateau past the entry plateau's length included.  Every
    # tail step reads the entry vector, with f9 = 0 (a run stops at monomial
    # phase), so the rank's first component must be > 0, the delay runs to the
    # end (no monomial entry), and no proxy drops
    return _walk_tail(run, window, (), (), ((), (), (), ()), (prev, best, gap, plateau, plateau))


def _walk_tail(run: tuple, window: int, flags, improved, events, walk):
    # a summary of run[:len(flags)] walked on over the rest of the run from
    # walk (last, best, gap, plateau, top), which is None past a bad rank
    prev, best, gap, plateau, top = walk
    width, start = len(prev), len(flags)
    flags, improved = list(flags), list(improved)
    normalizations, delays, increases, longer = events = tuple(list(e) for e in events)
    for t, rank in enumerate(run[start:], start):
        if type(rank) is not tuple or len(rank) != width:
            return tuple(flags), tuple(improved), events, None
        flag = 0
        if not rank[0] > 0:
            flag = FLAG_NORMALIZATION
            normalizations.append(t)
        gap += 1
        if rank < prev:
            plateau = 0
            if rank < best:
                best = rank
                gap = 0
        elif rank != prev:
            increases.append(t)
            plateau = 0
        else:
            plateau += 1
            if plateau > top:
                top = plateau
                longer.append(t)
        if gap >= window:
            flag |= FLAG_DELAY
            delays.append(t)
        flags.append(flag)
        improved.append(not gap)
        prev = rank
    return tuple(flags), tuple(improved), events, (prev, best, gap, plateau, top)


def check_determinism(rank_fn: Callable, fv: Sequence[float]) -> bool:
    """Purity probe: two evaluations on the same input must agree exactly."""
    try:
        first = tuple(rank_fn(fv))
        second = tuple(rank_fn(fv))
    except Exception:
        return False
    return first == second


def _stream(trajectory) -> tuple:
    # (prefix vectors, their rank-table keys (the first 25 doubles as bytes,
    # f25)); a tail's ranks come from the ranker's tail runs, so no tail key is
    # built here.  f25, a non-negative int's float, is never -0.0 or NaN, so
    # equal keys are equal bits
    vectors = tuple([extract_features(s) for s in trajectory.prefix])
    return vectors, [(_HEAD.pack(*fv[:25]), fv[25]) for fv in vectors]


_HEAD = struct.Struct(f"{NUM_FEATURES - 1}d")
#: Streams by run (which hashes by identity), for the runs that the runs memo
#: hands out only; an entry keeps its run alive until it is evicted.
_held_stream = lru_cache(maxsize=MEMO_ENTRIES)(_stream)

#: Rank tables by ranker id, as (a weak reference to the ranker, a dict from
#: key to gated rank, the tail runs): an entry goes when its ranker dies, or
#: when a case leaves its dict holding more than MONOMIAL_MEMO_ENTRIES ranks.
#: A tail run is the tuple of gated ranks of a fixed-ideal tail's steps, by
#: (entry head bytes, entry mass as an int, exc), held as (run, summaries):
#: the summaries map an entry state to the audit of the run from it
#: (_tail_summary).  A longer tail replaces both, keeping the summaries.
_tables: dict = {}

#: Entry-state summaries a tail run keeps; a run that holds this many
#: forgets them all before it keeps another.
TAIL_SUMMARIES = 64


#: The process-wide lru_caches, each with the name memos() reports it under.
_CACHES = (
    ("chart", simulator._chart),
    ("rewrite", simulator._rewrite),
    ("runs", simulator._held_run),
    ("monomial_facts", simulator._monomial_facts),
    ("ideal_facts", simulator._ideal_facts),
    ("ideal_features", features._ideal_features),
    ("streams", _held_stream),
)


def memos() -> dict[str, tuple]:
    """Each process-wide memo's (entries, bound, hits, misses), by name.

    The seven lru_caches report their cache_info().  "rank_tables" counts the
    ranks of every live ranker's table, each of which a case leaves holding
    at most MONOMIAL_MEMO_ENTRIES, and counts no hits or misses; a table's
    tail runs hold ranks of the table, and their summaries the audit of a
    run per entry state, and neither is counted.
    """
    report = {}
    for name, cache in _CACHES:
        info = cache.cache_info()
        report[name] = (info.currsize, info.maxsize, info.hits, info.misses)
    ranks = sum(len(held[1]) for held in list(_tables.values()))
    report["rank_tables"] = (ranks, MONOMIAL_MEMO_ENTRIES, None, None)
    return report


def clear_memos() -> None:
    """Empty every memo that memos() reports."""
    for _, cache in _CACHES:
        cache.cache_clear()
    _tables.clear()


class _GatedRanks(list):
    """A rank stream that scoring has gated: each entry is a well-formed rank
    tuple, or a one-item list holding a malformed rank (None for a crash).
    tail is None, or the case's fixed-ideal tail as (tail run, the run's
    summaries, tail length): the first tail-length ranks of the run follow
    the stream's."""

    tail = None


def simulate_case(initial: State, ranker: Callable, cfg: HarnessConfig):
    """Run, rank and audit one case: (trajectory, features, ranks, audit).

    The audit is the one scoring makes for the case, before its purity gate
    and named "case"; audit_trajectory gives it again from the streams.
    Ranker crashes, and ranks that raise while read, are recorded as None
    ranks, which the audit treats as structural failures; a malformed rank is
    given as the ranker returned it, and a well-formed one as a tuple.
    Features are extracted on the trajectory's prefix only: on its V(z) tail
    the ideal and the base multiplicities are fixed, so each tail vector is
    the last prefix vector with the boundary mass f25 raised by the
    exceptional exponent excs[-1] per step.  At a cap up to DEFAULT_CAP, where
    run_trajectory hands back a held run, the run's stream is held beside it
    in the "streams" memo, so a case is extracted once while both are held;
    above it, a stream lasts only for its call.  run_trajectory is called on
    every call.

    Ranks come from the ranker's rank table and tail runs, kept and dropped
    as in score_benchmark: a pure ranker is called once per new bit-distinct
    vector.
    """
    run, vectors, gated, audit = _evaluate(initial, ranker, cfg, _rank_table(ranker), "case")
    features = list(vectors)
    ranks = list(gated)
    if run.tail_len:
        entry, mass, exc = vectors[-1][:25], run.prefix[-1].boundary.mass, run.excs[-1]
        features += [entry + (float(mass + j * exc),) for j in range(1, run.tail_len + 1)]
        ranks += gated.tail[0][: run.tail_len]
    return run, features, [r[0] if type(r) is list else r for r in ranks], audit


def _gated(ranker: Callable, fv: tuple):
    # the ranker's rank of fv, gated once: an exact well-formed tuple is its
    # own gated form, a malformed rank a one-item list (None for a crash)
    try:
        raw = ranker(fv)
        return _as_rank(raw) or [raw]
    except Exception:
        return [None]


def _evaluate(initial: State, ranker: Callable, cfg: HarnessConfig, tables: tuple, name: str):
    # The one case protocol, one call each to run_trajectory and
    # audit_trajectory: (trajectory, prefix vectors, _GatedRanks, audit).
    # tables is the ranker's (rank table, tail runs).  A tail's ranks are the
    # first tail_len of its run, which is extended through the table only
    # past its length; a tail vector is built only for a ranker call.  A run
    # is held as (ranks, summaries): the audit keeps each entry state's
    # summary of the run in the dict, and an extended run is published whole
    # with a copy, whose summaries the audit walks on over the new ranks first,
    # so threads never see a run change or read a summary of a shorter one
    table, runs = tables
    trajectory = run_trajectory(initial, cfg.cap)
    vectors, keys = (_held_stream if cfg.cap <= DEFAULT_CAP else _stream)(trajectory)
    ranks = _GatedRanks()
    for fv, key in zip(vectors, keys):
        rank = table.get(key)
        if rank is None:
            rank = table[key] = _gated(ranker, fv)
        ranks.append(rank)
    tail_len = trajectory.tail_len
    if tail_len:
        head = keys[-1][0]
        mass, exc = trajectory.prefix[-1].boundary.mass, trajectory.excs[-1]
        tail = (head, mass, exc)
        run, summaries = runs.get(tail, ((), {}))
        if len(run) < tail_len:
            entry = vectors[-1][:25]
            more = []
            for j in range(len(run) + 1, tail_len + 1):
                key = (head, float(mass + j * exc))
                rank = table.get(key)
                if rank is None:
                    rank = table[key] = _gated(ranker, entry + key[1:])
                more.append(rank)
            run, summaries = runs[tail] = (run + tuple(more), dict(summaries))
        ranks.tail = (run, summaries, tail_len)
    if len(table) > MONOMIAL_MEMO_ENTRIES:
        _tables.pop(id(ranker), None)
    audit = audit_trajectory(ranks, vectors, cfg, name=name)
    return trajectory, vectors, ranks, audit


def _rank_table(ranker: Callable) -> tuple:
    # the ranker's (rank table, tail runs), found by identity; a ranker that
    # takes no weak reference gets fresh ones, kept nowhere
    key = id(ranker)
    held = _tables.get(key)
    if held is None or held[0]() is not ranker:
        try:
            held = _tables[key] = (weakref.ref(ranker, lambda _: _tables.pop(key, None)), {}, {})
        except TypeError:
            return {}, {}
    return held[1:]


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated scoring of one ranker over one suite."""

    suite: str
    ranker: str
    window: int
    cap: int
    reports: tuple[ViolationReport, ...]
    total_violations: float
    staged_violations: float
    solved_count: int
    local_increases_total: int
    max_plateau: int
    saturated_score: float

    @property
    def all_solved(self) -> bool:
        return self.solved_count == len(self.reports)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ranker": self.ranker,
            "m": self.window,
            "cap": self.cap,
            "cases": [r.to_json_dict() for r in self.reports],
            "totals": {
                "violations": self.total_violations,
                "staged_violations": self.staged_violations,
                "solved": self.solved_count,
                "cases": len(self.reports),
                "local_increases": self.local_increases_total,
                "max_plateau": self.max_plateau,
            },
            "saturated_score": self.saturated_score,
        }


def _score_one(case, ranker: Callable, cfg: HarnessConfig, tables: tuple) -> ViolationReport:
    _, vectors, _, audit = _evaluate(case.initial_state(), ranker, cfg, tables, case.name)
    report = audit.report
    # purity gate: a ranker that fails the determinism probe is structurally
    # broken even if each single evaluation looks fine
    if not report.structural_failure and not check_determinism(ranker, vectors[0]):
        report = replace(
            report,
            total_violations=report.total_violations + STRUCTURAL_PENALTY,
            structural_failure=True,
            solved=False,
        )
    return report


def score_benchmark(
    ranker: Callable,
    cases: Sequence,
    cfg: HarnessConfig,
    suite_name: str = "suite",
    ranker_name: Optional[str] = None,
    workers: int = 1,
) -> SuiteReport:
    """Score a ranker over a suite of benchmark cases.

    Cases are independent; with workers > 1 they are evaluated concurrently
    and reassembled in suite order, so the report is deterministic either
    way.  The cases, and concurrent calls, share the rank table of the ranker
    object, found by identity, never by equality: the ranker is called once
    per bit-distinct feature vector it has not ranked (threads that reach one
    at once may each call it), plus the purity probe's two calls per case.
    The table is kept while the object lives, ranks of a call that raised
    included, and dropped once a case leaves it holding more than
    MONOMIAL_MEMO_ENTRIES ranks: the call goes on filling it, and a later
    call gets a fresh one, as a ranker that takes no weak reference does.  A
    rank is gated once, when it enters the table, and each case is audited
    on its gated ranks and its prefix vectors, so a tail vector is built only
    when the ranker is called on it.  Beside the table, each fixed-ideal tail
    keeps its gated ranks as one run per (entry vector, entry mass,
    exceptional exponent), shared by every case that enters it and dropped
    with the table.  Each run keeps a summary per entry state (window, entry
    rank, best rank, steps since the best last improved up to the window,
    plateau length): the run's step flags and best-so-far marks up to its
    first malformed rank, and the steps at which its normalization, delay,
    increase and longest-plateau counts grow.  A case reads its tail's flags
    and marks off that summary as slices, and each count by one bisection.
    An extended run keeps its summaries, each walked on when next read; they go
    with the table, in clear_memos(), and all at once past TAIL_SUMMARIES.
    """
    if not cases:
        raise ValueError("cannot score an empty suite")

    tables = _rank_table(ranker)
    if workers <= 1:
        reports = [_score_one(case, ranker, cfg, tables) for case in cases]
    else:
        # imported here: concurrent.futures brings logging and queue, which
        # a serial scoring never uses
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda c: _score_one(c, ranker, cfg, tables), cases))

    total = sum(r.total_violations for r in reports)
    staged = 0.0
    for prefix, weight in STAGES:
        staged += weight * sum(r.total_violations for r in reports[:prefix])
    solved = sum(1 for r in reports if r.solved)
    # a plain left-to-right loop: float sum() is compensated from Python 3.12
    # on, which moves the last bits of the score between versions
    penalty = 0.0
    for r in reports:
        penalty += math.tanh(r.total_violations / 10.0)
    saturated = 2.0 * solved - penalty

    if ranker_name is None:
        ranker_name = getattr(ranker, "name", ranker.__class__.__name__)

    return SuiteReport(
        suite=suite_name,
        ranker=ranker_name,
        window=cfg.window,
        cap=cfg.cap,
        reports=tuple(reports),
        total_violations=total,
        staged_violations=staged,
        solved_count=solved,
        local_increases_total=sum(r.local_increases for r in reports),
        max_plateau=max(r.max_plateau for r in reports),
        saturated_score=saturated,
    )


# Two reference stall instances, dim 4, characteristic 3.  The first
# freezes the continuous lex tuple by driving its second component to 0; the
# second stalls the discretized rank for a full window.
LEX_STALL_POLY = "z^3 + x^7 + z^5*y^2 + z^3*x^2*w^4*y^6 + z^3*x^2*w^6*y^3 + z^4*w^6*y^5"
DISC_STALL_POLY = "z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10"


@dataclass(frozen=True)
class CounterexampleFindings:
    """Results of the three stall-instance checks, with expectations.

    Expected outcome: the continuous lex tuple stalls on the first instance
    even with window 10; the discretized rank stalls on the second instance
    with window 5; the catastrophe-term ranker clears the same instance.
    """

    lex_tuple_delay_m10: bool
    disc_delay_m5: bool
    r100_clean_m5: bool
    disc_rank_step0: tuple
    disc_rank_step9: tuple
    lex_c2_first_zero_step: Optional[int]

    @property
    def all_match_expected(self) -> bool:
        return self.lex_tuple_delay_m10 and self.disc_delay_m5 and self.r100_clean_m5

    def to_json_dict(self) -> dict:
        return {
            "lex_tuple_delay_m10": self.lex_tuple_delay_m10,
            "disc_delay_m5": self.disc_delay_m5,
            "r100_clean_m5": self.r100_clean_m5,
            "disc_rank_step0": list(self.disc_rank_step0),
            "disc_rank_step9": list(self.disc_rank_step9),
            "lex_c2_first_zero_step": self.lex_c2_first_zero_step,
            "all_match_expected": self.all_match_expected,
        }


def verify_counterexamples() -> CounterexampleFindings:
    """Re-run the two stall instances against the three relevant rankers."""
    vars4 = VariableSet.standard(4, 3)

    def evaluate(poly: str, ranker_name: str, window: int) -> tuple:
        state = State.initial(parse_polynomial(poly, vars4), vars4)
        cfg = HarnessConfig(window=window)
        _, _, ranks, audit = simulate_case(state, get_ranker(ranker_name), cfg)
        return ranks, audit.report

    lex_ranks, lex_report = evaluate(LEX_STALL_POLY, "clean_lex", 10)
    c2_zero = next((t for t, r in enumerate(lex_ranks) if r[1] == 0.0), None)
    disc_ranks, disc_report = evaluate(DISC_STALL_POLY, "disc_lex", 5)
    _, r100_report = evaluate(DISC_STALL_POLY, "r100", 5)

    return CounterexampleFindings(
        lex_tuple_delay_m10=lex_report.delay_violations >= 1,
        disc_delay_m5=disc_report.delay_violations >= 1,
        r100_clean_m5=r100_report.total_violations == 0,
        disc_rank_step0=tuple(disc_ranks[0]),
        disc_rank_step9=tuple(disc_ranks[9]) if len(disc_ranks) > 9 else (),
        lex_c2_first_zero_step=c2_zero,
    )
