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
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from blowup_lab.core import State, VariableSet, parse_polynomial
from blowup_lab.features import NUM_FEATURES, extract_features
from blowup_lab.rankers import get_ranker
from blowup_lab.simulator import DEFAULT_CAP, MEMO_ENTRIES, run_trajectory

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
    if len(ranks) != len(features):
        raise ValueError("rank and feature streams must have equal length")
    if not ranks:
        raise ValueError("empty trajectory")

    n = len(ranks)
    tau = next((t for t in range(n) if features[t][9] == 1), n)
    window = cfg.window
    flags = [0] * n
    improved = [False] * n
    normalization = delay = align_f0_count = align_f14_count = 0
    local_increases = max_plateau = run_length = last_improve = 0
    prev = best = prev_fv = None

    # One pass: a step's detail depends only on tau and the steps up to it,
    # so stopping at the first malformed rank keeps the detail before it.
    # Native tuple order equals lex_compare on the gated ranks, which are
    # equal-length tuples of finite ints and floats.
    for t in range(n):
        rank = _as_rank(ranks[t])
        if rank is None or (prev is not None and len(rank) != len(prev)):
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
            return TrajectoryAudit(report, tuple(flags), tuple(improved))
        fv = features[t]
        flag = 0
        # normalization: first component is 0 exactly in monomial phase
        if not ((rank[0] == 0) if fv[9] == 1 else (rank[0] > 0)):
            normalization += 1
            flag = FLAG_NORMALIZATION

        if prev is None:
            best = rank
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


def check_determinism(rank_fn: Callable, fv: Sequence[float]) -> bool:
    """Purity probe: two evaluations on the same input must agree exactly."""
    try:
        first = tuple(rank_fn(fv))
        second = tuple(rank_fn(fv))
    except Exception:
        return False
    return first == second


#: Each case's prefix feature vectors packed as native doubles, by initial
#: state and cap; oldest first, at most MEMO_ENTRIES entries and STREAM_VECTORS vectors.
_streams: OrderedDict = OrderedDict()
_VECTOR = struct.Struct(f"{NUM_FEATURES}d")
STREAM_VECTORS = MEMO_ENTRIES * (DEFAULT_CAP + 1)


def _remember(key, packed: bytes) -> None:
    # lock-free: each memo call is atomic, and a racing eviction can only empty
    # it.  dict.values runs no Python code; OrderedDict.values rehashes each key
    _streams[key] = packed
    held = sum(map(len, dict.values(_streams)))
    while held > STREAM_VECTORS * _VECTOR.size or len(_streams) > MEMO_ENTRIES:
        try:
            held -= len(_streams.popitem(last=False)[1])
        except KeyError:
            return


def simulate_case(initial: State, ranker: Callable, cfg: HarnessConfig):
    """Run a trajectory and evaluate features and ranks along it.

    Ranker crashes are recorded as None ranks, which the audit treats as
    structural failures.  Features are extracted on the trajectory's prefix
    only, once per initial state and cap: on its V(z) tail the ideal and the
    base multiplicities are fixed, so each tail vector is the last prefix
    vector with the boundary mass f25 raised by the exceptional exponent per
    step.  The trajectory is run, and every state ranked, on every call.
    """
    trajectory = run_trajectory(initial, cfg.cap)
    key = (initial.ideal, initial.boundary.multiplicities, initial.vars, cfg.cap)
    packed = _streams.get(key)
    if packed is None:
        feature_stream = [extract_features(s) for s in trajectory.prefix]
        _remember(key, b"".join([_VECTOR.pack(*fv) for fv in feature_stream]))
    else:
        feature_stream = list(_VECTOR.iter_unpack(packed))
    if trajectory.tail_len:
        entry = feature_stream[-1][:25]
        mass = trajectory.prefix[-1].boundary.mass
        exc = trajectory.excs[-1]
        feature_stream += [
            entry + (float(mass + j * exc),) for j in range(1, trajectory.tail_len + 1)
        ]
    rank_stream = []
    for fv in feature_stream:
        try:
            rank_stream.append(ranker(fv))
        except Exception:
            rank_stream.append(None)
    return trajectory, feature_stream, rank_stream


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


def _score_one(case, ranker: Callable, cfg: HarnessConfig) -> ViolationReport:
    initial = case.initial_state()
    _, feature_stream, rank_stream = simulate_case(initial, ranker, cfg)
    report = audit_trajectory(rank_stream, feature_stream, cfg, name=case.name).report
    # purity gate: a ranker that fails the determinism probe is structurally
    # broken even if each single evaluation looks fine
    if not report.structural_failure and not check_determinism(ranker, feature_stream[0]):
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
    way.
    """
    if not cases:
        raise ValueError("cannot score an empty suite")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda c: _score_one(c, ranker, cfg), cases))
    else:
        reports = [_score_one(case, ranker, cfg) for case in cases]

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
    lex_state = State.initial(parse_polynomial(LEX_STALL_POLY, vars4), vars4)
    disc_state = State.initial(parse_polynomial(DISC_STALL_POLY, vars4), vars4)

    cfg_m10 = HarnessConfig(window=10)
    cfg_m5 = HarnessConfig(window=5)

    clean_lex = get_ranker("clean_lex")
    _, lex_features, lex_ranks = simulate_case(lex_state, clean_lex, cfg_m10)
    lex_report = audit_trajectory(lex_ranks, lex_features, cfg_m10, name="lex-stall").report
    c2_zero = next((t for t, r in enumerate(lex_ranks) if r[1] == 0.0), None)

    disc = get_ranker("disc_lex")
    _, disc_features, disc_ranks = simulate_case(disc_state, disc, cfg_m5)
    disc_report = audit_trajectory(disc_ranks, disc_features, cfg_m5, name="disc-stall").report

    r100 = get_ranker("r100")
    _, r100_features, r100_ranks = simulate_case(disc_state, r100, cfg_m5)
    r100_report = audit_trajectory(r100_ranks, r100_features, cfg_m5, name="r100-clean").report

    return CounterexampleFindings(
        lex_tuple_delay_m10=lex_report.delay_violations >= 1,
        disc_delay_m5=disc_report.delay_violations >= 1,
        r100_clean_m5=r100_report.total_violations == 0,
        disc_rank_step0=tuple(disc_ranks[0]),
        disc_rank_step9=tuple(disc_ranks[9]) if len(disc_ranks) > 9 else (),
        lex_c2_first_zero_step=c2_zero,
    )
