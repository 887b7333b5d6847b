"""Seeded local search over a parametric ranker template.

The template (``rankers.RankerTemplate``) fixes the shape of a five-component
rank; the search moves its weights.  The optimizer is plain strict-improvement
hill climbing with optional random restarts, scored by the harness's saturated
suite score.  It is a desk-scale demonstration of the search methodology, not
a heavy-duty optimizer.
"""

from __future__ import annotations

import random
from typing import Sequence

from blowup_lab.harness import HarnessConfig, SuiteReport, score_benchmark
from blowup_lab.rankers import RankerTemplate

# Every weight stays in [-WEIGHT_BOUND, WEIGHT_BOUND]; mutation steps have
# standard deviation 0.1 * WEIGHT_BOUND.
WEIGHT_BOUND = 20.0


def hill_climb(
    template: RankerTemplate,
    cases: Sequence,
    cfg: HarnessConfig,
    budget: int,
    seed: int,
    restarts: int = 0,
) -> tuple[tuple[float, ...], SuiteReport, tuple[tuple[int, float], ...]]:
    """Strict-improvement hill climbing on the saturated suite score.

    Deterministic in (seed, suite, cfg).  The budget counts candidate
    evaluations; the template's default weights are the start and are scored
    for free, so budget 0 returns them unchanged.  History records
    (evaluation index, score) for the start and for every global improvement.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")

    rng = random.Random(seed)
    sigma = 0.1 * WEIGHT_BOUND

    def score(weights: tuple[float, ...]) -> tuple[float, SuiteReport]:
        report = score_benchmark(
            template.instantiate(weights), cases, cfg,
            suite_name="search", ranker_name="template",
        )
        return report.saturated_score, report

    def mutate(weights: tuple[float, ...]) -> tuple[float, ...]:
        idx = rng.randrange(len(weights))
        moved = list(weights)
        moved[idx] = min(WEIGHT_BOUND, max(-WEIGHT_BOUND, moved[idx] + rng.gauss(0.0, sigma)))
        return tuple(moved)

    start = template.default_weights()
    best_weights = start
    best_score, best_report = score(start)
    history: list[tuple[int, float]] = [(0, best_score)]

    rounds = restarts + 1
    base_budget, remainder = divmod(budget, rounds)
    evaluations = 0
    for round_index in range(rounds):
        round_budget = base_budget + (1 if round_index < remainder else 0)
        if round_index == 0:
            current = start
            current_score = best_score
        else:
            if round_budget == 0:
                continue
            current = tuple(
                rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND) for _ in range(template.size())
            )
            evaluations += 1
            round_budget -= 1
            current_score, report = score(current)
            if current_score > best_score:
                best_weights, best_score, best_report = current, current_score, report
                history.append((evaluations, best_score))
        for _ in range(round_budget):
            candidate = mutate(current)
            evaluations += 1
            candidate_score, report = score(candidate)
            if candidate_score > current_score:
                current, current_score = candidate, candidate_score
                if candidate_score > best_score:
                    best_weights, best_score, best_report = candidate, candidate_score, report
                    history.append((evaluations, best_score))

    return best_weights, best_report, tuple(history)
