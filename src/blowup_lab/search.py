"""Seeded local search over a parametric ranker template.

The template fixes the shape of a five-component rank: the first component is
the hard monomial-phase gate (0 in monomial phase, order proxy otherwise) and
is not searchable; the remaining components are weighted sums over declared
feature terms, with an optional fixed nonlinear block (the negated cubic
depth charge, or a tanh saturation).  Any in-bounds weight assignment yields
a pure ranker, so the purity probe passes by construction.

The optimizer is plain strict-improvement hill climbing with optional random
restarts, scored by the harness's saturated suite score.  It is a desk-scale
demonstration of the search methodology, not a heavy-duty optimizer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from blowup_lab.harness import HarnessConfig, SuiteReport, score_benchmark
from blowup_lab.rankers import Ranker

LINEAR = "linear"
DEPTH_CHARGE = "depth_charge"
TANH_BLOCK = "tanh_block"


@dataclass(frozen=True)
class ComponentSpec:
    """One rank component: a weighted sum with an optional fixed nonlinearity.

    kind "linear": value = sum of weight * feature over the declared terms,
    evaluated in declaration order.
    kind "tanh_block": 50 * tanh(linear part / 5).
    kind "depth_charge": -(w0*f24^3 + w1*f25 + w2*(1-f23)*f24
    + w3*f10*f24*(1-f23)); the four weights replace the declared terms.
    """

    kind: str
    terms: tuple[tuple[int, float], ...]

    def size(self) -> int:
        return 4 if self.kind == DEPTH_CHARGE else len(self.terms)

    def evaluate(self, weights: Sequence[float], fv: Sequence[float]) -> float:
        if self.kind == DEPTH_CHARGE:
            w0, w1, w2, w3 = weights
            f10 = float(fv[10])
            f23 = float(fv[23])
            f24 = float(fv[24])
            f25 = float(fv[25])
            interaction = f10 * f24 * (1.0 - f23)
            return -1.0 * (
                w0 * (f24 ** 3) + w1 * f25 + w2 * (1.0 - f23) * f24 + w3 * interaction
            )
        total = 0.0
        for (index, _), w in zip(self.terms, weights):
            total = total + w * float(fv[index])
        if self.kind == TANH_BLOCK:
            return 50.0 * math.tanh(total / 5.0)
        return total

    def initial_weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.terms)


@dataclass(frozen=True)
class RankerTemplate:
    """Shape of a searchable five-component ranker."""

    components: tuple[ComponentSpec, ...]
    weight_bound: float = 20.0
    discretized: bool = True

    def size(self) -> int:
        return sum(c.size() for c in self.components)

    def default_weights(self) -> tuple[float, ...]:
        flat: list[float] = []
        for c in self.components:
            flat.extend(c.initial_weights())
        return tuple(flat)

    def split(self, weights: Sequence[float]) -> tuple[tuple[float, ...], ...]:
        if len(weights) != self.size():
            raise ValueError(f"expected {self.size()} weights, got {len(weights)}")
        parts = []
        offset = 0
        for c in self.components:
            parts.append(tuple(weights[offset : offset + c.size()]))
            offset += c.size()
        return tuple(parts)

    def instantiate(self, weights: Sequence[float]) -> Ranker:
        parts = self.split(tuple(weights))
        components = self.components
        apply_pi = self.discretized

        def raw(fv: Sequence[float]) -> tuple:
            gate = 0.0 if int(fv[9]) == 1 else float(fv[0])
            values = [gate]
            for spec, ws in zip(components, parts):
                values.append(spec.evaluate(ws, fv))
            return tuple(values)

        return Ranker(name="template", raw=raw, discretized=apply_pi)

    @classmethod
    def depth_charge(cls, discretized: bool = True) -> "RankerTemplate":
        """Template whose default weights reproduce the disc_lex ranker."""
        return cls(
            components=(
                ComponentSpec(LINEAR, ((14, 0.5), (21, 0.5), (1, 0.05), (5, 0.01))),
                ComponentSpec(LINEAR, ((10, 1.0), (19, 1.0), (20, 0.1))),
                ComponentSpec(DEPTH_CHARGE, ((24, 4.0), (25, 1.0), (23, 5.0), (10, 10.0))),
                ComponentSpec(LINEAR, ((18, 1.0), (8, 0.5))),
            ),
            discretized=discretized,
        )


def hill_climb(
    template: RankerTemplate,
    cases: Sequence,
    cfg: HarnessConfig,
    budget: int,
    seed: int,
    restarts: int = 0,
    initial_weights: Optional[Sequence[float]] = None,
) -> tuple[tuple[float, ...], SuiteReport, tuple[tuple[int, float], ...]]:
    """Strict-improvement hill climbing on the saturated suite score.

    Deterministic in (seed, suite, cfg).  The budget counts candidate
    evaluations; the initial weights are scored for free, so budget 0 returns
    them unchanged.  History records (evaluation index, score) for the start
    and for every global improvement.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")

    rng = random.Random(seed)
    bound = template.weight_bound
    sigma = 0.1 * bound

    def score(weights: tuple[float, ...]) -> tuple[float, SuiteReport]:
        report = score_benchmark(
            template.instantiate(weights), cases, cfg,
            suite_name="search", ranker_name="template",
        )
        return report.saturated_score, report

    def mutate(weights: tuple[float, ...]) -> tuple[float, ...]:
        idx = rng.randrange(len(weights))
        moved = list(weights)
        moved[idx] = min(bound, max(-bound, moved[idx] + rng.gauss(0.0, sigma)))
        return tuple(moved)

    start = tuple(initial_weights) if initial_weights is not None else template.default_weights()
    if len(start) != template.size():
        raise ValueError(f"expected {template.size()} initial weights, got {len(start)}")

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
            current = tuple(rng.uniform(-bound, bound) for _ in range(template.size()))
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
