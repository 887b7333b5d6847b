"""Ranking functions over the 26-feature vector, discretization, lex order.

Four built-in rankers are provided:

* ``two_component`` — a continuous pair (gate, weighted sum) whose scalar
  weights encode a component hierarchy;
* ``clean_lex`` — the same five components returned unscalarized;
* ``disc_lex`` / ``r100`` — five-component raw ranks composed with the
  floor/offset/log discretization map into integer tuples (only the fourth
  component is clamped at 0; the others can be negative).

``disc_lex`` is defined as the depth-charge ``RankerTemplate`` at its default
weights.  The template fixes the shape of a rank: the first component is the
hard monomial-phase gate (0 in monomial phase, order proxy otherwise) and is
not searchable; the remaining four are weighted sums over fixed feature terms,
one of them inside the negated cubic depth charge.

Every ranker is a pure function: identical feature vectors give bit-identical
outputs.  The first component is 0 exactly on monomial-phase inputs and
strictly positive otherwise.

Purity is the contract that lets the harness rank less often than it audits.
It keeps a rank table per ranker object while the object lives, and calls a
ranker once per bit-distinct feature vector the object has not ranked yet:
every state with that vector gets the same rank, and a vector it raised on
stays a crash.  Only the purity probe calls it directly, twice per case.  So
an impure ranker is called fewer times than there are states.  A rank is read
once, when it enters the table: any iterable will do, and a one-shot one (a
generator) is scored as the sequence that one read yielded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

LESS = -1
EQUAL = 0
GREATER = 1


def rank_clean_lex(fv: Sequence[float]) -> tuple[float, float, float, float, float]:
    """Five-component continuous rank (the unscalarized two-component core)."""
    f0 = float(fv[0])
    f1 = float(fv[1])
    f4 = float(fv[4])
    f5 = float(fv[5])
    f7 = float(fv[7])
    f8 = float(fv[8])
    f9 = int(fv[9])
    f10 = float(fv[10])
    f14 = float(fv[14])
    f18 = float(fv[18])
    f19 = float(fv[19])
    f20 = float(fv[20])
    f21 = float(fv[21])
    f22 = float(fv[22])
    f23 = float(fv[23])
    f24 = float(fv[24])
    f25 = float(fv[25])

    # gate: exactly 0 in monomial phase, order + 0.25 otherwise
    c1 = 0.0 if f9 == 1 else (f0 + 0.25)

    c2 = f14

    # saturated plateau breaker: Hilbert-Samuel mass against a Jacobian
    # reward and an angular potential in the (depth, mass) plane
    jacobian_reward = (1.0 - f23) * (1.0 + f22 / 5.0)
    locus_penalty = 0.1 * f19 + 0.05 * f20
    angular_potential = -5.0 * math.atan2(f24 / 10.0, f21 / 25.0)
    plateau_input = f21 + locus_penalty + f10 - jacobian_reward + angular_potential
    c3 = math.tanh(plateau_input / 5.0) * 50.0

    c4 = f1 * 0.15 - f7 * 1.5 - 1.0 * math.exp(f25 * 0.1) + f8 * 0.2

    c5 = f5 * 0.5 + f18 * 0.5 - f4 * 0.1

    return (c1, c2, c3, c4, c5)


# Scalarization weights, sized for |c3| <= 50, |c4| <= 22326 and |c5| <= 55.
# A component outweighs the components below it only when its own change
# times its weight exceeds their largest possible weighted change: c2 must
# move by more than 100/51, since c3 spans [-50, 50] and W_C2 = 51 * W_C3.
# The scalar is therefore not exact lex over (c2, c3, c4, c5):
# - a c2 step below about 2 can be overturned by c3;
# - c4 holds -exp(0.1 * f25), which grows with the boundary mass along a
#   fixed-ideal tail: at cap 30, |c4| reaches 2.4e9 on focused71 and
#   extended100 and 5.3e11 on broad24, far beyond 22326.
# On consecutive builtin-suite states at cap 30 the two orders disagree on
# 6 of 619 pairs (broad24), 3 of 2070 (focused71) and 3 of 2940
# (extended100), each a small c2 step overturned by c3; test_rankers pins
# these counts.  The weights are the reference ranker's and stay as they are.
_W_C4 = 250.0
_W_C3 = math.ceil(22326.0 + 1.0) * _W_C4  # 5581750
_W_C2 = math.ceil(50.0 + 1.0) * _W_C3  # 284669250
_W_C5 = 1.0


def rank_two_component(fv: Sequence[float]) -> tuple[float, float]:
    """Continuous two-component rank: (gate, scalarized c2..c5)."""
    c1, c2, c3, c4, c5 = rank_clean_lex(fv)
    combined = _W_C2 * c2 + _W_C3 * c3 + _W_C4 * c4 + _W_C5 * c5
    return (c1, combined)


def rank_r100_raw(fv: Sequence[float]) -> tuple[float, float, float, float, float]:
    """Five-component raw rank with an exponential catastrophe term in c4."""
    f0 = float(fv[0])
    f1 = float(fv[1])
    f4 = float(fv[4])
    f5 = float(fv[5])
    f6 = float(fv[6])
    f7 = float(fv[7])
    f8 = float(fv[8])
    f9 = int(fv[9])
    f10 = float(fv[10])
    f12 = float(fv[12])
    f13 = float(fv[13])
    f14 = float(fv[14])
    f15 = float(fv[15])
    f17 = float(fv[17])
    f18 = float(fv[18])
    f19 = float(fv[19])
    f20 = float(fv[20])
    f21 = float(fv[21])
    f22 = float(fv[22])
    f23 = float(fv[23])
    f24 = float(fv[24])
    f25 = float(fv[25])

    c1 = 0.0 if f9 == 1 else f0

    c2 = (
        1.0 * f14
        + 0.1 * f21
        + 0.1 * f1
        + 0.8 * f23
        + 0.5 * f7
        + 0.2 * f17
    )

    c3 = (
        f10
        + 2.0 * f19
        + 0.5 * f20
        + 0.1 * f4
        + 0.2 * f12
        + 0.1 * f13
    )

    depth_mass = 10.0 * (f24 ** 2.0) + 5.0 * f25

    jacobian_gap = f6 + (1.0 - f23) + f12 + f13
    jacobian_activation = max(0.0, math.tanh(jacobian_gap + f21 / (1.0 + f22)))

    wildness_signal = f10 + f18 + f5 + f19 * f20 + f4
    wildness_activation = max(0.0, math.tanh(wildness_signal / 5.0))

    effort_pressure = max(0.0, math.tanh((f24 + f25 + f4) / 10.0))

    overload_scale = 1000.0 * (1.0 + math.tanh((depth_mass + f4 + f5 + f18) / 100.0))

    blended_activation = (
        0.01
        + 0.5 * jacobian_activation
        + 0.5 * wildness_activation
        + 0.1 * effort_pressure
    )

    catastrophe = overload_scale * math.exp(blended_activation)

    c4 = -1.0 * (depth_mass + catastrophe)

    c5 = f18 + f5 + 0.5 * f8 + 2.0 * f6 + 0.1 * f15 - 0.1 * f22

    return (c1, c2, c3, c4, c5)


_floor, _log = math.floor, math.log


def discretize(raw: Sequence[float]) -> tuple[int, int, int, int, int]:
    """Floor/offset/log map sending a 5-component raw rank into integers.

    Each image component is nondecreasing in its raw one.  The log compression
    of the fourth keeps very negative values comparable on a finite scale
    (more negative is better, i.e. smaller image).  Only d4 is clamped at 0;
    the floors d1, d2, d3 and d5 can be negative: r100's d5 reaches -780 on
    builtin-suite states and has no lower bound over the manifest grammar.
    """
    if len(raw) != 5:
        raise ValueError(f"discretization expects 5 components, got {len(raw)}")
    c1, c2, c3, c4, c5 = raw
    d1 = _floor(c1)
    d2 = _floor(100.0 * c2)
    d3 = _floor(10.0 * (c3 + 50.0))
    # c4 >= 0 and NaN leave log(1) = 0, so d4 = 5000
    d4 = 5000 - _floor(100.0 * _log(1.0 - c4)) if c4 < 0.0 else 5000
    return (d1, d2, d3, d4 if d4 > 0 else 0, _floor(10.0 * (c5 + 20.0)))


def lex_compare(a: Sequence[float], b: Sequence[float]) -> int:
    """Standard lexicographic order on exact values: -1, 0 or +1.

    No epsilon: components are compared as exact doubles (or ints).
    """
    if len(a) != len(b):
        raise ValueError(f"rank length mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x < y:
            return LESS
        if x > y:
            return GREATER
    return EQUAL


@dataclass(frozen=True)
class Ranker:
    """A named pure rank function, optionally composed with discretization."""

    name: str
    raw: Callable[[Sequence[float]], tuple]
    discretized: bool = False

    def __call__(self, fv: Sequence[float]) -> tuple:
        rank = self.raw(fv)
        return discretize(rank) if self.discretized else rank


# disc_lex's weights, in the order RankerTemplate.instantiate reads them:
# c2 over (f14, f21, f1, f5), c3 over (f10, f19, f20), the depth charge over
# (f24^3, f25, (1 - f23) * f24, f10 * f24 * (1 - f23)), then c5 over (f18, f8).
DEPTH_CHARGE_WEIGHTS = (0.5, 0.5, 0.05, 0.01, 1.0, 1.0, 0.1, 4.0, 1.0, 5.0, 10.0, 1.0, 0.5)


@dataclass(frozen=True)
class RankerTemplate:
    """Shape of the searchable ranker: the gate, then four weighted components.

    The gate is 0 in monomial phase and the order proxy f0 otherwise; it
    takes no weight.  c2, c3 and c5 are weighted sums, each evaluated left to
    right from 0.0 in the order of ``DEPTH_CHARGE_WEIGHTS``; c4 is the negated
    depth charge.  The rank is discretized.
    """

    def size(self) -> int:
        return len(DEPTH_CHARGE_WEIGHTS)

    def default_weights(self) -> tuple[float, ...]:
        return DEPTH_CHARGE_WEIGHTS

    def instantiate(self, weights: Sequence[float]) -> Ranker:
        weights = tuple(weights)
        if len(weights) != self.size():
            raise ValueError(f"expected {self.size()} weights, got {len(weights)}")
        a0, a1, a2, a3, b0, b1, b2, d0, d1, d2, d3, e0, e1 = weights

        def raw(fv: Sequence[float]) -> tuple:
            c1 = 0.0 if int(fv[9]) == 1 else float(fv[0])
            f10 = float(fv[10])
            f23 = float(fv[23])
            f24 = float(fv[24])
            # inverted depth/complexity accumulator, amplified when the
            # Jacobian carries no information
            interaction = f10 * f24 * (1.0 - f23)
            c2 = (
                0.0 + a0 * float(fv[14]) + a1 * float(fv[21])
                + a2 * float(fv[1]) + a3 * float(fv[5])
            )
            c3 = 0.0 + b0 * f10 + b1 * float(fv[19]) + b2 * float(fv[20])
            c4 = -1.0 * (
                d0 * (f24 ** 3) + d1 * float(fv[25]) + d2 * (1.0 - f23) * f24 + d3 * interaction
            )
            c5 = 0.0 + e0 * float(fv[18]) + e1 * float(fv[8])
            return (c1, c2, c3, c4, c5)

        return Ranker(name="template", raw=raw, discretized=True)

    @classmethod
    def depth_charge(cls) -> "RankerTemplate":
        """The disc_lex ranker's shape; its default weights are disc_lex."""
        return cls()


def _disc_lex() -> Ranker:
    template = RankerTemplate.depth_charge()
    return replace(template.instantiate(template.default_weights()), name="disc_lex")


_RANKERS: dict[str, Ranker] = {
    "two_component": Ranker("two_component", rank_two_component),
    "clean_lex": Ranker("clean_lex", rank_clean_lex),
    "disc_lex": _disc_lex(),
    "r100": Ranker("r100", rank_r100_raw, discretized=True),
}


def ranker_names() -> tuple[str, ...]:
    return tuple(_RANKERS)


def get_ranker(name: str) -> Ranker:
    """Look up a built-in ranker; its raw attribute is the undiscretized rank."""
    if name not in _RANKERS:
        raise ValueError(f"unknown ranker {name!r}; available: {', '.join(_RANKERS)}")
    return _RANKERS[name]
