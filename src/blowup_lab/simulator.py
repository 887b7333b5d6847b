"""Deterministic canonical blow-up step and trajectory generation.

One step: read the exceptional exponent off the ideal, select a center by a
fixed tie-broken rule, restrict-and-augment the boundary, and rewrite every
monomial in the chart of the center's distinguished variable.  Iteration stops
at the first monomial-phase state (no monomial involves the elimination
variable) or after a fixed cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from blowup_lab.core import (
    MIXED,
    OBLIQUE,
    PURE_Z,
    IdealSpec,
    State,
    TaggedMonomial,
    VariableSet,
    _derived_boundary,
    _derived_ideal,
    _derived_monomial,
    _derived_state,
)

CODIM2 = "codim2"
DIVISOR_Z = "divisor_z"

DEFAULT_CAP = 30

#: Entries kept by each process-wide lru_cache: chart rewrites, ideal features,
#: and runs at caps up to DEFAULT_CAP with their feature streams (the harness
#: streams memo).  Every builtin suite fits whole (412
#: distinct ideals in extended100), so each is computed once across rankers.
MEMO_ENTRIES = 512

#: Entries kept by each per-monomial lru_cache (monomial rewrites and facts),
#: and ranks kept by a harness rank table between calls.  The ideals of a run
#: share a few monomials (focused71 has 64 at cap 30): each is done once.
MONOMIAL_MEMO_ENTRIES = 4096

_SHADE_TAGS = (MIXED, OBLIQUE)


@dataclass(frozen=True)
class Center:
    """Blow-up center: V(x_j, z) for a base variable, or the divisor fallback V(z).

    var_index is the chart variable: the base variable for codim2 centers and
    the elimination variable for the divisor fallback.
    """

    kind: str
    var_index: int


def is_monic_z_power(m: TaggedMonomial) -> bool:
    """True iff m is a genuine pure z-power.

    A monomial counts only if it is supported on z alone AND still carries
    the pure-z tag, i.e. it entered the computation as a pure z-power.  Chart
    rewrites can strip the base support off a mixed monomial; such accidental
    powers keep their original tag and are treated as residual terms, not as
    the monic elimination order.  (Reading them as monic sends the
    z^2-perturbation benchmark family into a degenerate doubling tail, which
    the zero-violation reference results rule out.)
    """
    e = m.exponents
    return m.tag == PURE_Z and e[-1] > 0 and not any(e[:-1])


def monic_z_orders(ideal: IdealSpec) -> list[int]:
    """Exponents of the genuine pure z-powers of the ideal."""
    return [m.exponents[-1] for m in ideal if is_monic_z_power(m)]


def exceptional_exponent(ideal: IdealSpec) -> int:
    """Order proxy divided out at each step.

    Minimal exponent over the pure z-powers when one exists, else minimal
    total degree over all monomials.
    """
    if not ideal:
        raise ValueError("exceptional exponent of an empty ideal is undefined")
    orders = monic_z_orders(ideal)
    if orders:
        return min(orders)
    return min(m.total_degree for m in ideal)


def select_center(state: State) -> Center:
    """Deterministic center choice.

    1. Among single-base-variable monomials not involving z, take the one of
       maximal exponent (ties by list order) and use its variable.
    2. Else among z-free monomials take one of minimal total degree (ties by
       list order), then its base variable of maximal exponent (ties by
       variable order).
    3. Else (every monomial involves z) fall back to the divisor V(z).

    The rule reads no boundary: the center is read off the ideal's monomial
    facts by the one pass per ideal (the ideal_facts memo) that also gives a
    step its exceptional exponent and the feature kernel its aggregates.
    """
    if not state.ideal:
        raise ValueError("cannot select a center for an empty ideal")
    return _ideal_facts(state.ideal, state.vars)[0]


def _nu_p(n: int, p: int) -> int:
    # p-adic valuation of a positive integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=MONOMIAL_MEMO_ENTRIES)
def _monomial_facts(m: TaggedMonomial, p: int) -> tuple:
    """What the chart and the ideal features read off one monomial in
    characteristic p.

    (degree, e_z, base exponents, support mask, mask of the exponents not
    divisible by p, monic z-order or 0, f5 and f18 contributions, pure-base
    exponent or 0, Jacobian pair count, minimal p-adic valuation over the
    support), where bit i of a mask stands for variable i.  The minimal
    valuation is that of the gcd of the exponents.  The chart reads the
    degree, e_z, base exponents, support, monic z-order and pure-base
    exponent; the feature kernel reads them all.
    """
    e = m.exponents
    d = sum(e)
    support = notdiv = 0
    for i, v in enumerate(e):
        if v:
            support |= 1 << i
            if v % p:
                notdiv |= 1 << i
    ez = e[-1]
    shade = m.tag in _SHADE_TAGS and d >= p
    return (
        d,
        ez,
        e[:-1],
        support,
        notdiv,
        ez if is_monic_z_power(m) else 0,
        1 if shade and d < 2 * p else 0,
        1 if shade and notdiv else 0,
        d if not ez and not support & (support - 1) else 0,
        notdiv.bit_count(),
        _nu_p(math.gcd(*e), p),
    )


@lru_cache(maxsize=MEMO_ENTRIES)
def _ideal_facts(ideal: IdealSpec, vars: VariableSet) -> tuple:
    """The chart's and the feature kernel's one pass over a nonempty ideal's
    monomial facts: (center, exc, the facts, the support and not-divisible
    masks, f1, f5, f13, f16, f18, f20, f23, the least degree with a Jacobian
    pair, the minimal-degree z-free support mask, whether a pure z-power
    exists), ints only (0 for none), so no step meets a float's OverflowError."""
    p = vars.char_p
    facts = tuple([_monomial_facts(m, p) for m in ideal.monomials])
    low = monic = f1 = f16 = jac_low = math.inf
    support = notdiv = base_support = 0
    f5 = f13 = f18 = f20 = f23 = 0
    pure = free = None
    for d, ez, base, sup, nd, mz, s5, s18, pb, jac, _ in facts:
        support |= sup
        notdiv |= nd
        f5 += s5
        f18 += s18
        f23 += jac
        if pb > f13:
            f13, pure = pb, sup
        if jac and d < jac_low:
            jac_low = d
        if d < low:
            low = d
        if ez:
            if mz and mz < monic:
                monic = mz
            if ez < f16:
                f16 = ez
        elif d < f1:
            f1, f20, base_support, free = d, 1, sup, base
        elif d == f1:
            f20 += 1
            base_support |= sup
    if pure is not None:
        center = Center(CODIM2, pure.bit_length() - 1)
    elif free is not None:
        center = Center(CODIM2, free.index(max(free)))
    else:
        center = Center(DIVISOR_Z, vars.elim_index)
    has_monic, inf = monic != math.inf, math.inf
    return (center, monic if has_monic else low, facts, support, notdiv, 0 if f1 == inf else f1,
            f5, f13, 0 if f16 == inf else f16, f18, f20, f23, 0 if jac_low == inf else jac_low,
            base_support, has_monic)


def step(state: State) -> tuple[State, Center, int]:
    """One canonical blow-up step: (new state, center used, exceptional exponent).

    Boundary: multiplicities are zeroed outside {x_j, z} (codim2) resp. {z}
    (divisor), then the chart variable gains the exceptional exponent.
    Monomials: a monomial with e_z > 0 first gains e_z on the chart variable
    (all other coordinates, including e_z itself when the chart variable is
    not z, stay unchanged), then the chart exponent loses the exceptional
    exponent with floor 0; all-zero monomials are discarded; tags and list
    order are preserved.
    """
    vars = state.vars
    z = vars.elim_index
    ideal, center, exc = _chart(state.ideal, vars)
    v = center.var_index
    keep = {v, z} if center.kind == CODIM2 else {z}

    mult = [m if i in keep else 0 for i, m in enumerate(state.boundary.multiplicities)]
    mult[v] += exc

    # state passed the checks, and each multiplicity is zeroed or raised by
    # exc >= 1, so each stays an int >= 0; the boundary keeps its length, and
    # the chart keeps every exponent vector's
    boundary = _derived_boundary(tuple(mult))
    return _derived_state(ideal, boundary, vars), center, exc


@lru_cache(maxsize=MEMO_ENTRIES)
def _chart(ideal: IdealSpec, vars: VariableSet) -> tuple[IdealSpec, Center, int]:
    # the part of step() that reads only the ideal: (rewritten ideal, center,
    # exc) off _ideal_facts, which it leaves warm for the feature kernel.  A
    # monomial the center does not move (e_z == exc, or e_v == 0 and e_z <=
    # exc) is its own image, else _rewrite's; if none moves, so is the ideal
    if not ideal:
        raise ValueError("exceptional exponent of an empty ideal is undefined")
    center, exc = _ideal_facts(ideal, vars)[:2]
    v = center.var_index
    kept = []
    moved = False
    for m in ideal.monomials:
        e = m.exponents
        if e[-1] != exc and (e[v] or e[-1] > exc):
            moved = True
            m = _rewrite(m, v, exc)
            if m is None:
                continue
        kept.append(m)
    if not moved:
        return ideal, center, exc
    # the ideal is a State's, so its exponent vectors share one length; a
    # chart keeps every vector's length, and an empty image has none
    return _derived_ideal(tuple(kept), ideal._lengths if kept else frozenset()), center, exc


@lru_cache(maxsize=MONOMIAL_MEMO_ENTRIES)
def _rewrite(m: TaggedMonomial, v: int, exc: int) -> Optional[TaggedMonomial]:
    """m in the chart of variable v with exc divided out, for an m it moves.

    None when every exponent drops to 0; only the chart exponent can change.
    """
    e = m.exponents
    ev = max(0, e[v] + e[-1] - exc)
    image = e[:v] + (ev,) + e[v + 1 :]
    if not any(image):
        return None
    # m's exponents are ints >= 0, and so is ev; the all-zero image is dropped
    return _derived_monomial(m.tag, image)


def is_monomial_phase(ideal: IdealSpec) -> bool:
    """True iff no monomial involves the elimination variable.

    Tags are not consulted.  The empty ideal is vacuously in monomial phase.
    """
    for m in ideal:
        if m.exponents[-1] != 0:
            return False
    return True


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run of canonical steps: states[k+1] == step(states[k]).

    A fixed-ideal tail under the divisor center V(z) is kept as a count:
    prefix ends at the first state that a V(z) step produced from the same
    ideal, and each of the tail_len states after it keeps that ideal and its
    base multiplicities (all 0) while z gains excs[-1].  centers and excs
    cover every step, tail included.  A run compares and hashes by identity.
    """

    prefix: tuple[State, ...]
    tail_len: int
    centers: tuple[Center, ...]
    excs: tuple[int, ...]
    monomial_step: Optional[int]

    @cached_property
    def states(self) -> tuple[State, ...]:
        """Every state; the tail is stepped out on first read."""
        states = list(self.prefix)
        for _ in range(self.tail_len):
            states.append(step(states[-1])[0])
        return tuple(states)


def run_trajectory(initial: State, cap: int = DEFAULT_CAP) -> Trajectory:
    """Apply the canonical step until monomial phase or the step cap.

    The empty ideal counts as monomial phase (every transform can discard all
    monomials), so the trajectory also stops there.  Stepping also stops at a
    fixed ideal under V(z): the next ideal depends on the ideal alone, so every
    later step repeats that center and exceptional exponent and never reaches
    monomial phase; the remaining steps up to the cap become the tail.  A run
    at a cap up to DEFAULT_CAP is memoized: a repeat call hands back the same
    Trajectory.
    """
    if type(cap) is not int:
        raise TypeError("step cap must be an int")
    if cap < 0:
        raise ValueError("step cap must be nonnegative")
    if cap <= DEFAULT_CAP:
        return _held_run(initial, cap)
    return _stepped(initial, cap)


def _stepped(initial: State, cap: int) -> Trajectory:
    states = [initial]
    centers: list[Center] = []
    excs: list[int] = []
    monomial_step: Optional[int] = None
    tail_len = 0

    if is_monomial_phase(initial.ideal):
        monomial_step = 0
    else:
        current = initial
        for k in range(cap):
            previous = current.ideal
            current, center, exc = step(current)
            states.append(current)
            centers.append(center)
            excs.append(exc)
            # a chart hit can hand back an equal ideal that is another object
            ideal = current.ideal
            if ideal is previous or (ideal._hash == previous._hash and ideal == previous):
                if center.kind == DIVISOR_Z:
                    tail_len = cap - k - 1
                    break
            elif is_monomial_phase(ideal):
                monomial_step = k + 1
                break

    return Trajectory(
        prefix=tuple(states),
        tail_len=tail_len,
        centers=tuple(centers + centers[-1:] * tail_len),
        excs=tuple(excs + excs[-1:] * tail_len),
        monomial_step=monomial_step,
    )


#: Runs by (initial state, cap), for caps up to DEFAULT_CAP only.
_held_run = lru_cache(maxsize=MEMO_ENTRIES)(_stepped)
