"""The 26-entry feature vector extracted from a simulator state.

Every feature is a combinatorial function of the exponent vectors and the
boundary, designed as a cheap proxy for a classical resolution invariant
(order, weighted order, E-order, directrix dimension, Jacobian signals,
Hilbert-Samuel data, Frobenius depth).  All entries are returned as IEEE
doubles; counts and orders are integers embedded in reals, and the few
division-based entries are exact double-precision quotients.
"""

from __future__ import annotations

import math
from functools import lru_cache

from blowup_lab.core import MIXED, OBLIQUE, IdealSpec, State, VariableSet
from blowup_lab.simulator import (
    MEMO_ENTRIES,
    exceptional_exponent,
    is_monic_z_power,
    is_monomial_phase,
    monic_z_orders,
)

#: Column names for trace export, indexed 0..25.
FEATURE_NAMES = (
    "max_order",
    "elimination_order",
    "dim_max_locus_proxy",
    "comp_max_locus_proxy",
    "boundary_count",
    "shade_penalty",
    "jacobian_vanish_flag",
    "newton_slope",
    "e_order_boundary_proxy",
    "monomial_phase",
    "inseparable_initial_flag",
    "plateau_risk",
    "frobenius_defect",
    "center_complexity",
    "weighted_order_proxy",
    "tau_directrix_proxy",
    "e_order_elim",
    "embedding_dim_proxy",
    "wildness_index",
    "base_dim_max_locus_proxy",
    "base_comp_max_locus_proxy",
    "hilbert_samuel_base_value",
    "jacobian_min_order",
    "jacobian_nonzero_partials",
    "padic_depth_initial",
    "boundary_mult_sum",
)

NUM_FEATURES = 26

#: Returned by jacobian_min_order when no (monomial, variable) pair qualifies.
#: The value is observable: with 2000 or 200 in its place, extended100's
#: violation totals under two_component and clean_lex move from 10 to 9 or
#: 11.  1000 is the canonical constant.
JACOBIAN_SENTINEL = 1000.0

_SHADE_TAGS = (MIXED, OBLIQUE)

_EMPTY_IDEAL_FEATURES = tuple(1.0 if i == 9 else 0.0 for i in range(NUM_FEATURES))


def _nu_p(n: int, p: int) -> int:
    # p-adic valuation of a positive integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _weighted_order_terms(
    ideal: IdealSpec, exc: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(base exponents, divisor) of each monomial the weighted order (f14) ranges over.

    f14 is a boundary-aware weighted-order proxy.  Over every monomial except
    the first pure z-power of exponent equal to the exceptional exponent exc,
    residualize base exponents against the boundary and record
    |residual| / e_z (or / exc when z-free); f14 is the minimum, or 0 when no
    monomial qualifies.  Excluding the monic z-power is essential: otherwise
    the minimum is trivially 0 on monic inputs.
    """
    skip = next(
        (
            idx
            for idx, m in enumerate(ideal)
            if m.exponents[-1] == exc and is_monic_z_power(m)
        ),
        None,
    )
    return tuple(
        (m.exponents[:-1], m.exponents[-1] or exc)
        for idx, m in enumerate(ideal)
        if idx != skip
    )


def _weighted_order(terms: tuple, base_mult: tuple[int, ...]) -> float:
    return min(
        (
            sum(a - b for a, b in zip(exps, base_mult) if a > b) / divisor
            for exps, divisor in terms
        ),
        default=0.0,
    )


def hilbert_samuel_base(state: State) -> int:
    """Hilbert-Samuel proxy from the base initial monomial ideal (feature 21).

    With generators the z-free monomials of minimal total degree d, counts the
    base-variable monomials of total degree < d + 1 outside the ideal they
    generate; 0 when no z-free monomials exist.  The generators share the
    degree d, so a monomial of degree at most d lies in their ideal exactly
    when it is one of them: with n base variables and k distinct generators
    the count is C(d + n, n) - k.
    """
    base = [m.exponents for m in state.ideal if m.exponents[-1] == 0]
    if not base:
        return 0
    d = min(sum(e) for e in base)
    k = len({e for e in base if sum(e) == d})
    n = state.vars.dim - 1
    return math.comb(d + n, n) - k


def extract_features(state: State) -> tuple[float, ...]:
    """Compute the full 26-feature vector of a state.

    The empty ideal yields the all-zero vector with the monomial-phase flag
    set.  Everything but f4, f8, f14 and f25 reads the ideal alone and comes
    from a process-wide memo of MEMO_ENTRIES distinct ideals, keyed by
    (ideal, vars); those four are integer arithmetic on the boundary.
    """
    if not state.ideal:
        return _EMPTY_IDEAL_FEATURES
    values, min_base, weighted = _ideal_features(state.ideal, state.vars)
    base_mult = state.boundary.multiplicities[:-1]
    fv = list(values)
    fv[4] = float(state.boundary.positive_count)
    fv[8] = float(min(sum(map(min, e, base_mult)) for e in min_base))
    fv[14] = _weighted_order(weighted, base_mult)
    fv[25] = float(state.boundary.mass)
    return tuple(fv)


@lru_cache(maxsize=MEMO_ENTRIES)
def _ideal_features(ideal: IdealSpec, vars: VariableSet) -> tuple[tuple[float, ...], tuple, tuple]:
    """The boundary-free part of extract_features on a nonempty ideal.

    Returns the 26 entries with f4, f8, f14 and f25 left at 0.0, the base
    exponents of the minimal-degree monomials (for f8), and the terms of
    _weighted_order_terms (for f14).
    """
    p = vars.char_p
    z = vars.elim_index
    base_idx = vars.base_indices
    monomials = ideal.monomials

    exps = [m.exponents for m in monomials]
    degrees = [sum(e) for e in exps]
    exc = exceptional_exponent(ideal)
    m_min = [e for e, d in zip(exps, degrees) if d == exc]
    base = [(e, d) for e, d in zip(exps, degrees) if e[z] == 0]

    f0 = exc
    f1 = min(d for _, d in base) if base else 0
    base_min = [e for e, d in base if d == f1] if base else []

    touched = {i for e in m_min for i in range(vars.dim) if e[i] > 0}
    f2 = vars.dim - len(touched)
    f3 = len(m_min)
    f5 = sum(
        1
        for m, d in zip(monomials, degrees)
        if m.tag in _SHADE_TAGS and p <= d < 2 * p
    )
    f6 = 1 if all(e[i] % p == 0 for e in exps for i in range(vars.dim)) else 0

    # exc equals the minimal pure z-order exactly when a pure z-power exists
    if monic_z_orders(ideal):
        f7 = f0 / f1 if f1 > 0 else float(f0)
    else:
        f7 = 0.0

    f9 = 1 if is_monomial_phase(ideal) else 0
    f10 = 1 if all(e[i] % p == 0 for e in m_min for i in range(vars.dim)) else 0
    f11 = float(f0) if f1 == 0 else 1.0 / (1.0 + abs(f0 - f1))

    f12 = 0
    for i in range(vars.dim):
        if any(e[i] > 0 for e in exps) and all(e[i] % p == 0 for e in exps):
            f12 += 1

    pure_base_exps = [
        e[i]
        for e in exps
        for i in base_idx
        if e[i] > 0 and e[z] == 0 and sum(1 for v in e if v > 0) == 1
    ]
    f13 = max(pure_base_exps) if pure_base_exps else 0

    f15 = sum(1 for j in base_idx if all(e[j] == 0 for e in base_min))
    z_orders = [e[z] for e in exps if e[z] > 0]
    f16 = min(z_orders) if z_orders else 0
    f17 = sum(1 for i in range(vars.dim) if any(e[i] > 0 for e in exps))
    f18 = sum(
        1
        for m, d in zip(monomials, degrees)
        if m.tag in _SHADE_TAGS and d >= p and any(v % p != 0 for v in m.exponents)
    )

    touched_base = {i for e in base_min for i in base_idx if e[i] > 0}
    f19 = len(base_idx) - len(touched_base)
    f20 = len(base_min)
    f21 = hilbert_samuel_base(State.initial(ideal, vars))

    jac_orders = [
        sum(e) - 1 for e in exps for i in range(vars.dim) if e[i] > 0 and e[i] % p != 0
    ]
    f22 = min(jac_orders) if jac_orders else JACOBIAN_SENTINEL
    f23 = len(jac_orders)
    f24 = min(_nu_p(e[i], p) for e in m_min for i in range(vars.dim) if e[i] > 0)

    values = (
        float(f0),
        float(f1),
        float(f2),
        float(f3),
        0.0,
        float(f5),
        float(f6),
        float(f7),
        0.0,
        float(f9),
        float(f10),
        f11,
        float(f12),
        float(f13),
        0.0,
        float(f15),
        float(f16),
        float(f17),
        float(f18),
        float(f19),
        float(f20),
        float(f21),
        float(f22),
        float(f23),
        float(f24),
        0.0,
    )
    min_base = tuple(e[:-1] for e in m_min)
    return values, min_base, _weighted_order_terms(ideal, exc)
