"""Plain, unmemoized forms of the per-monomial kernels, kept as test oracles.

``plain_ideal_features`` computes every boundary-free feature straight from
the exponent vectors, feature by feature, and ``plain_chart`` rewrites every
monomial of an ideal in place; the package computes each monomial's feature
facts and chart image once (``features._monomial_facts``,
``simulator._rewrite``) and aggregates them per ideal.  Both oracles read
``features.hilbert_samuel_base`` and the simulator helpers through their
modules, as the package does.
"""

from __future__ import annotations

from blowup_lab import features
from blowup_lab.core import MIXED, OBLIQUE, IdealSpec, State, TaggedMonomial, VariableSet
from blowup_lab.features import JACOBIAN_SENTINEL
from blowup_lab.simulator import (
    exceptional_exponent,
    is_monic_z_power,
    is_monomial_phase,
    monic_z_orders,
    select_center,
)

_SHADE_TAGS = (MIXED, OBLIQUE)


def _nu_p(n: int, p: int) -> int:
    # p-adic valuation of a positive integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def plain_weighted_order_terms(ideal: IdealSpec, exc: int) -> tuple:
    """(base exponents, divisor) of every monomial but the first pure z-power of exponent exc."""
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


def plain_ideal_features(ideal: IdealSpec, vars: VariableSet) -> tuple:
    """features._ideal_features, one feature at a time over the exponent vectors."""
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
    f21 = features.hilbert_samuel_base(State.initial(ideal, vars))

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
    return values, min_base, plain_weighted_order_terms(ideal, exc)


def plain_chart(ideal: IdealSpec, vars: VariableSet) -> tuple:
    """simulator._chart with every monomial rewritten in place."""
    exc = exceptional_exponent(ideal)
    center = select_center(State.initial(ideal, vars))
    v = center.var_index

    transformed = []
    for m in ideal:
        e = list(m.exponents)
        if e[-1] > 0:
            e[v] += e[-1]
        e[v] = max(0, e[v] - exc)
        if any(e):
            transformed.append(TaggedMonomial(tag=m.tag, exponents=tuple(e)))
    return IdealSpec(tuple(transformed)), center, exc
