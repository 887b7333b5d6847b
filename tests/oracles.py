"""Plain, unmemoized forms of the simulator, the features and scoring, kept as
test oracles.

``plain_ideal_features`` computes every boundary-free feature straight from
the exponent vectors, feature by feature, and ``plain_chart`` picks the center
with ``plain_center`` and rewrites every monomial of an ideal in place, where
the package works out each distinct monomial's facts and chart image once and
aggregates them per ideal, for the chart and the features alike.
``plain_run`` steps with ``plain_chart`` to the cap, checking for monomial
phase after every step and keeping every state, where ``run_trajectory``
keeps a fixed-ideal V(z) tail as a count.  ``plain_score`` extracts every
state's features with ``plain_features``, calls the ranker on every state and
audits with the public ``audit_trajectory``, where ``score_benchmark`` ranks
each bit-distinct vector once per ranker object and derives a tail's vectors
by arithmetic.  No oracle reads or fills a memo that ``memos()`` reports; they
read ``features.hilbert_samuel_base`` and the simulator helpers through their
modules, as the package does.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import replace

from blowup_lab import features
from blowup_lab.core import MIXED, OBLIQUE, Boundary, IdealSpec, State, TaggedMonomial, VariableSet
from blowup_lab.features import JACOBIAN_SENTINEL, NUM_FEATURES
from blowup_lab.harness import (
    STAGES,
    STRUCTURAL_PENALTY,
    SuiteReport,
    audit_trajectory,
    check_determinism,
)
from blowup_lab.simulator import (
    CODIM2,
    DIVISOR_Z,
    Center,
    exceptional_exponent,
    is_monic_z_power,
    is_monomial_phase,
    monic_z_orders,
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
    """(base exponents, divisor, base degree) of every monomial but the first
    pure z-power of exponent exc."""
    skip = next(
        (
            idx
            for idx, m in enumerate(ideal)
            if m.exponents[-1] == exc and is_monic_z_power(m)
        ),
        None,
    )
    return tuple(
        (m.exponents[:-1], m.exponents[-1] or exc, sum(m.exponents[:-1]))
        for idx, m in enumerate(ideal)
        if idx != skip
    )


def plain_ideal_features(ideal: IdealSpec, vars: VariableSet) -> tuple:
    """The boundary-free part of extract_features (the 26 entries with f4, f8,
    f14 and f25 at 0.0, the base exponents of the monomials of degree exc, and
    the f14 terms), one feature at a time over the exponent vectors."""
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


def plain_center(ideal: IdealSpec, vars: VariableSet) -> Center:
    """select_center's rule as a scan of the exponent vectors: the pure-base
    monomial of maximal exponent, else the z-free monomial of minimal degree
    and its base variable of maximal exponent, else V(z); ties go to list and
    variable order."""
    best_var = None
    best_exp = -1
    for m in ideal:
        e = m.exponents
        if e[-1] != 0:
            continue
        support = [i for i, v in enumerate(e) if v > 0]
        if len(support) != 1:
            continue
        j = support[0]
        if e[j] > best_exp:
            best_exp = e[j]
            best_var = j
    if best_var is not None:
        return Center(CODIM2, best_var)

    base_monomials = [m for m in ideal if m.exponents[-1] == 0]
    if base_monomials:
        chosen = min(base_monomials, key=lambda m: m.total_degree)  # first minimum wins
        e = chosen.exponents
        j = max(vars.base_indices, key=lambda i: (e[i], -i))
        return Center(CODIM2, j)

    return Center(DIVISOR_Z, vars.elim_index)


def plain_chart(ideal: IdealSpec, vars: VariableSet) -> tuple:
    """(the ideal after one step, the center, the exceptional exponent), with
    every monomial rewritten in place."""
    exc = exceptional_exponent(ideal)
    center = plain_center(ideal, vars)
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


def plain_step(state: State) -> tuple:
    """simulator.step over plain_chart."""
    ideal, center, exc = plain_chart(state.ideal, state.vars)
    v = center.var_index
    keep = {v, state.vars.elim_index} if center.kind == CODIM2 else {state.vars.elim_index}
    mult = [m if i in keep else 0 for i, m in enumerate(state.boundary.multiplicities)]
    mult[v] += exc
    return State(ideal, Boundary(tuple(mult)), state.vars), center, exc


def plain_run(initial: State, cap: int) -> tuple:
    """(states, centers, excs, monomial step or None) of run_trajectory as a
    plain loop: every state is stepped out, and monomial phase is checked
    after every step, steps that keep the ideal included."""
    states, centers, excs = [initial], [], []
    if is_monomial_phase(initial.ideal):
        return states, centers, excs, 0
    for k in range(cap):
        current, center, exc = plain_step(states[-1])
        states.append(current)
        centers.append(center)
        excs.append(exc)
        if is_monomial_phase(current.ideal):
            return states, centers, excs, k + 1
    return states, centers, excs, None


def plain_features(state: State) -> tuple:
    """extract_features from plain_ideal_features and the four boundary
    features f4, f8, f14 and f25."""
    if not state.ideal:
        return tuple(1.0 if i == 9 else 0.0 for i in range(NUM_FEATURES))
    values, min_base, terms = plain_ideal_features(state.ideal, state.vars)
    mult = state.boundary.multiplicities
    base = mult[:-1]
    fv = list(values)
    fv[4] = float(sum(1 for m in mult if m > 0))
    fv[8] = float(min(sum(min(a, b) for a, b in zip(e, base)) for e in min_base))
    fv[14] = min(
        (sum(a - b for a, b in zip(e, base) if a > b) / divisor for e, divisor, _ in terms),
        default=0.0,
    )
    fv[25] = float(sum(mult))
    return tuple(fv)


def plain_ranks(ranker, fvs) -> list:
    """The ranker's rank of every vector, None where it raises; a one-shot
    rank is read inside the try, so one that raises while read is a crash."""
    ranks = []
    for fv in fvs:
        try:
            rank = ranker(fv)
            ranks.append(tuple(rank) if isinstance(rank, Iterator) else rank)
        except Exception:
            ranks.append(None)
    return ranks


def plain_score(ranker, cases, cfg) -> SuiteReport:
    """score_benchmark over plain_run, plain_features and plain_ranks: each
    case's full streams go through the public audit and the purity probe, and
    the reports are aggregated as score_benchmark aggregates them."""
    reports = []
    for case in cases:
        fvs = [plain_features(s) for s in plain_run(case.initial_state(), cfg.cap)[0]]
        report = audit_trajectory(plain_ranks(ranker, fvs), fvs, cfg, name=case.name).report
        if not report.structural_failure and not check_determinism(ranker, fvs[0]):
            report = replace(
                report,
                total_violations=report.total_violations + STRUCTURAL_PENALTY,
                structural_failure=True,
                solved=False,
            )
        reports.append(report)

    # left-to-right float sums, as score_benchmark's
    staged = penalty = 0.0
    for prefix, weight in STAGES:
        staged += weight * sum(r.total_violations for r in reports[:prefix])
    for r in reports:
        penalty += math.tanh(r.total_violations / 10.0)
    solved = sum(1 for r in reports if r.solved)
    return SuiteReport(
        suite="suite",
        ranker=getattr(ranker, "name", ranker.__class__.__name__),
        window=cfg.window,
        cap=cfg.cap,
        reports=tuple(reports),
        total_violations=sum(r.total_violations for r in reports),
        staged_violations=staged,
        solved_count=solved,
        local_increases_total=sum(r.local_increases for r in reports),
        max_plateau=max(r.max_plateau for r in reports),
        saturated_score=2.0 * solved - penalty,
    )
