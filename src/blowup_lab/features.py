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

from blowup_lab.core import IdealSpec, State, VariableSet, _derived_boundary, _derived_state
from blowup_lab.simulator import MEMO_ENTRIES, _ideal_facts

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

_EMPTY_IDEAL_FEATURES = tuple(1.0 if i == 9 else 0.0 for i in range(NUM_FEATURES))


def hilbert_samuel_base(state: State) -> int:
    """Hilbert-Samuel proxy from the base initial monomial ideal (feature 21).

    With generators the z-free monomials of minimal total degree d, counts the
    base-variable monomials of total degree < d + 1 outside the ideal they
    generate; 0 when no z-free monomials exist.  The generators share the
    degree d, so a monomial of degree at most d lies in their ideal exactly
    when it is one of them: with n base variables and k distinct generators
    the count is C(d + n, n) - k.
    """
    d = math.inf
    generators = set()
    for m in state.ideal.monomials:
        e = m.exponents
        if e[-1] == 0:
            degree = sum(e)
            if degree < d:
                d, generators = degree, {e}
            elif degree == d:
                generators.add(e)
    if not generators:
        return 0
    n = state.vars.dim - 1
    return math.comb(d + n, n) - len(generators)


def extract_features(state: State) -> tuple[float, ...]:
    """Compute the full 26-feature vector of a state.

    The empty ideal yields the all-zero vector with the monomial-phase flag
    set.  Everything but f4, f8, f14 and f25 reads the ideal alone and comes
    from a process-wide memo of MEMO_ENTRIES distinct ideals, keyed by
    (ideal, vars), whose entries build on the ideal's one facts pass
    (simulator._ideal_facts, mostly made already by the steps' charts); those
    four are integer arithmetic on the boundary.  f8 and f14 add up
    min(e_i, b_i) over the base variables of positive multiplicity b_i only:
    f8 is the least such sum over the monomials of degree exc, and each f14
    term divides the residual, its base degree sum(e) minus it, which is
    sum_i max(0, e_i - b_i).  A run's states have at most one such variable
    (the chart variable), a case of its own.  The floats are converted in the
    order f8, f14, f25.
    """
    if not state.ideal:
        return _EMPTY_IDEAL_FEATURES
    values, min_base, terms = _ideal_features(state.ideal, state.vars)
    mult = state.boundary.multiplicities
    fv = list(values)
    # multiplicities are nonnegative, so the nonzero ones are the positive ones
    fv[4] = float(len(mult) - mult.count(0))
    base = mult[:-1]
    positive = len(base) - base.count(0)
    if positive == 1:
        b = max(base)
        i = base.index(b)
        fv[8] = float(min([min(e[i], b) for e in min_base]))
        fv[14] = min([(s - min(e[i], b)) / divisor for e, divisor, s in terms], default=0.0)
    elif not positive:
        fv[8] = 0.0
        fv[14] = min([s / divisor for _, divisor, s in terms], default=0.0)
    else:
        pos = [(i, b) for i, b in enumerate(base) if b]
        fv[8] = float(min([sum([min(e[i], b) for i, b in pos]) for e in min_base]))
        cut = [sum([min(e[i], b) for i, b in pos]) for e, _, _ in terms]
        fv[14] = min([(s - c) / divisor for c, (_, divisor, s) in zip(cut, terms)], default=0.0)
    fv[25] = float(state.boundary.mass)
    return tuple(fv)


@lru_cache(maxsize=MEMO_ENTRIES)
def _ideal_features(ideal: IdealSpec, vars: VariableSet) -> tuple[tuple[float, ...], tuple, tuple]:
    """The boundary-free part of extract_features on a nonempty ideal.

    Returns the 26 entries with f4, f8, f14 and f25 left at 0.0, the base
    exponents of the monomials of degree exc (for f8), and the (base
    exponents, divisor, base degree) terms f14 ranges over.  f14 is a
    boundary-aware weighted-order proxy: over every monomial except the first
    pure z-power of exponent exc, residualize the base exponents against the
    boundary and record |residual| / e_z (or / exc when z-free); f14 is the
    minimum, or 0 when no monomial qualifies.  Excluding the monic z-power is
    essential: otherwise the minimum is trivially 0 on monic inputs.

    The ideal-wide counts, masks and minima, and the minimal-degree z-free
    monomials (f1, f15, f19, f20), come from the chart's facts pass
    (simulator._ideal_facts); a short second pass gathers the monomials of
    degree exc (f2, f3, f10, f24, f8) and the f14 terms.  The float
    conversions run in a fixed order (f7, f11, then f0 to f24), so an
    out-of-range input always raises the same OverflowError.
    """
    (_, exc, facts, support, notdiv, f1, f5, f13, f16, f18, f20, f23, jac_low, base_support,
     has_monic) = _ideal_facts(ideal, vars)
    f0 = exc

    f3 = touched = min_notdiv = 0
    f24 = math.inf
    min_base = []
    terms = []
    skipped = False
    for d, ez, base, sup, nd, mz, _, _, _, _, nu in facts:
        if d == exc:
            f3 += 1
            touched |= sup
            min_notdiv |= nd
            if nu < f24:
                f24 = nu
            min_base.append(base)
            if mz == exc and not skipped:
                skipped = True
                continue
        terms.append((base, ez or exc, d - ez))

    f2 = vars.dim - touched.bit_count()
    f6 = 0 if notdiv else 1
    if has_monic:
        f7 = f0 / f1 if f1 > 0 else float(f0)
    else:
        f7 = 0.0
    f9 = 0 if f16 else 1
    f10 = 0 if min_notdiv else 1
    f11 = float(f0) if f1 == 0 else 1.0 / (1.0 + abs(f0 - f1))
    f12 = (support & ~notdiv).bit_count()
    # f15 and f19 both count the base variables no minimal-degree z-free
    # monomial touches
    f15 = f19 = vars.dim - 1 - base_support.bit_count()
    f17 = support.bit_count()
    # f21 = C(N, j) - k, with N = f1 + n and j = min(f1, n), and C(N, j) >=
    # (N // j)^j: when that bound proves f21 past 2^1025, float(f21) must
    # refuse it, so an int that float() refuses stands in for the count
    n = vars.dim - 1
    j = min(f1, n)
    if j and j * (((f1 + n) // j).bit_length() - 1) > 1025:
        f21 = 1 << 1025
    else:
        # the ideal is a State's, and a zero boundary of vars.dim entries
        # passes the checks
        zero = _derived_state(ideal, _derived_boundary((0,) * vars.dim), vars)
        f21 = hilbert_samuel_base(zero)
    f22 = jac_low - 1 if jac_low else JACOBIAN_SENTINEL

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
    return values, tuple(min_base), tuple(terms)
