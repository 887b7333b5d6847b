from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab import clear_memos, memos
from blowup_lab.benchmarks import broad24, extended100, focused71, generate_broad_surrogates
from blowup_lab.cli import main
from blowup_lab.core import (
    Boundary,
    IdealSpec,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
)
from blowup_lab.features import (
    FEATURE_NAMES,
    JACOBIAN_SENTINEL,
    NUM_FEATURES,
    extract_features,
    hilbert_samuel_base,
)
from blowup_lab.harness import HarnessConfig, score_benchmark
from blowup_lab.rankers import get_ranker
from blowup_lab.simulator import run_trajectory
from oracles import plain_features, plain_ideal_features


def _state(text, vars4, boundary=None):
    ideal = parse_polynomial(text, vars4)
    if boundary is None:
        return State.initial(ideal, vars4)
    return State(ideal, Boundary(boundary), vars4)


def test_feature_names_shape():
    assert len(FEATURE_NAMES) == NUM_FEATURES == 26
    assert FEATURE_NAMES[0] == "max_order"
    assert FEATURE_NAMES[14] == "weighted_order_proxy"
    assert FEATURE_NAMES[25] == "boundary_mult_sum"


def test_full_vector_cross_case(vars4):
    # every entry of the reference cross case, computed row by row
    fv = extract_features(_state("z^3 + x^9 + y^6 + w^6", vars4))
    expected = (
        3, 6, 3, 1, 0, 0, 1, 0.5, 0, 0, 1, 0.25, 4,
        9, 2, 1, 3, 4, 0, 1, 2, 82, 1000, 0, 1, 0,
    )
    assert fv == tuple(float(v) for v in expected)


def test_feature_stream_digest_is_pinned():
    # the float.hex of every feature vector along every builtin-suite
    # trajectory and 200 generated ones at cap 120: a refactor that moves any
    # bit of any feature moves the digest
    digest = hashlib.sha256()
    count = 0
    cases = broad24() + focused71() + extended100() + generate_broad_surrogates(1, 200)
    for case in cases:
        for state in run_trajectory(case.initial_state(), 120).states:
            digest.update(repr([v.hex() for v in extract_features(state)]).encode())
            count += 1
    assert count == 46_854
    assert digest.hexdigest() == (
        "3db4314b47c21b88f90ea38d35b86b7a7a3fc6964c2f702c412751187da9c67a"
    )


def test_monomial_phase_vector(vars4):
    fv = extract_features(_state("x^7*y^5*w^4", vars4))
    assert fv[9] == 1.0
    assert fv[0] == 16.0
    assert fv[1] == 16.0
    assert fv[16] == 0.0


def test_heavy_tail_vector_pins(vars4):
    # the entries forced by the reference initial discrete rank of the
    # heavy-tail stall instance
    fv = extract_features(_state("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4))
    pins = {1: 6, 10: 1, 12: 2, 14: 2, 18: 2, 19: 2, 20: 1, 21: 83, 23: 3, 24: 1}
    for index, value in pins.items():
        assert fv[index] == float(value), FEATURE_NAMES[index]
    assert fv[22] == 12.0  # smallest degree carrying a nonzero partial, minus 1


def test_empty_ideal_vector(vars4):
    fv = extract_features(State(IdealSpec(()), Boundary((0, 0, 0, 0)), vars4))
    assert fv[9] == 1.0
    assert all(v == 0.0 for i, v in enumerate(fv) if i != 9)


def test_weighted_order_examples(vars4):
    assert extract_features(_state("z^3 + x^9 + y^6 + w^6", vars4))[14] == 2.0
    assert (
        extract_features(_state("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4))[14]
        == 2.0
    )
    assert extract_features(_state("z^3 + x^9", vars4, boundary=(3, 0, 0, 0)))[14] == 2.0


def test_weighted_order_no_qualifying_monomial(vars4):
    # the lone monic power is excluded, leaving nothing to minimize over
    assert extract_features(_state("z^3", vars4))[14] == 0.0


def test_hilbert_samuel_examples(vars4):
    assert hilbert_samuel_base(_state("z^3 + x^9 + y^6 + w^6", vars4)) == 82
    assert hilbert_samuel_base(_state("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4)) == 83
    assert hilbert_samuel_base(_state("z^3", vars4)) == 0


def _brute_force_standard_count(generators, num_vars, bound):
    # independent oracle: enumerate the lattice and test divisibility directly
    grid = np.indices((bound,) * num_vars).reshape(num_vars, -1).T
    grid = grid[grid.sum(axis=1) < bound]
    if not generators:
        return len(grid)
    gens = np.array(generators)
    divisible = (grid[:, None, :] >= gens[None, :, :]).all(axis=2).any(axis=1)
    return int((~divisible).sum())


def _z_free_state(base_exponents, vars):
    # z^p plus the given z-free monomials, z being the last variable
    exps = [(0,) * (vars.dim - 1) + (vars.char_p,)]
    exps += [tuple(e) + (0,) for e in base_exponents]
    ideal = IdealSpec(tuple(TaggedMonomial(infer_tag(e, vars), e) for e in exps))
    return State.initial(ideal, vars)


def test_standard_monomial_count_against_brute_force_small(vars4):
    # f21 counts the standard monomials of degree <= d of the minimal-degree
    # z-free generators
    gens = [(0, 6, 0), (0, 0, 6)]
    assert hilbert_samuel_base(_z_free_state(gens, vars4)) == 82
    assert _brute_force_standard_count(gens, 3, 7) == 82
    assert hilbert_samuel_base(_z_free_state(gens[:1], vars4)) == 83
    assert _brute_force_standard_count(gens[:1], 3, 7) == 83
    assert _brute_force_standard_count([], 3, 7) == 84
    # a generator of higher degree does not enter the count
    assert hilbert_samuel_base(_z_free_state(gens + [(9, 0, 0)], vars4)) == 82


def test_standard_monomial_count_brute_force_fuzz():
    rng = random.Random(2024)
    for _ in range(200):
        vars = VariableSet.standard(rng.randint(3, 5), 3)
        num_vars = vars.dim - 1
        generators = [
            tuple(rng.randint(0, 6) for _ in range(num_vars))
            for _ in range(rng.randint(1, 5))
        ]
        generators = [g for g in generators if sum(g) > 0]
        state = _z_free_state(generators, vars)
        if not generators:
            assert hilbert_samuel_base(state) == 0
            continue
        d = min(map(sum, generators))
        minimal = [g for g in generators if sum(g) == d]
        assert hilbert_samuel_base(state) == (
            _brute_force_standard_count(minimal, num_vars, d + 1)
        )


def _minimalize(generators):
    # drop generators divisible by another generator
    unique = sorted(set(generators))
    kept = []
    for g in unique:
        if not any(h != g and all(hv <= gv for hv, gv in zip(h, g)) for h in unique):
            kept.append(g)
    return kept


def _inclusion_exclusion_oracle(generators, num_vars, degree_bound):
    # the general count over every one of the 2^k subsets of minimal generators
    if degree_bound <= 0:
        return 0
    top = degree_bound - 1
    total = math.comb(top + num_vars, num_vars)
    gens = _minimalize([tuple(g) for g in generators])
    divisible = 0
    for size in range(1, len(gens) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(gens, size):
            join = tuple(max(col) for col in zip(*subset))
            slack = top - sum(join)
            if slack >= 0:
                divisible += sign * math.comb(slack + num_vars, num_vars)
    return total - divisible


@st.composite
def _hs_states(draw):
    # z^p, mixed z-monomials and z-free monomials of mixed degrees, with up to
    # 10 z-free generators of the minimal degree and duplicates among them
    vars4 = VariableSet.standard(4, 3)
    base = st.tuples(*[st.integers(0, 6)] * 3)
    d = draw(st.integers(1, 6))
    of_degree_d = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    generators = draw(st.lists(st.sampled_from(of_degree_d), max_size=10))
    higher = draw(st.lists(base.filter(lambda e: sum(e) > d), max_size=4))
    mixed = draw(st.lists(st.tuples(base, st.integers(1, 4)), max_size=3))
    exps = [e + (0,) for e in generators + generators[: draw(st.integers(0, 3))] + higher]
    exps += [e + (ez,) for e, ez in mixed]
    if draw(st.booleans()) or not exps:
        exps.append((0, 0, 0, 3))
    exps = draw(st.permutations(exps))
    ideal = IdealSpec(tuple(TaggedMonomial(infer_tag(e, vars4), e) for e in exps))
    return State.initial(ideal, vars4)


@settings(max_examples=300, deadline=None)
@given(_hs_states())
def test_standard_monomial_count_matches_full_inclusion_exclusion(state):
    base = [m.exponents[:3] for m in state.ideal if m.exponents[3] == 0]
    if not base:
        assert hilbert_samuel_base(state) == 0
        return
    d = min(map(sum, base))
    generators = [e for e in base if sum(e) == d]
    expected = _brute_force_standard_count(generators, 3, d + 1)
    assert hilbert_samuel_base(state) == expected
    assert _inclusion_exclusion_oracle(generators, 3, d + 1) == expected


def test_hilbert_samuel_of_25_same_degree_generators(vars4):
    # 25 distinct generators of degree 8 in 3 base variables
    base = [(a, b, 8 - a - b) for a in range(9) for b in range(9 - a)][:25]
    exps = [(0, 0, 0, 3)] + [(a, b, c, 0) for a, b, c in base]
    ideal = IdealSpec(tuple(TaggedMonomial(infer_tag(e, vars4), e) for e in exps))
    state = State.initial(ideal, vars4)
    assert hilbert_samuel_base(state) == math.comb(11, 3) - 25
    assert extract_features(state)[21] == 140.0


def test_ideal_features_reads_hilbert_samuel_base_through_the_module(vars4, monkeypatch):
    # the benchmark's tracer times f21 by rebinding this module attribute; the
    # tag makes the ideal one the feature memo has not seen
    from blowup_lab import features

    monkeypatch.setattr(features, "hilbert_samuel_base", lambda state: -7)
    state = _state("z^3 + module-probe:x^6 + w^6", vars4)
    assert extract_features(state)[21] == -7.0


def test_f2_complements_touched_variables(vars4):
    from blowup_lab.simulator import exceptional_exponent

    rng = random.Random(5)
    for _ in range(100):
        monomials = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 5) for _ in range(4))
            if sum(exps) == 0:
                exps = (0, 0, 0, 2)
            monomials.append(TaggedMonomial(infer_tag(exps, vars4), exps))
        state = State(IdealSpec(tuple(monomials)), Boundary((0, 0, 0, 0)), vars4)
        fv = extract_features(state)
        # f2 plus the number of variables touched by the minimal-degree set
        # is the ambient dimension
        exc = exceptional_exponent(state.ideal)
        touched = {
            i
            for m in state.ideal
            if m.total_degree == exc
            for i in range(4)
            if m.exponents[i] > 0
        }
        assert fv[2] + len(touched) == 4
        if fv[9] == 1:
            assert fv[16] == 0.0


def test_f0_at_least_f16_with_z(vars4):
    for text in ("z^3 + x^6", "z^9 + x^18 + y^18 + w^18", "z^3 + z^2*x + x^9 + y^6 + w^6"):
        fv = extract_features(_state(text, vars4))
        assert fv[0] >= fv[16] > 0


def test_features_invariant_under_base_relabeling(vars4):
    rng = random.Random(11)
    for _ in range(100):
        monomials = []
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 7) for _ in range(4))
            if sum(exps) == 0:
                exps = (1, 0, 0, 0)
            monomials.append(TaggedMonomial(infer_tag(exps, vars4), exps))
        boundary = tuple(rng.randint(0, 3) for _ in range(4))
        state = State(IdealSpec(tuple(monomials)), Boundary(boundary), vars4)

        perm = rng.sample(range(3), 3) + [3]

        def pe(e):
            return tuple(e[perm[i]] for i in range(4))

        permuted = State(
            IdealSpec(
                tuple(TaggedMonomial(m.tag, pe(m.exponents)) for m in state.ideal)
            ),
            Boundary(pe(state.boundary.multiplicities)),
            vars4,
        )
        assert extract_features(state) == extract_features(permuted)


def test_jacobian_sentinel(vars4):
    fv = extract_features(_state("z^3 + x^6 + y^6 + w^6", vars4))
    assert fv[22] == JACOBIAN_SENTINEL
    assert fv[23] == 0.0


def test_shade_window_counts_mixed_only(vars4):
    # degree-3 mixed term sits in the [p, 2p) window; pure powers never count
    fv = extract_features(_state("z^3 + x^9 + y^6 + w^6 + x^2*y", vars4))
    assert fv[5] == 1.0
    fv = extract_features(_state("z^3 + x^9 + y^6 + w^6", vars4))
    assert fv[5] == 0.0


def test_plateau_risk_convention(vars4):
    assert extract_features(_state("z^3 + x^9 + y^6 + w^6", vars4))[11] == 0.25
    # no base monomials: fall back to the order itself
    assert extract_features(_state("z^3", vars4))[11] == 3.0


def test_newton_slope_convention(vars4):
    assert extract_features(_state("z^3 + x^9 + y^6 + w^6", vars4))[7] == 0.5
    assert extract_features(_state("z^3", vars4))[7] == 3.0
    # no pure z-power at all
    assert extract_features(_state("x^7*y^5*w^4", vars4))[7] == 0.0


def _named_vars(dim):
    return VariableSet(tuple(f"x{i}" for i in range(dim - 1)) + ("z",), 3)


def _extract_initial(ideal, vars):
    return extract_features(State.initial(ideal, vars))


def _vector_outcome(kernel, state):
    try:
        fv = kernel(state)
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, str(exc)
    return tuple(v.hex() for v in fv)


def _outcome(kernel, ideal, vars):
    try:
        kernel(ideal, vars)
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize(
    "poly, dim",
    [(f"z^3 + x0^{10**320}", 4), (f"x0^{10**12}", 32), ("z^3 + x0^600", 600)],
    ids=["huge-base-exponent", "dim-32", "dim-600"],
)
def test_out_of_range_features_raise_as_the_plain_kernel(capsys, tmp_path, poly, dim):
    # each probe overflows a float; the kernel raises the plain kernel's
    # exception class and message, so run exits 2 and validate-manifest names it
    vars = _named_vars(dim)
    ideal = parse_polynomial(poly, vars)
    want = _outcome(plain_ideal_features, ideal, vars)
    assert want is not None and want[0] == "OverflowError"
    assert _outcome(_extract_initial, ideal, vars) == want

    path = tmp_path / "probe.json"
    entry = {"name": "probe", "p": 3, "dim": dim, "vars": list(vars.names), "poly": poly}
    path.write_text(json.dumps([entry]), encoding="utf-8")
    assert main(["validate-manifest", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"manifest error: case 'probe': initial-state features: {want[0]}: {want[1]}\n"
    )
    assert main(["run", "--ranker", "r100", "--suite", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want[0]}: {want[1]}\n"


_NAMES4 = ("x", "y", "w", "z")
_F14_PROBE = f"z^3 + x^2 + z*x^{10**400}"
_F14_OVERFLOW = ("OverflowError", "integer division result too large for a float")
_F25_OVERFLOW = ("OverflowError", "int too large to convert to float")


@pytest.mark.parametrize(
    "names, poly, boundary, raises",
    [
        # dim 1: no base variable, so no positive base multiplicity
        (("z",), "z^3 + z^5", (0,), None),
        (("z",), "z^3 + z^5", (4,), None),
        (("z",), "z^3", (2,), None),
        # none, one (below and above the exponents it meets), two, three
        (_NAMES4, "z^3 + x^4*y^2 + y^5*w + z*x^2*w", (0, 0, 0, 5), None),
        (_NAMES4, "z^3 + x^4*y^2 + y^5*w + z*x^2*w", (3, 0, 0, 1), None),
        (_NAMES4, "z^3 + x^4*y^2 + y^5*w + z*x^2*w", (0, 9, 0, 0), None),
        (_NAMES4, "z^3 + x^4*y^2 + y^5*w + z*x^2*w", (3, 1, 0, 1), None),
        (_NAMES4, "x*y*w + x^4*y^2 + z*x^2*w", (1, 3, 2, 4), None),
        # no f14 term: the one monomial is the skipped monic z-power
        (_NAMES4, "z^3", (0, 0, 0, 0), None),
        (_NAMES4, "z^3", (0, 0, 5, 3), None),
        (_NAMES4, "z^3", (1, 2, 0, 0), None),
        # f14 past the float range, before f25 past it
        (_NAMES4, _F14_PROBE, (0, 0, 0, 0), _F14_OVERFLOW),
        (_NAMES4, _F14_PROBE, (3, 0, 0, 0), _F14_OVERFLOW),
        (_NAMES4, _F14_PROBE, (3, 1, 0, 0), _F14_OVERFLOW),
        (_NAMES4, _F14_PROBE, (0, 0, 0, 10**400), _F14_OVERFLOW),
        # f25 past the float range
        (_NAMES4, "z^3 + x^6 + w^6", (10**400, 0, 0, 0), _F25_OVERFLOW),
        (_NAMES4, "z^3 + x^6 + w^6", (0, 0, 0, 10**400), _F25_OVERFLOW),
        (_NAMES4, "z^3 + x^6 + w^6", (10**400, 1, 0, 0), _F25_OVERFLOW),
    ],
)
def test_boundary_features_match_the_plain_kernel(names, poly, boundary, raises):
    # f8 and f14 sum over the positive base multiplicities only; bit for bit,
    # and raise for raise, they are the plain kernel's sums over every one
    vars = VariableSet(names, 3)
    state = State(parse_polynomial(poly, vars), Boundary(boundary), vars)
    want = _vector_outcome(plain_features, state)
    assert _vector_outcome(extract_features, state) == want
    if raises is not None:
        assert want == raises


# exponents and multiplicities from small to past the float range, so that
# f8, f14 and f25 meet the range in either kernel
_HUGE = st.one_of(st.sampled_from((10**20, 2**1024, 10**308, 10**400)), st.integers(0, 10**400))


@st.composite
def _bounded_states(draw):
    # an ideal over dims 1-5 and a boundary with no, one, or two or more
    # positive base multiplicities; half the examples stay small throughout
    dim = draw(st.integers(1, 5))
    names = tuple(f"x{i}" for i in range(dim - 1)) + ("z",)
    vars = VariableSet(names, draw(st.sampled_from((2, 3, 5))))
    small = st.integers(0, 9)
    value = st.one_of(small, _HUGE) if draw(st.booleans()) else small
    exponents = st.tuples(*[value] * dim).filter(any)
    monomials = []
    for e in draw(st.lists(exponents, min_size=1, max_size=5)):
        monomials.append(TaggedMonomial(draw(st.sampled_from((infer_tag(e, vars), "mixed"))), e))
    positive = draw(st.integers(0, dim - 1))
    chosen = draw(st.permutations(range(dim - 1)))[:positive]
    base = [draw(value.filter(bool)) if i in chosen else 0 for i in range(dim - 1)]
    return State(IdealSpec(tuple(monomials)), Boundary(tuple(base) + (draw(value),)), vars)


def _packed_outcome(kernel, state):
    # the doubles' bytes, so -0.0 is told from 0.0, or the class and message
    try:
        return struct.pack(f"{NUM_FEATURES}d", *kernel(state))
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(state=_bounded_states())
def test_drawn_boundary_features_match_the_plain_kernel(state):
    # the one-variable path and the general loop, bit for bit and raise for
    # raise, against the plain kernel's sums over every multiplicity
    assert _packed_outcome(extract_features, state) == _packed_outcome(plain_features, state)


def test_padic_depth_of_a_huge_exponent_is_cheap(vars4):
    # x's exponent 3^700 has p-adic valuation 700; the valuation is taken once
    # per distinct monomial, from cold memos here
    ideal = parse_polynomial(f"z^3 + x^{3**700}", vars4)
    clear_memos()
    start = time.perf_counter()
    got = _outcome(_extract_initial, ideal, vars4)
    assert time.perf_counter() - start < 0.25
    assert got == _outcome(plain_ideal_features, ideal, vars4)


def test_f21_past_the_float_range_is_refused_without_counting(monkeypatch):
    # C(N, j) >= (N // j)^j, with N = f1 + n and j = min(f1, n), proves these
    # f21 past 2^1025, so the kernel raises float()'s OverflowError at f21's
    # place and never builds the count; the 10,000-variable one took seconds
    # in math.comb alone
    from blowup_lab import features

    def refused(state):
        raise AssertionError("f21 counted past the float range")

    monkeypatch.setattr(features, "hilbert_samuel_base", refused)
    clear_memos()
    for poly, dim in ((f"x0^{10**12}", 32), (f"z^3 + x0^{10**300}", 10_000)):
        vars = _named_vars(dim)
        got = _outcome(_extract_initial, parse_polynomial(poly, vars), vars)
        assert got == ("OverflowError", "int too large to convert to float")


def test_f21_that_fits_is_counted_once_per_ideal(monkeypatch):
    # the bound leaves every builtin ideal to hilbert_samuel_base, read
    # through the module: a cold focused71 scoring counts each distinct ideal
    from blowup_lab import features

    counted = []
    real = features.hilbert_samuel_base

    def counting(state):
        counted.append(state.ideal)
        return real(state)

    monkeypatch.setattr(features, "hilbert_samuel_base", counting)
    clear_memos()
    score_benchmark(get_ranker("disc_lex"), focused71(), HarnessConfig())
    assert len(counted) == len(set(counted)) == memos()["ideal_features"][3] == 186
