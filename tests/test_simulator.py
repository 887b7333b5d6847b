from __future__ import annotations

import random
from collections import Counter

import pytest

from blowup_lab.benchmarks import broad24, extended100, focused71, generate_broad_surrogates
from blowup_lab.core import (
    Boundary,
    IdealSpec,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
)
from blowup_lab.simulator import (
    CODIM2,
    DIVISOR_Z,
    Center,
    exceptional_exponent,
    ideal_center,
    is_monomial_phase,
    run_trajectory,
    select_center,
    step,
)


def _state(text: str, vars4, boundary=None) -> State:
    ideal = parse_polynomial(text, vars4)
    if boundary is None:
        return State.initial(ideal, vars4)
    return State(ideal, Boundary(boundary), vars4)


def test_exceptional_exponent_pure_z_power(vars4):
    assert exceptional_exponent(parse_polynomial("z^3 + x^6 + w^6", vars4)) == 3


def test_exceptional_exponent_no_pure_power(vars4):
    assert exceptional_exponent(parse_polynomial("x^7*y^5*w^4", vars4)) == 16
    # z^4*x^2 is not a pure power, so the minimal total degree wins
    assert exceptional_exponent(parse_polynomial("z^4*x^2 + y^10 + w^5", vars4)) == 5


def test_exceptional_exponent_empty_ideal():
    with pytest.raises(ValueError):
        exceptional_exponent(IdealSpec(()))


def test_exceptional_exponent_ignores_accidental_pure_powers(vars4):
    # a z-power that entered as a mixed monomial keeps its residual role
    accidental = IdealSpec(
        (
            TaggedMonomial("pure-z", (0, 0, 0, 3)),
            TaggedMonomial("mixed", (0, 0, 0, 2)),
        )
    )
    assert exceptional_exponent(accidental) == 3
    tagged = IdealSpec(
        (
            TaggedMonomial("pure-z", (0, 0, 0, 3)),
            TaggedMonomial("pure-z", (0, 0, 0, 2)),
        )
    )
    assert exceptional_exponent(tagged) == 2


def test_select_center_max_pure_exponent(vars4):
    center = select_center(_state("z^3 + x^9 + y^6 + w^6", vars4))
    assert center == Center(CODIM2, 0)


def test_select_center_no_pure_base(vars4):
    # x^3*y^3 has minimal degree among base monomials; exponent tie x vs y
    # resolves by variable order
    center = select_center(_state("z^3 + x^3*y^3", vars4))
    assert center == Center(CODIM2, 0)


def test_ideal_center_is_select_center_on_the_suites():
    # every state the builtin suites and the surrogates reach, with the
    # boundary each run gives it: the center depends on the ideal alone, and
    # each recorded step used it
    states = 0
    for case in broad24() + extended100() + generate_broad_surrogates(1, 200):
        run = run_trajectory(case.initial_state(), 120)
        for k, state in enumerate(run.prefix):
            if not state.ideal:  # monomial phase; neither picks a center
                continue
            center = ideal_center(state.ideal, state.vars)
            assert center == select_center(state)
            assert center == select_center(State.initial(state.ideal, state.vars))
            if k < len(run.centers):
                assert center == run.centers[k]
            states += 1
    assert states > 2000


def test_select_center_divisor_fallback(vars4):
    center = select_center(_state("z^3 + z^2*x", vars4))
    assert center.kind == DIVISOR_Z


def test_step_example_codim2(vars4):
    new, center, exc = step(_state("z^3 + x^6", vars4))
    assert exc == 3
    assert center == Center(CODIM2, 0)
    assert [m.exponents for m in new.ideal] == [(0, 0, 0, 3), (3, 0, 0, 0)]
    assert new.boundary.multiplicities == (3, 0, 0, 0)


def test_step_example_divisor(vars4):
    new, center, exc = step(_state("z^3", vars4))
    assert exc == 3
    assert center.kind == DIVISOR_Z
    assert [m.exponents for m in new.ideal] == [(0, 0, 0, 3)]
    assert new.boundary.multiplicities == (0, 0, 0, 3)


def test_step_example_annihilation(vars4):
    new, center, exc = step(_state("z^3 + x^3", vars4, boundary=(3, 0, 0, 0)))
    assert exc == 3
    assert center == Center(CODIM2, 0)
    assert [m.exponents for m in new.ideal] == [(0, 0, 0, 3)]
    assert new.boundary.multiplicities == (6, 0, 0, 0)


def test_step_preserves_tags_and_order(vars4):
    state = _state("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4)
    new, _, _ = step(state)
    assert [m.tag for m in new.ideal] == [m.tag for m in state.ideal]


def test_step_boundary_support_invariant(vars4):
    state = _state("z^3 + x^9 + y^6 + w^6", vars4)
    for _ in range(12):
        new, center, exc = step(state)
        support = {i for i, m in enumerate(new.boundary.multiplicities) if m > 0}
        z = vars4.elim_index
        if center.kind == CODIM2:
            assert support <= {center.var_index, z}
        else:
            assert support <= {z}
        # the chart variable's multiplicity is the restricted value plus exc
        assert exc >= 1
        assert (
            new.boundary.multiplicities[center.var_index]
            == state.boundary.multiplicities[center.var_index] + exc
        )
        state = new
        if not state.ideal:
            break


def test_run_states_hold_at_most_one_positive_base_multiplicity():
    # extract_features sums f8 and f14 over the positive base multiplicities
    # only, so a run's state costs it at most one term: a step keeps only its
    # chart variable's, and every run starts from the zero boundary
    held = Counter()
    cases = broad24() + focused71() + extended100() + generate_broad_surrogates(1, 200)
    for case in cases:
        for state in run_trajectory(case.initial_state(), 120).states:
            positive = sum(1 for b in state.boundary.multiplicities[:-1] if b > 0)
            assert positive <= 1, case.name
            held[positive] += 1
    assert held[0] > 0 and held[1] > 0


def test_step_monomial_count_never_increases(vars4):
    state = _state("z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", vars4)
    count = len(state.ideal)
    for _ in range(20):
        state, _, _ = step(state)
        assert len(state.ideal) <= count
        count = len(state.ideal)


def test_monic_power_fixed_under_matching_exc(vars4):
    # the monic z^p term maps to itself whenever exc == p
    state = _state("z^3 + x^9 + y^6 + w^6", vars4)
    for _ in range(10):
        new, center, exc = step(state)
        if exc == 3 and center.kind == CODIM2:
            assert any(m.exponents == (0, 0, 0, 3) for m in new.ideal)
        state = new


def test_is_monomial_phase(vars4):
    assert is_monomial_phase(parse_polynomial("x^7*y^5*w^4", vars4))
    assert not is_monomial_phase(parse_polynomial("z^3 + x^6", vars4))
    assert is_monomial_phase(IdealSpec(()))


def test_run_trajectory_immediate_monomial(vars4):
    traj = run_trajectory(_state("x^9*y^6", vars4), 30)
    assert traj.monomial_step == 0
    assert len(traj.states) == 1
    assert traj.centers == ()


def test_run_trajectory_cap(vars4):
    traj = run_trajectory(_state("z^3 + x^6", vars4), 30)
    assert len(traj.states) == 31
    assert traj.monomial_step is None
    assert len(traj.centers) == len(traj.excs) == 30


def test_run_trajectory_cycle_structure(vars4):
    # z^3 + x^6 -> z^3 + x^3 -> z^3 -> z^3 -> ...
    traj = run_trajectory(_state("z^3 + x^6", vars4), 6)
    ideals = [tuple(m.exponents for m in s.ideal) for s in traj.states]
    assert ideals[0] == ((0, 0, 0, 3), (6, 0, 0, 0))
    assert ideals[1] == ((0, 0, 0, 3), (3, 0, 0, 0))
    assert all(i == ((0, 0, 0, 3),) for i in ideals[2:])


def test_run_trajectory_zero_cap(vars4):
    traj = run_trajectory(_state("z^3 + x^6", vars4), 0)
    assert len(traj.states) == 1
    assert traj.monomial_step is None


def test_determinism(vars4):
    state = _state("z^3 + x^12 + y^9 + x^8*y*w + w^6", vars4)
    a = run_trajectory(state, 30)
    b = run_trajectory(state, 30)
    assert a == b


def test_relabeling_base_variables_commutes_with_step(vars4):
    # permuting base variables commutes with the canonical step whenever the
    # permuted state selects the permuted center (tie-breaks are re-derived
    # from the permuted orders, so draws where they disagree are skipped)
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        n_monomials = rng.randint(1, 4)
        monomials = []
        for _ in range(n_monomials):
            exps = tuple(rng.randint(0, 6) for _ in range(4))
            if sum(exps) == 0:
                exps = (0, 0, 0, 1)
            monomials.append(TaggedMonomial(infer_tag(exps, vars4), exps))
        boundary = tuple(rng.randint(0, 4) for _ in range(4))
        state = State(IdealSpec(tuple(monomials)), Boundary(boundary), vars4)

        # inverse images: position i of the permuted state holds old index perm[i]
        perm = rng.sample(range(3), 3) + [3]
        inverse = [perm.index(i) for i in range(4)]

        def apply_perm(s: State) -> State:
            def pe(e):
                return tuple(e[perm[i]] for i in range(4))

            return State(
                IdealSpec(tuple(TaggedMonomial(m.tag, pe(m.exponents)) for m in s.ideal)),
                Boundary(pe(s.boundary.multiplicities)),
                vars4,
            )

        original_center = select_center(state)
        permuted_center = select_center(apply_perm(state))
        expected = Center(original_center.kind, inverse[original_center.var_index])
        if permuted_center != expected:
            continue  # a genuine tie resolved differently under the new order
        checked += 1
        assert step(apply_perm(state))[0] == apply_perm(step(state)[0])
    assert checked > 200  # ties are rare; most draws must actually be compared
