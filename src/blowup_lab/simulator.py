"""Deterministic canonical blow-up step and trajectory generation.

One step: read the exceptional exponent off the ideal, select a center by a
fixed tie-broken rule, restrict-and-augment the boundary, and rewrite every
monomial in the chart of the center's distinguished variable.  Iteration stops
at the first monomial-phase state (no monomial involves the elimination
variable) or after a fixed cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from blowup_lab.core import PURE_Z, Boundary, IdealSpec, State, TaggedMonomial, VariableSet

CODIM2 = "codim2"
DIVISOR_Z = "divisor_z"

DEFAULT_CAP = 30

#: Entries kept by each of three process-wide memos: the chart rewrite below
#: and the ideal part of the feature vector (lru_caches keyed by ideal and
#: vars), and harness.simulate_case's prefix feature streams (keyed by initial
#: state and cap, packed 208 bytes a vector, oldest out first, and also bounded
#: by MEMO_ENTRIES * (DEFAULT_CAP + 1) vectors).  The bound holds every builtin
#: suite whole, so builtin_sweep computes each ideal and each stream once (a
#: bound of 256 missed the feature memo 1,771 times per pass, not 555).  Heap
#: held after one benchmark pass, chart/features/streams in KiB: builtin_sweep
#: 653/777/279, surrogate_long 652/785/425, search_focused 245/290/153,
#: wide_generators 626/736/117.  Trajectories and expanded tails are not kept;
#: README gives the reasons and the peak RSS each memo costs per workload.
MEMO_ENTRIES = 512


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
    """
    if not state.ideal:
        raise ValueError("cannot select a center for an empty ideal")

    best_var = None
    best_exp = -1
    for m in state.ideal:
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

    base_monomials = [m for m in state.ideal if m.exponents[-1] == 0]
    if base_monomials:
        chosen = min(base_monomials, key=lambda m: m.total_degree)  # first minimum wins
        e = chosen.exponents
        j = max(state.vars.base_indices, key=lambda i: (e[i], -i))
        return Center(CODIM2, j)

    return Center(DIVISOR_Z, state.vars.elim_index)


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

    new_state = State(ideal=ideal, boundary=Boundary(tuple(mult)), vars=vars)
    return new_state, center, exc


@lru_cache(maxsize=MEMO_ENTRIES)
def _chart(ideal: IdealSpec, vars: VariableSet) -> tuple[IdealSpec, Center, int]:
    # the part of step() that reads only the ideal: (rewritten ideal, center,
    # exceptional exponent); a fixed-ideal tail maps its ideal to one shared
    # IdealSpec object
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


def is_monomial_phase(ideal: IdealSpec) -> bool:
    """True iff no monomial involves the elimination variable.

    Tags are not consulted.  The empty ideal is vacuously in monomial phase.
    """
    for m in ideal:
        if m.exponents[-1] != 0:
            return False
    return True


@dataclass(frozen=True)
class Trajectory:
    """A run of canonical steps: states[k+1] == step(states[k]).

    A fixed-ideal tail under the divisor center V(z) is kept as a count:
    prefix ends at the first state that a V(z) step produced from the same
    ideal, and each of the tail_len states after it keeps that ideal and its
    base multiplicities (all 0) while z gains excs[-1].  centers and excs
    cover every step, tail included.
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
    monomial phase; the remaining steps up to the cap become the tail.
    """
    if cap < 0:
        raise ValueError("step cap must be nonnegative")
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
            # the memoized chart hands a fixed ideal back as the very object it
            # was given, which already failed the check one step earlier
            if current.ideal is previous:
                if center.kind == DIVISOR_Z:
                    tail_len = cap - k - 1
                    break
            elif is_monomial_phase(current.ideal):
                monomial_step = k + 1
                break

    return Trajectory(
        prefix=tuple(states),
        tail_len=tail_len,
        centers=tuple(centers + centers[-1:] * tail_len),
        excs=tuple(excs + excs[-1:] * tail_len),
        monomial_step=monomial_step,
    )
