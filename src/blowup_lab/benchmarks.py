"""Embedded benchmark suites, manifest I/O, and a seeded surrogate generator.

Three built-in suites are provided: ``broad24`` (multi-characteristic,
multi-dimension prototypes), ``focused71`` (dim 4, characteristic 3: 20
base-competition cases plus 51 adversarial tricky cases) and ``extended100``
(focused71 plus 29 harder instances: Fermat-like obliques, weighted plateaux,
mixed-degree pairs, one extreme imbalance, dense mixed perturbations and the
heavy-tail group around the reference stall instance).

Five of the six heavy-tail cases are reconstructions: the source tables name
them but do not print their exponents.  They carry provenance
``family(reconstructed)`` so reports can exempt them from exact-reproduction
checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

from blowup_lab.core import (
    IdealSpec,
    ParseError,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
    render_polynomial,
)

PROVENANCE_TABLE = "table-row"
PROVENANCE_RECONSTRUCTED = "family(reconstructed)"


class ManifestError(ValueError):
    """Raised when a manifest file cannot be read or validated."""


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    vars: VariableSet
    ideal: IdealSpec
    provenance: str

    @property
    def p(self) -> int:
        return self.vars.char_p

    @property
    def dim(self) -> int:
        return self.vars.dim

    def initial_state(self) -> State:
        """The zero-boundary starting state: built on the first call, and the
        same immutable object on every later one, so a run-memo lookup hashes
        it and compares it by identity."""
        return self._initial

    @cached_property
    def _initial(self) -> State:
        return State.initial(self.ideal, self.vars)

    def poly_text(self) -> str:
        return render_polynomial(self.ideal, self.vars, annotate_tags=False)


def _case(name: str, p: int, dim: int, poly: str, provenance: str) -> BenchmarkCase:
    vars = VariableSet.standard(dim, p)
    return BenchmarkCase(
        name=name, vars=vars, ideal=parse_polynomial(poly, vars), provenance=provenance
    )


# Hand-designed multi-dimensional prototypes (p in {5}, dims 3..6).
_BROAD24_ROWS = (
    ("plateau_line_A3", 5, 3, "z^5 + x^10"),
    ("drop_line_A3", 5, 3, "z^5 + x^7"),
    ("wild_surrogate_A3", 5, 3, "z^5 + x^5*y + x^10"),
    ("drop_plane_A4", 5, 4, "z^5 + x^5*w^4"),
    ("plateau_cross_A3", 5, 3, "z^5 + x^10 + y^10 + x^5*y^5"),
    ("oblique_surrogate_A3", 5, 3, "z^5 + x^5*y^4 + y^10"),
    ("non_monic_z_A3", 5, 3, "z^4*x + y^10"),
    ("binomial_pair_A4", 5, 4, "z^5 + x^10 + y^5 + w^5"),
    ("AS_flavor_A3", 5, 3, "z^5 + z + x^5*y^4"),
    ("jac_vanish_A3", 5, 3, "z^10 + x^15 + y^10"),
    ("monomial_control_A3", 5, 3, "x^7*y^5"),
    ("param_drop_a6_A3", 5, 3, "z^5 + x^6"),
    ("param_drop_a7_A3", 5, 3, "z^5 + x^7"),
    ("param_drop_a9_A3", 5, 3, "z^5 + x^9"),
    ("A4_drop_mixed", 5, 4, "z^5 + x^5*w^4"),
    ("A4_plateau_plus_mix", 5, 4, "z^5 + x^10 + x^5*y + w^5"),
    ("A4_nonmonic_z", 5, 4, "z^4*x^2 + y^10 + w^5"),
    ("A4_AS_flavor", 5, 4, "z^5 + z + x^5*y^4 + w^9"),
    ("A4_binomial_toroidal", 5, 4, "z^5 + x^5*y^5"),
    ("A5_drop_two_params", 5, 5, "z^5 + x^5*u^4 + y^10"),
    ("A5_wild_oblique", 5, 5, "z^5 + x^5*y^4*u + v^10"),
    ("A5_cross_competition", 5, 5, "z^5 + x^10 + y^10 + x^5*y^5 + u^5*v^4"),
    ("A6_multi_mixed", 5, 6, "z^5 + x^5*u^4 + y^5*v^4 + w^9"),
    ("A6_nonmonic_wild", 5, 6, "z^4*x^2 + x^5*y^4*v + u^10 + w^5"),
)

# Focused dim 4, p=3 base-competition cases (20).
_FOCUSED20_ROWS = (
    ("p3_A4_plateau_line_x6", "z^3 + x^6 + w^6"),
    ("p3_A4_plateau_line_x9", "z^3 + x^9 + w^6"),
    ("p3_A4_plateau_line_x12", "z^3 + x^12 + w^6"),
    ("p3_A4_cross_x6_y6", "z^3 + x^6 + y^6 + w^6"),
    ("p3_A4_cross_x6_y9", "z^3 + x^6 + y^9 + w^6"),
    ("p3_A4_cross_x6_y12", "z^3 + x^6 + y^12 + w^6"),
    ("p3_A4_cross_x9_y6", "z^3 + x^9 + y^6 + w^6"),
    ("p3_A4_cross_x9_y9", "z^3 + x^9 + y^9 + w^6"),
    ("p3_A4_cross_x9_y12", "z^3 + x^9 + y^12 + w^6"),
    ("p3_A4_cross_x12_y6", "z^3 + x^12 + y^6 + w^6"),
    ("p3_A4_cross_x12_y9", "z^3 + x^12 + y^9 + w^6"),
    ("p3_A4_cross_x12_y12", "z^3 + x^12 + y^12 + w^6"),
    ("p3_A4_cross_square_6", "z^3 + x^6 + y^6 + x^3*y^3 + w^6"),
    ("p3_A4_cross_square_6_w9", "z^3 + x^6 + y^6 + x^3*y^3 + w^9"),
    ("p3_A4_plateau_mix_6a", "z^3 + x^6 + x^4*y^2 + w^6"),
    ("p3_A4_plateau_mix_6b", "z^3 + y^6 + x^2*y^4 + w^6"),
    ("p3_A4_cross_mix_6c", "z^3 + x^6 + y^6 + x^5*y + w^6"),
    ("p3_A4_cross_mix_6d", "z^3 + x^9 + y^6 + x^7*y^2 + w^6"),
    ("p3_A4_cross_mix_6e", "z^3 + x^12 + y^9 + x^8*y*w + w^6"),
    ("p3_A4_pure_cross_666", "z^3 + x^6 + y^6 + w^6"),
)

# Focused dim 4, p=3 adversarial tricky cases (51).
_TRICKY51_ROWS = (
    ("p3_A4_monomial_control_1", "x^7*y^5*w^4"),
    ("p3_A4_monomial_control_2", "x^9*y^6"),
    ("p3_A4_cross_Frob_6_6_6", "z^3 + x^6 + y^6 + w^6"),
    ("p3_A4_cross_Frob_9_6_6", "z^3 + x^9 + y^6 + w^6"),
    ("p3_A4_cross_Frob_9_9_6", "z^3 + x^9 + y^9 + w^6"),
    ("p3_A4_cross_Frob_9_9_9", "z^3 + x^9 + y^9 + w^9"),
    ("p3_A4_cross_Frob_12_9_6", "z^3 + x^12 + y^9 + w^6"),
    ("p3_A4_cross_Frob_12_12_6", "z^3 + x^12 + y^12 + w^6"),
    ("p3_A4_cross_Frob_12_12_12", "z^3 + x^12 + y^12 + w^12"),
    ("p3_A4_cross_Frob_15_12_9", "z^3 + x^15 + y^12 + w^9"),
    ("p3_A4_tieperm_6_1", "z^3 + x^6 + y^6 + w^6"),
    ("p3_A4_tieperm_6_2", "z^3 + x^6 + w^6 + y^6"),
    ("p3_A4_tieperm_6_3", "z^3 + y^6 + x^6 + w^6"),
    ("p3_A4_tieperm_6_4", "z^3 + y^6 + w^6 + x^6"),
    ("p3_A4_tieperm_6_5", "z^3 + w^6 + x^6 + y^6"),
    ("p3_A4_tieperm_6_6", "z^3 + w^6 + y^6 + x^6"),
    ("p3_A4_tieperm_9_1", "z^3 + x^9 + y^9 + w^9"),
    ("p3_A4_tieperm_9_2", "z^3 + x^9 + w^9 + y^9"),
    ("p3_A4_tieperm_9_3", "z^3 + y^9 + x^9 + w^9"),
    ("p3_A4_tieperm_9_4", "z^3 + y^9 + w^9 + x^9"),
    ("p3_A4_tieperm_9_5", "z^3 + w^9 + x^9 + y^9"),
    ("p3_A4_tieperm_9_6", "z^3 + w^9 + y^9 + x^9"),
    ("p3_A4_tieperm_12_1", "z^3 + x^12 + y^12 + w^12"),
    ("p3_A4_tieperm_12_2", "z^3 + x^12 + w^12 + y^12"),
    ("p3_A4_tieperm_12_3", "z^3 + y^12 + x^12 + w^12"),
    ("p3_A4_tieperm_12_4", "z^3 + y^12 + w^12 + x^12"),
    ("p3_A4_tieperm_12_5", "z^3 + w^12 + x^12 + y^12"),
    ("p3_A4_tieperm_12_6", "z^3 + w^12 + y^12 + x^12"),
    ("p3_A4_immediate_shade_1", "z^3 + x^9 + y^6 + w^6 + x^2*y"),
    ("p3_A4_immediate_shade_2", "z^3 + x^9 + y^6 + w^6 + x*y^2"),
    ("p3_A4_immediate_shade_3", "z^3 + x^9 + y^6 + w^6 + x*y*w"),
    ("p3_A4_immediate_shade_4", "z^3 + x^9 + y^6 + w^6 + x^2*y*w"),
    ("p3_A4_immediate_shade_5", "z^3 + x^9 + y^6 + w^6 + x^2*y^2*w"),
    ("p3_A4_immediate_shade_6", "z^3 + x^9 + y^6 + w^6 + x^3*y^2"),
    ("p3_A4_kangaroo_delay_step_1_deg4", "z^3 + x^12 + y^6 + w^6 + x^5*y*w"),
    ("p3_A4_kangaroo_delay_step_2_deg4", "z^3 + x^15 + y^6 + w^6 + x^8*y*w"),
    ("p3_A4_kangaroo_delay_step_3_deg4", "z^3 + x^18 + y^6 + w^6 + x^11*y*w"),
    ("p3_A4_kangaroo_delay_step_4_deg4", "z^3 + x^21 + y^6 + w^6 + x^14*y*w"),
    ("p3_A4_kangaroo_delay_step_5_deg4", "z^3 + x^24 + y^6 + w^6 + x^17*y*w"),
    ("p3_A4_kangaroo_double_delay_1_3", "z^3 + x^18 + y^6 + w^6 + x^5*y*w + x^11*y^2*w"),
    ("p3_A4_kangaroo_double_delay_2_4", "z^3 + x^21 + y^6 + w^6 + x^8*y*w + x^14*y^2*w"),
    ("p3_A4_kangaroo_double_delay_3_5", "z^3 + x^24 + y^6 + w^6 + x^11*y*w + x^17*y^2*w"),
    ("p3_A4_z2_initial_perturb_1", "z^3 + z^2*x + x^9 + y^6 + w^6"),
    ("p3_A4_z2_initial_perturb_2", "z^3 + z^2*y + x^9 + y^6 + w^6"),
    ("p3_A4_z2_initial_perturb_3", "z^3 + z^2*x*y + x^9 + y^6 + w^6"),
    ("p3_A4_z2_initial_perturb_4", "z^3 + z^2*x*w + x^9 + y^6 + w^6"),
    ("p3_A4_z2_initial_perturb_5", "z^3 + z^2*x^2*y + x^9 + y^6 + w^6"),
    ("p3_A4_toroidal_plus_oblique_1", "z^3 + x^3*y^3*w^3 + x^2*y + w^9"),
    ("p3_A4_toroidal_plus_oblique_2", "z^3 + x^6*y^3 + x^3*y^2 + w^12"),
    ("p3_A4_order9_Frob_flat", "z^9 + x^18 + y^18 + w^18"),
    ("p3_A4_order9_with_shade", "z^9 + x^27 + y^18 + w^18 + x^14*y^2*w"),
)

# The 29 extension cases (dim 4, p=3) appended to focused71.
_EXTENSION_ROWS = (
    # Fermat-like core with a small oblique tail of growing degree
    ("p3_A4_fermat_like_1", "z^3 + x^6 + y^6 + x^3*y^3*w^3 + w^4", "family(fermat)"),
    ("p3_A4_fermat_like_2", "z^3 + x^6 + y^6 + x^3*y^3*w^3 + w^7", "family(fermat)"),
    ("p3_A4_fermat_like_3", "z^3 + x^6 + y^6 + x^3*y^3*w^3 + w^10", "family(fermat)"),
    ("p3_A4_fermat_like_4", "z^3 + x^6 + y^6 + x^3*y^3*w^3 + w^13", "family(fermat)"),
    ("p3_A4_fermat_like_5", "z^3 + x^6 + y^6 + x^3*y^3*w^3 + w^16", "family(fermat)"),
    # weighted-homogeneous plateau and its mixed perturbation
    ("p3_A4_weighted_plateau", "z^3 + x^6 + y^9 + w^18", "family(weighted)"),
    ("p3_A4_weighted_plateau_xw15", "z^3 + x^6 + y^9 + w^18 + x*w^15", "family(weighted)"),
    # mixed-degree base pairs over a fixed w^12 spectator
    ("p3_A4_pair_x7_y5", "z^3 + x^7 + y^5 + w^12", "family(pair)"),
    ("p3_A4_pair_x11_y4", "z^3 + x^11 + y^4 + w^12", "family(pair)"),
    ("p3_A4_pair_x13_y2", "z^3 + x^13 + y^2 + w^12", "family(pair)"),
    ("p3_A4_pair_x8_y5", "z^3 + x^8 + y^5 + w^12", "family(pair)"),
    ("p3_A4_pair_x10_y3", "z^3 + x^10 + y^3 + w^12", "family(pair)"),
    # widely separated base degrees
    ("p3_A4_extreme_imbalance", "z^3 + x^4 + y^100 + w^6", "family(extreme)"),
    # dense five-term mixed families
    ("p3_A4_dense_mix_1", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x*w^5 + y^4*w", "family(dense)"),
    ("p3_A4_dense_mix_2", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^2*w^5 + y^4*w^2", "family(dense)"),
    ("p3_A4_dense_mix_3", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^3*w^5 + y^4*w^3", "family(dense)"),
    ("p3_A4_dense_mix_4", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^4*w^5 + y^4*w^4", "family(dense)"),
    ("p3_A4_dense_mix_5", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^5*w^5 + y^4*w^5", "family(dense)"),
    ("p3_A4_dense_mix_6", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^6*w^5 + y^4*w^6", "family(dense)"),
    ("p3_A4_dense_mix_7", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^7*w^5 + y^4*w^7", "family(dense)"),
    ("p3_A4_dense_mix_8", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^8*w^5 + y^4*w^8", "family(dense)"),
    ("p3_A4_dense_mix_9", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^9*w^5 + y^4*w^9", "family(dense)"),
    ("p3_A4_dense_mix_10", "z^3 + x^9 + y^9 + x^2*y^2*w^2 + x^10*w^5 + y^4*w^10", "family(dense)"),
    # heavy-tail group: the reference stall instance plus reconstructed variants
    ("p3_A4_counter_example_1", "z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", PROVENANCE_TABLE),
    ("p3_A4_counter_example_2", "z^3 + x^12 + y^6 + x^9*y^4 + x^10*y^8*w^9", PROVENANCE_RECONSTRUCTED),
    ("p3_A4_counter_example_3", "z^3 + x^12 + y^6 + x^5*y^5*w^5", PROVENANCE_RECONSTRUCTED),
    ("p3_A4_shade_boundary_8", "z^3 + x^12 + y^6 + x^3*y^3*w^2", PROVENANCE_RECONSTRUCTED),
    ("p3_A4_shade_boundary_9", "z^3 + x^12 + y^6 + x^3*y^3*w^3", PROVENANCE_RECONSTRUCTED),
    ("p3_A4_deep_variable_w", "z^3 + x^12 + y^6 + y^4*w^27", PROVENANCE_RECONSTRUCTED),
)

@cache
def broad24() -> tuple[BenchmarkCase, ...]:
    return tuple(
        _case(name, p, dim, poly, PROVENANCE_TABLE) for name, p, dim, poly in _BROAD24_ROWS
    )


@cache
def focused71() -> tuple[BenchmarkCase, ...]:
    return tuple(
        _case(name, 3, 4, poly, PROVENANCE_TABLE)
        for name, poly in _FOCUSED20_ROWS + _TRICKY51_ROWS
    )


@cache
def extended100() -> tuple[BenchmarkCase, ...]:
    # focused71's own case objects, then the extension
    return focused71() + tuple(
        _case(name, 3, 4, poly, provenance) for name, poly, provenance in _EXTENSION_ROWS
    )


def builtin_suites() -> dict[str, tuple[BenchmarkCase, ...]]:
    return {
        "broad24": broad24(),
        "focused71": focused71(),
        "extended100": extended100(),
    }


def get_suite(name: str) -> tuple[BenchmarkCase, ...]:
    suites = builtin_suites()
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(suites)}")
    return suites[name]


def fully_specified(cases) -> tuple[BenchmarkCase, ...]:
    """Cases whose exponents come verbatim from a reference table or family."""
    return tuple(c for c in cases if c.provenance != PROVENANCE_RECONSTRUCTED)


def load_manifest(path) -> tuple[BenchmarkCase, ...]:
    """Read a JSON manifest: [{name, p, dim, vars, poly, tags?, notes?}, ...].

    The last variable in ``vars`` is the elimination variable.  An explicit
    ``tags`` array overrides tag inference monomial by monomial.  name, poly
    and notes must be strings, p and dim integers, and vars and tags arrays
    of strings; any other type raises ManifestError.  So does a variable name
    that is not a distinct identifier, or a p that is not a prime of at most
    core.MAX_CHAR_P.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise ManifestError(f"manifest {path} must be a JSON array")

    cases = []
    for entry in payload:
        name = entry.get("name", "<unnamed>") if isinstance(entry, dict) else "<unnamed>"
        try:
            if not isinstance(entry, dict):
                raise ManifestError("entry is not an object")
            vars_list = _field(entry, "vars", list)
            dim = _field(entry, "dim", int)
            if dim != len(vars_list):
                raise ManifestError(f"dim {dim} does not match {len(vars_list)} variables")
            vars = VariableSet(tuple(vars_list), _field(entry, "p", int))
            ideal = parse_polynomial(_field(entry, "poly", str), vars)
            tags = _field(entry, "tags", list, default=None)
            if tags is not None:
                if len(tags) != len(ideal):
                    raise ManifestError(
                        f"{len(tags)} tags for {len(ideal)} monomials"
                    )
                ideal = IdealSpec(
                    tuple(
                        TaggedMonomial(tag=t, exponents=m.exponents)
                        for t, m in zip(tags, ideal)
                    )
                )
            cases.append(
                BenchmarkCase(
                    name=_field(entry, "name", str),
                    vars=vars,
                    ideal=ideal,
                    provenance=_field(entry, "notes", str, default="manifest"),
                )
            )
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ManifestError(f"case {name!r}: {exc}") from exc
    return tuple(cases)


_REQUIRED = object()


def _field(entry: dict, key: str, kind: type, default=_REQUIRED):
    # entry[key] checked against its JSON type: a bool is no int, and every
    # list in the grammar holds strings; an optional key absent or null gives
    # the default
    if entry.get(key) is None and default is not _REQUIRED:
        return default
    value = entry[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ManifestError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    if kind is list and not all(isinstance(v, str) for v in value):
        raise ManifestError(f"{key} must hold strings, got {value!r}")
    return value


def save_manifest(cases, path) -> None:
    """Write cases to the JSON manifest format; save then load is identity."""
    entries = []
    for case in cases:
        entry = {
            "name": case.name,
            "p": case.p,
            "dim": case.dim,
            "vars": list(case.vars.names),
            "poly": render_polynomial(case.ideal, case.vars, annotate_tags=False),
        }
        inferred = tuple(infer_tag(m.exponents, case.vars) for m in case.ideal)
        actual = tuple(m.tag for m in case.ideal)
        if actual != inferred:
            entry["tags"] = list(actual)
        entry["notes"] = case.provenance
        entries.append(entry)
    Path(path).write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")


#: Dimensions generate_broad_surrogates draws from.
SURROGATE_DIMS = (4, 5, 6)


def generate_broad_surrogates(seed: int, count: int) -> tuple[BenchmarkCase, ...]:
    """Seeded random suite with the broad-benchmark shape.

    Each case is monic z^p-leading with 2 to 5 sampled z-free terms of total
    degree at most 4p.  Deterministic in the seed; the cases are fresh samples
    in the broad-benchmark shape, not reproductions of any fixed reference set.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        dim = rng.choice(SURROGATE_DIMS)
        p = rng.choice((2, 3, 5, 7))
        vars = VariableSet.standard(dim, p)
        monomials = [
            TaggedMonomial(tag="pure-z", exponents=(0,) * (dim - 1) + (p,))
        ]
        for _ in range(rng.randint(2, 5)):
            support_size = rng.randint(1, min(3, dim - 1))
            chosen = rng.sample(vars.base_indices, support_size)
            budget = 4 * p
            exponents = [0] * dim
            for j in chosen:
                exponents[j] = rng.randint(1, max(1, budget // support_size))
            e = tuple(exponents)
            monomials.append(TaggedMonomial(tag=infer_tag(e, vars), exponents=e))
        cases.append(
            BenchmarkCase(
                name=f"broad_gen_s{seed}_{i:03d}",
                vars=vars,
                ideal=IdealSpec(tuple(monomials)),
                provenance=f"generated(seed={seed})",
            )
        )
    return tuple(cases)
