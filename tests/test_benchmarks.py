from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import blowup_lab
from blowup_lab.benchmarks import (
    PROVENANCE_RECONSTRUCTED,
    ManifestError,
    broad24,
    builtin_suites,
    extended100,
    focused71,
    fully_specified,
    generate_broad_surrogates,
    get_suite,
    load_manifest,
    save_manifest,
)
from blowup_lab.core import State, parse_polynomial, render_polynomial
from blowup_lab.features import extract_features


def test_suite_cardinalities(suite_broad24, suite_focused71, suite_extended100):
    assert len(suite_broad24) == 24
    assert len(suite_focused71) == 71
    assert len(suite_extended100) == 100


def test_builtin_suites_keys():
    suites = builtin_suites()
    assert set(suites) == {"broad24", "focused71", "extended100"}
    with pytest.raises(ValueError):
        get_suite("focused72")


def test_focused_suites_use_standard_dim4_vars(suite_focused71, suite_extended100):
    for case in suite_focused71 + suite_extended100:
        assert case.p == 3
        assert case.dim == 4
        assert case.vars.names == ("x", "y", "w", "z")


def test_extended_extends_focused(suite_focused71, suite_extended100):
    assert suite_extended100[:71] == suite_focused71
    assert len(fully_specified(suite_extended100)) == 95


def test_builtin_suites_are_built_once():
    # every call hands back the same case objects, and extended100 starts
    # with focused71's own, so memos keyed by a case's ideal share entries
    for suite in (broad24, focused71, extended100):
        assert suite() is suite()
    assert builtin_suites()["broad24"] is get_suite("broad24") is broad24()
    assert all(a is b for a, b in zip(extended100()[:71], focused71(), strict=True))


def test_initial_state_is_one_object_per_case(tmp_path, suite_broad24, suite_extended100):
    save_manifest(suite_broad24[:3], tmp_path / "m.json")
    for case in (
        suite_broad24
        + suite_extended100
        + generate_broad_surrogates(4, 20)
        + load_manifest(tmp_path / "m.json")
    ):
        first = case.initial_state()
        fresh = State.initial(case.ideal, case.vars)
        assert first == fresh and hash(first) == hash(fresh)
        assert first is not fresh and case.initial_state() is first
        assert first.boundary.mass == 0


_UNPICKLE_AND_START = """
import pickle, sys
from blowup_lab.core import State
from blowup_lab.features import extract_features
case = pickle.loads(sys.stdin.buffer.read())
start = case.initial_state()
fresh = State.initial(case.ideal, case.vars)
print(start is case.initial_state(), start == fresh, {fresh: 1}.get(start))
print(" ".join(v.hex() for v in extract_features(start)))
"""


def test_pickled_case_keeps_a_working_initial_state(suite_focused71):
    # the built state travels with the case; the child hashes strings under
    # another seed, so a hash that travelled with it would not find its key
    case = suite_focused71[5]
    start = case.initial_state()
    data = pickle.dumps(case)
    loaded = pickle.loads(data)
    assert loaded == case and loaded.initial_state() == start
    assert loaded.initial_state() is loaded.initial_state()

    src = str(Path(blowup_lab.__file__).resolve().parents[1])
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_AND_START],
        input=data,
        env=env,
        capture_output=True,
        timeout=60,
        check=True,
    )
    flags, fv = child.stdout.decode().splitlines()
    assert flags.split() == ["True", "True", "1"]
    assert fv.split() == [v.hex() for v in extract_features(start)]


def test_specific_rows_present(suite_broad24, suite_focused71, suite_extended100):
    by_name = {c.name: c for c in suite_focused71}
    mix6e = by_name["p3_A4_cross_mix_6e"]
    assert mix6e.poly_text() == "z^3 + x^12 + y^9 + x^8*y*w + w^6"

    broad = {c.name: c for c in suite_broad24}
    control = broad["monomial_control_A3"]
    assert control.p == 5 and control.dim == 3
    assert control.poly_text() == "x^7*y^5"

    ext = {c.name: c for c in suite_extended100}
    stall = ext["p3_A4_counter_example_1"]
    # factors render in variable order; the exponent vectors are what count
    assert stall.poly_text() == "z^3 + x^12 + y^6 + y^4*w^9 + x^9*y^8*w^10"
    assert stall.ideal == parse_polynomial(
        "z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10", stall.vars
    )
    assert stall.provenance != PROVENANCE_RECONSTRUCTED
    assert ext["p3_A4_deep_variable_w"].provenance == PROVENANCE_RECONSTRUCTED


def test_reconstructed_cases_count(suite_extended100):
    reconstructed = [c for c in suite_extended100 if c.provenance == PROVENANCE_RECONSTRUCTED]
    assert len(reconstructed) == 5


def test_leading_terms_involve_z_except_monomial_rows(suite_broad24, suite_extended100):
    monomial_rows = {"monomial_control_A3", "p3_A4_monomial_control_1", "p3_A4_monomial_control_2"}
    for case in suite_broad24 + suite_extended100:
        lead = case.ideal.monomials[0]
        z = case.vars.elim_index
        if case.name in monomial_rows:
            assert lead.exponents[z] == 0
        else:
            assert lead.exponents[z] > 0


def test_dim4_leads_are_monic_pure_powers(suite_extended100):
    # every focused/extended case leads with the monic pure power (z^3 or z^9
    # in the order-nine holdouts) except the two monomial controls
    for case in suite_extended100:
        if case.name.startswith("p3_A4_monomial_control"):
            continue
        lead = case.ideal.monomials[0]
        assert lead.tag == "pure-z"
        assert lead.exponents[3] in (3, 9)
        assert lead.exponents[:3] == (0, 0, 0)


def test_tieperm_groups_share_multisets(suite_focused71):
    by_name = {c.name: c for c in suite_focused71}
    for degree in (6, 9, 12):
        group = [by_name[f"p3_A4_tieperm_{degree}_{i}"] for i in range(1, 7)]
        multisets = [Counter(m.exponents for m in case.ideal) for case in group]
        orders = {tuple(m.exponents for m in case.ideal) for case in group}
        assert all(ms == multisets[0] for ms in multisets)
        assert len(orders) == 6  # genuinely different orderings


def test_all_cases_parse_round_trip(suite_broad24, suite_extended100):
    for case in suite_broad24 + suite_extended100:
        text = render_polynomial(case.ideal, case.vars, annotate_tags=False)
        assert parse_polynomial(text, case.vars) == case.ideal


def test_manifest_round_trip(tmp_path, suite_focused71):
    path = tmp_path / "focused.json"
    save_manifest(suite_focused71, path)
    loaded = load_manifest(path)
    assert loaded == suite_focused71


def test_manifest_round_trip_broad(tmp_path, suite_broad24):
    path = tmp_path / "broad.json"
    save_manifest(suite_broad24, path)
    assert load_manifest(path) == suite_broad24


def test_manifest_rejects_bad_exponent(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '[{"name": "bad_case", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"],'
        ' "poly": "z^3 + x^-1"}]',
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="bad_case"):
        load_manifest(path)


def test_manifest_rejects_unknown_variable(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '[{"name": "mystery", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"],'
        ' "poly": "z^3 + q^2"}]',
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="mystery"):
        load_manifest(path)


def test_manifest_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[{", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)


_GOOD_ENTRY = {"name": "typed", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"], "poly": "z^3 + x^6"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("vars", "xywz"),
        ("tags", "ab"),
        ("tags", [1, None]),
        ("name", 7),
        ("poly", 5),
        ("p", 3.0),
        ("dim", 4.0),
        ("notes", 5),
    ],
    ids=[
        "vars-string",
        "tags-string",
        "tags-non-strings",
        "name-int",
        "poly-int",
        "p-float",
        "dim-float",
        "notes-int",
    ],
)
def test_manifest_rejects_field_of_wrong_type(tmp_path, field, value):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps([dict(_GOOD_ENTRY, **{field: value})]), encoding="utf-8")
    with pytest.raises(ManifestError, match=f"{field} must"):
        load_manifest(path)


def test_manifest_rejects_empty_variable_name(tmp_path):
    # an empty name matched at every position of a term and stalled the parser
    path = tmp_path / "names.json"
    entry = dict(_GOOD_ENTRY, dim=3, vars=["x", "", "z"], poly="z^3 + q")
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(ManifestError, match="identifiers"):
        load_manifest(path)


def test_manifest_rejects_characteristic_above_bound(tmp_path):
    # trial division on a p near 2^61 would take minutes
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps([dict(_GOOD_ENTRY, p=2**61 - 1)]), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(ManifestError, match="exceeds"):
        load_manifest(path)
    assert time.perf_counter() - start < 1.0


def test_manifest_proves_a_shared_characteristic_once(tmp_path):
    # trial division of 2^31 - 1 takes about 4 ms; repeated for each of 1,000
    # entries it took about 4 s
    path = tmp_path / "large_p.json"
    entries = [dict(_GOOD_ENTRY, name=f"c{i}", p=2**31 - 1) for i in range(1000)]
    path.write_text(json.dumps(entries), encoding="utf-8")
    start = time.perf_counter()
    cases = load_manifest(path)
    assert time.perf_counter() - start < 1.0
    assert len(cases) == 1000 and cases[-1].p == 2**31 - 1


def test_manifest_null_optional_fields_mean_absent(tmp_path):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps([dict(_GOOD_ENTRY, tags=None, notes=None)]), encoding="utf-8")
    (case,) = load_manifest(path)
    assert [m.tag for m in case.ideal] == ["pure-z", "pure-base"]
    assert (case.p, case.dim, case.provenance) == (3, 4, "manifest")


def test_manifest_explicit_tags_override(tmp_path):
    path = tmp_path / "tagged.json"
    path.write_text(
        '[{"name": "tagged", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"],'
        ' "poly": "z^3 + x^2*y", "tags": ["pure-z", "oblique"]}]',
        encoding="utf-8",
    )
    (case,) = load_manifest(path)
    assert [m.tag for m in case.ideal] == ["pure-z", "oblique"]
    # and the override survives a save/load cycle
    out = tmp_path / "tagged2.json"
    save_manifest([case], out)
    assert load_manifest(out) == (case,)


def test_generator_deterministic():
    a = generate_broad_surrogates(1, 60)
    b = generate_broad_surrogates(1, 60)
    assert a == b
    assert len(a) == 60
    assert generate_broad_surrogates(2, 60) != a


def test_generator_count_zero():
    assert generate_broad_surrogates(1, 0) == ()


def test_generator_cases_are_valid():
    for case in generate_broad_surrogates(7, 40):
        assert case.dim in (4, 5, 6)
        lead = case.ideal.monomials[0]
        assert lead.tag == "pure-z"
        assert lead.exponents[case.vars.elim_index] == case.p
        assert len(case.ideal) >= 3
        for m in case.ideal.monomials[1:]:
            assert m.exponents[case.vars.elim_index] == 0
            assert 1 <= m.total_degree <= 4 * case.p
        text = render_polynomial(case.ideal, case.vars, annotate_tags=False)
        assert parse_polynomial(text, case.vars) == case.ideal
