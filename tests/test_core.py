from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowup_lab
from blowup_lab.core import (
    MAX_CHAR_P,
    MIXED,
    PURE_BASE,
    PURE_Z,
    Boundary,
    IdealSpec,
    ParseError,
    State,
    TaggedMonomial,
    VariableSet,
    infer_tag,
    parse_polynomial,
    render_polynomial,
)
from blowup_lab.simulator import run_trajectory


def test_variable_set_standard_dim4(vars4):
    assert vars4.names == ("x", "y", "w", "z")
    assert vars4.elim_index == 3
    assert vars4.base_indices == (0, 1, 2)
    assert vars4.char_p == 3


def test_variable_set_rejects_nonprime():
    with pytest.raises(ValueError):
        VariableSet(("x", "z"), 4)
    with pytest.raises(ValueError):
        VariableSet(("x", "z"), 1)


def test_variable_set_rejects_duplicates_and_bad_index():
    with pytest.raises(ValueError):
        VariableSet(("x", "x"), 3)
    # z is always the last variable: no index can be passed or set
    assert [f.name for f in dataclasses.fields(VariableSet)] == ["names", "char_p"]
    with pytest.raises(TypeError):
        VariableSet(("x", "z"), 2, 3)
    with pytest.raises(AttributeError):
        VariableSet(("x", "z"), 3).elim_index = 0


@pytest.mark.parametrize("char_p", [9.5, 3.0, True])
def test_variable_set_refuses_a_characteristic_that_is_not_an_int(char_p):
    # 9.5 passes trial division and 3.0 is prime by value; a bool is an int
    # subclass, refused as HarnessConfig refuses it for its cap
    with pytest.raises(TypeError, match="must be an int"):
        VariableSet(("x", "z"), char_p)


def test_variable_set_names_are_a_tuple():
    # a list of names would make every trajectory's memo key unhashable
    vars = VariableSet(["x", "y", "w", "z"], 3)
    assert vars.names == ("x", "y", "w", "z") and vars == VariableSet.standard(4, 3)
    run = run_trajectory(State.initial(parse_polynomial("z^3 + x^4*y^2", vars), vars), 10)
    assert run.centers


@pytest.mark.parametrize("name", ["", " ", "x^2", "2x", "x y", "x*y", "w+"])
def test_variable_set_rejects_non_identifier_names(name):
    with pytest.raises(ValueError, match="identifiers"):
        VariableSet(("x", name, "z"), 3)


def test_variable_set_bounds_the_characteristic():
    assert VariableSet(("x", "z"), 2**31 - 1).char_p == 2**31 - 1
    assert MAX_CHAR_P == 2**31
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        VariableSet(("x", "z"), 2**61 - 1)
    assert time.perf_counter() - start < 0.1


def test_parse_focused_row(vars4):
    ideal = parse_polynomial("z^3 + x^6 + w^6", vars4)
    assert [(m.tag, m.exponents) for m in ideal] == [
        (PURE_Z, (0, 0, 0, 3)),
        (PURE_BASE, (6, 0, 0, 0)),
        (PURE_BASE, (0, 0, 6, 0)),
    ]


def test_parse_juxtaposed_and_braced(vars4):
    ideal = parse_polynomial("x^{7}y^{5}w^{4}", vars4)
    assert len(ideal) == 1
    assert ideal.monomials[0] == TaggedMonomial(MIXED, (7, 5, 4, 0))


def test_parse_matches_star_separated(vars4):
    assert parse_polynomial("x^7*y^5*w^4", vars4) == parse_polynomial("x^{7}y^{5}w^{4}", vars4)


def test_parse_unknown_variable(vars4):
    with pytest.raises(ParseError):
        parse_polynomial("z^3 + q^2", vars4)


def test_parse_bad_exponents(vars4):
    with pytest.raises(ParseError):
        parse_polynomial("z^3 + x^-1", vars4)
    with pytest.raises(ParseError):
        parse_polynomial("z^3 + x^0", vars4)
    with pytest.raises(ParseError):
        parse_polynomial("z^3 + x^1.5", vars4)


@pytest.mark.parametrize(
    "text, term",
    [
        ("z^3 + x^\u00b2", "x^\u00b2"),
        ("x^{\u00b2}", "x^{\u00b2}"),
        pytest.param(
            "z^3 + x^" + "7" * 5000,
            "x^" + "7" * 5000,
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
            ),
        ),
    ],
    ids=["superscript", "braced-superscript", "5000-digits"],
)
def test_parse_exponent_that_int_refuses(vars4, text, term):
    # str.isdigit() passes superscript digits, which the grammar refuses, as
    # int() refuses more digits than sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, vars4)
    assert repr(term) in str(info.value)


@pytest.mark.parametrize(
    "text, term",
    [
        ("x^\u0666", "x^\u0666"),
        ("z^\u0663 + x^{\u0666}", "z^\u0663"),
        ("x^\u00b2", "x^\u00b2"),
        ("\u0661*z^3", "\u0661*z^3"),
    ],
    ids=["arabic-indic-exponent", "arabic-indic-sum", "superscript", "arabic-indic-coefficient"],
)
def test_parse_reads_ascii_digits_only(vars4, text, term):
    # int() reads Arabic-Indic digits and str.isdigit() passes superscripts;
    # exponents and the unit coefficient take 0-9 alone
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, vars4)
    assert repr(term) in str(info.value)


#: Pieces of the grammar: two names of which one prefixes the other, the
#: operators, spaces and tabs, a tag word, and ASCII, superscript and
#: Arabic-Indic digits (str.isdigit() passes all three, int() the first and
#: the last, and the grammar the first only).
_DIGITS = "0123456789" + "\u00b9\u00b2\u00b3" + "\u0660\u0661\u0663\u0669"
_PIECES = ["x", "xy", "z", "^", "{", "}", "*", "+", ":", " ", "\t", "oblique"] + list(_DIGITS)


@st.composite
def _polynomial_texts(draw):
    # well-formed sums of tagged products, with up to three pieces inserted
    # anywhere, so that most texts come near the grammar's edges
    pieces = []
    for term in range(draw(st.integers(1, 3))):
        if term:
            pieces.append(draw(st.sampled_from(["+", " + ", "\t+"])))
        if draw(st.booleans()):
            pieces.append(draw(st.sampled_from(["oblique:", "oblique : "])))
        for factor in range(draw(st.integers(1, 3))):
            if factor:
                pieces.append(draw(st.sampled_from(["", "*", " ", "\t", " * "])))
            pieces.append(draw(st.sampled_from(["x", "xy", "z"])))
            if draw(st.booleans()):
                digits = draw(st.text(st.sampled_from(_DIGITS), min_size=1, max_size=3))
                pieces.append("^" + ("{" + digits + "}" if draw(st.booleans()) else digits))
    for _ in range(draw(st.integers(0, 3))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_PIECES)))
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_polynomial_texts())
def test_parse_accepts_or_raises_parse_error(text):
    vars3 = VariableSet(("x", "xy", "z"), 3)
    try:
        ideal = parse_polynomial(text, vars3)
    except ParseError:
        return
    assert isinstance(ideal, IdealSpec)
    # a tag is free text ("¹oblique:x" is a tag, not a number); every digit
    # after it is an exponent or the unit coefficient, and those are ASCII
    bodies = [term.split(":", 1)[-1] for term in text.split("+")]
    assert all(ch in "0123456789" for body in bodies for ch in body if ch.isdigit())
    assert parse_polynomial(render_polynomial(ideal, vars3), vars3) == ideal


def test_parse_empty_input(vars4):
    with pytest.raises(ParseError):
        parse_polynomial("", vars4)
    with pytest.raises(ParseError):
        parse_polynomial("   ", vars4)


def test_parse_unit_coefficient_allowed(vars4):
    ideal = parse_polynomial("1*z^3 + x^2", vars4)
    assert ideal.monomials[0].exponents == (0, 0, 0, 3)
    with pytest.raises(ParseError):
        parse_polynomial("2*z^3", vars4)


def test_parse_explicit_tag_annotation(vars4):
    ideal = parse_polynomial("z^3 + oblique:x^2*y", vars4)
    assert ideal.monomials[1].tag == "oblique"
    assert ideal.monomials[1].exponents == (2, 1, 0, 0)


def test_parse_preserves_textual_order(vars4):
    a = parse_polynomial("z^3 + x^6 + w^6 + y^6", vars4)
    b = parse_polynomial("z^3 + y^6 + x^6 + w^6", vars4)
    assert a != b
    assert sorted(m.exponents for m in a) == sorted(m.exponents for m in b)


def test_infer_tag_examples(vars4):
    assert infer_tag((0, 0, 0, 3), vars4) == PURE_Z
    assert infer_tag((9, 0, 0, 0), vars4) == PURE_BASE
    # both multi-variable base monomials must come out mixed
    assert infer_tag((0, 4, 9, 0), vars4) == MIXED
    # z together with one base variable is mixed, not pure
    assert infer_tag((1, 0, 0, 2), vars4) == MIXED


def test_infer_tag_zero_vector(vars4):
    with pytest.raises(ValueError):
        infer_tag((0, 0, 0, 0), vars4)


def test_monomial_rejects_the_zero_vector():
    # no parser, chart or generator path builds one, and a state holding one
    # fails feature extraction: f24 reads the positive exponents of the
    # monomials of least degree
    for exps in ((0, 0, 0, 0), (0,), ()):
        with pytest.raises(ValueError, match="needs a variable"):
            TaggedMonomial(MIXED, exps)
    assert TaggedMonomial(MIXED, (0, 0, 0, 1)).total_degree == 1


def test_monomial_and_ideal_store_their_sequences_as_tuples(vars4):
    # a list made both unhashable, so building either raised a TypeError
    m = TaggedMonomial(MIXED, [1, 2, 0, 3])
    assert type(m.exponents) is tuple
    assert m == TaggedMonomial(MIXED, (1, 2, 0, 3))
    assert hash(m) == hash(TaggedMonomial(MIXED, (1, 2, 0, 3)))
    ideal = IdealSpec([TaggedMonomial(PURE_Z, [0, 0, 0, 3]), m])
    assert type(ideal.monomials) is tuple
    assert ideal == parse_polynomial("z^3 + x*y^2*z^3", vars4)
    assert hash(ideal) == hash(parse_polynomial("z^3 + x*y^2*z^3", vars4))
    run = run_trajectory(State.initial(ideal, vars4))
    assert run is run_trajectory(State.initial(parse_polynomial("z^3 + x*y^2*z^3", vars4), vars4))


@pytest.mark.parametrize("bad", ["1", 1.0, None, [1]], ids=["str", "float", "none", "list"])
def test_monomial_refuses_an_exponent_that_is_not_an_int(bad):
    # the type is checked before the sign, so "1" < 0 cannot raise a TypeError
    with pytest.raises(ValueError, match="natural numbers"):
        TaggedMonomial(MIXED, (0, bad, 0, 1))


def test_render_round_trip_simple(vars4):
    text = "z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10"
    ideal = parse_polynomial(text, vars4)
    assert parse_polynomial(render_polynomial(ideal, vars4), vars4) == ideal


def test_render_annotates_overridden_tags(vars4):
    ideal = parse_polynomial("z^3 + oblique:x^2*y", vars4)
    text = render_polynomial(ideal, vars4)
    assert "oblique:" in text
    assert parse_polynomial(text, vars4) == ideal


@st.composite
def ideals(draw):
    vars4 = VariableSet.standard(4, 3)
    n = draw(st.integers(min_value=1, max_value=5))
    monomials = []
    for _ in range(n):
        exps = tuple(draw(st.integers(min_value=0, max_value=30)) for _ in range(4))
        if sum(exps) == 0:
            exps = (1, 0, 0, 0)
        tag = draw(st.sampled_from([None, PURE_Z, PURE_BASE, MIXED, "oblique", "monomial-like"]))
        if tag is None:
            tag = infer_tag(exps, vars4)
        monomials.append(TaggedMonomial(tag, exps))
    return IdealSpec(tuple(monomials))


@settings(max_examples=200, deadline=None)
@given(ideals())
def test_parse_render_round_trip_property(ideal):
    vars4 = VariableSet.standard(4, 3)
    assert parse_polynomial(render_polynomial(ideal, vars4), vars4) == ideal


def test_state_validates_indexing(vars4):
    ideal = parse_polynomial("z^3", vars4)
    with pytest.raises(ValueError):
        State(ideal, Boundary((0, 0, 0)), vars4)
    short = IdealSpec(ideal.monomials + (TaggedMonomial(PURE_BASE, (2, 0, 0)),))
    with pytest.raises(ValueError):
        State(short, Boundary((0, 0, 0, 0)), vars4)
    with pytest.raises(ValueError):
        Boundary((-1, 0, 0, 0))


def test_boundary_checks_its_multiplicities():
    # the rule TaggedMonomial applies to exponents: an int >= 0, bools included;
    # a NaN mass once scored as solved, and an infinite one as a crash
    nan, inf = float("nan"), float("inf")
    bad_ones = ((-1, 0, 0, 0), (0, 0, 0, -5), [2, -1], (nan, 0, 0, 0), (0, 0, 0, inf))
    for bad in bad_ones + ((0.5, 0, 0, 0), (0, 0, 2.0, 0)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            Boundary(bad)
    assert Boundary((True, 0, 0, 0)) == Boundary((1, 0, 0, 0))
    listed = Boundary([0, 3, 0, 1])
    assert type(listed.multiplicities) is tuple
    assert listed == Boundary((0, 3, 0, 1)) and hash(listed) == hash(Boundary((0, 3, 0, 1)))
    assert Boundary(()).multiplicities == () and Boundary([]).mass == 0


def test_ideal_spec_hash_follows_value(vars4):
    ideal = parse_polynomial("z^3 + x^6 + w^2*y^4", vars4)
    same = parse_polynomial("z^3 + x^6 + w^2*y^4", vars4)
    assert ideal == same and ideal is not same
    assert hash(ideal) == hash(same)
    reordered = IdealSpec(ideal.monomials[::-1])
    assert reordered != ideal


_UNPICKLE_AND_HASH = """
import pickle, sys
from blowup_lab.core import IdealSpec, TaggedMonomial
spec = pickle.loads(sys.stdin.buffer.read())
fresh = IdealSpec(tuple(TaggedMonomial(m.tag, m.exponents) for m in spec.monomials))
print(hash("pure-z"), hash(spec) == hash(fresh), {fresh: 1}.get(spec))
"""


def test_ideal_spec_hash_is_rederived_after_pickling(vars4):
    ideal = parse_polynomial("z^3 + x^6 + oblique:w^2*y^4", vars4)
    loaded = pickle.loads(pickle.dumps(ideal))
    assert loaded == ideal
    assert hash(loaded) == hash(parse_polynomial("z^3 + x^6 + oblique:w^2*y^4", vars4))

    # string hashes depend on PYTHONHASHSEED: a hash that travelled inside the
    # pickle would not match the child's own hash of an equal spec
    src = str(Path(blowup_lab.__file__).resolve().parents[1])
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_AND_HASH],
        input=pickle.dumps(ideal),
        env=env,
        capture_output=True,
        timeout=60,
        check=True,
    )
    child_tag_hash, same_hash, lookup = child.stdout.decode().split()
    assert int(child_tag_hash) != hash("pure-z")  # the child hashes strings differently
    assert same_hash == "True"
    assert lookup == "1"


def test_monomial_hash_tells_doubling_exponents_apart():
    # an int hashes to its value mod 2**61 - 1, so 2**k + 1 repeats its hash
    # every 61 steps of k; a memo of such monomials would compare every key
    # that shares a hash on each lookup
    monomials = [TaggedMonomial(PURE_Z, (1, 2**k + 1)) for k in range(1000)]
    assert len({hash((m.tag, m.exponents)) for m in monomials}) == 61
    assert len({hash(m) for m in monomials}) == 1000
    assert monomials[500] == TaggedMonomial(PURE_Z, (1, 2**500 + 1))
    assert hash(monomials[500]) == hash(TaggedMonomial(PURE_Z, (1, 2**500 + 1)))


def test_state_checks_monomial_lengths(vars4):
    boundary = Boundary((0, 0, 0, 0))
    for exps in ((2, 0, 0), (2, 0, 0, 0, 1)):
        wrong = IdealSpec((TaggedMonomial(PURE_Z, (0, 0, 0, 3)), TaggedMonomial(PURE_BASE, exps)))
        with pytest.raises(ValueError, match="monomial is not indexed"):
            State(wrong, boundary, vars4)
    empty = State(IdealSpec(()), boundary, vars4)
    assert not empty.ideal


def test_initial_state_has_zero_boundary(vars4):
    state = State.initial(parse_polynomial("z^3 + x^6", vars4), vars4)
    assert state.boundary == Boundary((0, 0, 0, 0))
    assert state.boundary.mass == 0
