"""Domain types for the exponent-level singularity encoding.

A hypersurface shadow is a finite ordered list of tagged monomials: each
monomial is an exponent vector over a fixed ordered variable list whose last
variable z is the elimination variable, and carries a symbolic tag that is
propagated unchanged by every transform.  A state couples such an ideal
specification with a boundary function assigning one exceptional multiplicity
to every variable.  Coefficients are deliberately absent: the encoding is a
coarse Newton-combinatorial shadow, not a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

PURE_Z = "pure-z"
PURE_BASE = "pure-base"
MIXED = "mixed"
OBLIQUE = "oblique"


class ParseError(ValueError):
    """Raised when polynomial text cannot be parsed against a variable set."""


#: Largest characteristic a VariableSet accepts.  The primality check is trial
#: division, so the bound keeps it under about 46,400 divisions.
MAX_CHAR_P = 2**31


# a manifest builds one VariableSet per entry, mostly over one characteristic
@lru_cache(maxsize=16)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable list whose last variable z is the elimination variable.

    Names must be distinct Python identifiers.  The characteristic must be a
    prime of at most MAX_CHAR_P; divisibility tests in the feature extractor
    rely on it.
    """

    names: tuple[str, ...]
    char_p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))  # a memo key must hash
        if type(self.char_p) is not int:
            raise TypeError(f"characteristic must be an int, got {self.char_p!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"variable names must be distinct: {self.names}")
        if not self.names:
            raise ValueError("variable set must be nonempty")
        if not all(isinstance(n, str) and n.isidentifier() for n in self.names):
            raise ValueError(f"variable names must be identifiers: {self.names}")
        if self.char_p > MAX_CHAR_P:
            raise ValueError(f"characteristic {self.char_p} exceeds {MAX_CHAR_P}")
        if not _is_prime(self.char_p):
            raise ValueError(f"characteristic must be prime, got {self.char_p}")
        object.__setattr__(self, "_hash", _vars_hash(self.names, self.char_p))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, as TaggedMonomial does
        return (VariableSet, (self.names, self.char_p))

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def elim_index(self) -> int:
        return len(self.names) - 1

    @property
    def base_indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.names) - 1))

    @classmethod
    def standard(cls, dim: int, p: int) -> "VariableSet":
        """Benchmark variable convention: elimination variable z last.

        dim 3 -> (x, y, z); dim 4 -> (x, y, w, z); dim 5 -> (x, y, u, v, z);
        dim 6 -> (x, y, w, u, v, z).
        """
        base = {
            3: ("x", "y"),
            4: ("x", "y", "w"),
            5: ("x", "y", "u", "v"),
            6: ("x", "y", "w", "u", "v"),
        }
        if dim not in base:
            raise ValueError(f"no standard variable set for dimension {dim}")
        names = base[dim] + ("z",)
        return cls(names=names, char_p=p)


@dataclass(frozen=True)
class TaggedMonomial:
    """Nonzero exponent vector plus an immutable symbolic tag.

    A tag is a nonempty str without ':' or '+' and without leading or
    trailing whitespace, so that render_polynomial's "tag:term" annotation
    parses back to it.
    """

    tag: str
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.tag) is not str:
            raise TypeError(f"tag must be a str, got {self.tag!r}")
        if not self.tag or self.tag != self.tag.strip() or ":" in self.tag or "+" in self.tag:
            raise ValueError(
                f"tag must be nonempty, hold no ':' or '+' and not start or end with "
                f"whitespace: {self.tag!r}"
            )
        if type(self.exponents) is not tuple:  # a memo key must hash
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if any(not isinstance(e, int) or e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be natural numbers: {self.exponents}")
        if not any(self.exponents):
            raise ValueError(f"a monomial needs a variable: {self.exponents}")
        # every per-monomial memo lookup hashes the monomial: derive the hash once
        object.__setattr__(self, "_hash", _monomial_hash(self.tag, self.exponents))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: string hashes differ between processes, so
        # the cached hash must not travel in a pickle
        return (TaggedMonomial, (self.tag, self.exponents))

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)


@dataclass(frozen=True)
class IdealSpec:
    """Ordered list of tagged monomials.

    The order is semantically meaningful: it is the deterministic tie-break
    order used by center selection, so two specs with the same monomials in
    different orders are different values.
    """

    monomials: tuple[TaggedMonomial, ...]

    def __post_init__(self) -> None:
        if type(self.monomials) is not tuple:  # a memo key must hash
            object.__setattr__(self, "monomials", tuple(self.monomials))
        # every memo lookup hashes the spec, and every State the public
        # constructor builds on it checks the exponent lengths: derive both
        # once per spec (a chart's image takes its lengths from its source,
        # see _derived_ideal)
        object.__setattr__(self, "_hash", _ideal_hash(self.monomials))
        object.__setattr__(self, "_lengths", frozenset(len(m.exponents) for m in self.monomials))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: string hashes differ between processes, so
        # the cached hash must not travel in a pickle
        return (IdealSpec, (self.monomials,))

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __bool__(self) -> bool:
        return bool(self.monomials)


@dataclass(frozen=True)
class Boundary:
    """Exceptional multiplicity per variable, aligned with a VariableSet."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.multiplicities) is not tuple:  # a memo key must hash
            object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        # the rule TaggedMonomial applies to exponents: a float, even a whole
        # one, NaN or infinity would reach f25 and the ranks
        if any(not isinstance(m, int) or m < 0 for m in self.multiplicities):
            raise ValueError(
                f"boundary multiplicities must be nonnegative integers: {self.multiplicities}"
            )

    @classmethod
    def zero(cls, vars: VariableSet) -> "Boundary":
        return cls((0,) * vars.dim)

    @property
    def mass(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class State:
    """Full intrinsic simulator state: ideal spec + boundary over shared vars."""

    ideal: IdealSpec
    boundary: Boundary
    vars: VariableSet

    def __post_init__(self) -> None:
        dim = self.vars.dim
        if len(self.boundary.multiplicities) != dim:
            raise ValueError("boundary is not indexed over the variable set")
        if not self.ideal._lengths <= {dim}:
            raise ValueError("monomial is not indexed over the variable set")

    @classmethod
    def initial(cls, ideal: IdealSpec, vars: VariableSet) -> "State":
        """State with the identically-zero starting boundary."""
        return cls(ideal=ideal, boundary=Boundary.zero(vars), vars=vars)


# Each type's cached hash, as its public and its _derived_* constructor set it
def _vars_hash(names: tuple[str, ...], char_p: int) -> int:
    return hash((names, char_p))


def _monomial_hash(tag: str, exponents: tuple[int, ...]) -> int:
    # an int hashes to its value mod 2**61 - 1, so an exponent that doubles at
    # every step (a V(z) chart takes e_z - exc to twice that) repeats its hash
    # every 61 steps; the bit length of the largest exponent tells those apart
    return hash((tag, exponents, max(exponents).bit_length()))


def _ideal_hash(monomials: tuple[TaggedMonomial, ...]) -> int:
    return hash((monomials,))


# The simulator builds every later state of a run from one that passed the
# checks above, by rules that keep them: these set the same fields, and the
# same cached hash, without running them.  Each call site says why the checks
# hold there; values users build go through the public constructors.  Fields
# are set as __init__ sets them: writing to an instance's __dict__ would turn
# its attribute storage into a dict, which every later read pays for.
_new, _set = object.__new__, object.__setattr__


def _derived_monomial(tag: str, exponents: tuple[int, ...]) -> TaggedMonomial:
    """TaggedMonomial(tag, exponents) for a tuple of ints >= 0, not all 0."""
    m = _new(TaggedMonomial)
    _set(m, "tag", tag)
    _set(m, "exponents", exponents)
    _set(m, "_hash", _monomial_hash(tag, exponents))
    return m


def _derived_ideal(monomials: tuple[TaggedMonomial, ...], lengths: frozenset) -> IdealSpec:
    """IdealSpec(monomials) for a tuple whose exponent lengths are lengths."""
    ideal = _new(IdealSpec)
    _set(ideal, "monomials", monomials)
    _set(ideal, "_hash", _ideal_hash(monomials))
    _set(ideal, "_lengths", lengths)
    return ideal


def _derived_boundary(multiplicities: tuple[int, ...]) -> Boundary:
    """Boundary(multiplicities) for a tuple of ints >= 0."""
    boundary = _new(Boundary)
    _set(boundary, "multiplicities", multiplicities)
    return boundary


def _derived_state(ideal: IdealSpec, boundary: Boundary, vars: VariableSet) -> State:
    """State(ideal, boundary, vars) for a boundary of vars.dim multiplicities
    and an ideal whose exponent vectors all have length vars.dim."""
    state = _new(State)
    _set(state, "ideal", ideal)
    _set(state, "boundary", boundary)
    _set(state, "vars", vars)
    return state


def infer_tag(exponents: tuple[int, ...], vars: VariableSet) -> str:
    """Canonical tag from the support pattern alone.

    Support on z only -> pure-z; support equal to a single base variable ->
    pure-base; anything else -> mixed.  Total degree must be positive.
    """
    support = [i for i, e in enumerate(exponents) if e > 0]
    if not support:
        raise ValueError("cannot tag the zero exponent vector")
    if support == [vars.elim_index]:
        return PURE_Z
    if len(support) == 1:
        return PURE_BASE
    return MIXED


#: The digits the grammar reads; str.isdigit() and int() also take others
#: (superscripts, Arabic-Indic digits), which the parser refuses.
_DIGITS = "0123456789"


def _parse_exponent(term: str, pos: int) -> tuple[int, int]:
    # pos sits just after '^'; accepts 12 or {12}, rejects anything non-integer
    braced = pos < len(term) and term[pos] == "{"
    if braced:
        pos += 1
    start = pos
    if pos < len(term) and term[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(term) and term[pos] in _DIGITS:
        pos += 1
    if pos == digits:
        raise ParseError(f"malformed exponent in {term!r}: expected digits 0-9")
    # int() also refuses more digits than its limit
    try:
        value = int(term[start:pos])
    except ValueError as exc:
        raise ParseError(f"malformed exponent in {term!r}: {exc}") from None
    if braced:
        while pos < len(term) and term[pos].isspace():
            pos += 1
        if pos >= len(term) or term[pos] != "}":
            raise ParseError(f"unterminated exponent brace in {term!r}")
        pos += 1
    if value <= 0:
        raise ParseError(f"exponent must be a positive integer, got {value} in {term!r}")
    return value, pos


def _parse_term(term: str, vars: VariableSet) -> TaggedMonomial:
    term = term.strip()
    if not term:
        raise ParseError("empty monomial term")
    explicit_tag = None
    if ":" in term:
        tag_text, term = term.split(":", 1)
        explicit_tag = tag_text.strip()
        if not explicit_tag:
            raise ParseError("empty tag annotation")
        term = term.strip()

    # longest-first so multi-character names win over their prefixes
    names = sorted(vars.names, key=len, reverse=True)
    exponents = [0] * vars.dim
    pos = 0
    at_start = True
    while pos < len(term):
        ch = term[pos]
        if ch.isspace() or ch == "*":
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < len(term) and term[pos] in _DIGITS:
                pos += 1
            if not at_start or term[start:pos] != "1":
                raise ParseError(f"coefficients other than 1 are not allowed: {term!r}")
            at_start = False
            continue
        matched = None
        for name in names:
            if term.startswith(name, pos):
                matched = name
                break
        if matched is None:
            raise ParseError(f"unknown variable at {term[pos:]!r} in {term!r}")
        pos += len(matched)
        exponent = 1
        if pos < len(term) and term[pos] == "^":
            exponent, pos = _parse_exponent(term, pos + 1)
        exponents[vars.names.index(matched)] += exponent
        at_start = False

    e = tuple(exponents)
    if sum(e) == 0:
        raise ParseError(f"monomial without variables: {term!r}")
    tag = explicit_tag if explicit_tag is not None else infer_tag(e, vars)
    return TaggedMonomial(tag=tag, exponents=e)


def parse_polynomial(text: str, vars: VariableSet) -> IdealSpec:
    """Parse a '+'-separated sum of monomials, preserving textual order.

    Each monomial is a '*'- or juxtaposition-separated product of var^exp
    factors; exponents may be written bare (x^9) or braced (x^{9}).  A term
    may be prefixed with "tag:" to override the inferred tag.  Coefficients
    are absent or equal to 1 and are discarded.  Exponents and the unit
    coefficient are written in the ASCII digits 0-9 only.
    """
    if not text or not text.strip():
        raise ParseError("empty polynomial")
    terms = text.split("+")
    return IdealSpec(tuple(_parse_term(t, vars) for t in terms))


def _render_term(monomial: TaggedMonomial, vars: VariableSet, annotate: bool) -> str:
    factors = []
    for i, e in enumerate(monomial.exponents):
        if e == 1:
            factors.append(vars.names[i])
        elif e > 1:
            factors.append(f"{vars.names[i]}^{e}")
    body = "*".join(factors)
    if annotate and monomial.tag != infer_tag(monomial.exponents, vars):
        return f"{monomial.tag}:{body}"
    return body


def render_polynomial(ideal: IdealSpec, vars: VariableSet, annotate_tags: bool = True) -> str:
    """Inverse of parse_polynomial: parse(render(I)) == I.

    Tags that differ from the inferred convention are emitted as "tag:term"
    annotations unless annotate_tags is False.
    """
    if not ideal:
        raise ValueError("cannot render an empty ideal")
    return " + ".join(_render_term(m, vars, annotate_tags) for m in ideal)
