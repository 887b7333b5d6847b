"""Exponent-level blow-up simulator, feature extraction, ranking functions and
the bounded-delay descent harness, together with the embedded benchmark suites
and a seeded weight search over a parametric ranker template."""

from blowup_lab.core import (
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
from blowup_lab.simulator import (
    Center,
    Trajectory,
    exceptional_exponent,
    is_monomial_phase,
    run_trajectory,
    select_center,
    step,
)
from blowup_lab.features import (
    FEATURE_NAMES,
    extract_features,
    hilbert_samuel_base,
)
from blowup_lab.rankers import (
    Ranker,
    RankerTemplate,
    discretize,
    get_ranker,
    lex_compare,
    rank_clean_lex,
    rank_r100_raw,
    rank_two_component,
)
from blowup_lab.harness import (
    HarnessConfig,
    SuiteReport,
    ViolationReport,
    check_determinism,
    score_benchmark,
    verify_counterexamples,
)
from blowup_lab.benchmarks import (
    BenchmarkCase,
    ManifestError,
    builtin_suites,
    generate_broad_surrogates,
    get_suite,
    load_manifest,
    save_manifest,
)
from blowup_lab.search import hill_climb

__all__ = [
    "Boundary",
    "IdealSpec",
    "ParseError",
    "State",
    "TaggedMonomial",
    "VariableSet",
    "infer_tag",
    "parse_polynomial",
    "render_polynomial",
    "Center",
    "Trajectory",
    "exceptional_exponent",
    "is_monomial_phase",
    "run_trajectory",
    "select_center",
    "step",
    "FEATURE_NAMES",
    "extract_features",
    "hilbert_samuel_base",
    "Ranker",
    "RankerTemplate",
    "discretize",
    "get_ranker",
    "lex_compare",
    "rank_clean_lex",
    "rank_r100_raw",
    "rank_two_component",
    "HarnessConfig",
    "SuiteReport",
    "ViolationReport",
    "check_determinism",
    "score_benchmark",
    "verify_counterexamples",
    "BenchmarkCase",
    "ManifestError",
    "builtin_suites",
    "generate_broad_surrogates",
    "get_suite",
    "load_manifest",
    "save_manifest",
    "hill_climb",
]
