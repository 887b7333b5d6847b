from __future__ import annotations

import pytest

from blowup_lab.harness import check_determinism, score_benchmark
from blowup_lab.rankers import DEPTH_CHARGE, LINEAR, TANH_BLOCK, ComponentSpec, RankerTemplate
from blowup_lab.search import hill_climb


@pytest.fixture(scope="module")
def template():
    return RankerTemplate.depth_charge()


def test_template_instantiation_is_pure(template):
    ranker = template.instantiate(template.default_weights())
    fv = tuple(float(i % 7) for i in range(26))
    assert check_determinism(ranker, fv)


def test_template_rejects_wrong_weight_count(template):
    with pytest.raises(ValueError):
        template.instantiate((1.0, 2.0))


def test_tanh_block_component():
    import math

    spec = ComponentSpec(TANH_BLOCK, ((21, 1.0), (19, 0.1)))
    fv = [0.0] * 26
    fv[21] = 4.0
    fv[19] = 10.0
    expected = 50.0 * math.tanh((1.0 * 4.0 + 0.1 * 10.0) / 5.0)
    assert spec.bind((1.0, 0.1))(fv) == expected

    custom = RankerTemplate(components=(spec,), discretized=False)
    ranker = custom.instantiate(custom.default_weights())
    fv[9] = 1.0
    assert ranker(tuple(fv))[0] == 0.0  # the gate is fixed regardless of shape


def test_component_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ComponentSpec("tanh", ((21, 1.0),))


def test_depth_charge_spec_needs_four_terms():
    with pytest.raises(ValueError):
        ComponentSpec(DEPTH_CHARGE, ((24, 4.0), (25, 1.0), (23, 5.0)))
    with pytest.raises(ValueError):
        ComponentSpec(DEPTH_CHARGE, ((24, 4.0), (25, 1.0), (23, 5.0), (10, 10.0), (1, 1.0)))


def test_discretized_template_needs_four_components():
    spec = ComponentSpec(LINEAR, ((21, 1.0),))
    with pytest.raises(ValueError):
        RankerTemplate(components=(spec,) * 3)
    with pytest.raises(ValueError):
        RankerTemplate(components=(spec,) * 5)
    plain = RankerTemplate(components=(spec,) * 3, discretized=False)
    assert len(plain.instantiate((1.0,) * 3)(tuple(range(26)))) == 4


def test_budget_zero_returns_initial(template, suite_focused71, default_cfg):
    cases = suite_focused71[:8]
    weights, report, history = hill_climb(template, cases, default_cfg, budget=0, seed=3)
    assert weights == template.default_weights()
    assert history == ((0, report.saturated_score),)


def test_same_seed_same_outcome(template, suite_focused71, default_cfg):
    cases = suite_focused71[:8]
    a = hill_climb(template, cases, default_cfg, budget=6, seed=42)
    b = hill_climb(template, cases, default_cfg, budget=6, seed=42)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_seeded_at_optimum_stays_there(template, suite_focused71, default_cfg):
    # the depth-charge defaults already solve the whole suite, so the score
    # is the saturated maximum and no strictly-improving move exists
    weights, report, history = hill_climb(
        template, suite_focused71, default_cfg, budget=3, seed=1
    )
    assert report.saturated_score == 2.0 * 71
    assert weights == template.default_weights()
    assert [score for _, score in history] == [142.0]


def test_history_scores_nondecreasing(template, suite_focused71, default_cfg):
    cases = suite_focused71[:6]
    _, _, history = hill_climb(
        template, cases, default_cfg, budget=10, seed=9, restarts=1
    )
    scores = [score for _, score in history]
    assert scores == sorted(scores)


def test_report_reproducible_by_rescoring(template, suite_focused71, default_cfg):
    cases = suite_focused71[:8]
    weights, report, _ = hill_climb(template, cases, default_cfg, budget=5, seed=12)
    rescored = score_benchmark(
        template.instantiate(weights), cases, default_cfg,
        suite_name="search", ranker_name="template",
    )
    assert rescored.saturated_score == report.saturated_score
    assert rescored.total_violations == report.total_violations


def test_negative_budget_rejected(template, suite_focused71, default_cfg):
    with pytest.raises(ValueError):
        hill_climb(template, suite_focused71[:2], default_cfg, budget=-1, seed=0)
