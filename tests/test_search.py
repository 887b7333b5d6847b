from __future__ import annotations

import pytest

from blowup_lab.harness import check_determinism, score_benchmark
from blowup_lab.rankers import RankerTemplate
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


def test_broad24_search_moves_and_is_pinned(template, suite_broad24, default_cfg):
    # unlike focused71, where the defaults already score the maximum, this
    # search improves on them, so any change to the template's arithmetic or
    # to the search's random stream moves the history or the weights
    weights, report, history = hill_climb(
        template, suite_broad24, default_cfg, budget=40, seed=3, restarts=1
    )
    assert [(index, score.hex()) for index, score in history] == [
        (0, "0x1.6ab00d7d62dd7p+5"),
        (13, "0x1.6c4d9585152eap+5"),
    ]
    expected = list(template.default_weights())
    expected[1] = float.fromhex("0x1.9aca6af18064dp+1")
    assert [w.hex() for w in weights] == [w.hex() for w in expected]
    assert report.saturated_score == history[-1][1]
    assert report.solved_count == 23
