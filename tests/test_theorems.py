"""Condition-by-condition checks of the analytic claims."""

import dataclasses
import json

import pytest

from fairfrontier import (FULL_LINE, PRESETS, ContractError, FamilySpec,
                          GroupConditionalModel, GroupwiseClassifier,
                          InputError, Jump, MetricWeights, Normal,
                          TheoremReport, bayes_accuracy_optimal,
                          build_frontier, check_accuracy_jump,
                          check_boundary_alignment, check_decomposition_bound,
                          check_simultaneous_optimality, fairness_optimal,
                          frontier, overpursuit_accuracy_bound, scenario,
                          sweep, theorems)
from helpers import random_classifier, random_model, valley_model


def by_name(report, name):
    for c in report.conditions:
        if c.name == name:
            return c
    raise AssertionError(f"no condition {name!r} in {report.claim}")


def identical_laws_model():
    return GroupConditionalModel(
        joint={(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
        conditional={(0, 0): Normal(-1, 1), (1, 0): Normal(-1, 1),
                     (0, 1): Normal(1, 1), (1, 1): Normal(1, 1)})


# -- simultaneous optimality ------------------------------------------------

def test_simultaneous_optimality_identical_laws():
    model = identical_laws_model()
    report = check_simultaneous_optimality(
        model, bayes_accuracy_optimal(model, "overall"))
    assert report.conclusion_checked
    assert {c.name for c in report.conditions} == {
        "boundary_label_density_balance", "rate_equality",
        "density_gap_identity", "balanced_marginal_equality",
        "balanced_cell_equality"}
    assert all(c.satisfied for c in report.conditions)


def test_simultaneous_optimality_example1_rate_gap():
    model = scenario("example1")
    report = check_simultaneous_optimality(
        model, bayes_accuracy_optimal(model, "overall"))
    assert not report.conclusion_checked
    rate = by_name(report, "rate_equality")
    assert not rate.satisfied
    assert rate.measured["tpr_gap"] == pytest.approx(0.3287382352972849,
                                                     abs=1e-9)
    # unbalanced joints: the two balanced-case conditions are not emitted
    assert {c.name for c in report.conditions} == {
        "boundary_label_density_balance", "rate_equality",
        "density_gap_identity"}


def test_simultaneous_optimality_example4_threshold_rates():
    report = check_simultaneous_optimality(
        scenario("example4_identical"),
        GroupwiseClassifier.shared_threshold(6.0))
    rate = by_name(report, "rate_equality")
    assert not rate.satisfied
    assert rate.measured["tpr"] == [0.125, 0.875]
    assert rate.measured["tnr"] == [0.125, 0.875]
    # the boundary clauses still hold, so the conclusion stands on them
    assert by_name(report, "boundary_label_density_balance").satisfied
    assert by_name(report, "density_gap_identity").satisfied
    assert report.conclusion_checked


def test_simultaneous_optimality_vacuous_on_constant():
    report = check_simultaneous_optimality(
        scenario("example1"), GroupwiseClassifier.from_shared(FULL_LINE))
    assert report.conclusion_checked
    assert any("vacuous" in note for note in report.notes)
    rate = by_name(report, "rate_equality")
    assert rate.measured["tpr"] == [1.0, 1.0]
    assert rate.measured["tnr"] == [0.0, 0.0]


def test_simultaneous_optimality_rejects_per_group():
    with pytest.raises(ContractError):
        check_simultaneous_optimality(
            scenario("example1"),
            GroupwiseClassifier.per_group_thresholds(2.0, 6.0))


# -- over-pursuit accuracy bound ---------------------------------------------

def test_overpursuit_equality_at_fairness_optimum():
    model = scenario("example1")
    report = overpursuit_accuracy_bound(model, fairness_optimal(model))
    assert report.conclusion_checked
    pre = by_name(report, "over_pursuit_precondition")
    assert pre.satisfied
    bound = by_name(report, "accuracy_bound")
    assert bound.satisfied
    assert bound.measured["accuracy"] == pytest.approx(0.625, abs=1e-12)
    assert bound.measured["bound"] == pytest.approx(0.625, abs=1e-12)
    assert bound.measured["accuracy_group0_rule_for_all"] == pytest.approx(
        0.8402644207207144, abs=1e-9)
    assert bound.measured["accuracy_group1_rule_for_all"] == pytest.approx(
        0.9069497203828814, abs=1e-9)


def test_overpursuit_rejects_non_overpursuing():
    model = scenario("example1")
    with pytest.raises(ContractError) as exc:
        overpursuit_accuracy_bound(model,
                                   GroupwiseClassifier.shared_threshold(4.5))
    assert "0.2236475891418137" in str(exc.value)
    assert "0.0" in str(exc.value)


def test_overpursuit_rejects_per_group():
    with pytest.raises(ContractError):
        overpursuit_accuracy_bound(
            scenario("example1"),
            GroupwiseClassifier.per_group_thresholds(2.0, 6.0))


# -- decomposition bound -----------------------------------------------------

def test_decomposition_bound_example3_equality():
    report = check_decomposition_bound(
        scenario("example3"), GroupwiseClassifier.shared_threshold(4.0))
    assert report.conclusion_checked
    assert by_name(report, "well_defined").satisfied
    sign = by_name(report, "sign_pattern")
    assert sign.satisfied
    assert sign.measured["pattern"] == "condition1"
    eq = by_name(report, "equality")
    assert eq.satisfied
    assert eq.measured["abs_residual"] <= 1e-9
    assert eq.measured["f_mu"] == pytest.approx(0.12730635597431483, abs=1e-8)
    sub = by_name(report, "subadditivity")
    assert sub.measured["f_du"] == pytest.approx(0.04299729765437821, abs=1e-8)


def test_decomposition_bound_reference_is_vacuous():
    model = scenario("example1")
    report = check_decomposition_bound(
        model, bayes_accuracy_optimal(model, "per_group"))
    assert report.conclusion_checked
    assert by_name(report, "equality").measured["f_mu"] == pytest.approx(
        0.0, abs=1e-12)
    assert any("vacuous" in note for note in report.notes)


def test_decomposition_bound_outside_disputed_region():
    # t=8 predicts negative where both reference optima vote positive, so
    # the equality premise fails and only subadditivity is claimed
    report = check_decomposition_bound(
        scenario("example3"), GroupwiseClassifier.shared_threshold(8.0))
    assert not by_name(report, "well_defined").satisfied
    assert not by_name(report, "equality").satisfied
    assert by_name(report, "subadditivity").satisfied
    assert report.conclusion_checked


def test_decomposition_bound_random_pairs_subadditive():
    for mseed in range(6):
        model = random_model(mseed)
        for cseed in range(3):
            report = check_decomposition_bound(model,
                                               random_classifier(cseed))
            sub = by_name(report, "subadditivity")
            assert sub.satisfied
            m = sub.measured
            assert m["f_u"] <= m["f_du"] + m["f_mu"] + 1e-9


# -- boundary alignment -------------------------------------------------------

def test_boundary_alignment_example4_identical_locations():
    report = check_boundary_alignment(scenario("example4_identical"),
                                      "boundary_location")
    assert report.conclusion_checked
    assert by_name(report, "data_unfairness_absent").satisfied
    loc = by_name(report, "boundary_location_match")
    assert loc.satisfied
    assert loc.measured["boundary_group0"][0] == pytest.approx(6.0, abs=1e-9)
    assert by_name(report, "complete_fairness_at_optimal_accuracy").satisfied


def test_boundary_alignment_strict_indicator_disagrees():
    report = check_boundary_alignment(scenario("example4_identical"),
                                      "strict_indicator")
    assert not report.conclusion_checked
    ind = by_name(report, "indicator_match")
    assert not ind.satisfied
    assert ind.measured["disagreement_length"] == float("inf")
    assert report.notes == (
        "strict_indicator alignment predicts absence but the search found "
        "such a classifier",)


def test_boundary_alignment_nonidentical_boundaries_differ():
    report = check_boundary_alignment(scenario("example4_nonidentical"),
                                      "boundary_location")
    assert not report.conclusion_checked
    loc = by_name(report, "boundary_location_match")
    assert not loc.satisfied
    assert loc.measured["boundary_group1"][0] == pytest.approx(8.0, abs=1e-9)
    # the stars still agree on every rate, so fair optimal rules exist and
    # the location heuristic under-predicts
    assert by_name(report, "data_unfairness_absent").satisfied
    assert by_name(report, "complete_fairness_at_optimal_accuracy").satisfied


def test_boundary_alignment_solves_the_bayes_optimum_once(monkeypatch):
    from fairfrontier import frontier, metrics
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return bayes_accuracy_optimal(*args, **kwargs)

    monkeypatch.setattr(frontier, "bayes_accuracy_optimal", counted)
    monkeypatch.setattr(metrics, "bayes_accuracy_optimal", counted)
    check_boundary_alignment(scenario("example4_identical"))
    assert calls == [("per_group",)]


@pytest.mark.parametrize("name", [*PRESETS,
                                  *(f"random-{s}" for s in range(40))])
def test_boundary_alignment_search_equals_the_full_sweep(name, monkeypatch):
    # the search scores only its open lines; its reports must be those of
    # the public sweep, which scores every candidate
    model = (scenario(name) if name in PRESETS
             else random_model(int(name.removeprefix("random-"))))
    modes = ("boundary_location", "strict_indicator")
    # both searches append the same optima, so they are solved once
    optima = frontier._appended_optima(model, theorems.SEARCH_FAMILY,
                                       MetricWeights())
    monkeypatch.setattr(frontier, "_appended_optima", lambda *args: optima)
    got = [check_boundary_alignment(model, mode).to_dict() for mode in modes]
    monkeypatch.setattr(theorems, "_sweep",
                        lambda model, family, w, bounded: sweep(model, family))
    want = [check_boundary_alignment(model, mode).to_dict() for mode in modes]
    assert got == want


@pytest.mark.parametrize("name, count", [("example1", 4),
                                         ("example4_identical", 10_306)])
def test_boundary_alignment_scores_only_open_lines(name, count, monkeypatch):
    # candidates searched, of the full sweep's 148,998; both hold the two
    # appended optima
    counts = []

    def counted(*args, **kwargs):
        candidates = frontier._sweep(*args, **kwargs)
        counts.append(len(candidates))
        return candidates

    monkeypatch.setattr(theorems, "_sweep", counted)
    check_boundary_alignment(scenario(name))
    assert counts == [count]


def test_boundary_alignment_mode_validated():
    with pytest.raises(InputError):
        check_boundary_alignment(scenario("example1"), "indicator")


# -- accuracy jump conditions --------------------------------------------------

VALLEY_FAMILY = FamilySpec("shared_threshold", orientations="positive_below",
                           resolution=801, sweep_range=(-2, 14))


def test_valley_frontier_has_a_sharp_accuracy_drop():
    frontier = build_frontier(valley_model(), VALLEY_FAMILY)
    assert frontier.shape == "sharp_decline_accuracy"
    (jump,) = frontier.jumps
    assert jump.accuracy_drop == pytest.approx(0.4774835663453879, abs=1e-9)
    assert jump.fairness_at == pytest.approx(0.9777172716159142, abs=1e-9)


def test_accuracy_jump_conditions_on_the_valley_model():
    model = valley_model()
    frontier = build_frontier(model, VALLEY_FAMILY)
    report = check_accuracy_jump(model, frontier)
    aligned = by_name(report, "aligned_rate_gaps")
    assert aligned.satisfied
    assert aligned.measured["product_pre_jump"] == pytest.approx(
        0.0005175684587695646, abs=1e-12)
    assert aligned.measured["tpr_gap"] == pytest.approx(
        -0.022750130961591508, abs=1e-10)
    assert by_name(report, "max_accuracy_at_fairness_level").satisfied
    # both gaps favour group 0, which prescribes flipping group 0's rule;
    # no grid classifier near the jump takes that form, and the check says so
    form = by_name(report, "prescribed_rule_form")
    assert not form.satisfied
    assert form.measured["branch"] == 2
    assert not report.conclusion_checked


def test_accuracy_jump_conditions_on_example1():
    model = scenario("example1")
    frontier = build_frontier(model, FamilySpec(
        "shared_threshold", orientations="both", resolution=801,
        sweep_range=(-8, 12)))
    report = check_accuracy_jump(model, frontier)
    aligned = by_name(report, "aligned_rate_gaps")
    assert not aligned.satisfied
    assert aligned.measured["product_pre_jump"] == pytest.approx(
        -0.05001824412894551, abs=1e-10)
    form = by_name(report, "prescribed_rule_form")
    assert not form.satisfied
    assert "opposite directions" in form.measured["reason"]
    assert not report.conclusion_checked


def test_accuracy_jump_vacuous_without_jumps():
    model = scenario("example1")
    frontier = build_frontier(model, FamilySpec(
        "per_group_threshold", resolution=201, sweep_range=(-8, 12)))
    report = check_accuracy_jump(model, frontier)
    assert report.conclusion_checked
    assert report.conditions == ()
    assert report.notes == (
        "no accuracy jump on this frontier; nothing to check",)


def test_accuracy_jump_rejects_foreign_jump():
    model = valley_model()
    frontier = build_frontier(model, VALLEY_FAMILY)
    with pytest.raises(InputError):
        check_accuracy_jump(model, frontier,
                            jump=Jump(0.5, 0.3, "accuracy", 2))


def test_accuracy_jump_needs_sweep_metadata():
    model = valley_model()
    frontier = build_frontier(model, VALLEY_FAMILY)
    stripped = dataclasses.replace(frontier, sweep_range=None)
    with pytest.raises(InputError):
        check_accuracy_jump(model, stripped)


def test_theorem_report_json_roundtrip():
    model = valley_model()
    report = check_accuracy_jump(model, build_frontier(model, VALLEY_FAMILY))
    payload = json.dumps(report.to_dict())
    assert TheoremReport.from_dict(json.loads(payload)) == report
