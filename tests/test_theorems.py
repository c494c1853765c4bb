"""Condition-by-condition checks of the analytic claims."""

import dataclasses
import json

import pytest

from fairfrontier import (FULL_LINE, PRESETS, ContractError, FamilySpec,
                          GroupConditionalModel, GroupwiseClassifier,
                          InputError, Jump, Normal,
                          TheoremReport, bayes_accuracy_optimal,
                          build_frontier, check_accuracy_jump,
                          check_boundary_alignment, check_decomposition_bound,
                          check_simultaneous_optimality, fairness_optimal,
                          frontier, overpursuit_accuracy_bound, scenario,
                          theorems)
from helpers import (random_classifier, random_model, swapped_groups,
                     valley_model)


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


def closure_measures(model, clf):
    """The simultaneous-optimality maxima taken one boundary point at a
    time, through the model's scalar density queries: the reference the
    array expressions must equal."""
    boundary = clf.positive_region(0).boundary

    def over(fn):
        return max((fn(b) for b in boundary), default=0.0)

    def f(b, a, y):
        return model.cell_pdf(b, a, y)

    def marginal_spread(b):
        vals = [model.joint_pdf(b, a, 0) + model.joint_pdf(b, a, 1)
                for a in (0, 1)]
        vals += [model.joint_pdf(b, 0, y) + model.joint_pdf(b, 1, y)
                 for y in (0, 1)]
        return max(vals) - min(vals)

    measures = {
        "boundary_label_density_balance": over(
            lambda b: abs(model.label_pdf(b, 1) - model.label_pdf(b, 0))),
        "density_gap_identity": over(
            lambda b: abs(abs(f(b, 0, 1) - f(b, 1, 1))
                          - abs(f(b, 0, 0) - f(b, 1, 0))))}
    if all(abs(p - 0.25) <= 1e-12 for p in model.joint.values()):
        measures["balanced_marginal_equality"] = over(marginal_spread)
        measures["balanced_cell_equality"] = over(
            lambda b: max(abs(f(b, 0, 0) - f(b, 0, 1)),
                          abs(f(b, 1, 0) - f(b, 1, 1))))
    return measures


def simultaneous_cases():
    models = [scenario(name) for name in PRESETS]
    models += [valley_model(), identical_laws_model()]
    for model in models + [random_model(s) for s in range(40)]:
        yield model, bayes_accuracy_optimal(model, "overall")
    for model in models + [random_model(s) for s in range(0, 40, 8)]:
        yield model, GroupwiseClassifier.from_shared(FULL_LINE)
        for seed in range(20):
            clf = random_classifier(seed)
            # group 0's region alone, and its symmetric difference with
            # group 1's, which has up to six boundary points
            for region in (clf.positive_region(0),
                           clf.positive_region(0).symmetric_difference(
                               clf.positive_region(1))):
                yield model, GroupwiseClassifier.from_shared(region)


def test_simultaneous_optimality_maxima_equal_the_pointwise_ones():
    sizes, balanced = set(), 0
    for model, clf in simultaneous_cases():
        report = check_simultaneous_optimality(model, clf)
        want = closure_measures(model, clf)
        assert [c.name for c in report.conditions] == [
            *list(want)[:1], "rate_equality", *list(want)[1:]]
        for name, value in want.items():
            c = by_name(report, name)
            got = c.measured.get("max_abs_gap", c.measured.get("max_spread"))
            assert got == value, (model.label, clf, name)
            assert c.satisfied == (value <= report.tolerance)
        # plain bools and floats, so the report serializes
        payload = json.loads(json.dumps(report.to_dict()))
        assert TheoremReport.from_dict(payload) == report
        sizes.add(len(clf.positive_region(0).boundary))
        balanced += "balanced_cell_equality" in want
    assert {0, 1, 2, 3, 4, 5, 6} <= sizes
    assert balanced > 0


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


def test_fairness_optimum_refutes_the_sharpened_overpursuit_bound():
    # when both group rules for all are less accurate than the fairness
    # optimum, the report's bound is the larger of them, which the fairness
    # optimum itself exceeds: the claim fails on its own witness
    model = GroupConditionalModel(
        {(0, 0): 0.15, (0, 1): 0.35, (1, 0): 0.15, (1, 1): 0.35},
        {(0, 0): Normal(5, 1), (0, 1): Normal(0, 1),
         (1, 0): Normal(0, 1), (1, 1): Normal(5, 1)})
    report = overpursuit_accuracy_bound(model, fairness_optimal(model))
    sharpened = by_name(report, "sharpened_bound")
    assert sharpened.measured["bound"] == pytest.approx(0.50122, abs=1e-5)
    assert sharpened.measured["accuracy"] == pytest.approx(0.7, abs=1e-12)
    bound = by_name(report, "accuracy_bound").measured
    assert sharpened.measured["bound"] == max(
        bound["accuracy_group0_rule_for_all"],
        bound["accuracy_group1_rule_for_all"])
    assert not sharpened.satisfied
    assert any("sharper bound applies" in note for note in report.notes)
    assert not report.conclusion_checked


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
    # the full sweep, which scores every candidate
    model = (scenario(name) if name in PRESETS
             else random_model(int(name.removeprefix("random-"))))
    modes = ("boundary_location", "strict_indicator")
    # both searches share one holder, so each optimum is solved once
    optima = frontier._Optima(model)
    monkeypatch.setattr(theorems, "_Optima", lambda model: optima)
    got = [check_boundary_alignment(model, mode).to_dict() for mode in modes]
    monkeypatch.setattr(theorems, "_sweep",
                        lambda model, family, w, bounded, optima:
                        frontier._sweep(model, family, w, False, optima))
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


def test_accuracy_jump_branch_1_on_the_swapped_valley_model():
    # with the groups swapped both gaps favour group 1, which prescribes
    # flipping group 1's rule: the mirror of the valley model's branch 2
    valley = check_accuracy_jump(
        valley_model(), build_frontier(valley_model(), VALLEY_FAMILY))
    model = swapped_groups(valley_model())
    report = check_accuracy_jump(model, build_frontier(model, VALLEY_FAMILY))
    form, mirror = (by_name(r, "prescribed_rule_form")
                    for r in (report, valley))
    assert (form.measured["branch"], mirror.measured["branch"]) == (1, 2)
    assert (form.measured["max_region_distance"]
            == mirror.measured["max_region_distance"])
    assert form.satisfied == mirror.satisfied
    assert report.conclusion_checked == valley.conclusion_checked


def branch_distances(model, frontier, jump):
    lo, hi = frontier.sweep_range
    clf = frontier.points[jump.index].clf
    return {branch: max(
        clf.positive_region(a).symmetric_difference(want).length((lo, hi))
        for a, want in enumerate(
            theorems._prescribed_regions(model, branch, lo, hi)))
        for branch in (1, 2)}


@pytest.mark.parametrize("branch", [1, 2])
def test_accuracy_jump_takes_the_nearer_branch(branch):
    # a jump whose pre-jump point takes one branch's prescribed form exactly;
    # a tolerance this wide lets both branches' rate tests hold
    model = valley_model()
    lo, hi = VALLEY_FAMILY.sweep_range
    regions = theorems._prescribed_regions(model, branch, lo, hi)
    pre = frontier.FrontierPoint(0.9, 0.5, ("grid", "pre", *(
        r.intervals for r in regions)))
    post = frontier.FrontierPoint(1.0, 0.2, ("grid", "post", (), ()))
    jump = Jump(0.9, 0.3, "accuracy", 0)
    front = frontier.Frontier((pre, post), "sharp_decline_accuracy", (jump,),
                              resolution=VALLEY_FAMILY.resolution,
                              sweep_range=(lo, hi))
    dist = branch_distances(model, front, jump)
    assert dist[branch] == 0.0 < dist[3 - branch]
    form = by_name(check_accuracy_jump(model, front, tol=1.0),
                   "prescribed_rule_form")
    assert form.measured["branch"] == branch
    assert form.measured["max_region_distance"] == 0.0


def test_accuracy_jump_tie_goes_to_branch_1():
    # the valley jump's point is as far from both forms, so once a wide
    # tolerance lets both branches apply, they tie and branch 1 is reported
    model = valley_model()
    front = build_frontier(model, VALLEY_FAMILY)
    (jump,) = front.jumps
    dist = branch_distances(model, front, jump)
    assert dist[1] == dist[2]
    default, wide = (by_name(check_accuracy_jump(model, front, tol=tol),
                             "prescribed_rule_form") for tol in (1e-6, 1.0))
    assert (default.measured["branch"], wide.measured["branch"]) == (2, 1)
    assert (wide.measured["max_region_distance"]
            == default.measured["max_region_distance"] == dist[1])


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


def test_accuracy_jump_labels_an_unclassified_frontier_first():
    # a frontier straight from pareto_filter has no shape yet; the check
    # labels it, so it reports what it reports on the labelled frontier
    model = valley_model()
    raw = frontier.pareto_filter(frontier.sweep(model, VALLEY_FAMILY),
                                 VALLEY_FAMILY)
    assert raw.shape is None
    labelled = frontier.classify_shape(raw)
    assert labelled.shape == "sharp_decline_accuracy"
    report = check_accuracy_jump(model, raw)
    assert report.conditions
    assert report == check_accuracy_jump(model, labelled)


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
