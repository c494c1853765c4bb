"""Interval algebra, groupwise classifiers, and the optimal constructors."""

import math

import numpy as np
import pytest

from fairfrontier import (EMPTY, FULL_LINE, PRESETS, ComplexityError,
                          GroupConditionalModel, GroupwiseClassifier,
                          InputError, IntervalSet, Normal, accuracy,
                          bayes_accuracy_optimal, confusion_rates,
                          fairness_optimal, positive_mass, scenario,
                          sign_region, unfairness, validate,
                          well_defined_check)
from helpers import (complemented, random_classifier, random_model,
                     swapped_groups, valley_model)


def gap(model, clf):
    return unfairness(confusion_rates(model, clf))


def test_intervalset_sorts_merges_and_drops_degenerate():
    s = IntervalSet(((5, 5), (3, 4), (1, 2), (4, 4.5)))
    assert s.intervals == ((1.0, 2.0), (3.0, 4.5))


def test_intervalset_rejects_nan():
    with pytest.raises(InputError):
        IntervalSet(((0, math.nan),))


def test_intervalset_boundary_filters_infinities():
    s = IntervalSet(((-math.inf, 2), (5, math.inf)))
    assert s.boundary == (2.0, 5.0)
    assert EMPTY.boundary == ()
    assert FULL_LINE.boundary == ()


def test_contains_left_closed_right_open():
    s = IntervalSet(((1, 3),))
    got = s.contains(np.array([0.5, 1.0, 2.9, 3.0]))
    assert got.tolist() == [False, True, True, False]


def test_length_with_and_without_window():
    s = IntervalSet(((0, 2), (4, math.inf)))
    assert s.length(window=(-10, 10)) == pytest.approx(8.0)
    assert s.length() == math.inf
    assert IntervalSet(((0, 2), (3, 5))).length() == 4.0


def test_set_algebra_against_membership():
    a = IntervalSet(((-math.inf, 0), (2, 5)))
    b = IntervalSet(((-1, 3), (4, 7)))
    probes = np.linspace(-4, 9, 401)
    for op, rule in [
        (a.union(b), lambda p, q: p or q),
        (a.intersection(b), lambda p, q: p and q),
        (a.difference(b), lambda p, q: p and not q),
        (a.symmetric_difference(b), lambda p, q: p != q),
    ]:
        want = [rule(bool(x), bool(y))
                for x, y in zip(a.contains(probes), b.contains(probes))]
        assert op.contains(probes).tolist() == want
    assert a.complement().contains(probes).tolist() == \
        (~a.contains(probes)).tolist()


def test_groupwise_classifier_validation():
    with pytest.raises(InputError):
        GroupwiseClassifier((FULL_LINE,))
    with pytest.raises(InputError):
        GroupwiseClassifier((FULL_LINE, ((0, 1),)))


def test_predict_tie_goes_positive():
    clf = GroupwiseClassifier.shared_threshold(4.5)
    assert clf.predict(4.5, 0) == 1
    assert clf.predict(4.5 - 1e-12, 1) == 0


def test_constant_classifiers_predict():
    ones = GroupwiseClassifier.from_shared(FULL_LINE)
    zeros = GroupwiseClassifier.from_shared(EMPTY)
    xs = np.array([-1e6, 0.0, 1e6])
    assert ones.predict(xs, 0).tolist() == [1, 1, 1]
    assert zeros.predict(xs, 1).tolist() == [0, 0, 0]


def test_threshold_orientations():
    below = GroupwiseClassifier.shared_threshold(2.0, positive_above=False)
    assert below.positive_region(0).intervals == ((-math.inf, 2.0),)
    mixed = GroupwiseClassifier.per_group_thresholds(
        3.0, 5.0, positive_above=(True, False))
    assert mixed.positive_region(0).intervals == ((3.0, math.inf),)
    assert mixed.positive_region(1).intervals == ((-math.inf, 5.0),)
    assert not mixed.shared
    assert GroupwiseClassifier.shared_threshold(1.0).shared


def test_complemented_swaps_membership():
    clf = GroupwiseClassifier.per_group_thresholds(0.0, 1.0)
    flipped = complemented(clf)
    xs = np.linspace(-3, 3, 50)
    for a in (0, 1):
        assert np.array_equal(flipped.predict(xs, a), 1 - clf.predict(xs, a))


def test_sign_region_simple_cut():
    region = sign_region(lambda x: x - 2.0, -10, 10)
    assert len(region.intervals) == 1
    lo, hi = region.intervals[0]
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == math.inf


def test_sign_region_zero_function_is_full_line():
    region = sign_region(lambda x: np.zeros_like(np.asarray(x, float)), -5, 5)
    assert region == FULL_LINE


def test_sign_region_ends_a_run_of_zeros_at_its_edge():
    # g vanishes outside (3, 9), as a difference of densities does past both
    # supports, and zeros count as positive: the boundaries are the edges
    # of the runs of zeros, not the grid points next to them
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 3.0) & (x < 9.0), -(x - 3.0) * (9.0 - x), 0.0)

    region = sign_region(g, -10, 10)
    np.testing.assert_allclose(region.intervals,
                               [(-math.inf, 3.0), (9.0, math.inf)],
                               rtol=0.0, atol=1e-10)


def test_sign_region_complexity_cap():
    # the grid's signs give the interval count, so the refusal comes before
    # any of sin's 25 sign changes is solved by scalar calls
    scalar = []

    def g(x):
        if np.ndim(x) == 0:
            scalar.append(x)
        return np.sin(x)

    with pytest.raises(ComplexityError, match="needs 13 intervals"):
        sign_region(g, -40, 40, max_intervals=4)
    assert scalar == []


def test_bayes_overall_example1_threshold():
    clf = bayes_accuracy_optimal(scenario("example1"), "overall")
    assert clf.shared
    (lo, hi), = clf.positive_region(0).intervals
    assert lo == pytest.approx(5.155670662530875, abs=1e-9)
    assert hi == math.inf


def test_bayes_per_group_example3_thresholds():
    clf = bayes_accuracy_optimal(scenario("example3"), "per_group")
    (lo0, hi0), = clf.positive_region(0).intervals
    (lo1, hi1), = clf.positive_region(1).intervals
    assert lo0 == pytest.approx(3.0, abs=1e-9)
    assert lo1 == pytest.approx(5.220209421870061, abs=1e-9)
    assert hi0 == hi1 == math.inf


def test_bayes_per_group_example4_identical_orientations():
    clf = bayes_accuracy_optimal(scenario("example4_identical"), "per_group")
    (lo0, hi0), = clf.positive_region(0).intervals
    (lo1, hi1), = clf.positive_region(1).intervals
    # group 0 is positive below the crossing, group 1 above it
    assert lo0 == -math.inf
    assert hi0 == pytest.approx(6.0, abs=1e-9)
    assert lo1 == pytest.approx(6.0, abs=1e-9)
    assert hi1 == math.inf


@pytest.mark.parametrize("name, regions", [
    # example1's group 0 has equal cell masses, so its laws cross at the
    # means' midpoint; group 1's Y=1 cell holds twice the mass, which moves
    # the crossing by -sd^2 ln 2 / (10 - 3) from 6.5
    ("example1", [[(2.5, math.inf)], [(6.5 - 4 / 7 * math.log(2), math.inf)]]),
    ("example4_identical", [[(-math.inf, 6.0)], [(6.0, math.inf)]]),
])
def test_bayes_per_group_thresholds_are_their_closed_forms(name, regions):
    clf = bayes_accuracy_optimal(scenario(name), "per_group")
    for a, want in enumerate(regions):
        np.testing.assert_allclose(clf.positive_region(a).intervals, want,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("model", [scenario(name) for name in PRESETS]
                         + [valley_model()]
                         + [random_model(seed) for seed in range(40)],
                         ids=lambda m: m.label)
def test_bayes_overall_is_the_same_on_the_group_swap(model):
    # the pooled range sums its cells in order, and a swap reorders them:
    # a search over it moved the boundaries of 40 of these 45 models, by
    # up to 7e-11 (the valley model's by 6.7e-13)
    assert (bayes_accuracy_optimal(swapped_groups(model), "overall")
            == bayes_accuracy_optimal(model, "overall"))


def test_bayes_scope_validated():
    with pytest.raises(InputError):
        bayes_accuracy_optimal(scenario("example1"), "group")


@pytest.mark.parametrize("name", ["example1", "example3", "example4_identical",
                                  "example4_nonidentical"])
def test_bayes_beats_random_classifiers(name):
    model = scenario(name)
    per_group = bayes_accuracy_optimal(model, "per_group")
    overall = bayes_accuracy_optimal(model, "overall")
    best_any = accuracy(model, per_group)
    best_shared = accuracy(model, overall)
    assert best_any >= best_shared - 1e-9
    for seed in range(50):
        rnd = random_classifier(seed)
        assert best_any >= accuracy(model, rnd) - 1e-9
        shared = GroupwiseClassifier.from_shared(rnd.positive_region(0))
        assert best_shared >= accuracy(model, shared) - 1e-9


def test_fairness_optimal_example1_is_constant_positive():
    model = scenario("example1")
    clf = fairness_optimal(model)
    assert clf.shared
    assert clf.positive_region(0) == FULL_LINE
    assert gap(model, clf) == 0.0
    assert accuracy(model, clf) == pytest.approx(0.625, abs=1e-12)


def test_fairness_optimal_takes_the_more_accurate_constant():
    # no sign hypothesis of random_model(7) is exactly fair, and Y=0 is the
    # majority label, so the constant-negative rule is the fairness optimum
    model = random_model(7)
    assert model.p_label(0) > model.p_label(1)
    clf = fairness_optimal(model)
    assert clf == GroupwiseClassifier.from_shared(EMPTY)
    assert accuracy(model, clf) == model.p_label(0)


def identical_laws():
    """Both groups share each label's law, so every hypothesis is 0."""
    return GroupConditionalModel(
        joint={(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
        conditional={(0, 0): Normal(-1, 1), (1, 0): Normal(-1, 1),
                     (0, 1): Normal(1, 1), (1, 1): Normal(1, 1)},
        label="identical-laws")


def test_fairness_optimal_identical_laws_reaches_zero():
    model = identical_laws()
    clf = fairness_optimal(model)
    assert gap(model, clf) == 0.0
    assert clf.shared


def test_fairness_optimal_identical_laws_takes_the_majority_constant():
    # every sign hypothesis of these cells is identically 0, so a search
    # over them finds the exactly fair FULL_LINE; Y=0 is the majority
    # label, so the more accurate constant is EMPTY
    model = GroupConditionalModel(
        joint={(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.2},
        conditional={(0, 0): Normal(-1, 1), (1, 0): Normal(-1, 1),
                     (0, 1): Normal(1, 1), (1, 1): Normal(1, 1)})
    clf = fairness_optimal(model)
    assert clf == GroupwiseClassifier.from_shared(EMPTY)
    assert gap(model, clf) == 0.0
    assert accuracy(model, clf) == pytest.approx(0.6, abs=1e-12)


def test_fairness_optimal_passes_over_a_too_complex_hypothesis():
    # one of random_model(114)'s four sign hypotheses needs 5 intervals; it
    # cannot be returned under the bound of 4, and must not abort the rest
    model = random_model(114)
    clf = fairness_optimal(model)
    assert gap(model, clf) == 0.0


def _region_unfairness(model, region: IntervalSet) -> float:
    # local Equalized-Odds gap for a shared region, default weights 1/2, 1/2
    tpr = [positive_mass(model.conditional[(a, 1)], region) for a in (0, 1)]
    fpr = [positive_mass(model.conditional[(a, 0)], region) for a in (0, 1)]
    return 0.5 * abs(tpr[1] - tpr[0]) + 0.5 * abs(fpr[1] - fpr[0])


def fairness_optimal_one_grid_each(model):
    """The search fairness_optimal once made: the fairest of four sign
    hypotheses, one sign_region each, or the more accurate constant when
    none is exactly fair. Kept as the reference the constant must match."""
    def lam1(x):
        return 0.5 * (model.cell_pdf(x, 1, 1) - model.cell_pdf(x, 0, 1))

    def lam2(x):
        return 0.5 * (model.cell_pdf(x, 1, 0) - model.cell_pdf(x, 0, 0))

    lo, hi = model.quantile_range(0.99999)
    best = None
    for g in (lambda x: lam1(x) - lam2(x), lambda x: lam2(x) - lam1(x),
              lambda x: lam1(x) + lam2(x), lambda x: -lam1(x) - lam2(x)):
        try:
            region = sign_region(g, lo, hi)
        except ComplexityError:
            continue
        key = (_region_unfairness(model, region), len(region.intervals),
               region.intervals)
        if best is None or key < best[0]:
            best = (key, region)
    if best is None or _region_unfairness(model, FULL_LINE) < best[0][0]:
        return GroupwiseClassifier.from_shared(
            EMPTY if model.p_label(0) > model.p_label(1) else FULL_LINE)
    return GroupwiseClassifier.from_shared(best[1])


@pytest.mark.parametrize(
    "model", [scenario(name) for name in PRESETS] + [valley_model()]
    + [random_model(seed) for seed in range(20)] + [identical_laws()],
    ids=lambda m: m.label)
def test_fairness_optimal_shares_one_sign_grid(model):
    assert fairness_optimal(model) == fairness_optimal_one_grid_each(model)


def test_fairness_optimal_never_beaten_by_random_rules():
    model = scenario("example1")
    target = gap(model, fairness_optimal(model))
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(1000):
        t = float(rng.uniform(-6, 14))
        clf = GroupwiseClassifier.shared_threshold(t, bool(rng.integers(2)))
        assert target <= gap(model, clf) + 1e-9


def test_sign_region_locates_rate_gap_crossing():
    model = scenario("example1")

    def g(x):
        lam1 = 0.5 * (model.cell_pdf(x, 1, 1) - model.cell_pdf(x, 0, 1))
        lam2 = 0.5 * (model.cell_pdf(x, 1, 0) - model.cell_pdf(x, 0, 0))
        return lam1 - lam2

    region = sign_region(g, -8.0, 12.0)
    assert any(abs(b - 8.066585397672432) < 1e-9 for b in region.boundary)


def test_well_defined_inside_disputed_zone_example3():
    model = scenario("example3")
    ok = well_defined_check(GroupwiseClassifier.shared_threshold(4.0), model)
    assert ok.well_defined
    (lo, hi), = ok.enclosed.intervals
    assert lo == pytest.approx(3.0, abs=1e-6)
    assert hi == pytest.approx(5.220209421870061, abs=1e-6)
    bad = well_defined_check(GroupwiseClassifier.shared_threshold(8.0), model)
    assert not bad.well_defined


def test_predict_matches_region_membership():
    for seed in range(20):
        clf = random_classifier(seed)
        xs = np.linspace(-8, 8, 257)
        for a in (0, 1):
            want = clf.positive_region(a).contains(xs).astype(int)
            assert np.array_equal(clf.predict(xs, a), want)


def test_random_models_validate():
    for seed in range(10):
        assert validate(random_model(seed)).ok
