"""Rates, weighted accuracy, and the unfairness decomposition."""

from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from fairfrontier import (FULL_LINE, ConfusionRates, Decomposition,
                          GroupConditionalModel, GroupwiseClassifier,
                          MetricWeights, ValidationError,
                          accuracy, bayes_accuracy_optimal, confusion_rates,
                          decompose_unfairness, fairness, scenario,
                          unfairness)
from fairfrontier.metrics import DECOMP_TOL, Reference
from helpers import complemented, random_classifier, random_model

T45 = GroupwiseClassifier.shared_threshold(4.5)


def test_constant_positive_rates():
    rates = confusion_rates(scenario("example1"),
                            GroupwiseClassifier.from_shared(FULL_LINE))
    assert rates.tpr == (1.0, 1.0)
    assert rates.tnr == (0.0, 0.0)
    assert unfairness(rates) == 0.0
    assert fairness(rates) == 1.0


def test_example1_threshold_rates():
    rates = confusion_rates(scenario("example1"), T45)
    assert rates.tpr[0] == pytest.approx(0.7733726476231317, abs=1e-12)
    assert rates.tpr[1] == pytest.approx(0.9970202367649454, abs=1e-12)
    assert rates.tnr[0] == pytest.approx(0.9970202367649454, abs=1e-12)
    assert rates.tnr[1] == pytest.approx(0.7733726476231317, abs=1e-12)


def test_example1_threshold_unfairness_and_accuracy():
    model = scenario("example1")
    assert unfairness(confusion_rates(model, T45)) == pytest.approx(
        0.2236475891418137, abs=1e-12)
    assert accuracy(model, T45) == pytest.approx(
        0.9131523908367654, abs=1e-12)


def test_halved_accuracy_convention():
    model = scenario("example1")
    w = MetricWeights(p1=0.5, p2=0.5)
    rates = confusion_rates(model, T45)
    hit1 = sum(rates.tpr[a] * model.joint[(a, 1)] for a in (0, 1))
    hit0 = sum(rates.tnr[a] * model.joint[(a, 0)] for a in (0, 1))
    assert accuracy(model, T45, w) == pytest.approx(
        0.5 * (hit1 + hit0), abs=1e-15)


def test_unfairness_weights():
    rates = ConfusionRates(tpr=(0.6, 0.9), tnr=(0.8, 0.7))
    assert unfairness(rates) == pytest.approx(0.2, abs=1e-15)
    w = MetricWeights(omega1=1.0, omega2=0.0)
    assert unfairness(rates, w) == pytest.approx(0.3, abs=1e-15)


def test_metric_weights_validation():
    with pytest.raises(ValidationError):
        MetricWeights(omega1=0.7, omega2=0.7)
    with pytest.raises(ValidationError):
        MetricWeights(omega1=-0.1, omega2=1.1)
    with pytest.raises(ValidationError):
        MetricWeights(p1=-1.0)
    with pytest.raises(ValidationError):
        MetricWeights(omega1=float("nan"), omega2=0.5)
    with pytest.raises(ValidationError):
        MetricWeights(p2=float("inf"))
    with pytest.raises(ValidationError):
        MetricWeights(omega1="x")


def test_metric_weights_refuse_ints_too_large_for_a_float():
    with pytest.raises(ValidationError, match="finite"):
        MetricWeights(p1=10 ** 400)


def test_confusion_rates_validation():
    with pytest.raises(ValidationError):
        ConfusionRates(tpr=(0.5,), tnr=(0.5, 0.5))
    with pytest.raises(ValidationError):
        ConfusionRates(tpr=(0.5, 1.2), tnr=(0.5, 0.5))


def test_example4_identical_star_rates_are_seven_eighths():
    model = scenario("example4_identical")
    stars = bayes_accuracy_optimal(model, "per_group")
    rates = confusion_rates(model, stars)
    for v in rates.tpr + rates.tnr:
        assert v == pytest.approx(0.875, abs=1e-10)
    assert accuracy(model, stars) == pytest.approx(0.875, abs=1e-10)


@pytest.mark.parametrize("parts, message", [
    (dict(f_u=0.1, f_du=-0.1, f_mu=0.2), "nonnegative"),
    (dict(f_u=0.1 + 2 * DECOMP_TOL, f_du=0.05, f_mu=0.05), "exceeds"),
    (dict(f_u=0.1, f_du=0.05, f_mu=0.05, condition_met="condition3",
          well_defined=True), "unknown condition"),
    (dict(f_u=0.1, f_du=0.05, f_mu=0.05, condition_met="condition1"),
     "needs well_defined"),
], ids=["negative-part", "beyond-the-sum", "unknown-condition",
        "condition-not-well-defined"])
def test_decomposition_refuses_inconsistent_parts(parts, message):
    with pytest.raises(ValidationError, match=message):
        Decomposition(equality_holds=True, **parts)


def test_decompose_reference_itself_has_no_model_part():
    model = scenario("example1")
    stars = bayes_accuracy_optimal(model, "per_group")
    d = decompose_unfairness(model, stars, reference=stars)
    assert d.f_mu == pytest.approx(0.0, abs=1e-12)
    assert d.f_u == pytest.approx(d.f_du, abs=1e-12)
    assert d.equality_holds


def test_decompose_example1_threshold():
    model = scenario("example1")
    d = decompose_unfairness(model, T45)
    assert d.f_du == pytest.approx(0.017315588533980353, abs=1e-8)
    assert d.f_mu == pytest.approx(0.20633200060783335, abs=1e-8)
    assert d.f_u == pytest.approx(d.f_du + d.f_mu, abs=1e-12)
    assert d.equality_holds
    # reference rates order as TPR0 < TPR1 with TNR0 > TNR1 and the threshold
    # rule matches the shared verdict outside the disputed band
    assert d.condition_met == "condition1"


def test_decompose_reads_the_models_kept_reference():
    # default calls build the per-group Reference once per model; a given
    # reference is built from what is given, once, and kept too
    model = random_model(3)
    clfs = [random_classifier(seed) for seed in range(4)]
    want = [Reference.of(model).decompose(model, clf) for clf in clfs]
    with mock.patch.object(Reference, "of", wraps=Reference.of) as of:
        got = [decompose_unfairness(model, clf) for clf in clfs * 2]
        assert of.call_count == 1
        stars = bayes_accuracy_optimal(model, "per_group")
        decompose_unfairness(model, T45, reference=stars)
        assert of.call_count == 2
        decompose_unfairness(model, T45, reference=stars)
        assert of.call_count == 2
    assert got == want * 2


def test_decompose_data_part_constant_across_thresholds():
    model = scenario("example3")
    reference = bayes_accuracy_optimal(model, "per_group")
    values = []
    for t in np.linspace(0.0, 9.0, 100):
        clf = GroupwiseClassifier.shared_threshold(float(t))
        values.append(decompose_unfairness(model, clf,
                                           reference=reference).f_du)
    assert max(values) - min(values) <= 1e-12
    assert values[0] == pytest.approx(0.04299729765437821, abs=1e-8)


def test_decompose_subadditive_on_random_pairs():
    # Decomposition's constructor rejects f_u > f_du + f_mu, so surviving
    # construction is the check
    for mseed in range(25):
        model = random_model(mseed)
        reference = bayes_accuracy_optimal(model, "per_group")
        for cseed in range(20):
            d = decompose_unfairness(model, random_classifier(cseed),
                                     reference=reference)
            assert d.f_u <= d.f_du + d.f_mu + 1e-9


def test_complement_flips_rates():
    model = scenario("example3")
    for seed in range(10):
        clf = random_classifier(seed)
        rates = confusion_rates(model, clf)
        flipped = confusion_rates(model, complemented(clf))
        for a in (0, 1):
            assert rates.tpr[a] + flipped.tpr[a] == pytest.approx(1, abs=1e-12)
            assert rates.tnr[a] + flipped.tnr[a] == pytest.approx(1, abs=1e-12)


def test_group_relabel_symmetry():
    model = scenario("example1")
    swapped = GroupConditionalModel(
        joint={(a, y): model.joint[(1 - a, y)] for a, y in model.joint},
        conditional={(a, y): model.conditional[(1 - a, y)]
                     for a, y in model.conditional})
    for seed in range(10):
        clf = random_classifier(seed)
        mirror = GroupwiseClassifier(tuple(reversed(clf.regions)))
        assert unfairness(confusion_rates(model, clf)) == pytest.approx(
            unfairness(confusion_rates(swapped, mirror)), abs=1e-12)
        assert accuracy(model, clf) == pytest.approx(
            accuracy(swapped, mirror), abs=1e-12)


def test_accuracy_matches_direct_integration():
    model = scenario("example1")
    clf = GroupwiseClassifier.per_group_thresholds(2.0, 6.5)
    total = 0.0
    for a in (0, 1):
        pos = clf.positive_region(a)
        for lo, hi in pos.intervals:
            total += quad(lambda x: model.joint_pdf(x, a, 1), max(lo, -40),
                          min(hi, 50), limit=400, epsabs=1e-13)[0]
        for lo, hi in pos.complement().intervals:
            total += quad(lambda x: model.joint_pdf(x, a, 0), max(lo, -40),
                          min(hi, 50), limit=400, epsabs=1e-13)[0]
    assert accuracy(model, clf) == pytest.approx(total, abs=1e-10)
