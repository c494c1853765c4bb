"""Monte-Carlo cross-checks and the quadratic dominance reference."""

import math

import numpy as np
import pytest

from fairfrontier import (FULL_LINE, CELLS, FrontierPoint,
                          GroupConditionalModel, GroupwiseClassifier,
                          InputError, Normal, ResourceError, FamilySpec,
                          ValidationError,
                          accuracy, bayes_accuracy_optimal, confusion_rates,
                          dominance_oracle, mc_estimate, pareto_filter,
                          scenario, sweep, unfairness)
from fairfrontier.oracle import MC_CAP

T45 = GroupwiseClassifier.shared_threshold(4.5)


def pt(fairness, accuracy, tag):
    return FrontierPoint(fairness, accuracy, ("grid", tag, (), ()))


def test_constant_positive_has_exact_rates():
    res = mc_estimate(scenario("example1"),
                      GroupwiseClassifier.from_shared(FULL_LINE), n=10_000)
    for a in (0, 1):
        assert res.tpr[a].value == 1.0
        assert res.tpr[a].stderr == 0.0
        assert res.tnr[a].value == 0.0
        assert res.tnr[a].stderr == 0.0
    assert res.f_u.value == 0.0


def test_example1_threshold_within_three_stderr():
    model = scenario("example1")
    res = mc_estimate(model, T45, n=1_000_000, seed=0)
    assert abs(res.f_u.value - 0.2236475891418137) <= 3 * res.f_u.stderr
    assert abs(res.acc.value - 0.9131523908367654) <= 3 * res.acc.stderr
    rates = confusion_rates(model, T45)
    for a in (0, 1):
        assert abs(res.tpr[a].value - rates.tpr[a]) <= 3 * res.tpr[a].stderr
        assert abs(res.tnr[a].value - rates.tnr[a]) <= 3 * res.tnr[a].stderr


def test_example4_star_accuracy_within_three_stderr():
    model = scenario("example4_identical")
    stars = bayes_accuracy_optimal(model, "per_group")
    res = mc_estimate(model, stars, n=1_000_000, seed=3)
    assert abs(res.acc.value - 0.875) <= 3 * res.acc.stderr
    assert res.acc.stderr < 0.001


def test_mc_estimate_deterministic():
    model = scenario("example3")
    a = mc_estimate(model, T45, n=50_000, seed=11)
    b = mc_estimate(model, T45, n=50_000, seed=11)
    assert a == b
    c = mc_estimate(model, T45, n=50_000, seed=12)
    assert c.acc.value != a.acc.value


def test_mc_estimate_rejects_tiny_n():
    with pytest.raises(InputError):
        mc_estimate(scenario("example1"), T45, n=999)


def test_mc_estimate_refuses_a_fractional_n():
    with pytest.raises(ValidationError, match="whole number"):
        mc_estimate(scenario("example1"), T45, n=1000.9)


def test_mc_estimate_refuses_more_than_the_cap():
    with pytest.raises(ResourceError, match="cap"):
        mc_estimate(scenario("example1"), T45, n=MC_CAP + 1)


def test_mc_estimate_flags_empty_cells():
    model = GroupConditionalModel(
        joint={(0, 0): 0.25, (0, 1): 0.0, (1, 0): 0.25, (1, 1): 0.5},
        conditional={cell: Normal(0, 1) for cell in CELLS})
    res = mc_estimate(model, T45, n=2_000, seed=0)
    assert res.tpr[0].unreliable
    assert math.isnan(res.tpr[0].value)
    assert res.f_u.unreliable
    assert math.isnan(res.f_u.value)
    assert not res.acc.unreliable


def test_dominance_oracle_five_point_example():
    cloud = [pt(0.9, 0.8, "0"), pt(0.8, 0.85, "1"), pt(0.85, 0.84, "2"),
             pt(0.9, 0.79, "3"), pt(0.7, 0.85, "4")]
    got = dominance_oracle(cloud)
    assert [(p.fairness, p.accuracy) for p in got.points] == [
        (0.8, 0.85), (0.85, 0.84), (0.9, 0.8)]


def test_dominance_oracle_handles_duplicates():
    cloud = [pt(0.5, 0.5, "a"), pt(0.5, 0.5, "b"), pt(0.2, 0.4, "c")]
    got = dominance_oracle(cloud)
    assert len(got.points) == 1
    assert got.points[0].params[1] == "a"


def test_dominance_oracle_collapses_equal_fairness():
    cloud = [pt(0.5, 0.7, "low"), pt(0.5, 0.9, "high")]
    got = dominance_oracle(cloud)
    assert [(p.fairness, p.accuracy) for p in got.points] == [(0.5, 0.9)]


def test_dominance_oracle_rejects_empty_and_oversized():
    with pytest.raises(InputError):
        dominance_oracle([])
    big = [pt(i * 1e-6, 0.5, str(i)) for i in range(100_001)]
    with pytest.raises(ResourceError):
        dominance_oracle(big)


def test_filters_agree_on_random_clouds():
    rng = np.random.Generator(np.random.Philox(17))
    for trial in range(20):
        n = int(rng.integers(2, 400))
        # draw fairness from a coarse lattice so exact ties are common
        f = rng.integers(0, 25, size=n) / 25.0
        a = np.round(rng.random(n), 3)
        cloud = [pt(float(fv), float(av), str(i))
                 for i, (fv, av) in enumerate(zip(f, a))]
        assert pareto_filter(cloud).points == dominance_oracle(cloud).points


def test_filters_agree_on_a_real_sweep():
    model = scenario("example1")
    family = FamilySpec("shared_threshold", orientations="both",
                        resolution=801, sweep_range=(-8, 12))
    candidates = sweep(model, family)
    assert pareto_filter(candidates).points == \
        dominance_oracle(candidates).points
