"""Distribution primitives against closed-form and sampling oracles."""

import math

import numpy as np
import pytest

from fairfrontier import (InputError, Mixture, Normal, Triangular,
                          ValidationError, evaluate, positive_mass, sample)

FULL = ((-math.inf, math.inf),)


def test_triangular_cdf_left_branch():
    assert evaluate(Triangular(4, 12, 8), 6).cumulative == pytest.approx(
        0.125, abs=1e-15)


def test_triangular_pdf_at_mode():
    assert evaluate(Triangular(0, 8, 4), 4).density == pytest.approx(
        0.25, abs=1e-15)


@pytest.mark.parametrize("dist, edge", [
    (Triangular(0.0, 0.5, 5e-324), Triangular(0.0, 0.5, 0.0)),
    (Triangular(-0.5, 0.0, -5e-324), Triangular(-0.5, 0.0, 0.0)),
])
def test_triangular_with_an_underflowing_edge_stays_finite(dist, edge):
    # (upper - lower) * (mode - lower), or its mirror, rounds to 0 here; the
    # law must read like the one with its mode on that edge
    xs = np.r_[dist.lower, dist.mode, np.linspace(-0.6, 0.6, 13)]
    assert np.all(np.isfinite(dist.pdf(xs)))
    np.testing.assert_allclose(dist.cdf(xs), edge.cdf(xs), atol=1e-15)


def test_normal_cdf_at_mean():
    assert evaluate(Normal(6, 2), 6).cumulative == pytest.approx(0.5, abs=1e-15)


def test_normal_cdf_left_tail():
    got = evaluate(Normal(6, 2), 2.5).cumulative
    assert got == pytest.approx(0.040059156863817086, abs=1e-15)


def test_positive_mass_full_and_empty():
    d = Normal(0, 1)
    assert positive_mass(d, FULL) == 1.0
    assert positive_mass(d, ()) == 0.0


def test_positive_mass_triangular_ray():
    got = positive_mass(Triangular(3, 7, 5), ((-math.inf, 6),))
    assert got == pytest.approx(0.875, abs=1e-12)


def test_sample_mean_normal():
    xs = sample(Normal(0, 1), 1_000_000, seed=7)
    assert abs(xs.mean()) < 0.004


def test_sample_mean_triangular():
    xs = sample(Triangular(0, 8, 4), 1_000_000, seed=7)
    assert abs(xs.mean() - 4.0) < 0.006


def test_sample_deterministic_in_seed_and_n():
    a = sample(Normal(2, 3), 50_000, seed=11)
    b = sample(Normal(2, 3), 50_000, seed=11)
    assert np.array_equal(a, b)
    c = sample(Normal(2, 3), 50_000, seed=12)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dist", [
    Normal(1.5, 0.7),
    Triangular(-2, 5, 1),
    Mixture(((0.3, Normal(-2, 1)), (0.7, Triangular(0, 4, 1)))),
])
def test_sample_matches_cdf_ks(dist):
    xs = np.sort(sample(dist, 200_000, seed=3))
    grid = np.arange(1, xs.size + 1) / xs.size
    cdf = np.array([evaluate(dist, float(x)).cumulative for x in xs[::997]])
    emp = grid[::997]
    assert np.max(np.abs(cdf - emp)) < 0.002


@pytest.mark.parametrize("dist", [
    Normal(0, 1),
    Normal(-3, 0.4),
    Triangular(0, 8, 4),
    Mixture(((0.5, Normal(-1, 1)), (0.5, Normal(3, 2)))),
])
def test_cdf_derivative_matches_pdf(dist):
    # central difference of the cdf against the reported density
    lo = evaluate(dist, -6.0)
    hi = evaluate(dist, 6.0)
    assert lo.cumulative < hi.cumulative
    xs = np.linspace(-4.0, 4.0, 1000)
    h = 1e-6
    for x in xs:
        p = evaluate(dist, float(x)).density
        if p < 1e-8:
            continue
        d = (evaluate(dist, float(x + h)).cumulative
             - evaluate(dist, float(x - h)).cumulative) / (2 * h)
        assert d == pytest.approx(p, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dist", [
    Normal(2, 2),
    Triangular(-1, 3, 0),
    Mixture(((0.2, Normal(0, 1)), (0.8, Triangular(1, 6, 2)))),
])
def test_mass_plus_complement_mass_is_one(dist):
    region = ((-math.inf, -0.5), (0.25, 1.75), (3.0, math.inf))
    comp = ((-0.5, 0.25), (1.75, 3.0))
    total = positive_mass(dist, region) + positive_mass(dist, comp)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_mixture_evaluates_as_weighted_sum():
    parts = ((0.25, Normal(-1, 1)), (0.75, Triangular(0, 4, 2)))
    mix = Mixture(parts)
    for x in (-2.0, 0.0, 1.3, 3.9):
        want_pdf = sum(w * evaluate(d, x).density for w, d in parts)
        want_cdf = sum(w * evaluate(d, x).cumulative for w, d in parts)
        got = evaluate(mix, x)
        assert got.density == pytest.approx(want_pdf, abs=1e-12)
        assert got.cumulative == pytest.approx(want_cdf, abs=1e-12)


def test_mixture_rejects_deep_nesting():
    inner = Mixture(((1.0, Normal(0, 1)),))
    middle = Mixture(((1.0, inner),))
    with pytest.raises(ValidationError):
        Mixture(((1.0, middle),))


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValidationError):
        Mixture(((0.0, Normal(0, 1)), (1.0, Normal(1, 1))))
    with pytest.raises(ValidationError):
        Mixture(((1.5, Normal(0, 1)),))


def test_invalid_parameters_rejected():
    with pytest.raises(ValidationError):
        Normal(0, 0)
    with pytest.raises(ValidationError):
        Normal(0, -1)
    with pytest.raises(ValidationError):
        Triangular(5, 1, 3)
    with pytest.raises(ValidationError):
        Triangular(0, 4, 9)


def test_evaluate_rejects_nonfinite_point():
    with pytest.raises(InputError):
        evaluate(Normal(0, 1), math.inf)


def test_sample_rejects_nonpositive_n():
    with pytest.raises(InputError):
        sample(Normal(0, 1), 0, seed=1)
