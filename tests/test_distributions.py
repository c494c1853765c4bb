"""Distribution primitives against closed-form and sampling oracles."""

import math

import numpy as np
import pytest

from fairfrontier import (FamilySpec, InputError, MetricWeights, Mixture,
                          Normal, Triangular, ValidationError, evaluate,
                          positive_mass, sample)
from fairfrontier.distributions import erfc, ndtri

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
    (Triangular(-1e-310, 2.0, 0.0), Triangular(0.0, 2.0, 0.0)),
])
def test_triangular_with_an_underflowing_edge_stays_finite(dist, edge):
    # (upper - lower) * (mode - lower), or its mirror, rounds to 0 here, or
    # (last case) is so small that dividing by it overflows off the edge;
    # the law must read like the one with its mode on that edge
    xs = np.r_[dist.lower, dist.mode, np.linspace(-0.6, 0.6, 13)]
    assert np.all(np.isfinite(dist.pdf(xs)))
    np.testing.assert_allclose(dist.cdf(xs), edge.cdf(xs), atol=1e-15)
    for x in xs.tolist():  # the float path
        assert math.isfinite(dist.pdf(x))
        assert dist.cdf(x) == pytest.approx(edge.cdf(x), abs=1e-15)


def test_triangular_float_path_equals_the_array_path_on_random_points():
    # hypothesis favours round numbers, where a reordered operation often
    # rounds the same; uniform draws show a last-digit difference at once
    rng = np.random.default_rng(0)
    for _ in range(200):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.uniform(1e-3, 6.0)
        dist = Triangular(lo, hi, rng.uniform(lo, hi))
        xs = rng.uniform(lo - 1.0, hi + 1.0, 10)
        qs = rng.uniform(0.0, 1.0, 10)
        for method, points in ((dist.pdf, xs), (dist.cdf, xs),
                               (dist.ppf, qs)):
            want = method(points)
            got = np.array([method(p) for p in points.tolist()])
            assert got.tobytes() == want.tobytes(), method.__name__


def test_normal_float_path_equals_the_array_path_on_random_points():
    # as for Triangular above; points reach 40 sd, where erfc's far tail
    # and the pdf's exp underflow, and the edges add the infinities and NaN
    rng = np.random.default_rng(0)
    for _ in range(200):
        dist = Normal(rng.uniform(-10.0, 10.0), rng.uniform(1e-3, 6.0))
        xs = np.r_[dist.mean + dist.stddev * rng.uniform(-40.0, 40.0, 10),
                   -math.inf, math.inf, math.nan]
        qs = np.r_[rng.uniform(0.0, 1.0, 10), 0.0, 1.0, math.nan]
        for method, points in ((dist.pdf, xs), (dist.cdf, xs),
                               (dist.ppf, qs)):
            want = method(points)
            got = [method(p) for p in points.tolist()]
            assert all(type(v) is np.float64 for v in got), method.__name__
            assert np.array(got).tobytes() == want.tobytes(), method.__name__


def test_erfc_and_ndtri_against_mpmath():
    # the committed tests/accuracy_normal.py measures 10**6 points; this is
    # its point mix, 10**4 of each, against the same oracle
    pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    from accuracy_normal import erfc_points, ndtri_points, ulp_errors
    xs = erfc_points(10_000, seed=1)
    errs = ulp_errors("erfc", xs, {"ours": erfc(xs),
                                   "scipy": special.erfc(xs)})
    for stat in (np.max, lambda e: np.percentile(e, 99)):
        assert stat(errs["ours"]) <= stat(errs["scipy"])
    ps = ndtri_points(10_000, seed=1)
    errs = ulp_errors("ndtri", ps, {"ours": ndtri(ps)})["ours"]
    assert np.percentile(errs, 99) <= 4.0 and errs.max() <= 8.0


def both_paths(function, points):
    """function at each point as a float and as one array, which must agree
    bit for bit, with an np.float64 for each float."""
    as_array = function(np.array(points))
    as_floats = [function(p) for p in points]
    assert all(type(v) is np.float64 for v in as_floats)
    assert np.array(as_floats).tobytes() == as_array.tobytes()
    return as_array


def test_erfc_at_its_edges():
    # erfc underflows past 26.55 through the subnormals to 0 near 27.23;
    # nothing here may warn (pytest turns warnings into errors)
    got = both_paths(erfc, [0.0, -0.0, math.inf, -math.inf, math.nan,
                            26.6, 27.3, 1e300, -26.6, -1e300, 5e-324])
    assert got.tolist()[:4] == [1.0, 1.0, 0.0, 2.0] and math.isnan(got[4])
    assert 0.0 < got[5] < 2.0 ** -1022
    assert got.tolist()[6:] == [0.0, 0.0, 2.0, 2.0, 1.0]
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(26.5, 27.25, 301)
    got = both_paths(erfc, xs.tolist())
    with mp.workprec(128):
        for x, y in zip(xs.tolist(), got.tolist()):
            true = mp.erfc(x)
            ulp = mp.ldexp(1, max(int(mp.frexp(true)[1]) - 53, -1074))
            assert abs(y - true) <= 8 * ulp, x


def test_ndtri_at_its_edges():
    got = both_paths(ndtri, [0.0, 1.0, math.nan, 5e-324, 1.0 - 2.0 ** -53,
                             -0.5, 1.5, -math.inf, math.inf, 1e300, -5e-324])
    assert got.tolist()[:2] == [-math.inf, math.inf]
    assert np.isnan(got[[2, 5, 6, 7, 8, 9, 10]]).all()
    mp = pytest.importorskip("mpmath")
    with mp.workprec(128):
        for p, y in ((5e-324, got[3]), (2.0 ** -53, -got[4])):
            # the residual of one Newton step from y, in ulps of y
            y = mp.mpf(float(y))
            step = (mp.ncdf(y) - p) / mp.npdf(y)
            assert abs(step) <= 8 * mp.ldexp(1, int(mp.frexp(y)[1]) - 53)


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
    with pytest.raises(ValidationError, match="sum to 0.9"):
        Mixture(((0.5, Normal(0, 1)), (0.4, Normal(1, 1))))


@pytest.mark.parametrize("components, message", [
    ((Normal(0, 1),), "pairs"),
    (((1.0, "normal"),), "Unsupported"),
    ((), "at least one"),
], ids=["not-a-pair", "not-a-law", "empty"])
def test_mixture_refuses_malformed_components(components, message):
    with pytest.raises(ValidationError, match=message):
        Mixture(components)


@pytest.mark.parametrize("intervals, message", [
    (((math.nan, 1.0),), "NaN"),
    (((1.0, 0.0),), "reversed"),
    (((0.0, 2.0), (1.0, 3.0)), "sorted and disjoint"),
], ids=["nan", "reversed", "overlapping"])
def test_positive_mass_refuses_malformed_intervals(intervals, message):
    with pytest.raises(InputError, match=message):
        positive_mass(Normal(0, 1), intervals)


def test_invalid_parameters_rejected():
    with pytest.raises(ValidationError):
        Normal(0, 0)
    with pytest.raises(ValidationError):
        Normal(0, -1)
    with pytest.raises(ValidationError):
        Triangular(5, 1, 3)
    with pytest.raises(ValidationError):
        Triangular(0, 4, 9)


# (constructor of one numeric field, an accepted value, whole values only)
NUMBER_FIELDS = {
    "resolution": (lambda v: FamilySpec("shared_threshold", resolution=v),
                   801, True),
    "k": (lambda v: FamilySpec("per_group_intervals", k=v), 1, True),
    "sweep_range": (lambda v: FamilySpec("shared_threshold",
                                         sweep_range=(0, v)), 1, False),
    "weight": (lambda v: MetricWeights(p1=v), 1, False),
    "normal": (lambda v: Normal(0, v), 1, False),
    "triangular": (lambda v: Triangular(0, v, 0.5), 1, False),
    "mixture": (lambda v: Mixture(((v, Normal(0, 1)),)), 1, False),
}


@pytest.mark.parametrize("build, value, whole", NUMBER_FIELDS.values(),
                         ids=NUMBER_FIELDS)
def test_numbers_follow_one_rule(build, value, whole):
    # bools, strings and non-finite values are refused, as are fractions
    # where a whole number is due; every real type of a good value passes
    refused = [True, str(value), math.nan, math.inf]
    if whole:
        refused.append(value + 0.5)
    for bad in refused:
        with pytest.raises(ValidationError):
            build(bad)
    built = build(value)
    for same in (float(value), np.float64(value), np.int64(value)):
        assert build(same) == built


def test_triangular_refuses_a_width_that_overflows():
    # the width itself overflows, or its square (the edges' denominators)
    with pytest.raises(ValidationError):
        Triangular(-1e308, 1e308, 0.0)
    with pytest.raises(ValidationError):
        Triangular(-1e200, 1e200, 0.0)


def test_evaluate_rejects_nonfinite_point():
    with pytest.raises(InputError):
        evaluate(Normal(0, 1), math.inf)


def test_sample_rejects_nonpositive_n():
    with pytest.raises(InputError):
        sample(Normal(0, 1), 0, seed=1)
