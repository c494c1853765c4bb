"""Property-based invariants over random inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfrontier import (ConfusionRates, FrontierPoint, IntervalSet,
                          Mixture, Normal, Triangular, bayes_accuracy_optimal,
                          decompose_unfairness, dominance_oracle, fairness,
                          pareto_filter, unfairness)
from fairfrontier.frontier import (DOMINANCE_TOL, _interval_region_count,
                                   _interval_regions)
from helpers import random_classifier, random_model

finite = st.floats(min_value=-50, max_value=50, allow_nan=False,
                   allow_infinity=False)


@st.composite
def interval_sets(draw):
    cuts = sorted(draw(st.lists(finite, max_size=8)))
    edges = list(cuts)
    if draw(st.booleans()):
        edges = [-math.inf] + edges
    if draw(st.booleans()):
        edges = edges + [math.inf]
    start = draw(st.integers(0, 1))
    return IntervalSet(tuple((edges[i], edges[i + 1])
                             for i in range(start, len(edges) - 1, 2)))


@st.composite
def clouds(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 500)),
                          min_size=1, max_size=80))
    return [FrontierPoint(f / 20.0, a / 500.0, ("grid", str(i), (), ()))
            for i, (f, a) in enumerate(pairs)]


@st.composite
def mixtures(draw):
    # densities stay below ~4 so a 1e-13 quantile error moves the cdf < 1e-12
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(-10, 10))
        if draw(st.booleans()):
            comps.append(Normal(lo, draw(st.floats(0.2, 3.0))))
        else:
            hi = lo + draw(st.floats(0.5, 6.0))
            comps.append(Triangular(lo, hi, draw(st.floats(lo, hi))))
    raw = [draw(st.floats(0.05, 1.0)) for _ in comps]
    return Mixture(tuple((r / sum(raw), d) for r, d in zip(raw, comps)))


def probe_points(*sets):
    pts = {0.0}
    for s in sets:
        for lo, hi in s.intervals:
            for b in (lo, hi):
                if math.isfinite(b):
                    pts.update((b - 0.5, b, b + 0.5))
    return np.array(sorted(pts))


@given(interval_sets(), interval_sets())
@settings(max_examples=60, deadline=None)
def test_interval_algebra_matches_membership(a, b):
    xs = probe_points(a, b)
    in_a, in_b = a.contains(xs), b.contains(xs)
    assert np.array_equal(a.union(b).contains(xs), in_a | in_b)
    assert np.array_equal(a.intersection(b).contains(xs), in_a & in_b)
    assert np.array_equal(a.difference(b).contains(xs), in_a & ~in_b)
    assert np.array_equal(a.symmetric_difference(b).contains(xs),
                          in_a ^ in_b)


@given(interval_sets(), interval_sets())
@settings(max_examples=60, deadline=None)
def test_interval_algebra_identities(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.complement().complement() == a
    assert a.symmetric_difference(b) == \
        a.union(b).difference(a.intersection(b))
    assert a.difference(b) == a.intersection(b.complement())


@given(st.lists(st.floats(0, 1), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_unfairness_stays_in_unit_interval(vals):
    rates = ConfusionRates(tpr=(vals[0], vals[1]), tnr=(vals[2], vals[3]))
    u = unfairness(rates)
    assert 0.0 <= u <= 1.0
    assert fairness(rates) == pytest.approx(1.0 - u)


@given(st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=12, deadline=None)
def test_decomposition_subadditive(mseed, cseed):
    model = random_model(mseed)
    d = decompose_unfairness(model, random_classifier(cseed),
                             reference=bayes_accuracy_optimal(model,
                                                              "per_group"))
    assert d.f_u <= d.f_du + d.f_mu + 1e-9


def dominates(q, p):
    tol = DOMINANCE_TOL
    return ((q.fairness >= p.fairness - tol
             and q.accuracy > p.accuracy + tol)
            or (q.fairness > p.fairness + tol
                and q.accuracy >= p.accuracy - tol))


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_pareto_survivors_mutually_nondominated(cloud):
    pts = pareto_filter(cloud).points
    for p in pts:
        assert not any(dominates(q, p) for q in pts if q is not p)


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_pareto_dropped_points_are_accounted_for(cloud):
    survivors = pareto_filter(cloud).points
    kept = set(survivors)
    for p in cloud:
        if p in kept:
            continue
        covered = any(
            dominates(s, p)
            or (s.fairness == p.fairness
                and (s.accuracy > p.accuracy
                     or (s.accuracy == p.accuracy and s.params <= p.params)))
            for s in survivors)
        assert covered


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_pareto_filter_idempotent(cloud):
    once = pareto_filter(cloud).points
    assert pareto_filter(list(once)).points == once


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_fast_filter_equals_quadratic_oracle(cloud):
    assert pareto_filter(cloud).points == dominance_oracle(cloud).points


@pytest.mark.parametrize("resolution", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("orient", ["positive_above", "positive_below",
                                    "both"])
def test_interval_region_count_matches_enumeration(resolution, k, orient):
    grid = np.linspace(0.0, 1.0, resolution)
    regions = _interval_regions(grid, k, orient)
    assert len(regions) == _interval_region_count(resolution, k, orient)
    assert len(set(regions)) == len(regions)
    for region in regions:
        assert len(region) <= k


@given(mixtures(), st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1,
                            max_size=20))
@settings(max_examples=60, deadline=None)
def test_mixture_ppf_inverts_cdf_and_is_monotone(mix, qs):
    q = np.sort(np.array(qs))
    x = mix.ppf(q)
    assert np.all(np.abs(mix.cdf(x) - q) <= 1e-12)
    assert np.all(np.diff(x) >= 0.0)
    assert mix.ppf(float(q[0])) == x[0]
