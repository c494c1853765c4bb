"""Property-based invariants over random inputs."""

import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fairfrontier import (ConfusionRates, FamilySpec, FrontierPoint,
                          GroupConditionalModel, GroupwiseClassifier,
                          IntervalSet, MetricWeights, Mixture, Normal,
                          Triangular, accuracy, bayes_accuracy_optimal,
                          build_frontier, check_decomposition_bound,
                          classify_shape, confusion_rates,
                          decompose_unfairness, dominance_oracle, fairness,
                          pareto_filter, sweep, unfairness, validate,
                          well_defined_check)
from fairfrontier.distributions import _root
from fairfrontier.frontier import (DOMINANCE_TOL, KINDS, ORIENTS, _bounds,
                                   _cell_cdfs, _cut_table, _masses,
                                   _region_count, _Regions)
from fairfrontier.metrics import _gap, _group_rates, _hits
from fairfrontier.population import _dist_to_payload, _read_payload
from helpers import CELLS, random_classifier, random_model

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


@st.composite
def normals(draw):
    # down to sd 1e-3, so points in [-60, 60] reach far into both tails
    return Normal(draw(st.floats(-10, 10)), draw(st.floats(1e-3, 10.0)))


@st.composite
def triangulars(draw):
    lo = draw(st.floats(-10, 10))
    hi = lo + draw(st.floats(1e-3, 6.0))
    mode = draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))
    return Triangular(lo, hi, mode)


def probe_points(*sets):
    pts = {0.0}
    for s in sets:
        for lo, hi in s.intervals:
            for b in (lo, hi):
                if math.isfinite(b):
                    pts.update((b - 0.5, b, b + 0.5))
    return np.array(sorted(pts))


@given(interval_sets(), interval_sets())
@example(IntervalSet(((0.0, 50.0),)),
         IntervalSet(((-math.inf, 49.99999999999999), (50.0, math.inf))))
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
@example(IntervalSet(((1e20, math.inf),)), IntervalSet(()))
@settings(max_examples=60, deadline=None)
def test_interval_algebra_identities(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.complement().complement() == a
    assert a.symmetric_difference(b) == \
        a.union(b).difference(a.intersection(b))
    assert a.difference(b) == a.intersection(b.complement())


def segment_loop(a, b, keep):
    """IntervalSet's operations as a loop over the segments between both
    sets' endpoints, merging kept runs by hand, as they were computed before
    IntervalSet merged the kept segments itself."""
    pts = sorted({p for s in (a, b) for pair in s.intervals for p in pair
                  if np.isfinite(p)})
    edges = [-math.inf] + pts + [math.inf]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        if keep(bool(a.contains(lo)), bool(b.contains(lo))):
            if out and out[-1][1] == lo:
                out[-1][1] = hi
            else:
                out.append([lo, hi])
    return IntervalSet(tuple((lo, hi) for lo, hi in out))


SEGMENT_RULES = {
    "intersection": lambda a, b: a and b,
    "union": lambda a, b: a or b,
    "symmetric_difference": lambda a, b: a != b,
    "difference": lambda a, b: a and not b,
}

# a small pool, so that the two sets share and touch endpoints, with both
# zeros, whose sign the first set to name a point decides
shared_endpoints = st.one_of(
    st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, math.inf]),
    finite)


@st.composite
def raw_interval_sets(draw):
    # unsorted, overlapping, touching and empty pairs, which IntervalSet
    # sorts, merges and drops
    return IntervalSet(tuple(draw(st.lists(
        st.tuples(shared_endpoints, shared_endpoints), max_size=6))))


@given(raw_interval_sets(), raw_interval_sets())
@example(IntervalSet(((-0.0, 1.0),)), IntervalSet(((0.0, 2.0),)))
@example(IntervalSet(((0.0, 1.0), (-1.0, -0.0))), IntervalSet(((1.0, 2.0),)))
@settings(max_examples=300, deadline=None)
def test_interval_operations_equal_the_segment_loop(a, b):
    for name, keep in SEGMENT_RULES.items():
        want = segment_loop(a, b, keep)
        assert repr(getattr(a, name)(b).intervals) == repr(want.intervals)
    want = segment_loop(a, IntervalSet(()), lambda x, _: not x)
    assert repr(a.complement().intervals) == repr(want.intervals)


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


@given(st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=12, deadline=None)
def test_decomposition_paths_agree(mseed, cseed):
    model = random_model(mseed)
    clf = random_classifier(cseed)
    d = decompose_unfairness(model, clf)
    report = {c.name: c
              for c in check_decomposition_bound(model, clf).conditions}
    well_defined = well_defined_check(clf, model).well_defined
    assert report["well_defined"].satisfied == well_defined
    assert d.well_defined == well_defined
    pattern = report["sign_pattern"].measured["pattern"]
    if well_defined:
        assert (d.condition_met or "none") == pattern
    else:
        assert d.condition_met is None


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
@example([FrontierPoint(1.0, 0.5, ("grid", "p", (), ())),
          FrontierPoint(0.9, 0.5 + 0.9e-12, ("grid", "q", (), ())),
          FrontierPoint(0.8, 0.5 + 1.5e-12, ("grid", "r", (), ()))])
@settings(max_examples=60, deadline=None)
def test_pareto_dropped_points_are_accounted_for(cloud):
    # the tolerance rule is not transitive: a dropped point may be dominated
    # only by another dropped point (r by q in the example), not by a survivor
    survivors = pareto_filter(cloud).points
    kept = set(survivors)
    for p in cloud:
        if p in kept:
            continue
        collapsed = any(
            s.fairness == p.fairness
            and (s.accuracy > p.accuracy
                 or (s.accuracy == p.accuracy and s.params <= p.params))
            for s in survivors)
        assert collapsed or any(dominates(q, p) for q in cloud)


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_pareto_filter_idempotent(cloud):
    once = pareto_filter(cloud).points
    assert pareto_filter(list(once)).points == once


@given(clouds())
@settings(max_examples=60, deadline=None)
def test_fast_filter_equals_quadratic_oracle(cloud):
    assert pareto_filter(cloud).points == dominance_oracle(cloud).points


@given(clouds(), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_chunked_first_pass_equals_quadratic_oracle(cloud, chunk):
    with mock.patch("fairfrontier.frontier._CHUNK", chunk):
        assert pareto_filter(cloud).points == dominance_oracle(cloud).points


@given(st.integers(0, 300), st.sampled_from(KINDS), st.sampled_from(ORIENTS),
       st.data())
@settings(max_examples=12, deadline=None)
def test_candidates_agree_with_their_points(mseed, kind, orient, data):
    family = FamilySpec(kind, orientations=orient,
                        resolution=5 if kind == "per_group_intervals" else 9)
    candidates = sweep(random_model(mseed), family)
    pts = list(candidates)
    assert len(pts) == len(candidates)
    assert [p.fairness for p in pts] == candidates.fairness.tolist()
    assert [p.accuracy for p in pts] == candidates.accuracy.tolist()
    drawn = data.draw(st.lists(st.integers(-len(pts), len(pts) - 1),
                               max_size=20))
    for i in [0, 1, -2, -1] + drawn:
        assert candidates[i] == pts[i]
    for i in (len(pts), -len(pts) - 1):
        with pytest.raises(IndexError):
            candidates[i]
    frontier = pareto_filter(candidates).points
    assert frontier == pareto_filter(pts).points
    assert frontier == dominance_oracle(pts).points


@st.composite
def frontier_weights(draw):
    """MetricWeights with omega often at 0 or 1 and p1 or p2 often 0."""
    omega1 = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    p1, p2 = (draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
              for _ in range(2))
    return MetricWeights(omega1, 1.0 - omega1, p1, p2)


rate_lists = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=8)


@given(st.integers(0, 300), st.integers(0, 300), frontier_weights(),
       rate_lists, rate_lists)
@settings(max_examples=60, deadline=None)
def test_score_rule_gives_floats_and_arrays_the_same_bits(mseed, cseed, w,
                                                          rows, cols):
    # rows are group-0 (tpr, tnr) pairs, cols group-1 ones; one array call
    # scores every pair as _scores does, by broadcasting rows against cols
    model = random_model(mseed)
    tpr0, tnr0 = (np.array(x)[:, None] for x in zip(*rows))
    tpr1, tnr1 = (np.array(x)[None, :] for x in zip(*cols))
    gaps = _gap(w, tpr0, tpr1, tnr0, tnr1)
    hits = _hits(model, w, tpr0, tpr1, tnr0, tnr1)
    for (i, (p0, n0)), (j, (p1, n1)) in itertools.product(enumerate(rows),
                                                          enumerate(cols)):
        assert same_bits(_gap(w, p0, p1, n0, n1), gaps[i, j])
        assert same_bits(_hits(model, w, p0, p1, n0, n1), hits[i, j])
    clf = random_classifier(cseed)
    rates = confusion_rates(model, clf)
    for a in (0, 1):
        assert (_group_rates(model, a, clf.positive_region(a))
                == (rates.tpr[a], rates.tnr[a]))


@st.composite
def normal_models(draw):
    """One Normal per cell; its fairness optimum takes milliseconds where a
    random_model mixture's can take a second."""
    masses = [draw(st.integers(1, 10)) for _ in CELLS]
    return GroupConditionalModel(
        {cell: m / sum(masses) for cell, m in zip(CELLS, masses)},
        {cell: Normal(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 3.0)))
         for cell in CELLS})


@given(normal_models(), st.booleans(),
       st.sampled_from(ORIENTS + tuple(itertools.product(ORIENTS[:2],
                                                         repeat=2))),
       st.integers(3, 41), frontier_weights())
@example(random_model(3), True, "both", 3, MetricWeights())
@example(random_model(4), False, ("positive_above", "positive_below"), 41,
         MetricWeights(1.0, 0.0, 0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_build_frontier_equals_the_full_pipeline(model, shared_laws, orient,
                                                 resolution, w):
    if shared_laws:  # both groups draw x from one law per label: plateaus
        model = GroupConditionalModel(model.joint, {
            (a, y): model.conditional[(0, y)] for a in (0, 1) for y in (0, 1)})
    # every pipeline here appends the same optima, which the model solves
    # once; that keeps the property fast
    for family in (FamilySpec("per_group_threshold", orient, resolution),
                   FamilySpec("per_group_intervals", orient,
                              min(resolution, 6))):
        full = pareto_filter(sweep(model, family, w), family)
        assert build_frontier(model, family, w) == classify_shape(full)


def allocating_scores(model, w, tpr0, tpr1, tnr0, tnr1):
    """The whole-table score expression the in-place scorer must match."""
    f_u = w.omega1 * np.abs(tpr1 - tpr0) + w.omega2 * np.abs(tnr1 - tnr0)
    acc = (w.p1 * (tpr1 * model.joint[(1, 1)] + tpr0 * model.joint[(0, 1)])
           + w.p2 * (tnr1 * model.joint[(1, 0)] + tnr0 * model.joint[(0, 0)]))
    return 1.0 - f_u, acc


def enumerated_regions(n, k, orient):
    """Every region with at most k positive intervals, one tuple at a time.

    A region is a tuple of (lo, hi) indices into [-inf, *grid, inf]; a
    positive_below region starts positive at -inf, a positive_above one
    starts negative.
    """
    starts_positive = orient == "positive_below"
    first = 0 if starts_positive else 1
    out = []
    for m in range(0, 2 * k + 1):
        if ((m + 2) // 2 if starts_positive else (m + 1) // 2) > k:
            continue
        for combo in itertools.combinations(range(n), m):
            pts = (0,) + tuple(i + 1 for i in combo) + (n + 1,)
            out.append(tuple((pts[i], pts[i + 1])
                             for i in range(first, m + 1, 2)))
    return out


def enumerated_rates(model, grid, k, a, orient):
    """(regions, tpr, tnr) of group a, each mass a Python sum per region,
    clamped to [0, 1] as positive_mass clamps it."""
    ext = {y: np.concatenate(([0.0], model.conditional[(a, y)].cdf(grid),
                              [1.0])) for y in (0, 1)}
    regions = enumerated_regions(len(grid), k, orient)

    def mass(y, region):
        total = float(sum(ext[y][hi] - ext[y][lo] for lo, hi in region))
        return min(max(total, 0.0), 1.0)
    return (regions, np.array([mass(1, r) for r in regions]),
            np.array([1.0 - mass(0, r) for r in regions]))


def group_rates(model, family, grid, a, orient):
    """(tpr, tnr) of group a over every region the family gives it; a
    threshold's rates are confusion_rates' of its classifier."""
    if family.kind != "per_group_intervals":
        above = orient == "positive_above"
        rates = [confusion_rates(model, GroupwiseClassifier.shared_threshold(
            t, positive_above=above)) for t in grid.tolist()]
        return (np.array([r.tpr[a] for r in rates]),
                np.array([r.tnr[a] for r in rates]))
    return enumerated_rates(model, grid, family.k, a, orient)[1:]


def allocating_columns(model, family, w, optima):
    """Sweep columns built block by block from whole score tables, with the
    appended optima last."""
    grid = np.linspace(*model.quantile_range(0.9999), family.resolution)
    fair, acc = [], []
    for combo in family.combos():
        shared = family.kind == "shared_threshold"
        (tpr0, tnr0), (tpr1, tnr1) = (
            group_rates(model, family, grid, group, orient)
            for group, orient in enumerate(combo * 2 if shared else combo))
        if shared:
            tables = allocating_scores(model, w, tpr0, tpr1, tnr0, tnr1)
        else:
            tables = allocating_scores(model, w, tpr0[:, None], tpr1[None, :],
                                       tnr0[:, None], tnr1[None, :])
        fair.append(tables[0].ravel())
        acc.append(tables[1].ravel())
    fair.append([p.fairness for p in optima])
    acc.append([p.accuracy for p in optima])
    return np.concatenate(fair), np.concatenate(acc)


@given(st.integers(0, 300), st.sampled_from(KINDS), st.sampled_from(ORIENTS),
       st.integers(3, 12), st.integers(1, 200), st.floats(0.0, 1.0),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0))
# 7-row threshold tables in bands of 2 rows (band 16), a last band of 1
@example(4, "per_group_threshold", "both", 7, 16, 0.3, 1.0, 1.0)
# interval rows of 15 or 16 regions, each wider than a 10-element band
@example(5, "per_group_intervals", "both", 4, 10, 0.7, 0.5, 1.5)
@example(6, "shared_threshold", "both", 11, 3, 0.5, 2.0, 0.25)
@settings(max_examples=25, deadline=None)
def test_in_place_scores_equal_the_allocating_expression(
        mseed, kind, orient, resolution, band, omega1, p1, p2):
    model = random_model(mseed)
    family = FamilySpec(kind, orientations=orient,
                        resolution=min(resolution, 5)
                        if kind == "per_group_intervals" else resolution)
    w = MetricWeights(omega1, 1.0 - omega1, p1, p2)
    # the optima are not scored by the kernel under test; stand-ins with
    # distinct values check that they land last, and keep the property fast
    optima = [FrontierPoint(0.25, 0.5, ("optimum", "fairness", (), ())),
              FrontierPoint(0.125, 0.75, ("optimum", "accuracy", (), ()))]
    with (mock.patch("fairfrontier.frontier._BAND", band),
          mock.patch("fairfrontier.frontier._appended_optima",
                     return_value=optima)):
        candidates = sweep(model, family, w)
    fair, acc = allocating_columns(model, family, w, optima)
    for got, want in ((candidates.fairness, fair),
                      (candidates.accuracy, acc)):
        assert got.dtype == np.float64
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.array_equal(got, want)


def index_rows(n, k, orient):
    """orient's rows of a "both" family's cut table as (lo, hi) index
    pairs, without the padding pairs (n + 1, n + 1)."""
    family = FamilySpec("per_group_intervals", orientations="both",
                        resolution=n, k=k)
    lo, hi = _bounds(family, _cut_table(family), orient)
    return [tuple((a, b) for a, b in zip(los, his) if a <= n)
            for los, his in zip(lo.tolist(), hi.tolist())]


@pytest.mark.parametrize("resolution", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("orient", ["positive_above", "positive_below",
                                    "both"])
def test_interval_region_count_matches_enumeration(resolution, k, orient):
    # a "both" sweep gives each group the regions of both orientations
    orients = ORIENTS[:2] if orient == "both" else (orient,)
    family = FamilySpec("per_group_intervals", resolution=resolution, k=k)
    regions = [r for o in orients for r in index_rows(resolution, k, o)]
    assert len(regions) == sum(_region_count(family, o) for o in orients)
    assert len(set(regions)) == len(regions)
    for region in regions:
        assert len(region) <= k


@pytest.mark.parametrize("resolution", range(3, 10))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("orient", ORIENTS[:2])
def test_index_arrays_equal_the_enumeration(resolution, k, orient):
    # same region tuples in the same order, and bit-identical rates, read
    # from a "both" family's cut table, whose positive_above rows pad the
    # positive_below ones; 2k + 1 > resolution caps the boundary count
    model = random_model(10 * resolution + k)
    grid = np.linspace(*model.quantile_range(0.9999), resolution)
    edges = [-math.inf, *grid.tolist(), math.inf]
    family = FamilySpec("per_group_intervals", orientations="both",
                        resolution=resolution, k=k)
    table = _cut_table(family)
    own = _cut_table(dataclasses.replace(family, orientations=orient))
    assert np.array_equal(own, table[:len(own), :own.shape[1]])
    assert (table[:len(own), own.shape[1]:] == resolution + 1).all()
    lo, hi = _bounds(family, table, orient)
    masses = _masses(_cell_cdfs(model, grid), lo, hi)
    for a in (0, 1):
        regions, tpr, tnr = enumerated_rates(model, grid, k, a, orient)
        assert index_rows(resolution, k, orient) == regions
        # decoded all at once, row by row, and for every third row
        got = _Regions(np.array(edges), lo, hi, np.arange(len(lo)))
        want = [tuple((edges[lo], edges[hi]) for lo, hi in r)
                for r in regions]
        assert list(got) == want
        assert [got.take([i])[0] for i in range(len(got))] == want
        assert list(_Regions(np.array(edges), lo, hi,
                             np.arange(0, len(got), 3))) == want[::3]
        assert masses[2 * a + 1].tobytes() == tpr.tobytes()
        assert (1.0 - masses[2 * a]).tobytes() == tnr.tobytes()


@given(st.integers(0, 300), st.sampled_from(KINDS), st.sampled_from(ORIENTS),
       st.integers(3, 9), frontier_weights())
# random_model(8)'s group-0 label-0 mixture cdf rounds to 1 + 2**-52 in its
# upper tail, so its threshold rates hold only if masses are clamped
@example(8, "per_group_threshold", "both", 5, MetricWeights())
@settings(max_examples=25, deadline=None)
def test_swept_scores_equal_the_scalar_api(mseed, kind, orient, resolution,
                                           w):
    model = random_model(mseed)
    family = FamilySpec(kind, orientations=orient,
                        resolution=min(resolution, 5)
                        if kind == "per_group_intervals" else resolution)
    # the appended optima are scored by the scalar API itself; leaving them
    # out keeps the property fast on mixtures
    with mock.patch("fairfrontier.frontier._appended_optima",
                    return_value=[]):
        candidates = sweep(model, family, w)
    for p in candidates:
        clf = p.clf
        assert p.fairness == 1.0 - unfairness(confusion_rates(model, clf), w)
        assert p.accuracy == accuracy(model, clf, w)
    grid = np.linspace(*candidates.sweep_range, family.resolution)
    cdfs, table = _cell_cdfs(model, grid), _cut_table(family)
    for o in set(itertools.chain(*family.combos())):
        masses = _masses(cdfs, *_bounds(family, table, o))
        assert np.all((masses >= 0.0) & (masses <= 1.0))


@given(mixtures(), st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1,
                            max_size=20))
@settings(max_examples=60, deadline=None)
def test_mixture_ppf_inverts_cdf_and_is_monotone(mix, qs):
    q = np.sort(np.array(qs))
    x = mix.ppf(q)
    assert np.all(np.abs(mix.cdf(x) - q) <= 1e-12)
    assert np.all(np.diff(x) >= 0.0)
    assert mix.ppf(float(q[0])) == x[0]


# increasing through 0 at d = 0; each is computed from d = x - root, which
# is exact near the root, so the float function changes sign only there
MONOTONE = {
    "linear": lambda d: d,
    "cubic": lambda d: d * d * d + 1e-3 * d,
    "atan": lambda d: math.atan(50.0 * d),
    "sinh": math.sinh,
    "step": lambda d: math.copysign(1.0, d) if d else 0.0,
}


@st.composite
def root_problems(draw):
    """(f, lo, hi, xtol): a monotone f whose root, exactly 0.0 in some
    draws, lies in [lo, hi], or a bracket of two adjacent floats."""
    xtol = draw(st.sampled_from((1e-12, 1e-10)))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if draw(st.booleans()):
        lo = draw(st.floats(-100, 100))
        hi = math.nextafter(lo, math.inf)
        return (lambda x: sign * ((x - lo) - (hi - x))), lo, hi, xtol
    root = draw(st.one_of(st.just(0.0), st.floats(-100, 100)))
    lo = root - draw(st.floats(0.0, 100.0))
    hi = root + draw(st.floats(0.0, 100.0))
    assume(lo < hi)
    shape = MONOTONE[draw(st.sampled_from(sorted(MONOTONE)))]
    return (lambda x: sign * shape(x - root)), lo, hi, xtol


@given(root_problems())
@example(((lambda x: x), -1.0, 2.0, 1e-12))
@example(((lambda x: x - 0.1), 0.1, math.nextafter(0.1, 1.0), 1e-12))
@settings(max_examples=300, deadline=None)
def test_root_agrees_with_brentq_inside_its_bracket(problem):
    f, lo, hi, xtol = problem
    asked = []

    def recorded(x):
        asked.append(x)
        return f(x)

    ours = _root(recorded, lo, hi, f(lo), f(hi), xtol)
    theirs = brentq(f, lo, hi, xtol=xtol)
    assert all(type(x) is float and lo <= x <= hi for x in asked)
    assert type(ours) is float and lo <= ours <= hi
    assert abs(ours - theirs) <= xtol + 4 * 2.0 ** -52 * abs(ours)


def same_bits(got, want) -> bool:
    got, want = np.float64(got), np.float64(want)
    return (np.isnan(got) and np.isnan(want)) or got.tobytes() == want.tobytes()


@given(st.one_of(normals(), triangulars(), mixtures()),
       st.lists(st.floats(-60, 60), max_size=20),
       st.lists(st.floats(0.0, 1.0), max_size=20))
@example(Triangular(0.0, 0.5, 5e-324), [0.0, 1e-320, 0.25], [1e-320])
@example(Triangular(-0.5, 0.0, -5e-324), [-1e-320, -0.25], [1.0 - 1e-16])
@example(Triangular(-1e-310, 2.0, 0.0), [-5e-311, 1e-300], [1e-320])
# points far off the support, where 2 * (x - a) overflows
@example(Triangular(0.0, 1.0, 0.5), [1e308, -1e308], [0.5])
@example(Triangular(0.0, 1.0, 1.0), [-1e308, 1e308], [])
@settings(max_examples=100, deadline=None)
def test_float_path_equals_the_array_path(dist, xs, qs):
    # Normal and Triangular answer a float in Python float arithmetic; they
    # must give the array path's element bit for bit, alone or inside a
    # mixture
    laws = ([d for _, d in dist.components] if isinstance(dist, Mixture)
            else [dist])
    xs = xs + [-math.inf, math.inf, math.nan]
    qs = qs + [0.0, 1.0, math.nan]
    for d in laws:
        if isinstance(d, Triangular):
            xs += [d.lower, d.mode, d.upper]
            qs.append((d.mode - d.lower) / (d.upper - d.lower))
    for method, points in ((dist.pdf, xs), (dist.cdf, xs), (dist.ppf, qs)):
        want = method(np.array(points))
        for p, w in zip(points, want):
            got = method(p)
            if isinstance(dist, Triangular):
                assert type(got) is np.float64
            if isinstance(dist, Normal):
                assert type(got) is np.float64
            assert same_bits(got, w), (method.__name__, p, got, w)


def number_leaves(node, path=""):
    """(container, key, path) of every number in a JSON payload."""
    if isinstance(node, dict):
        items = [(k, v, f"{path}.{k}" if path else k) for k, v in node.items()]
    else:
        items = [(i, v, f"{path}[{i}]") for i, v in enumerate(node)]
    for key, value, at in items:
        if isinstance(value, (dict, list)):
            yield from number_leaves(value, at)
        elif isinstance(value, float):
            yield node, key, at


@given(st.integers(0, 300), st.booleans(), st.data(),
       st.sampled_from([True, False, "1", "", None, math.nan, -math.inf,
                        [1.0]]))
@settings(max_examples=40, deadline=None)
def test_payload_reads_back_and_names_a_mistyped_number(mseed, other_laws,
                                                        data, bad):
    model = random_model(mseed)
    if other_laws:  # Triangulars, alone and inside mixtures
        model = GroupConditionalModel(model.joint, {
            cell: data.draw(st.one_of(triangulars(), mixtures()))
            for cell in CELLS})
    keys = {cell: f"a{cell[0]}y{cell[1]}" for cell in CELLS}
    payload = json.loads(json.dumps({
        "label": model.label,
        "joint": {keys[c]: model.joint[c] for c in CELLS},
        "dist": {keys[c]: _dist_to_payload(model.conditional[c])
                 for c in CELLS}}))
    report, back = _read_payload(payload)
    assert report.ok and back == model
    # any one number turned into a non-number fails at its own cell, and the
    # message gives the field's full path
    container, key, path = data.draw(st.sampled_from(
        list(number_leaves(payload))))
    container[key] = bad
    report = validate(payload)
    failing = {k: msg for k, passed, msg in report.entries if not passed}
    cell = ".".join(path.split(".")[:2])  # e.g. dist.a0y1
    assert not report.ok and list(failing) == [cell]
    assert path in failing[cell]
