"""Sweeps, Pareto filtering, and frontier shape classification."""

import dataclasses
import itertools
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

from fairfrontier import (CELLS, PRESETS, FamilySpec, Frontier,
                          FrontierPoint, InputError, MetricWeights,
                          ResourceError, ValidationError,
                          bayes_accuracy_optimal, build_frontier,
                          check_accuracy_jump, check_boundary_alignment,
                          classify_shape, dominance_oracle, frontier,
                          pareto_filter, scenario, sweep)
from fairfrontier.frontier import (_FAIR_LEVELS, _PLATEAU_GAP, ORIENTS,
                                   _block_len, _cut_table, _fair_line,
                                   _fair_roots, _first_pass_drops,
                                   _grid_tnrs, _half_line, _open_lines,
                                   _per_group_fairness_optimum, _sweep)
from fairfrontier.metrics import _hits
from helpers import group_table, random_model

COMBOS = tuple(itertools.product(("positive_above", "positive_below"),
                                 repeat=2))


def pt(fairness, accuracy, tag):
    return FrontierPoint(fairness, accuracy, ("grid", tag, (), ()))


def test_family_spec_validation():
    with pytest.raises(ValidationError):
        FamilySpec("threshold")
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold",
                   orientations=("positive_above", "positive_below"))
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold", resolution=2)
    with pytest.raises(ValidationError):
        FamilySpec("per_group_intervals", k=0)
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold", sweep_range=(4, 4))
    # a range is two numbers: nothing else is unpacked or converted
    for bad in ((1,), (1, 2, 3), ("a", "b"), "12", 5):
        with pytest.raises(ValidationError):
            FamilySpec("shared_threshold", sweep_range=bad)
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold", orientations="up")
    # fractions are refused, not truncated
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold", resolution=3.7)
    with pytest.raises(ValidationError):
        FamilySpec("per_group_intervals", k=1.5)
    with pytest.raises(ValidationError):
        FamilySpec("shared_threshold", resolution=float("nan"))
    assert FamilySpec("shared_threshold", resolution=5.0).resolution == 5


def test_family_spec_orientation_expansion():
    one = FamilySpec("per_group_threshold", orientations="positive_below")
    assert one.combos() == (("positive_below", "positive_below"),)
    both = FamilySpec("per_group_threshold", orientations="both")
    assert len(both.combos()) == 4
    mixed = FamilySpec("per_group_threshold",
                       orientations=("positive_above", "both"))
    assert mixed.combos() == (("positive_above", "positive_above"),
                              ("positive_above", "positive_below"))


def test_sweep_candidate_counts():
    model = scenario("example1")
    shared = sweep(model, FamilySpec("shared_threshold", resolution=801,
                                     sweep_range=(-8, 12)))
    assert len(shared) == 803
    per_group = sweep(model, FamilySpec("per_group_threshold", resolution=101,
                                        orientations="both",
                                        sweep_range=(-8, 12)))
    assert len(per_group) == 101 * 101 * 4 + 2


def test_sweep_appends_both_optima_last():
    model = scenario("example3")
    pts = sweep(model, FamilySpec("shared_threshold", resolution=11))
    assert pts[-2].params[:2] == ("optimum", "fairness")
    assert pts[-1].params[:2] == ("optimum", "accuracy")
    assert pts[-1].accuracy == max(p.accuracy for p in pts)


def test_per_group_sweep_appends_groupwise_fair_optimum():
    # example1's groups differ by a pure shift, so the family holds exactly
    # fair pairs; the appended optimum must find the best of them instead of
    # falling back to the shared everything-positive rule at accuracy 0.625
    model = scenario("example1")
    pts = sweep(model, FamilySpec("per_group_threshold", resolution=11))
    fair = pts[-2]
    assert fair.params[:2] == ("optimum", "fairness")
    assert fair.fairness == pytest.approx(1.0, abs=1e-9)
    assert fair.accuracy == pytest.approx(0.9615036014022516, abs=1e-12)
    assert not fair.clf.shared


def _fair_grid(model, combo):
    w = MetricWeights()
    u = np.linspace(1e-7, 1.0 - 1e-7, _FAIR_LEVELS)
    gap = _fair_line(model, w, combo, u)[1]
    return w, u, gap, np.abs(gap) <= _PLATEAU_GAP


@pytest.mark.parametrize("name", ["example4_identical",
                                  "example4_nonidentical"])
def test_fair_roots_one_per_plateau_and_none_inside(name):
    # the TNR gap of these presets is rounding noise on whole plateaus, with
    # hundreds of sign flips; each plateau must give exactly one root and no
    # flip inside or next to it may be bisected
    model = scenario(name)
    plateaus = 0
    for combo in COMBOS:
        w, u, gap, flat = _fair_grid(model, combo)
        acc = _fair_line(model, w, combo, u)[2]
        roots = np.array(_fair_roots(model, w, combo, u, gap, acc))
        starts = np.nonzero(flat & ~np.r_[False, flat[:-1]])[0]
        ends = np.nonzero(flat & ~np.r_[flat[1:], False])[0]
        crossings = np.nonzero((gap[:-1] * gap[1:] < 0)
                               & ~flat[:-1] & ~flat[1:])[0]
        spans = [(u[i], u[j]) for i, j in zip(starts, ends)]
        spans += [(u[i], u[i + 1]) for i in crossings]
        assert len(roots) == len(spans)
        for lo, hi in spans:
            assert np.count_nonzero((roots >= lo) & (roots <= hi)) == 1
        plateaus += len(starts)
    assert plateaus == 2


def test_fair_roots_bisects_crossings_like_one_at_a_time():
    # random_model(1) has real crossings; each root must be the one scipy's
    # brentq finds on the same crossing of the float gap, within 4 eps u, or
    # an exact zero of it: near u = 6.7e-4 the gap is 0.0 on a run of levels
    # at least 2,000 eps u wide, and the two solvers stop at different ones
    model = random_model(1)
    solved = 0
    for combo in COMBOS:
        w, u, gap, flat = _fair_grid(model, combo)

        def gap_at(level):
            return float(_fair_line(model, w, combo, level)[1])

        want = [brentq(gap_at, u[i], u[i + 1], xtol=1e-300)
                for i in np.nonzero((gap[:-1] * gap[1:] < 0)
                                    & ~flat[:-1] & ~flat[1:])[0]]
        got = _fair_roots(model, w, combo, u, gap,
                          _fair_line(model, w, combo, u)[2])
        got = got[len(got) - len(want):]
        assert len(got) == len(want)
        for r, b in zip(got, want):
            assert type(r) is float
            assert abs(r - b) <= 4 * 2.0 ** -52 * b or gap_at(r) == 0.0
        solved += len(want)
    assert solved == 6


def test_fair_polish_solves_the_slope_in_few_calls(monkeypatch):
    # example1's gap vanishes on whole plateaus; on each, _root solves the
    # accuracy's slope between the grid argmax's neighbours, where the golden
    # section it replaced took the optimum to 63 _fair_line calls
    calls = []

    def counted(*args):
        calls.append(args)
        return _fair_line(*args)

    monkeypatch.setattr(frontier, "_fair_line", counted)
    _per_group_fairness_optimum(scenario("example1"), MetricWeights())
    assert len(calls) <= 16


@pytest.mark.parametrize("w", [MetricWeights(),
                               MetricWeights(0.3, 0.7, 0.8, 1.2)],
                         ids=["default", "weighted"])
def test_per_group_fairness_optimum_is_its_closed_form(w):
    # each preset's groups are copies under a map of the feature (a shift in
    # example1 and example3, x -> c - 2x in example4), so the fair line has a
    # plateau of zero gap; its most accurate pair sets both groups'
    # likelihood ratio f_a0 / f_a1 to p1 P(Y=1) / (p2 P(Y=0)), which the
    # Normal cells meet at a log-linear threshold and the Triangular ones at
    # a rational one
    r = math.log(0.6 * w.p2 / w.p1)
    shift = 0.0 if w.p1 == w.p2 else 0.2
    want = {"example1": (2.5 + 4 / 7 * r, 2.5 + 4 / 7 * r + 4),
            "example3": (3 + 9 / 8 * r, 3 + 9 / 8 * r + 3),
            "example4_identical": (6 - shift, 6 + 2 * shift),
            "example4_nonidentical": (6 - shift, 8 + 2 * shift)}
    for name, thresholds in want.items():
        clf = _per_group_fairness_optimum(scenario(name), w)
        for a, t in enumerate(thresholds):
            (lo, hi), = clf.positive_region(a).intervals
            assert abs((hi if lo == -math.inf else lo) - t) <= 1e-12


def test_fair_line_answers_a_float_level_in_scalars(monkeypatch):
    # _root asks one level at a time: a float level stays out of 0-d
    # arrays, the accuracy's operands included, and gives the one-element
    # array path's values bit for bit
    operands = []

    def hits(model, w, *rates):
        operands.extend(rates)
        return _hits(model, w, *rates)

    monkeypatch.setattr(frontier, "_hits", hits)
    w = MetricWeights()
    levels = (1e-7, 0.05, 0.3, 0.5, np.float64(0.77), 1.0 - 1e-7)
    models = [scenario(name) for name in PRESETS]
    models += [random_model(seed) for seed in range(10)]
    for model in models:
        for combo, u in itertools.product(COMBOS, levels):
            operands.clear()
            (t0, t1), gap, acc = _fair_line(model, w, combo, u)
            assert not any(isinstance(x, np.ndarray)
                           for x in (t0, t1, gap, acc, *operands))
            (a0, a1), a_gap, a_acc = _fair_line(model, w, combo,
                                                np.array([u]))
            assert ([float(x).hex() for x in (t0, t1, gap, acc)]
                    == [float(x[0]).hex() for x in (a0, a1, a_gap, a_acc)])


def test_sweep_resource_cap():
    model = scenario("example1")
    family = FamilySpec("per_group_intervals", resolution=801, k=4,
                        orientations="both")
    with pytest.raises(ResourceError):
        sweep(model, family)


def test_interval_regions_stop_at_the_grid_size():
    # an n-point grid has no region of more than n boundaries, so a huge k
    # gives each of the 2**n boundary sets one row of at most n cuts
    for orient in ("positive_above", "positive_below"):
        family = FamilySpec("per_group_intervals", orientations=orient,
                            resolution=5, k=10 ** 9)
        assert _cut_table(family).shape == (2 ** 5, 5 + 2)


def test_sweep_range_wider_than_a_float_is_refused():
    # linspace over (-1e308, 1e308) steps by inf and puts NaN on the grid
    with pytest.raises(ValidationError, match="too wide"):
        FamilySpec("shared_threshold", resolution=5,
                   sweep_range=(-1e308, 1e308))
    assert FamilySpec("shared_threshold", resolution=5,
                      sweep_range=(-1e308, 7e307)).sweep_range == (
                          -1e308, 7e307)


def test_sweep_contains_known_threshold_point():
    model = scenario("example1")
    pts = sweep(model, FamilySpec("shared_threshold", resolution=801,
                                  sweep_range=(-8, 12)))
    hit = [p for p in pts
           if abs(p.fairness - 0.7763524108581863) < 1e-9
           and abs(p.accuracy - 0.9131523908367654) < 1e-9]
    assert hit


def test_pareto_filter_five_point_example():
    cloud = [pt(0.9, 0.8, "0"), pt(0.8, 0.85, "1"), pt(0.85, 0.84, "2"),
             pt(0.9, 0.79, "3"), pt(0.7, 0.85, "4")]
    got = pareto_filter(cloud)
    assert [(p.fairness, p.accuracy) for p in got.points] == [
        (0.8, 0.85), (0.85, 0.84), (0.9, 0.8)]


def test_pareto_filter_single_candidate():
    only = pt(0.4, 0.6, "0")
    assert pareto_filter([only]).points == (only,)


def test_pareto_filter_rejects_empty():
    with pytest.raises(InputError):
        pareto_filter([])


def test_pareto_filter_collapses_equal_fairness():
    cloud = [pt(0.5, 0.7, "b"), pt(0.5, 0.9, "a"), pt(0.5, 0.9, "c")]
    got = pareto_filter(cloud)
    assert len(got.points) == 1
    assert got.points[0].accuracy == 0.9
    assert got.points[0].params[1] == "a"


def test_pareto_filter_ties_at_max_fairness():
    # the pre-filter keys on the best accuracy at the top fairness, "b";
    # "e" sits within the tolerance above it, so only the filter drops it
    cloud = [pt(1.0, 0.5, "a"), pt(1.0, 0.7, "b"), pt(1.0, 0.6, "c"),
             pt(0.9, 0.7, "d"), pt(0.9, 0.7 + 5e-13, "e"), pt(0.8, 0.9, "f"),
             pt(0.85, 0.75, "g"), pt(1.0, 0.7, "h")]
    got = pareto_filter(cloud)
    assert [p.params[1] for p in got.points] == ["f", "g", "b"]
    assert got.points == dominance_oracle(cloud).points


def test_pareto_filter_keeps_points_only_a_dropped_one_dominates():
    # "q" dominates "r" but the fairest point "p" does not: r's accuracy is
    # more than the tolerance above p's. Dropping q for being dominated by p
    # must not let r survive.
    cloud = [pt(1.0, 0.5, "p"), pt(0.9, 0.5 + 0.9e-12, "q"),
             pt(0.8, 0.5 + 1.5e-12, "r")]
    got = pareto_filter(cloud)
    assert [p.params[1] for p in got.points] == ["p"]
    assert got.points == dominance_oracle(cloud).points


def test_pareto_filter_stamps_family_metadata():
    family = FamilySpec("shared_threshold", resolution=41, sweep_range=(0, 4))
    got = pareto_filter([pt(0.1, 0.2, "0"), pt(0.2, 0.1, "1")], family)
    assert got.resolution == 41
    assert got.sweep_range == (0.0, 4.0)


def test_classify_shape_continuous():
    f = Frontier(points=(pt(0.0, 0.9, "0"), pt(0.5, 0.89, "1"),
                         pt(1.0, 0.88, "2")))
    got = classify_shape(f, fairness_gap=0.005)
    assert got.shape == "continuous"
    assert got.jumps == ()


def test_classify_shape_accuracy_jump():
    f = Frontier(points=(pt(0.6, 0.9, "0"), pt(0.6001, 0.55, "1")))
    got = classify_shape(f, fairness_gap=0.01)
    assert got.shape == "sharp_decline_accuracy"
    (jump,) = got.jumps
    assert jump.kind == "accuracy"
    assert jump.index == 0
    assert jump.fairness_at == pytest.approx(0.6001)
    assert jump.accuracy_drop == pytest.approx(0.35, abs=1e-12)


def test_classify_shape_fairness_jump_flagged_as_artifact():
    f = Frontier(points=(pt(0.1, 0.9, "0"), pt(0.8, 0.8999, "1")))
    got = classify_shape(f, fairness_gap=0.01)
    assert got.shape == "sharp_decline_fairness"
    assert got.diagnostics == (
        "fairness gap 0.7 at accuracy 0.9 with nearly constant accuracy: a "
        "grid gap if a finer resolution closes it, else a flat step of the "
        "family",)


def test_classify_shape_singleton_is_continuous():
    got = classify_shape(Frontier(points=(pt(0.2, 0.8, "0"),)),
                         fairness_gap=0.1)
    assert got.shape == "continuous"


def test_classify_shape_needs_gap_or_resolution():
    f = Frontier(points=(pt(0.0, 1.0, "0"), pt(1.0, 0.5, "1")))
    with pytest.raises(InputError):
        classify_shape(f)
    stamped = Frontier(points=f.points, resolution=100)
    assert classify_shape(stamped).shape == "continuous"


def test_example1_shared_frontier_has_the_known_jump():
    model = scenario("example1")
    family = FamilySpec("shared_threshold", orientations="both",
                        resolution=801, sweep_range=(-8, 12))
    frontier = build_frontier(model, family)
    assert len(frontier.points) == 303
    assert frontier.shape == "sharp_decline_accuracy"
    (jump,) = frontier.jumps
    assert jump.index == 27
    assert jump.fairness_at == pytest.approx(0.7765587587308078, abs=1e-9)
    assert jump.accuracy_drop == pytest.approx(0.2254257626080155, abs=1e-9)


def test_shared_frontier_ends_on_the_more_accurate_constant():
    # P(Y=0) > P(Y=1) here, so the exactly fair end of a shared frontier is
    # the constant-negative rule, not a drop onto the constant-positive one
    model = random_model(7)
    assert model.p_label(0) == pytest.approx(0.7381, abs=1e-4)
    for orient in ("positive_above", "positive_below", "both"):
        frontier = build_frontier(model, FamilySpec(
            "shared_threshold", orientations=orient, resolution=201))
        last = frontier.points[-1]
        assert (last.fairness, last.accuracy) == (1.0, model.p_label(0))
        assert last.params == ("optimum", "fairness", (), ())
        assert all(j.fairness_at < 1.0 for j in frontier.jumps)
        if orient == "positive_below":
            assert frontier.shape == "continuous"


def test_example1_per_group_frontier_is_continuous():
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", resolution=201,
                        sweep_range=(-8, 12))
    frontier = build_frontier(model, family)
    assert frontier.shape == "continuous"
    assert frontier.jumps == ()


def test_frontier_sorted_and_starts_at_max_accuracy():
    model = scenario("example3")
    family = FamilySpec("shared_threshold", orientations="both",
                        resolution=201)
    candidates = sweep(model, family)
    frontier = classify_shape(pareto_filter(candidates, family))
    fs = [p.fairness for p in frontier.points]
    accs = [p.accuracy for p in frontier.points]
    assert fs == sorted(fs)
    assert accs == sorted(accs, reverse=True)
    assert accs[0] == max(p.accuracy for p in candidates)


def test_refining_resolution_never_lowers_the_frontier():
    model = scenario("example1")
    coarse = build_frontier(model, FamilySpec(
        "shared_threshold", orientations="both", resolution=201,
        sweep_range=(-8, 12)))
    fine = build_frontier(model, FamilySpec(
        "shared_threshold", orientations="both", resolution=401,
        sweep_range=(-8, 12)))
    for p in coarse.points:
        covered = [q.accuracy for q in fine.points
                   if q.fairness >= p.fairness - 1e-9]
        assert covered and max(covered) >= p.accuracy - 1e-9


def test_build_frontier_stamps_default_sweep_range():
    model = scenario("example3")
    frontier = build_frontier(model, FamilySpec("shared_threshold",
                                                resolution=51))
    lo, hi = frontier.sweep_range
    assert lo == pytest.approx(model.quantile_range(0.9999)[0])
    assert hi == pytest.approx(model.quantile_range(0.9999)[1])


def test_three_stages_keep_the_resolved_range():
    # a defaulted range: sweep resolves it and pareto_filter stamps it, so
    # the three public stages give build_frontier's frontier, metadata too
    model = scenario("example1")
    family = FamilySpec("shared_threshold", resolution=801)
    frontier = classify_shape(pareto_filter(sweep(model, family), family))
    assert frontier == build_frontier(model, family)
    assert frontier.sweep_range == model.quantile_range(0.9999)
    assert frontier.shape == "sharp_decline_accuracy"
    # the prescribed-form condition is the one that needs the metadata
    report = check_accuracy_jump(model, frontier)
    assert report.conditions[-1].name == "prescribed_rule_form"


def test_frontier_point_rebuilds_classifier():
    model = scenario("example1")
    pts = sweep(model, FamilySpec("shared_threshold", resolution=11,
                                  sweep_range=(0, 10)))
    sample = pts[3]
    clf = sample.clf
    assert clf.positive_region(0).intervals == sample.params[2]
    assert clf.positive_region(1).intervals == sample.params[3]


def test_sweep_and_filter_keep_one_copy_of_the_scores():
    # tracemalloc counts numpy's buffers. The two float64 columns take 16 B
    # a candidate; a sweep that scores into per-block tables and then copies
    # them, or a filter whose masks grow with the candidate count, peaks
    # near 32 B a candidate.
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", orientations="both",
                        resolution=401)
    pareto_filter(sweep(model, dataclasses.replace(family, resolution=5)))
    tracemalloc.start()
    try:
        candidates = sweep(model, family)
        pareto_filter(candidates, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(candidates) == 643_206
    assert peak <= 16 * len(candidates) + 3 * 2**20


@pytest.mark.parametrize("model", [
    scenario("example1"), scenario("example4_identical"), random_model(7)],
    ids=["example1", "example4_identical", "random-7"])
@pytest.mark.parametrize("family", [
    FamilySpec("per_group_threshold", orientations="both", resolution=201),
    FamilySpec("per_group_intervals", orientations="both", resolution=7)],
    ids=["threshold", "intervals"])
def test_closed_lines_hold_only_scores_the_first_pass_drops(model, family):
    w = MetricWeights()
    candidates = sweep(model, family, w)
    pivot = max(candidates[-2], candidates[-1],
                key=lambda p: (p.fairness, p.accuracy))
    grid = np.linspace(*candidates.sweep_range, family.resolution)
    start = closed = 0
    for o0, o1 in family.combos():
        t0 = group_table(model, w, family, grid, 0, o0)
        t1 = group_table(model, w, family, grid, 1, o1)
        n0, n1 = len(t0.tpr), len(t1.tpr)
        end = start + n0 * n1
        dropped = _first_pass_drops(
            candidates.fairness[start:end], candidates.accuracy[start:end],
            pivot.fairness, pivot.accuracy).reshape(n0, n1)
        start = end
        rows, cols = _open_lines(w, t0, t1, partial(
            _first_pass_drops, f_top=pivot.fairness, a_top=pivot.accuracy))
        closed_rows = np.setdiff1d(np.arange(n0), rows)
        assert dropped[closed_rows].all()
        # a column is closed against the open rows only; the closed rows
        # are dropped whole already
        closed_cols = np.setdiff1d(np.arange(n1), cols)
        assert dropped[:, closed_cols].all()
        closed += len(closed_rows) + len(closed_cols)
    assert start == len(candidates) - 2
    assert closed > 0


def test_zero_count_blocks_index_iterate_and_decode():
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", orientations="both",
                        resolution=101)
    w = MetricWeights()
    full = sweep(model, family, w)
    bounded = _sweep(model, family, w, True)
    counts = [_block_len(block) for block in bounded.blocks]
    # the two appended optima are one 1 x 1 product block each
    assert counts[1:] == [0, 0, 0, 1, 1]
    pts = list(bounded)
    assert len(pts) == len(bounded) == counts[0] + 2
    assert [bounded[i] for i in range(-len(pts), len(pts))] == pts + pts
    with pytest.raises(IndexError):
        bounded[len(pts)]
    assert pts[-2:] == [full[-2], full[-1]]
    # each scored candidate is the full sweep's at the same grid pair
    grid = np.linspace(*full.sweep_range, family.resolution)
    tables = [group_table(model, w, family, grid, a, "positive_above")
              for a in (0, 1)]
    pivot = max(full[-2], full[-1], key=lambda p: (p.fairness, p.accuracy))
    rows, cols = _open_lines(w, *tables, partial(
        _first_pass_drops, f_top=pivot.fairness, a_top=pivot.accuracy))
    flat = (rows[:, None] * family.resolution + cols[None, :]).ravel()
    assert pts[:-2] == [full[i] for i in flat.tolist()]


def test_build_frontier_scores_only_the_open_cells():
    # the parent scored all 643,206 candidates into 16 B each (~10 MB)
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", orientations="both",
                        resolution=401)
    build_frontier(model, dataclasses.replace(family, resolution=5))
    tracemalloc.start()
    try:
        build_frontier(model, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("family", [
    FamilySpec("per_group_threshold", orientations="both", resolution=101),
    FamilySpec("per_group_intervals", orientations="both", resolution=7)],
    ids=["threshold", "intervals"])
def test_build_frontier_builds_each_index_table_once(family):
    # every orientation reads one cut table, and one pass over it per
    # orientation gives both groups' rates
    with (mock.patch("fairfrontier.frontier._cut_table",
                     wraps=frontier._cut_table) as index,
          mock.patch("fairfrontier.frontier._masses",
                     wraps=frontier._masses) as masses):
        build_frontier(scenario("example1"), family)
    assert index.call_count == 1
    assert masses.call_count == 2


def decoded(regions):
    """Patch _Regions to record the rows it decodes into regions; indexing
    and iteration decode through take too."""
    take = frontier._Regions.take

    def counted(self, ks):
        regions.extend(self.rows[ks].tolist())
        return take(self, ks)

    return mock.patch.object(frontier._Regions, "take", counted)


def test_boundary_alignment_search_decodes_no_region():
    regions = []
    with decoded(regions):
        report = check_boundary_alignment(scenario("example4_identical"))
    assert report.conclusion_checked
    assert regions == []


@pytest.mark.parametrize("name", ["example1", "example4_identical"])
def test_build_frontier_decodes_only_its_survivors(name):
    # pareto_filter builds a point per survivor, each decoding one row of
    # each group; no other region is decoded
    regions, survivors = [], []
    finish_frontier = frontier._finish_frontier

    def finish(points, *args, **kwargs):
        survivors.extend(points)
        return finish_frontier(points, *args, **kwargs)

    family = FamilySpec("per_group_threshold", orientations="both",
                        resolution=201)
    with (decoded(regions),
          mock.patch("fairfrontier.frontier._finish_frontier", finish)):
        result = build_frontier(scenario(name), family)
    grid = [p for p in survivors if p.params[0] == "grid"]
    assert len(result.points) <= len(survivors)
    assert grid and len(regions) == 2 * len(grid)


@pytest.mark.parametrize("name", [*PRESETS,
                                  *(f"random-{s}" for s in range(10))])
def test_grid_tnrs_equal_the_half_lines(name):
    # one ppf and one cdf call per group over both orientations' levels
    # give each orientation's TNRs bit for bit
    model = (scenario(name) if name in PRESETS
             else random_model(int(name.removeprefix("random-"))))
    u = np.linspace(1e-7, 1.0 - 1e-7, _FAIR_LEVELS)
    tnrs = _grid_tnrs(model, u)
    assert sorted(tnrs) == sorted(itertools.product((0, 1), ORIENTS[:2]))
    for (a, orient), tnr in tnrs.items():
        assert tnr.tobytes() == _half_line(model, a, orient, u)[1].tobytes()


def solve_counter(monkeypatch):
    """Record each call of a solver the model keeps, by name: the Bayes
    optima by scope, the strict per-group optimum, the per-group fairness
    optimum, the Reference and the ranges. Each wrapper calls the solver it
    replaced."""
    from fairfrontier import metrics, population
    solved = []

    def counted(name, solve):
        def call(*args):
            solved.append(name(*args))
            return solve(*args)
        return call

    bayes = counted(lambda model, scope: scope, bayes_accuracy_optimal)
    for module in (frontier, metrics):
        monkeypatch.setattr(module, "bayes_accuracy_optimal", bayes)
    monkeypatch.setattr(metrics, "_strict_accuracy_optimal", counted(
        lambda model: "strict", metrics._strict_accuracy_optimal))
    monkeypatch.setattr(frontier, "_per_group_fairness_optimum", counted(
        lambda model, w: "fair", frontier._per_group_fairness_optimum))
    monkeypatch.setattr(metrics.Reference, "of", classmethod(counted(
        lambda cls, model: "reference", metrics.Reference.of.__func__)))
    monkeypatch.setattr(population.GroupConditionalModel, "quantile_range",
                        counted(lambda model, mass, cells=CELLS:
                                (mass, cells),
                                population.GroupConditionalModel
                                .quantile_range))
    return solved


SOLVED_ONCE = ["overall", "per_group", "strict", "fair", "reference",
               (0.9999, CELLS), (0.99999, ((0, 0), (0, 1))),
               (0.99999, ((1, 0), (1, 1)))]


def test_one_model_solves_each_optimum_and_range_once(monkeypatch):
    # the solves belong to the model, so every frontier and check asked of
    # one model object shares them, whichever grid or family it sweeps
    solved = solve_counter(monkeypatch)
    model = scenario("example1")
    build_frontier(model, FamilySpec("per_group_threshold", "both", 101))
    build_frontier(model, FamilySpec("per_group_intervals", "both", 7, k=2))
    sweep(model, FamilySpec("shared_threshold", resolution=51))
    check_boundary_alignment(model)
    check_boundary_alignment(model, "strict_indicator")
    assert sorted(map(str, solved)) == sorted(map(str, SOLVED_ONCE))
    # other weights solve the fairness optimum once more, and only it
    build_frontier(model, FamilySpec("per_group_threshold", "both", 101),
                   MetricWeights(0.3, 0.7, 0.8, 1.2))
    assert sorted(map(str, solved)) == sorted(map(str, SOLVED_ONCE
                                                  + ["fair"]))


def test_a_loop_over_weights_keeps_a_bounded_memo(monkeypatch):
    # each weights adds a fairness optimum and two points; the memo drops
    # the least recently used, so the ranges and the Bayes optimum every
    # frontier reads stay solved once while the memo stops growing
    from fairfrontier.population import SOLVES_KEPT
    solved = solve_counter(monkeypatch)
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", "both", 41)
    count = SOLVES_KEPT // 3 + 4
    for i in range(count):
        build_frontier(model, family, MetricWeights(p2=1.0 + i / 64))
    assert model._solved.cache_info().currsize == SOLVES_KEPT
    assert sorted(map(str, solved)) == sorted(map(str, [
        "per_group", (0.9999, CELLS), (0.99999, ((0, 0), (0, 1))),
        (0.99999, ((1, 0), (1, 1)))] + ["fair"] * count))


def test_a_replaced_model_solves_again(monkeypatch):
    solved = solve_counter(monkeypatch)
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", "both", 101)
    first = build_frontier(model, family)
    assert build_frontier(dataclasses.replace(model), family) == first
    # the sweep needs all but the shared and strict optima and the Reference
    once = [s for s in SOLVED_ONCE
            if s not in ("overall", "strict", "reference")]
    assert sorted(map(str, solved)) == sorted(map(str, once + once))


def test_a_solver_replaced_after_a_cached_call_is_called(monkeypatch):
    model = scenario("example1")
    family = FamilySpec("per_group_threshold", "both", 101)
    first = build_frontier(model, family)
    calls = []

    def fair(*args):
        calls.append("fair")
        return _per_group_fairness_optimum(*args)

    def bayes(*args):
        calls.append("bayes")
        return bayes_accuracy_optimal(*args)

    monkeypatch.setattr(frontier, "_per_group_fairness_optimum", fair)
    assert build_frontier(model, family) == first
    monkeypatch.setattr(frontier, "bayes_accuracy_optimal", bayes)
    assert build_frontier(model, family) == first
    assert calls == ["fair", "bayes"]
