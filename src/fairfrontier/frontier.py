"""Classifier-family sweeps, Pareto filtering, and frontier shape labels.

A sweep evaluates fairness (1 - Equalized-Odds gap) and weighted accuracy for
every classifier in a parametric family, always appending the two optimal
classifiers as extra candidates. The Pareto filter keeps the non-dominated
set; shape classification tags discontinuities in the surviving curve.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal, fairness_optimal)
from .errors import InputError, ResourceError, ValidationError
from .metrics import MetricWeights, accuracy, confusion_rates, unfairness

DOMINANCE_TOL = 1e-12
CANDIDATE_CAP = 10_000_000
KINDS = ("shared_threshold", "per_group_threshold", "per_group_intervals")
ORIENTS = ("positive_above", "positive_below", "both")


def _whole(name: str, value) -> int:
    """value as an int, refusing fractions instead of truncating them."""
    try:
        if int(value) == float(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class FamilySpec:
    """A parametric classifier family to sweep.

    orientations may be one choice for all groups or a (group0, group1) pair;
    "both" expands to both directions. k bounds the positive-interval count
    per group for the per_group_intervals kind. sweep_range None defers to
    the central 99.99% of the model's pooled distribution.
    """

    kind: str
    orientations: object = "positive_above"
    resolution: int = 801
    sweep_range: Optional[tuple] = None
    k: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        o = self.orientations
        slots = (o,) if isinstance(o, str) else tuple(o)
        if self.kind == "shared_threshold":
            if len(slots) != 1:
                raise ValidationError(
                    "shared_threshold takes a single orientation")
        elif len(slots) == 1:
            slots = slots * 2
        if len(slots) not in (1, 2) or any(s not in ORIENTS for s in slots):
            raise ValidationError(f"bad orientations {self.orientations!r}")
        object.__setattr__(self, "orientations", slots)
        object.__setattr__(self, "resolution",
                           _whole("resolution", self.resolution))
        if self.resolution < 3:
            raise ValidationError("resolution must be >= 3")
        if self.sweep_range is not None:
            lo, hi = (float(v) for v in self.sweep_range)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValidationError(f"bad sweep range {self.sweep_range!r}")
            object.__setattr__(self, "sweep_range", (lo, hi))
        object.__setattr__(self, "k", _whole("k", self.k))
        if self.k < 1:
            raise ValidationError("k must be >= 1")

    def combos(self) -> tuple:
        expand = {"both": ("positive_above", "positive_below")}
        return tuple(itertools.product(
            *(expand.get(s, (s,)) for s in self.orientations)))


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One evaluated classifier: fairness, accuracy, and its parameters.

    params = (source, tag, region0, region1) where the regions are interval
    bound tuples, so the classifier can be rebuilt from params alone.
    """

    fairness: float
    accuracy: float
    params: tuple

    @property
    def clf(self) -> GroupwiseClassifier:
        return GroupwiseClassifier((IntervalSet(self.params[2]),
                                    IntervalSet(self.params[3])))


class Jump(NamedTuple):
    fairness_at: float
    accuracy_drop: float
    kind: str
    index: int


@dataclass(frozen=True)
class Frontier:
    """Pareto-optimal points sorted by ascending fairness, plus shape labels.

    shape is None until classify_shape has run. resolution and sweep_range
    carry the generating family's grid so default jump tolerances can be
    derived later.
    """

    points: tuple
    shape: Optional[str] = None
    jumps: tuple = ()
    diagnostics: tuple = ()
    resolution: Optional[int] = None
    sweep_range: Optional[tuple] = None


def _above_region(t: float) -> tuple:
    return ((t, math.inf),)


def _below_region(t: float) -> tuple:
    return ((-math.inf, t),)


def _region_of(t: float, orient: str) -> tuple:
    return _above_region(t) if orient == "positive_above" else _below_region(t)


def _rate_arrays(model, grid, a: int, orient: str):
    """(tpr, tnr) arrays for group a when its region is one ray per t."""
    c1 = np.asarray(model.conditional[(a, 1)].cdf(grid))
    c0 = np.asarray(model.conditional[(a, 0)].cdf(grid))
    if orient == "positive_above":
        return 1.0 - c1, c0
    return c1, 1.0 - c0


def _scores(model, w, tpr0, tpr1, tnr0, tnr1):
    f_u = w.omega1 * np.abs(tpr1 - tpr0) + w.omega2 * np.abs(tnr1 - tnr0)
    acc = (w.p1 * (tpr1 * model.joint[(1, 1)] + tpr0 * model.joint[(0, 1)])
           + w.p2 * (tnr1 * model.joint[(1, 0)] + tnr0 * model.joint[(0, 0)]))
    return 1.0 - f_u, acc


def _parities(m: int, k: int, orient: str) -> tuple:
    """The starts_positive values a region with m boundaries may take."""
    # a leftmost positive segment means positive below the first boundary,
    # so the parity is pinned by the orientation; a positive start also
    # spends one more of the k positive intervals
    return tuple(
        start for start in (True, False)
        if ((m + 2) // 2 if start else (m + 1) // 2) <= k
        and orient != ("positive_above" if start else "positive_below"))


def _interval_region_count(resolution: int, k: int, orient: str) -> int:
    return sum(comb(resolution, m) * len(_parities(m, k, orient))
               for m in range(0, 2 * k + 1))


def _interval_regions(grid, k: int, orient: str):
    """All index-bound regions with at most k positive intervals.

    Regions are tuples of (lo_idx, hi_idx) into an extended cdf table where
    index 0 stands for -inf and len(grid)+1 for +inf.
    """
    n = len(grid)
    out = []
    for m in range(0, 2 * k + 1):
        parities = _parities(m, k, orient)
        for combo in itertools.combinations(range(n), m):
            pts = (0,) + tuple(i + 1 for i in combo) + (n + 1,)
            for starts_positive in parities:
                first = 0 if starts_positive else 1
                out.append(tuple((pts[i], pts[i + 1])
                                 for i in range(first, m + 1, 2)))
    return out


def _region_mass(table_ext: np.ndarray, region) -> float:
    return float(sum(table_ext[hi] - table_ext[lo] for lo, hi in region))


def _edge_value(grid, idx: int) -> float:
    if idx == 0:
        return -math.inf
    if idx == len(grid) + 1:
        return math.inf
    return float(grid[idx - 1])


def _bounds_from_indices(grid, region) -> tuple:
    return tuple((_edge_value(grid, lo), _edge_value(grid, hi))
                 for lo, hi in region)


def _candidate_count(model, family: FamilySpec) -> int:
    combos = family.combos()
    r = family.resolution
    if family.kind == "shared_threshold":
        return r * len(combos)
    if family.kind == "per_group_threshold":
        return r * r * len(combos)
    total = 0
    for o0, o1 in combos:
        total += (_interval_region_count(r, family.k, o0)
                  * _interval_region_count(r, family.k, o1))
    return total


class Candidates(Sequence):
    """A sweep's candidates, stored as columns and read-only.

    fairness and accuracy hold one value per candidate in sweep order.
    Indexing (negative indices too) and iteration build equal FrontierPoints
    on demand: each block of the sweep decodes its own flat index into
    params. sweep_range is the grid range the sweep resolved.
    """

    def __init__(self, blocks, sweep_range: tuple):
        self.fairness = np.concatenate([b[0] for b in blocks])
        self.accuracy = np.concatenate([b[1] for b in blocks])
        self.fairness.flags.writeable = False
        self.accuracy.flags.writeable = False
        self.sweep_range = sweep_range
        self._counts = tuple(b[2] for b in blocks)
        self._decoders = tuple(b[3] for b in blocks)
        self._ends = tuple(itertools.accumulate(self._counts))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, i) -> FrontierPoint:
        i = operator.index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"candidate index out of range for {n}")
        b = bisect.bisect_right(self._ends, i)
        start = self._ends[b] - self._counts[b]
        return FrontierPoint(float(self.fairness[i]), float(self.accuracy[i]),
                             self._decoders[b](i - start))

    def __iter__(self):
        # block by block over tolist() values: a bisect per element would
        # slow every caller that streams all candidates
        start = 0
        for count, decode in zip(self._counts, self._decoders):
            fair = self.fairness[start:start + count].tolist()
            acc = self.accuracy[start:start + count].tolist()
            for k in range(count):
                yield FrontierPoint(fair[k], acc[k], decode(k))
            start += count


def sweep(model, family: FamilySpec, w: MetricWeights = None) -> Candidates:
    """Evaluate every family member plus the two appended optimal classifiers.

    Candidates come out orientation-major, then row-major over the grid, and
    the fairness-optimal and accuracy-optimal classifiers always land at the
    end, in that order.
    """
    w = w or MetricWeights()
    count = _candidate_count(model, family)
    if count > CANDIDATE_CAP:
        raise ResourceError(
            f"family would generate {count} candidates (cap {CANDIDATE_CAP}); "
            "lower the resolution or k"
        )
    lo, hi = family.sweep_range or model.quantile_range(0.9999)
    grid = np.linspace(lo, hi, family.resolution)

    block = {"shared_threshold": _shared_block,
             "per_group_threshold": _per_group_block,
             "per_group_intervals": _intervals_block}[family.kind]
    blocks = [block(model, family, w, grid, combo)
              for combo in family.combos()]
    blocks.append(_points_block(_appended_optima(model, family, w)))
    return Candidates(blocks, (float(lo), float(hi)))


def _points_block(points):
    fair = np.array([p.fairness for p in points], dtype=float)
    acc = np.array([p.accuracy for p in points], dtype=float)
    return fair, acc, len(points), lambda k: points[k].params


def _shared_block(model, family, w, grid, combo):
    (orient,) = combo
    tpr0, tnr0 = _rate_arrays(model, grid, 0, orient)
    tpr1, tnr1 = _rate_arrays(model, grid, 1, orient)
    fair, acc = _scores(model, w, tpr0, tpr1, tnr0, tnr1)
    regions = [_region_of(t, orient) for t in grid.tolist()]

    def decode(k):
        return ("grid", orient, regions[k], regions[k])
    return fair, acc, fair.size, decode


def _per_group_block(model, family, w, grid, combo):
    o0, o1 = combo
    tpr0, tnr0 = _rate_arrays(model, grid, 0, o0)
    tpr1, tnr1 = _rate_arrays(model, grid, 1, o1)
    # rows follow the group-0 threshold, columns the group-1 threshold
    fair, acc = _scores(model, w,
                        tpr0[:, None], tpr1[None, :],
                        tnr0[:, None], tnr1[None, :])
    return _pair_block(fair, acc, f"{o0}|{o1}",
                       [_region_of(t, o0) for t in grid.tolist()],
                       [_region_of(t, o1) for t in grid.tolist()])


def _pair_block(fair, acc, tag, bounds0, bounds1):
    """A (group-0 row, group-1 column) score table as a flat block."""
    n1 = len(bounds1)

    def decode(k):
        i, j = divmod(k, n1)
        return ("grid", tag, bounds0[i], bounds1[j])
    return fair.ravel(), acc.ravel(), fair.size, decode


def _intervals_block(model, family, w, grid, combo):
    tables = {}
    for a, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cdf = np.asarray(model.conditional[(a, y)].cdf(grid))
        tables[(a, y)] = np.concatenate(([0.0], cdf, [1.0]))
    per_group = []
    for a, orient in ((0, combo[0]), (1, combo[1])):
        regions = _interval_regions(grid, family.k, orient)
        tpr = np.array([_region_mass(tables[(a, 1)], r) for r in regions])
        tnr = np.array([1.0 - _region_mass(tables[(a, 0)], r) for r in regions])
        bounds = [_bounds_from_indices(grid, r) for r in regions]
        per_group.append((bounds, tpr, tnr))
    (b0, tpr0, tnr0), (b1, tpr1, tnr1) = per_group
    fair, acc = _scores(model, w,
                        tpr0[:, None], tpr1[None, :],
                        tnr0[:, None], tnr1[None, :])
    return _pair_block(fair, acc, f"{combo[0]}|{combo[1]}", b0, b1)


def _appended_optima(model, family, w):
    if family.kind == "shared_threshold":
        fair = fairness_optimal(model)
        scope = "overall"
    else:
        fair = _per_group_fairness_optimum(model, w)
        scope = "per_group"
    out = []
    for name, clf in (("fairness", fair),
                      ("accuracy", bayes_accuracy_optimal(model, scope))):
        rates = confusion_rates(model, clf)
        out.append(FrontierPoint(
            1.0 - unfairness(rates, w), accuracy(model, clf, w),
            ("optimum", name,
             clf.positive_region(0).intervals,
             clf.positive_region(1).intervals)))
    return out


FAIR_TOL = 1e-10
_FAIR_LEVELS = 2049
_PLATEAU_GAP = 1e-12


def _fair_line(model, w, combo, u):
    """Rates and thresholds of the equal-TPR threshold pairs at levels u."""
    thresholds = []
    tnrs = []
    for a, orient in ((0, combo[0]), (1, combo[1])):
        level = 1.0 - u if orient == "positive_above" else u
        t = model.conditional[(a, 1)].ppf(level)
        c0 = np.asarray(model.conditional[(a, 0)].cdf(t))
        thresholds.append(t)
        tnrs.append(c0 if orient == "positive_above" else 1.0 - c0)
    acc = (w.p1 * u * (model.joint[(0, 1)] + model.joint[(1, 1)])
           + w.p2 * (tnrs[0] * model.joint[(0, 0)]
                     + tnrs[1] * model.joint[(1, 0)]))
    return thresholds, tnrs[1] - tnrs[0], acc


def _per_group_fairness_optimum(model, w) -> GroupwiseClassifier:
    """Most accurate per-group threshold pair with (numerically) zero gap.

    Pinning both groups to a common TPR level u leaves the TNR gap as a
    one-dimensional function of u; its roots are completely fair pairs.
    Plateaus where the gap vanishes identically (shifted or identical laws)
    are resolved by maximizing accuracy along the plateau. Falls back to the
    shared fairness optimum when no pair improves on it.
    """
    u_grid = np.linspace(1e-7, 1.0 - 1e-7, _FAIR_LEVELS)
    best = fairness_optimal(model)
    best_key = _fair_key(model, w, best)
    for combo in itertools.product(ORIENTS[:2], repeat=2):
        gap = _fair_line(model, w, combo, u_grid)[1]
        for u_star in _fair_roots(model, w, combo, u_grid, gap):
            clf = _fair_pair(model, w, combo, u_star)
            key = _fair_key(model, w, clf)
            if key < best_key:
                best, best_key = clf, key
    return best


def _fair_key(model, w, clf):
    rates = confusion_rates(model, clf)
    f_u = unfairness(rates, w)
    over = f_u > FAIR_TOL
    return (over, f_u if over else 0.0, -accuracy(model, clf, w))


def _fair_pair(model, w, combo, u_star):
    thresholds = _fair_line(model, w, combo, np.array([u_star]))[0]
    return GroupwiseClassifier(tuple(
        IntervalSet(_region_of(float(t[0]), orient))
        for t, orient in zip(thresholds, combo)))


def _fair_roots(model, w, combo, u_grid, gap):
    """Levels u where the TNR gap vanishes: one per plateau, one per crossing.

    Each run of samples with |gap| <= _PLATEAU_GAP, even a one-sample run, is
    a plateau for _fair_polish; sign flips next to one are rounding noise.
    The other sign flips are real crossings, bisected together as one array.
    """
    near_zero = np.abs(gap) <= _PLATEAU_GAP
    starts = np.nonzero(near_zero & ~np.r_[False, near_zero[:-1]])[0]
    ends = np.nonzero(near_zero & ~np.r_[near_zero[1:], False])[0]
    roots = [_fair_polish(model, w, combo, u_grid, i, j)
             for i, j in zip(starts, ends)]
    crossing = np.nonzero((gap[:-1] * gap[1:] < 0)
                          & ~near_zero[:-1] & ~near_zero[1:])[0]
    lo_u, hi_u = u_grid[crossing], u_grid[crossing + 1]
    lo_positive = gap[crossing] > 0
    for _ in range(80):
        mid = 0.5 * (lo_u + hi_u)
        if np.all((mid == lo_u) | (mid == hi_u)):
            break  # every bracket is down to adjacent floats
        g_mid = _fair_line(model, w, combo, mid)[1]
        # an exact zero pins both ends; otherwise keep the flip bracketed
        zero = g_mid == 0.0
        same = (g_mid > 0) == lo_positive
        lo_u = np.where(zero | same, mid, lo_u)
        hi_u = np.where(zero | ~same, mid, hi_u)
    return roots + [float(u) for u in 0.5 * (lo_u + hi_u)]


def _fair_polish(model, w, combo, u_grid, i, j):
    """Accuracy argmax over a plateau of vanishing gap, golden-sectioned."""
    acc = _fair_line(model, w, combo, u_grid[i:j + 1])[2]
    k = i + int(np.argmax(acc))
    lo_u = u_grid[max(k - 1, i)]
    hi_u = u_grid[min(k + 1, j)]
    if lo_u == hi_u:
        return float(u_grid[k])
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def acc_at(u):
        return float(_fair_line(model, w, combo, np.array([u]))[2][0])

    a, b = lo_u, hi_u
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = acc_at(c), acc_at(d)
    for _ in range(70):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = acc_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = acc_at(d)
    return 0.5 * (a + b)


# -- Pareto filtering --------------------------------------------------------


def _finish_frontier(survivors, resolution=None, sweep_range=None) -> Frontier:
    """Collapse equal-fairness survivors and sort; shared with the oracle."""
    best = {}
    for p in survivors:
        q = best.get(p.fairness)
        if (q is None or p.accuracy > q.accuracy
                or (p.accuracy == q.accuracy and p.params < q.params)):
            best[p.fairness] = p
    points = tuple(sorted(best.values(), key=lambda p: p.fairness))
    return Frontier(points=points, resolution=resolution,
                    sweep_range=sweep_range)


def _fairest(fairness, accuracy) -> tuple:
    """The highest fairness and the best accuracy among candidates at it.

    A NaN fairness makes both NaN and -inf, which drops nothing.
    """
    f_max = fairness.max()
    return float(f_max), float(accuracy[fairness == f_max].max(
        initial=-math.inf))


def pareto_filter(candidates, family: FamilySpec = None) -> Frontier:
    """Keep exactly the candidates no other candidate dominates.

    Domination allows a 1e-12 slack on the "no worse" side and demands a
    strict win beyond the same slack on the other. Passing the generating
    family stamps its grid metadata onto the result. A Candidates sweep is
    filtered on its arrays; FrontierPoints are built only for survivors.
    """
    if isinstance(candidates, Candidates):
        pts = candidates
        f, a = candidates.fairness, candidates.accuracy
    else:
        pts = list(candidates)
        f = np.fromiter((p.fairness for p in pts), float, len(pts))
        a = np.fromiter((p.accuracy for p in pts), float, len(pts))
    if not len(pts):
        raise InputError("no candidates to filter")
    tol = DOMINANCE_TOL
    # The fairest, most accurate candidate (f_max, a_top) is strictly fairer
    # than each dropped point with accuracy no worse, so it dominates it; it
    # also dominates every point a dropped one dominates, because a_top is
    # not below the dropped accuracy. The survivors are therefore unchanged.
    f_max, a_top = _fairest(f, a)
    kept = np.flatnonzero(~((f + tol < f_max) & (a <= a_top)))
    order = kept[np.argsort(f[kept], kind="stable")]
    fs, as_ = f[order], a[order]
    suffix_max = np.maximum.accumulate(as_[::-1])[::-1]

    # someone at least as fair (within tol) with strictly better accuracy
    lo_idx = np.searchsorted(fs, fs - tol, side="left")
    dominated = suffix_max[lo_idx] > as_ + tol
    # someone strictly fairer with accuracy no worse (within tol)
    hi_idx = np.searchsorted(fs, fs + tol, side="right")
    in_range = hi_idx < len(fs)
    dominated |= in_range & (suffix_max[np.minimum(hi_idx, len(fs) - 1)]
                             >= as_ - tol)

    survivors = [pts[i] for i in order[~dominated].tolist()]
    return _finish_frontier(
        survivors,
        resolution=family.resolution if family else None,
        sweep_range=family.sweep_range if family else None,
    )


# -- shape classification ----------------------------------------------------


def classify_shape(frontier: Frontier, jump_threshold: float = 0.05,
                   fairness_gap: float = None) -> Frontier:
    """Label the frontier's shape and record any discontinuities.

    An accuracy jump is a drop > jump_threshold between points closer than
    fairness_gap in fairness; a fairness jump swaps the two roles. The gap
    defaults to two grid steps of the generating sweep. Fairness jumps are
    flagged as sweep artifacts: a maximal frontier cannot skip fairness
    levels, so refining the resolution should dissolve them.
    """
    if fairness_gap is None:
        if not frontier.resolution:
            raise InputError("fairness_gap needed: frontier has no resolution")
        fairness_gap = 2.0 / frontier.resolution
    pts = frontier.points
    jumps = []
    notes = []
    for i in range(len(pts) - 1):
        df = pts[i + 1].fairness - pts[i].fairness
        da = pts[i].accuracy - pts[i + 1].accuracy
        if da > jump_threshold and df < fairness_gap:
            jumps.append(Jump(pts[i + 1].fairness, da, "accuracy", i))
        if df > jump_threshold and da < fairness_gap:
            jumps.append(Jump(pts[i + 1].fairness, da, "fairness", i))
            notes.append(
                f"fairness gap {df:.6g} at accuracy {pts[i].accuracy:.6g} "
                "with nearly constant accuracy: sweep artifact, refine the "
                "resolution"
            )
    kinds = {j.kind for j in jumps}
    if not kinds:
        shape = "continuous"
    elif kinds == {"accuracy"}:
        shape = "sharp_decline_accuracy"
    elif kinds == {"fairness"}:
        shape = "sharp_decline_fairness"
    else:
        shape = "sharp_decline_both"
    return dataclasses.replace(frontier, shape=shape, jumps=tuple(jumps),
                               diagnostics=tuple(notes))


def _swept_frontier(model, family: FamilySpec, w: MetricWeights = None,
                    jump_threshold: float = 0.05,
                    fairness_gap: float = None) -> tuple:
    """(candidates, labelled frontier) of one family sweep."""
    candidates = sweep(model, family, w)
    frontier = dataclasses.replace(pareto_filter(candidates, family),
                                   sweep_range=candidates.sweep_range)
    return candidates, classify_shape(frontier, jump_threshold, fairness_gap)


def build_frontier(model, family: FamilySpec, w: MetricWeights = None,
                   jump_threshold: float = 0.05,
                   fairness_gap: float = None) -> Frontier:
    """sweep -> pareto_filter -> classify_shape in one call."""
    return _swept_frontier(model, family, w, jump_threshold, fairness_gap)[1]
