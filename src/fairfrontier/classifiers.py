"""Interval classifiers on the real line and the two optimal constructors.

A classifier is a positive region per group: predict 1 iff x falls in the
group's region. Regions are finite unions of half-open intervals, which is
enough to represent every Bayes-style sign rule used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import positive_mass
from .errors import ComplexityError, InputError

SIGN_GRID_POINTS = 4096
BISECT_WIDTH = 1e-10
DEFAULT_MAX_INTERVALS = 4


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint union of half-open intervals [lo, hi)."""

    intervals: tuple = ()

    def __post_init__(self):
        pairs = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise InputError("interval endpoints must not be NaN")
            if lo < hi:
                pairs.append((lo, hi))
        pairs.sort()
        merged = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(self, "intervals",
                           tuple((lo, hi) for lo, hi in merged))

    @property
    def bounds(self) -> np.ndarray:
        return np.array([b for pair in self.intervals for b in pair])

    @property
    def boundary(self) -> tuple:
        """Finite endpoints, i.e. the decision boundary."""
        return tuple(b for b in self.bounds if np.isfinite(b))

    def contains(self, x):
        """Vectorized membership; left endpoints belong to the set."""
        idx = np.searchsorted(self.bounds, np.asarray(x, dtype=float),
                              side="right")
        return idx % 2 == 1

    def length(self, window=None) -> float:
        total = 0.0
        for lo, hi in self.intervals:
            if window is not None:
                lo, hi = max(lo, window[0]), min(hi, window[1])
            if hi > lo:
                total += hi - lo
        return total

    def complement(self) -> "IntervalSet":
        return _combine(self, EMPTY, lambda a, b: not a)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a and b)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a or b)

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a != b)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a and not b)


EMPTY = IntervalSet(())
FULL_LINE = IntervalSet(((-math.inf, math.inf),))


def _combine(a: IntervalSet, b: IntervalSet, keep: Callable) -> IntervalSet:
    # Sweep over the common endpoint partition and test each half-open
    # segment [lo, hi) at lo: membership changes only at endpoints and an
    # endpoint rides with the segment on its right, so lo is exact even
    # where a midpoint would round onto hi. Endpoints are preserved exactly.
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


@dataclass(frozen=True)
class GroupwiseClassifier:
    """Positive region per group; predict 1 iff x lies in the group's region."""

    regions: tuple

    def __post_init__(self):
        r = tuple(self.regions)
        if len(r) != 2 or not all(isinstance(s, IntervalSet) for s in r):
            raise InputError("regions must be one IntervalSet per group")
        object.__setattr__(self, "regions", r)

    @classmethod
    def from_shared(cls, region: IntervalSet) -> "GroupwiseClassifier":
        return cls((region, region))

    @classmethod
    def shared_threshold(cls, t: float,
                         positive_above: bool = True) -> "GroupwiseClassifier":
        region = (IntervalSet(((t, math.inf),)) if positive_above
                  else IntervalSet(((-math.inf, t),)))
        return cls.from_shared(region)

    @classmethod
    def per_group_thresholds(cls, t0: float, t1: float,
                             positive_above=(True, True)) -> "GroupwiseClassifier":
        def region(t, above):
            return (IntervalSet(((t, math.inf),)) if above
                    else IntervalSet(((-math.inf, t),)))
        return cls((region(t0, positive_above[0]), region(t1, positive_above[1])))

    def positive_region(self, a: int) -> IntervalSet:
        return self.regions[a]

    @property
    def shared(self) -> bool:
        return self.regions[0] == self.regions[1]

    def predict(self, x, a: int):
        return self.regions[a].contains(x).astype(int)

    def complemented(self) -> "GroupwiseClassifier":
        return GroupwiseClassifier(tuple(r.complement() for r in self.regions))


# -- sign-region extraction -------------------------------------------------


def _bisect_root(g, lo: float, hi: float, lo_pos: bool) -> float:
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (float(g(mid)) >= 0.0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_region(g, lo: float, hi: float,
                max_intervals: int = DEFAULT_MAX_INTERVALS) -> IntervalSet:
    """Positive set {x : g(x) >= 0}, located on a grid and refined by bisection.

    Grid signs extend to the infinities on both edges; crossings are sharpened
    to width 1e-10. Zeros count as positive, so a vanishing g gives the full
    line.
    """
    xs = np.linspace(lo, hi, SIGN_GRID_POINTS)
    pos = np.asarray(g(xs)) >= 0.0
    flips = np.nonzero(pos[:-1] != pos[1:])[0]
    roots = [_bisect_root(g, xs[i], xs[i + 1], bool(pos[i])) for i in flips]

    intervals = []
    start = -math.inf if pos[0] else None
    for i, r in zip(flips, roots):
        if pos[i]:
            intervals.append((start, r))
            start = None
        else:
            start = r
    if start is not None:
        intervals.append((start, math.inf))
    if len(intervals) > max_intervals:
        raise ComplexityError(
            f"positive region needs {len(intervals)} intervals, above the "
            f"complexity bound k={max_intervals}; raise max_intervals"
        )
    return IntervalSet(tuple(intervals))


# -- optimal constructors ----------------------------------------------------


def bayes_accuracy_optimal(model, scope: str = "overall",
                           max_intervals: int = DEFAULT_MAX_INTERVALS
                           ) -> GroupwiseClassifier:
    """Accuracy-maximizing sign rule: positive where the Y=1 mass density wins.

    scope "overall" compares group-summed joint densities and yields a shared
    classifier; "per_group" runs the comparison inside each group.
    """
    if scope == "overall":
        def g(x):
            return (model.joint_pdf(x, 0, 1) + model.joint_pdf(x, 1, 1)
                    - model.joint_pdf(x, 0, 0) - model.joint_pdf(x, 1, 0))
        lo, hi = model.quantile_range(0.99999)
        return GroupwiseClassifier.from_shared(
            sign_region(g, lo, hi, max_intervals))
    if scope == "per_group":
        regions = []
        for a in (0, 1):
            def g(x, a=a):
                return model.joint_pdf(x, a, 1) - model.joint_pdf(x, a, 0)
            lo, hi = model.group_quantile_range(a, 0.99999)
            regions.append(sign_region(g, lo, hi, max_intervals))
        return GroupwiseClassifier(tuple(regions))
    raise InputError(f"scope must be 'overall' or 'per_group', got {scope!r}")


def _region_unfairness(model, region: IntervalSet) -> float:
    # local Equalized-Odds gap for a shared region, default weights 1/2, 1/2
    tpr = [positive_mass(model.conditional[(a, 1)], region) for a in (0, 1)]
    fpr = [positive_mass(model.conditional[(a, 0)], region) for a in (0, 1)]
    return 0.5 * abs(tpr[1] - tpr[0]) + 0.5 * abs(fpr[1] - fpr[0])


def fairness_optimal(model,
                     max_intervals: int = DEFAULT_MAX_INTERVALS
                     ) -> GroupwiseClassifier:
    """Shared classifier minimizing the Equalized-Odds gap.

    Tries the positive set of each signed combination of the per-label group
    density differences (the four orderings of the rate gaps), scores each by
    its realized gap, and keeps the best; a trivial constant classifier wins
    only when strictly fairer. Ties prefer fewer intervals, then the smaller
    boundary.
    """
    def lam1(x):
        return 0.5 * (model.cell_pdf(x, 1, 1) - model.cell_pdf(x, 0, 1))

    def lam2(x):
        return 0.5 * (model.cell_pdf(x, 1, 0) - model.cell_pdf(x, 0, 0))

    lo, hi = model.quantile_range(0.99999)
    hypotheses = (
        lambda x: lam1(x) - lam2(x),
        lambda x: lam2(x) - lam1(x),
        lambda x: lam1(x) + lam2(x),
        lambda x: -lam1(x) - lam2(x),
    )
    best = None
    for g in hypotheses:
        region = sign_region(g, lo, hi, max_intervals)
        key = (_region_unfairness(model, region), len(region.intervals),
               region.intervals)
        if best is None or key < best[0]:
            best = (key, region)
    # the constant-positive rule is exactly fair; use it only when the sign
    # candidates cannot match its gap
    if _region_unfairness(model, FULL_LINE) < best[0][0]:
        return GroupwiseClassifier.from_shared(FULL_LINE)
    return GroupwiseClassifier.from_shared(best[1])

