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

from .distributions import _root
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
        return _combine(self, EMPTY, lambda a, b: ~a)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a & b)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a | b)

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a ^ b)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a & ~b)


EMPTY = IntervalSet(())
FULL_LINE = IntervalSet(((-math.inf, math.inf),))


def _combine(a: IntervalSet, b: IntervalSet, keep: Callable) -> IntervalSet:
    # Test each half-open segment [lo, hi) between the sets' endpoints at
    # lo: membership changes only at endpoints and an endpoint rides with
    # the segment on its right, so lo is exact even where a midpoint would
    # round onto hi. IntervalSet merges the kept segments that touch.
    pts = sorted({p for s in (a, b) for pair in s.intervals for p in pair
                  if np.isfinite(p)})
    edges = np.array([-math.inf] + pts + [math.inf])
    lo, hi = edges[:-1], edges[1:]
    kept = keep(a.contains(lo), b.contains(lo))
    return IntervalSet(tuple(zip(lo[kept], hi[kept])))


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


# -- sign-region extraction -------------------------------------------------


def sign_region(g, lo: float, hi: float,
                max_intervals: int = DEFAULT_MAX_INTERVALS) -> IntervalSet:
    """Positive set {x : g(x) >= 0}, located on a grid and refined by _root.

    Grid signs extend to the infinities on both edges. The interval count
    is checked against max_intervals before any crossing is solved; each
    crossing is then solved to within BISECT_WIDTH + 4 eps |x|, from one
    scalar g call at a time. Zeros count as positive, so a vanishing g
    gives the full line.
    """
    xs = np.linspace(lo, hi, SIGN_GRID_POINTS)
    gs = np.asarray(g(xs))
    pos = gs >= 0.0
    count = int(pos[0]) + np.count_nonzero(pos[1:] & ~pos[:-1])
    if count > max_intervals:
        raise ComplexityError(
            f"positive region needs {count} intervals, above the "
            f"complexity bound k={max_intervals}; raise max_intervals"
        )

    def signed(x):
        # zeros count as positive, so where g is 0 on a whole run (past a
        # density's support edge) the boundary is the run's end, not any
        # zero in it: a zero becomes the least positive float, which _root
        # returns as its point of least |f| when it is isolated and solves
        # past through a run
        return float(g(x)) or math.ulp(0.0)

    ends = [-math.inf] if pos[0] else []
    for i in np.nonzero(pos[:-1] != pos[1:])[0]:
        ends.append(_root(signed, float(xs[i]), float(xs[i + 1]),
                          float(gs[i]) or math.ulp(0.0),
                          float(gs[i + 1]) or math.ulp(0.0), BISECT_WIDTH))
    if len(ends) % 2:
        ends.append(math.inf)
    return IntervalSet(tuple(zip(ends[::2], ends[1::2])))


# -- optimal constructors ----------------------------------------------------


def bayes_accuracy_optimal(model,
                           scope: str = "overall") -> GroupwiseClassifier:
    """Accuracy-maximizing sign rule: positive where the Y=1 mass density wins.

    scope "overall" compares group-summed joint densities on the hull of
    the groups' central ranges and yields a shared classifier; "per_group"
    runs the comparison inside each group, on its own range.
    """
    if scope == "overall":
        def g(x):
            return ((model.joint_pdf(x, 0, 1) + model.joint_pdf(x, 1, 1))
                    - (model.joint_pdf(x, 0, 0) + model.joint_pdf(x, 1, 0)))
        # neither g nor the hull depends on which group is which, so a
        # model and its group swap get the same region (the pooled range's
        # cdf sums the cells in order, so a swap moves it by rounding)
        (lo0, hi0), (lo1, hi1) = (model.group_quantile_range(a, 0.99999)
                                  for a in (0, 1))
        lo, hi = min(lo0, lo1), max(hi0, hi1)
        return GroupwiseClassifier.from_shared(sign_region(g, lo, hi))
    if scope == "per_group":
        return GroupwiseClassifier(
            _group_regions(model, 1.0, DEFAULT_MAX_INTERVALS))
    raise InputError(f"scope must be 'overall' or 'per_group', got {scope!r}")


def _group_regions(model, sign: float, max_intervals: int) -> tuple:
    """Each group's {sign g_a >= 0} on its range, g_a = J(a,1) f(x|a,1) -
    J(a,0) f(x|a,0) being where its label-1 mass density wins."""
    return tuple(sign_region(
        lambda x, a=a: sign * (model.joint_pdf(x, a, 1)
                               - model.joint_pdf(x, a, 0)),
        *model.group_quantile_range(a, 0.99999), max_intervals)
        for a in (0, 1))


def _strict_accuracy_optimal(model) -> GroupwiseClassifier:
    """The least per-group accuracy optimum {g_a > 0}, the complement of
    {-g_a >= 0}; bayes_accuracy_optimal's is the greatest. It is not capped:
    zero runs between positive ones add intervals the greatest does not."""
    return GroupwiseClassifier(tuple(
        r.complement() for r in _group_regions(model, -1.0, SIGN_GRID_POINTS)))


def fairness_optimal(model) -> GroupwiseClassifier:
    """Shared classifier minimizing the Equalized-Odds gap.

    A constant rule gives both groups the same rates (TPR 1 and TNR 0, or
    TPR 0 and TNR 1), so its gap is exactly 0, the minimum, under any
    weights. It is the more accurate of the two constants: EMPTY when
    P(Y=0) > P(Y=1), else FULL_LINE.
    """
    return GroupwiseClassifier.from_shared(
        EMPTY if model.p_label(0) > model.p_label(1) else FULL_LINE)
