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
from functools import cache, cached_property, partial
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal, fairness_optimal)
from .distributions import _root
from .errors import (InputError, ResourceError, ValidationError, _number,
                     _whole)
from .metrics import (MetricWeights, Reference, _gap, _hits,
                      confusion_rates, unfairness)

DOMINANCE_TOL = 1e-12
CANDIDATE_CAP = 10_000_000
# elements per band of _scores (128 KiB of float64, so its temporaries
# stay cache-sized) and per chunk of pareto_filter's first pass; neither
# changes any result
_BAND = 16_384
_CHUNK = 65_536
KINDS = ("shared_threshold", "per_group_threshold", "per_group_intervals")
ORIENTS = ("positive_above", "positive_below", "both")


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
                           _whole(self.resolution, "resolution"))
        if self.resolution < 3:
            raise ValidationError("resolution must be >= 3")
        if self.sweep_range is not None:
            object.__setattr__(self, "sweep_range",
                               _sweep_range(self.sweep_range))
        object.__setattr__(self, "k", _whole(self.k, "k"))
        if self.k < 1:
            raise ValidationError("k must be >= 1")

    def combos(self) -> tuple:
        expand = {"both": ("positive_above", "positive_below")}
        return tuple(itertools.product(
            *(expand.get(s, (s,)) for s in self.orientations)))


def _sweep_range(value) -> tuple:
    """value as a (lo, hi) pair of finite numbers with lo < hi whose width
    hi - lo is finite too, so that a grid over it holds no NaN or inf."""
    try:
        lo, hi = (_number(v, "sweep range") for v in value)
    except (TypeError, ValueError):  # not two values
        lo = hi = math.nan
    if not lo < hi:
        raise ValidationError(f"bad sweep range {value!r}")
    if not math.isfinite(hi - lo):
        raise ValidationError(
            f"sweep range {value!r} is too wide: hi - lo overflows a float")
    return lo, hi


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


def _scores(model, w, tpr0, tpr1, tnr0, tnr1, fair, acc) -> None:
    """Score every (row, column) rate pair into the flat fair and acc.

    tpr0/tnr0 are (rows, 1) group-0 rates; tpr1/tnr1 are (1, cols) group-1
    rates, or (rows, 1) when both groups share the row's threshold. Scores
    are written row-major into fair[:rows * cols] and acc[:rows * cols],
    band by band so that each band's temporaries stay small.
    """
    rows, cols = tpr0.shape[0], tpr1.shape[1]
    height = max(1, _BAND // cols)
    fair = fair[:rows * cols].reshape(rows, cols)
    acc = acc[:rows * cols].reshape(rows, cols)
    for lo in range(0, rows, height):
        rates = [x[lo:lo + height] if x.shape[0] == rows else x
                 for x in (tpr0, tpr1, tnr0, tnr1)]
        np.subtract(1.0, _gap(w, *rates), out=fair[lo:lo + height])
        acc[lo:lo + height] = _hits(model, w, *rates)


def _boundary_counts(family: FamilySpec, orient: str) -> range:
    """How many grid boundaries a region of one group may have: one for a
    threshold, else every count that leaves at most k positive intervals."""
    if family.kind != "per_group_intervals":
        return range(1, 2)
    # an n-point grid has no region of more than n boundaries
    return range(min(2 * family.k + int(orient == "positive_above"),
                     family.resolution + 1))


def _region_count(family: FamilySpec, orient: str) -> int:
    """How many regions the family gives a group; the sum stops once it
    passes CANDIDATE_CAP, which _capped refuses either way."""
    total = 0
    for m in _boundary_counts(family, orient):
        total += comb(family.resolution, m)
        if total > CANDIDATE_CAP:
            break
    return total


def _interval_regions(family: FamilySpec, orient: str):
    """Every region the family gives a group, as index arrays.

    Yields one (lo, hi) pair per boundary count m: row i holds one region's
    interval bounds as indices into the extended grid of the n-point grid,
    where 0 stands for -inf and n + 1 for +inf, rows in
    itertools.combinations order. A
    positive_above region starts negative at -inf; a positive_below one
    starts positive, and that segment counts toward k. A threshold is the
    one-boundary region, so its rows follow the grid.
    """
    n = family.resolution
    first = int(orient == "positive_above")
    for m in _boundary_counts(family, orient):
        pts = np.empty((comb(n, m), m + 2), dtype=np.intp)
        pts[:, 0], pts[:, -1] = 0, n + 1
        cuts = itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), m))
        pts[:, 1:-1] = np.fromiter(cuts, np.intp, len(pts) * m).reshape(
            len(pts), m)
        yield pts[:, first:-1:2], pts[:, first + 1::2]


def _candidate_count(family: FamilySpec) -> int:
    # a shared combo is one orientation, whose regions both groups take
    return sum(math.prod(_region_count(family, o) for o in combo)
               for combo in family.combos())


class Candidates(Sequence):
    """A sweep's candidates, stored as columns and read-only.

    fairness and accuracy hold one value per candidate in sweep order.
    Indexing (negative indices too) builds equal FrontierPoints on demand.
    sweep_range is the grid range the sweep resolved.

    blocks lists the sweep's blocks in order, each as the data
    (source, tag, regions0, regions1, product). A product block holds one
    candidate per (group-0 region, group-1 region) pair, row-major; any
    other block pairs regions0[k] with regions1[k]. A grid block's regions
    are decoded only when read, so pareto_filter decodes its survivors'.
    """

    def __init__(self, fairness: np.ndarray, accuracy: np.ndarray, blocks,
                 sweep_range: tuple):
        self.fairness = fairness
        self.accuracy = accuracy
        self.fairness.flags.writeable = False
        self.accuracy.flags.writeable = False
        self.sweep_range = sweep_range
        self.blocks = tuple(blocks)
        self._ends = tuple(itertools.accumulate(map(_block_len, self.blocks)))

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
        source, tag, regions0, regions1, _ = block = self.blocks[b]
        i0, i1 = _members(block, i - self._ends[b] + _block_len(block))
        return FrontierPoint(float(self.fairness[i]), float(self.accuracy[i]),
                             (source, tag, regions0[i0], regions1[i1]))

    def __iter__(self):
        """The candidates in order, each block's regions decoded once."""
        for lo, hi, (source, tag, r0, r1, product) in zip(
                (0, *self._ends), self._ends, self.blocks):
            pairs = (itertools.product if product else zip)(list(r0), list(r1))
            for f, a, pair in zip(self.fairness[lo:hi], self.accuracy[lo:hi],
                                  pairs):
                yield FrontierPoint(float(f), float(a), (source, tag, *pair))


def _block_len(block) -> int:
    return len(block[2]) * len(block[3]) if block[4] else len(block[2])


def _members(block, k):
    """Region indices (i0, i1) of a block's members k: an int or an array."""
    return divmod(k, len(block[3])) if block[4] else (k, k)


def sweep(model, family: FamilySpec, w: MetricWeights = None) -> Candidates:
    """Evaluate every family member plus the two appended optimal classifiers.

    Candidates come out orientation-major, then row-major over the grid, and
    the fairness-optimal and accuracy-optimal classifiers always land at the
    end, in that order. The two score columns are allocated once, at their
    final size, and each block scores straight into its own slice.
    """
    return _sweep(model, family, w or MetricWeights(), False, _Optima(model))


def _capped(count: int) -> int:
    """count, or ResourceError when a family would generate more than
    CANDIDATE_CAP candidates."""
    if count > CANDIDATE_CAP:
        raise ResourceError(
            f"family would generate at least {count} candidates "
            f"(cap {CANDIDATE_CAP}); lower the resolution or k"
        )
    return count


def _sweep(model, family: FamilySpec, w: MetricWeights, bounded: bool,
           optima: _Optima) -> Candidates:
    """sweep's candidates, or with bounded only the pair-block lines that
    _open_lines leaves open against the fairest appended optimum."""
    count = _capped(_candidate_count(family))
    lo, hi = family.sweep_range or optima.pooled_range()
    grid = np.linspace(lo, hi, family.resolution)
    appended = _appended_optima(model, family, w, optima)
    product = family.kind != "shared_threshold"
    pivot = (max(appended, key=lambda p: (p.fairness, p.accuracy))
             if bounded and product else None)

    # every combo has both groups: one pair of cell cdf columns per group
    # serves both orientations; one index table per orientation, both groups
    edges = np.concatenate(([-math.inf], grid, [math.inf]))
    cdfs = [_cell_cdfs(model, grid, a) for a in (0, 1)]
    index = cache(lambda orient: list(_interval_regions(family, orient)))
    table = cache(lambda a, orient: _Table(
        model, w, a, *_group_table(index(orient), cdfs[a])))

    # a shared combo is one orientation, which both groups take; its block
    # pairs row k with row k, so group 1's rates run down the rows there
    # and along the columns of a pair block
    combos = [(combo[0], combo[-1], "|".join(combo))
              for combo in family.combos()]
    lines = [_open_lines(w, table(0, o0), table(1, o1), pivot)
             for o0, o1, _ in combos]
    if product:
        count = sum(len(rows) * len(cols) for rows, cols in lines)
    fair = np.empty(count + len(appended))
    acc = np.empty(count + len(appended))
    blocks = []
    start = 0
    shape1 = (1, -1) if product else (-1, 1)
    for (o0, o1, tag), (rows, cols) in zip(combos, lines):
        t0, t1 = table(0, o0), table(1, o1)
        blocks.append(("grid", tag, _Regions(edges, index(o0), rows),
                       _Regions(edges, index(o1), cols), product))
        if len(rows) and len(cols):  # _scores bands by the column count
            _scores(model, w, t0.tpr[rows][:, None],
                    t1.tpr[cols].reshape(shape1), t0.tnr[rows][:, None],
                    t1.tnr[cols].reshape(shape1), fair[start:], acc[start:])
        start += _block_len(blocks[-1])
    fair[start:] = [p.fairness for p in appended]
    acc[start:] = [p.accuracy for p in appended]
    blocks += [(source, tag, (r0,), (r1,), True)
               for source, tag, r0, r1 in (p.params for p in appended)]
    return Candidates(fair, acc, blocks, (float(lo), float(hi)))


def _cell_cdfs(model, grid, a: int) -> list:
    """Group a's label-0 and label-1 cdf at -inf, the grid and inf."""
    return [np.concatenate(([0.0], model.conditional[(a, y)].cdf(grid), [1.0]))
            for y in (0, 1)]


def _group_table(index, cdfs) -> tuple:
    """(tpr, tnr) of a group over the regions of an orientation's index
    table (the list of _interval_regions), from the group's _cell_cdfs.

    A region's mass adds its intervals' cdf differences one column at a
    time, from 0 and left to right, and is clamped to [0, 1]; tnr is 1 minus
    the label-0 mass. Each rate is therefore bit-identical to
    confusion_rates' positive_mass of the region.
    """
    mass = ([], [])
    for lo, hi in index:
        for y in (0, 1):
            total = np.zeros(len(lo))
            for j in range(lo.shape[1]):
                total += cdfs[y][hi[:, j]] - cdfs[y][lo[:, j]]
            mass[y].append(np.clip(total, 0.0, 1.0, out=total))
    return np.concatenate(mass[1]), 1.0 - np.concatenate(mass[0])


class _Regions:
    """The regions of some ascending rows of an orientation's index table,
    decoded from the grid's edges (-inf, grid, inf) only when read."""

    def __init__(self, edges, index, rows):
        self.edges, self.index, self.rows = edges, index, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> tuple:
        row = int(self.rows[k])
        for lo, hi in self.index:
            if row < len(lo):
                return tuple(zip(*self.edges[[lo[row], hi[row]]].tolist()))
            row -= len(lo)

    def __iter__(self):  # a column of bounds at a time
        regions, start, rows = [], 0, self.rows
        for lo, hi in self.index:
            k = rows[(start <= rows) & (rows < start + len(lo))] - start
            start += len(lo)
            bounds = [zip(self.edges[lo[k, j]].tolist(),
                          self.edges[hi[k, j]].tolist())
                      for j in range(lo.shape[1])]
            regions += zip(*bounds) if bounds else [()] * len(k)
        return iter(regions)


# Relative slack of the accuracy bound. A score rounds each of its four
# nonnegative products at most 4 times, so it is at most (1 + u)^4 times the
# exact row term plus column term (u = 2**-53); the bound rounds each of its
# terms at most 5 times, so before the slack it is at least (1 - u)^5 times
# that sum. Any slack above 9u (1e-15) therefore covers both; 1e-14 is 90u.
# The tiny absolute term covers products that underflow.
_ACC_SLACK = 1e-14
_ACC_FLOOR = np.finfo(float).tiny


class _Table:
    """Group a's tpr and tnr over one orientation's regions, and what
    _open_lines reads of them, kept for both combos that share the table;
    the accuracy terms and the sorted rates are computed on first use."""

    def __init__(self, model, w, a, tpr, tnr):
        self.model, self.w, self.a, self.tpr, self.tnr = model, w, a, tpr, tnr
        self.finite = np.isfinite(tpr).all() and np.isfinite(tnr).all()

    @cached_property
    def term(self) -> np.ndarray:  # each line's accuracy term
        j, w, a = self.model.joint, self.w, self.a
        return w.p1 * self.tpr * j[(a, 1)] + w.p2 * self.tnr * j[(a, 0)]

    @cached_property
    def others(self) -> tuple:  # what _open_mask reads of the other group
        return self.term.max(), np.sort(self.tpr), np.sort(self.tnr)


def _open_lines(w, table0, table1, pivot) -> tuple:
    """(rows, cols) index arrays of a pair block's open lines: the group-0
    rows, then the group-1 columns against the open rows, on which
    _first_pass_drops, with pivot as the fairest point, may keep a pair.
    All lines when pivot is None or a rate is not finite, since a NaN score
    disables the first pass."""
    rows, cols = np.arange(len(table0.tpr)), np.arange(len(table1.tpr))
    if pivot is None or not (table0.finite and table1.finite):
        return rows, cols
    rows = rows[_open_mask(w, pivot, table0, table1.others)]
    if not len(rows):
        return rows, cols[:0]
    return rows, cols[_open_mask(w, pivot, table1, (
        table0.term[rows].max(), np.sort(table0.tpr[rows]),
        np.sort(table0.tnr[rows])))]


def _open_mask(w, pivot, lines: _Table, others) -> np.ndarray:
    """Which lines may pair with one of others into a kept candidate.

    others is the other group's (largest accuracy term, sorted tpr, sorted
    tnr). Accuracy is a row term plus a column term, so a line's accuracy
    is at most its term plus the largest other term, up to the rounding
    _ACC_SLACK covers. Its fairness is at most 1 - max(omega1 * d_tpr,
    omega2 * d_tnr), d being the gap to the nearest other rate, with no
    slack: float subtraction, multiplication and addition are monotone.
    """
    other_top, other_tpr, other_tnr = others
    acc_top = (lines.term + other_top) * (1.0 + _ACC_SLACK) + _ACC_FLOOR
    gap = np.maximum(w.omega1 * _nearest_gap(lines.tpr, other_tpr),
                     w.omega2 * _nearest_gap(lines.tnr, other_tnr))
    return ~_first_pass_drops(1.0 - gap, acc_top,
                              pivot.fairness, pivot.accuracy)


def _nearest_gap(x, y):
    """|x - y| for the element y of the sorted y nearest each x, in float
    arithmetic."""
    k = np.searchsorted(y, x)
    below = y[np.maximum(k - 1, 0)]
    above = y[np.minimum(k, len(y) - 1)]
    return np.minimum(np.abs(x - below), np.abs(above - x))


class _Optima:
    """A command's optima of one model, each solved on first use and kept.

    bayes(scope) is keyed by scope alone: the Bayes optimum ignores p1 and
    p2, so under unequal ones a swept candidate can be more accurate than
    it. fair(w), the per-group fairness optimum, is solved once per weights,
    reference() is the Reference of the per-group Bayes optimum, and
    pooled_range() the grid range of a family without a sweep_range.
    """

    def __init__(self, model):
        self.model = model
        self.bayes = bayes = cache(partial(bayes_accuracy_optimal, model))
        self.fair = cache(partial(_per_group_fairness_optimum, model))
        self.reference = cache(lambda: Reference.of(model, bayes("per_group")))
        self.pooled_range = cache(partial(model.quantile_range, 0.9999))

    def of(self, family, w) -> tuple:
        """The (fairness, accuracy) optima a sweep of family appends."""
        if family.kind == "shared_threshold":
            return fairness_optimal(self.model), self.bayes("overall")
        return self.fair(w), self.bayes("per_group")


def _appended_optima(model, family, w, optima: _Optima):
    out = []
    for name, clf in zip(("fairness", "accuracy"), optima.of(family, w)):
        rates = confusion_rates(model, clf)
        out.append(FrontierPoint(
            1.0 - unfairness(rates, w),
            _hits(model, w, *rates.tpr, *rates.tnr),
            ("optimum", name,
             clf.positive_region(0).intervals,
             clf.positive_region(1).intervals)))
    return out


FAIR_TOL = 1e-10
_FAIR_LEVELS = 2049
_PLATEAU_GAP = 1e-12


def _half_line(model, a, orient, u):
    """Group a's thresholds at TPR levels u, and their TNRs."""
    level = 1.0 - u if orient == "positive_above" else u
    t = model.conditional[(a, 1)].ppf(level)
    c0 = model.conditional[(a, 0)].cdf(t)
    return t, (c0 if orient == "positive_above" else 1.0 - c0)


def _grid_tnrs(model, u) -> dict:
    """_half_line's TNRs at levels u of each (group, orientation), bit for
    bit, from one elementwise ppf and cdf call per group."""
    out, n = {}, len(u)
    for a in (0, 1):
        c0 = model.conditional[(a, 0)].cdf(
            model.conditional[(a, 1)].ppf(np.concatenate((1.0 - u, u))))
        out[a, ORIENTS[0]], out[a, ORIENTS[1]] = c0[:n], 1.0 - c0[n:]
    return out


def _fair_line(model, w, combo, u):
    """Rates and thresholds of the equal-TPR threshold pairs at levels u.

    u is an array, or a float that stays in float arithmetic throughout,
    since _root asks one level at a time.
    """
    (t0, tnr0), (t1, tnr1) = (_half_line(model, a, orient, u)
                              for a, orient in enumerate(combo))
    return [t0, t1], tnr1 - tnr0, _hits(model, w, u, u, tnr0, tnr1)


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
    # each group's half of the grid line serves the two combos it is in
    tnrs = _grid_tnrs(model, u_grid)
    for combo in itertools.product(ORIENTS[:2], repeat=2):
        tnr0, tnr1 = tnrs[0, combo[0]], tnrs[1, combo[1]]
        acc = _hits(model, w, u_grid, u_grid, tnr0, tnr1)
        for u_star in _fair_roots(model, w, combo, u_grid, tnr1 - tnr0, acc):
            clf = _fair_pair(model, w, combo, u_star)
            key = _fair_key(model, w, clf)
            if key < best_key:
                best, best_key = clf, key
    return best


def _fair_key(model, w, clf):
    rates = confusion_rates(model, clf)
    f_u = unfairness(rates, w)
    over = f_u > FAIR_TOL
    return (over, f_u if over else 0.0,
            -_hits(model, w, *rates.tpr, *rates.tnr))


def _fair_pair(model, w, combo, u_star):
    t0, t1 = _fair_line(model, w, combo, u_star)[0]
    return GroupwiseClassifier.per_group_thresholds(
        float(t0), float(t1),
        tuple(orient == "positive_above" for orient in combo))


def _fair_roots(model, w, combo, u_grid, gap, acc):
    """Levels u where the TNR gap vanishes: one per plateau, one per crossing.

    Each run of samples with |gap| <= _PLATEAU_GAP, even a one-sample run, is
    a plateau for _fair_polish; sign flips next to one are rounding noise.
    The other sign flips are real crossings, each solved by _root on the
    float path of _fair_line to within 4 eps u.
    acc is the line's accuracy at u_grid.
    """
    near_zero = np.abs(gap) <= _PLATEAU_GAP
    starts = np.nonzero(near_zero & ~np.r_[False, near_zero[:-1]])[0]
    ends = np.nonzero(near_zero & ~np.r_[near_zero[1:], False])[0]
    roots = [_fair_polish(model, w, combo, u_grid, acc, i, j)
             for i, j in zip(starts, ends)]
    crossing = np.nonzero((gap[:-1] * gap[1:] < 0)
                          & ~near_zero[:-1] & ~near_zero[1:])[0]
    return roots + [_root(lambda u: float(_fair_line(model, w, combo, u)[1]),
                          float(u_grid[i]), float(u_grid[i + 1]),
                          float(gap[i]), float(gap[i + 1]), 0.0)
                    for i in crossing]


def _fair_polish(model, w, combo, u_grid, acc, i, j):
    """Accuracy argmax over a plateau of vanishing gap.

    Each group's dTNR/du along the fair line is -f_a0(t_a) / f_a1(t_a) in
    both orientations, and _hits is linear, so slope() is the accuracy's
    slope times f01(t0) f11(t1) > 0. The optimum is its root between the
    grid argmax's neighbours, else (at a plateau end) the argmax itself.
    """
    k = i + int(np.argmax(acc[i:j + 1]))
    lo_u = float(u_grid[max(k - 1, i)])
    hi_u = float(u_grid[min(k + 1, j)])

    def slope(u):
        t0, t1 = _fair_line(model, w, combo, u)[0]
        f00, f01 = (float(model.cell_pdf(t0, 0, y)) for y in (0, 1))
        f10, f11 = (float(model.cell_pdf(t1, 1, y)) for y in (0, 1))
        return _hits(model, w, f01 * f11, f01 * f11, -f00 * f11, -f10 * f01)

    s_lo, s_hi = slope(lo_u), slope(hi_u)
    if not s_lo >= 0.0 >= s_hi:
        return float(u_grid[k])
    return _root(slope, lo_u, hi_u, s_lo, s_hi, 0.0)


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
    a_top = np.max([a[f == f_max].max(initial=-math.inf)
                    for _, f, a in _chunks(fairness, accuracy)])
    return float(f_max), float(a_top)


def _chunks(fairness, accuracy):
    """(start, fairness, accuracy) views of _CHUNK candidates at a time, so
    masks over them stay one size however many candidates there are."""
    for lo in range(0, len(fairness), _CHUNK):
        yield lo, fairness[lo:lo + _CHUNK], accuracy[lo:lo + _CHUNK]


def _first_pass_drops(fairness, accuracy, f_top, a_top):
    """Mask of the points the point (f_top, a_top) dominates by being
    strictly fairer (beyond DOMINANCE_TOL) with accuracy no worse."""
    return (fairness + DOMINANCE_TOL < f_top) & (accuracy <= a_top)


def pareto_filter(candidates, family: FamilySpec = None) -> Frontier:
    """Keep exactly the candidates no other candidate dominates.

    Domination allows a 1e-12 slack on the "no worse" side and demands a
    strict win beyond the same slack on the other. Passing the generating
    family stamps its resolution onto the result, and its sweep_range too
    unless candidates is a Candidates sweep, whose resolved range is
    stamped. A Candidates sweep is filtered on its arrays; FrontierPoints
    are built only for survivors.
    """
    sweep_range = family.sweep_range if family else None
    if isinstance(candidates, Candidates):
        pts = candidates
        f, a = candidates.fairness, candidates.accuracy
        sweep_range = candidates.sweep_range
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
    # The argument holds for any candidate in the pivot's place, which is
    # what lets build_frontier skip lines before scoring them.
    f_max, a_top = _fairest(f, a)
    kept = np.concatenate([
        lo + np.flatnonzero(~_first_pass_drops(fc, ac, f_max, a_top))
        for lo, fc, ac in _chunks(f, a)])
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
        survivors, resolution=family.resolution if family else None,
        sweep_range=sweep_range)


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


def build_frontier(model, family: FamilySpec,
                   w: MetricWeights = None) -> Frontier:
    """sweep -> pareto_filter -> classify_shape in one call, on fewer scores.

    The result equals classify_shape(pareto_filter(sweep(...), family)),
    but per-group blocks score only their open lines (_open_lines). The
    fairest appended optimum p is a candidate, and pareto_filter's first
    pass, run with any candidate as its pivot, drops only points p
    dominates, together with nothing p does not also dominate, so
    removing them leaves the survivors unchanged. A line is
    closed only when bounds on its accuracy (exact up to the rounding
    _ACC_SLACK covers) and fairness (exact, by monotone rounding) put every
    pair on it inside that drop region; each score that is computed uses
    sweep's operations, so it is bit-identical. Shared-threshold families
    are swept in full.
    """
    candidates = _sweep(model, family, w or MetricWeights(), True,
                        _Optima(model))
    return classify_shape(pareto_filter(candidates, family))
