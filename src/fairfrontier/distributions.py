"""One-dimensional distribution families: Normal, Triangular, and Mixture.

All densities and cumulatives are exact closed forms evaluated with vectorized
numpy, so every caller can hand in either a scalar or an array. Sampling is
inverse-cdf based and keyed solely by (seed, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, ndtri

from .errors import InputError, ValidationError

_SQRT2 = float(np.sqrt(2.0))
_SQRT2PI = float(np.sqrt(2.0 * np.pi))


class DensityPoint(NamedTuple):
    density: float
    cumulative: float


@dataclass(frozen=True)
class Normal:
    """Gaussian law. The second parameter is the standard deviation."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValidationError(f"Normal mean must be finite, got {self.mean}")
        if not (np.isfinite(self.stddev) and self.stddev > 0):
            raise ValidationError(f"Normal stddev must be > 0, got {self.stddev}")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * _SQRT2PI)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        # erfc keeps full relative precision in the far tails, unlike 1-erf
        return 0.5 * erfc(-z / _SQRT2)

    def ppf(self, q):
        return self.mean + self.stddev * ndtri(np.asarray(q, dtype=float))

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)


@dataclass(frozen=True)
class Triangular:
    """Triangular law on [lower, upper] with peak at mode."""

    lower: float
    upper: float
    mode: float

    def __post_init__(self):
        a, b, c = self.lower, self.upper, self.mode
        if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(c)):
            raise ValidationError("Triangular parameters must be finite")
        if not a < b:
            raise ValidationError(f"Triangular needs lower < upper, got [{a}, {b}]")
        if not a <= c <= b:
            raise ValidationError(f"Triangular mode {c} outside [{a}, {b}]")

    def pdf(self, x):
        a, b, c = self.lower, self.upper, self.mode
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # an edge is absent when its denominator is 0: c == a (rising edge),
        # c == b (falling edge), or an edge so narrow that the product
        # underflows, where dividing would give 0/0 = NaN
        rise, fall = (b - a) * (c - a), (b - a) * (b - c)
        if rise > 0.0:
            left = (x >= a) & (x < c)
            out = np.where(left, 2.0 * (x - a) / rise, out)
        if fall > 0.0:
            right = (x >= c) & (x <= b)
            out = np.where(right, 2.0 * (b - x) / fall, out)
        else:
            out = np.where(x == b, 2.0 / (b - a), out)
        return out

    def cdf(self, x):
        a, b, c = self.lower, self.upper, self.mode
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, a, b)
        rise, fall = (b - a) * (c - a), (b - a) * (b - c)  # as in pdf
        if rise > 0.0:
            low = np.square(xc - a) / rise
        else:
            low = np.zeros_like(xc)
        if fall > 0.0:
            high = 1.0 - np.square(b - xc) / fall
        else:
            high = np.ones_like(xc)
        return np.where(xc < c, low, high)

    def ppf(self, q):
        a, b, c = self.lower, self.upper, self.mode
        q = np.asarray(q, dtype=float)
        split = (c - a) / (b - a)
        lo = a + np.sqrt(np.maximum(q, 0.0) * (b - a) * (c - a))
        hi = b - np.sqrt(np.maximum(1.0 - q, 0.0) * (b - a) * (b - c))
        return np.where(q <= split, lo, hi)

    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of Normal/Triangular components (one nesting level)."""

    components: tuple

    def __init__(self, components):
        comps = []
        for item in components:
            try:
                w, dist = item
            except (TypeError, ValueError):
                raise ValidationError(
                    "Mixture components must be (weight, distribution) pairs"
                )
            if not (np.isfinite(w) and 0.0 < w <= 1.0):
                raise ValidationError(f"Mixture weight must be in (0, 1], got {w}")
            if isinstance(dist, Mixture):
                if any(isinstance(d, Mixture) for _, d in dist.components):
                    raise ValidationError("Mixture nesting depth exceeds 2")
            elif not isinstance(dist, (Normal, Triangular)):
                raise ValidationError(f"Unsupported mixture component: {dist!r}")
            comps.append((float(w), dist))
        if not comps:
            raise ValidationError("Mixture needs at least one component")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"Mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", tuple(comps))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * d.pdf(x) for w, d in self.components)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * d.cdf(x) for w, d in self.components)

    def ppf(self, q):
        """Smallest x with cdf(x) >= q, to 1e-13 by one array bisection.

        Quantiles of 0 and 1 sit at the support edge (possibly infinite).
        """
        q = np.asarray(q, dtype=float)
        lo, hi = _finite_bracket(d for _, d in self.components)
        # widen to where the cdf saturates: the bracket then does not depend
        # on q, so no result depends on the other elements of q, and one
        # fixed count of halvings takes every element to 1e-13
        while self.cdf(lo) > 0.0:
            lo -= (hi - lo) + 1.0
        while self.cdf(hi) < self.cdf(np.inf):
            hi += (hi - lo) + 1.0
        low = np.full(q.shape, lo)
        high = np.full(q.shape, hi)
        for _ in range(math.ceil(math.log2((hi - lo) / 1e-13))):
            mid = 0.5 * (low + high)
            below = self.cdf(mid) < q
            low = np.where(below, mid, low)
            high = np.where(below, high, mid)
        edge_lo, edge_hi = self.support()
        out = np.where(q <= 0.0, edge_lo,
                       np.where(q >= 1.0, edge_hi, 0.5 * (low + high)))
        return float(out) if out.ndim == 0 else out

    def support(self) -> tuple[float, float]:
        lo = min(d.support()[0] for _, d in self.components)
        hi = max(d.support()[1] for _, d in self.components)
        return (lo, hi)


Distribution = (Normal, Triangular, Mixture)


def _finite_bracket(laws) -> tuple[float, float]:
    """A finite interval holding all but a negligible tail of every law:
    each Normal's mean +- 12 sd, each Triangular's support, and the bracket
    of each Mixture's components."""
    los, his = [], []
    for d in laws:
        if isinstance(d, Normal):
            lo, hi = d.mean - 12.0 * d.stddev, d.mean + 12.0 * d.stddev
        elif isinstance(d, Mixture):
            lo, hi = _finite_bracket(c for _, c in d.components)
        else:
            lo, hi = d.support()
        los.append(lo)
        his.append(hi)
    return min(los), max(his)


def evaluate(dist, x) -> DensityPoint:
    """Exact pdf and cdf of ``dist`` at a finite scalar ``x``."""
    x = float(x)
    if not np.isfinite(x):
        raise InputError(f"evaluation point must be finite, got {x}")
    return DensityPoint(float(dist.pdf(x)), float(dist.cdf(x)))


def _check_intervals(intervals) -> tuple:
    pairs = tuple((float(lo), float(hi)) for lo, hi in intervals)
    for lo, hi in pairs:
        if np.isnan(lo) or np.isnan(hi):
            raise InputError("interval endpoints must not be NaN")
        if lo > hi:
            raise InputError(f"interval [{lo}, {hi}) is reversed")
    for (_, hi), (lo, _) in zip(pairs, pairs[1:]):
        if lo < hi:
            raise InputError("intervals must be sorted and disjoint")
    return pairs


def positive_mass(dist, region) -> float:
    """Probability mass of ``dist`` inside a sorted disjoint interval union.

    ``region`` may be an IntervalSet or any iterable of (lo, hi) pairs with
    half-open semantics; the distributions here are atomless so the endpoint
    convention does not affect the mass.
    """
    intervals = getattr(region, "intervals", region)
    pairs = _check_intervals(intervals)
    total = 0.0
    for lo, hi in pairs:
        c_hi = 1.0 if hi == np.inf else float(dist.cdf(hi))
        c_lo = 0.0 if lo == -np.inf else float(dist.cdf(lo))
        total += c_hi - c_lo
    return min(max(total, 0.0), 1.0)


def sample(dist, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values, deterministic for fixed (seed, n)."""
    n = int(n)
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=_seed_key(seed)))
    return _draw(dist, n, rng)


def _seed_key(seed) -> np.uint64:
    """seed as a Philox key word; seeds outside [0, 2**64) are refused."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must be in [0, 2**64), got {seed}")
    return np.uint64(seed)


def _draw(dist, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, Mixture):
        weights = np.array([w for w, _ in dist.components])
        idx = rng.choice(len(weights), size=n, p=weights / weights.sum())
        out = np.empty(n, dtype=float)
        # component order fixes the draw order, so the stream is reproducible
        for j, (_, comp) in enumerate(dist.components):
            sel = idx == j
            count = int(sel.sum())
            if count:
                out[sel] = _draw(comp, count, rng)
        return out
    u = rng.random(n)
    return np.asarray(dist.ppf(u), dtype=float)
