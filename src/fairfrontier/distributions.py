"""One-dimensional distribution families: Normal, Triangular, and Mixture.

All densities and cumulatives are closed forms, so every caller can hand in
either a scalar or an array. Normal's cdf and ppf rest on this module's own
``erfc`` and ``ndtri``: a rational fit of erfcx times an exp whose argument
is split so that it is exact, and Wichura's AS241 quantile; both are within
a few ulps of the true values (tests/accuracy_normal.py measures them).
Arrays are evaluated with vectorized numpy; Normal and Triangular also
answer a single float in Python float arithmetic, with the same operations
in the same order (Normal's transcendental steps, exp and log, stay ufunc
calls), because solver loops ask one value at a time and numpy's 0-d
dispatch would dwarf the arithmetic. Mixtures answer a float through their
components. Sampling is inverse-cdf based and keyed solely by (seed, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContractError, InputError, ResourceError,
                     ValidationError, _number, _whole)

_SQRT2 = float(np.sqrt(2.0))
_SQRT2PI = float(np.sqrt(2.0 * np.pi))


def _operand(x):
    """A float stays a Python float, so one element costs float arithmetic
    and a single ufunc call, which returns an np.float64 as a 0-d array
    would; anything else becomes a float array."""
    return float(x) if isinstance(x, float) else np.asarray(x, dtype=float)


def _ratio(t, num, den):
    """num(t) / den(t), coefficients highest degree first, by Horner's
    rule: in place on an array, the same steps in float arithmetic on a
    float, whose first step 0.0 * t + c is c."""
    if isinstance(t, float):
        p = q = 0.0
        for c in num:
            p = p * t + c
        for c in den:
            q = q * t + c
        return p / q
    p = _horner(t, num)
    p /= _horner(t, den)
    return p


def _horner(t, coefs):
    """_ratio's polynomial on an array, in place after the first step."""
    acc = coefs[0] * t
    for c in coefs[1:-1]:
        acc += c
        acc *= t
    acc += coefs[-1]
    return acc


# erfcx(t) = exp(t * t) * erfc(t) on [0, 28] as a ratio of degrees 10 and 11,
# fitted for least relative error (about 1e-18) by
# tests/accuracy_normal.py --fit
_ERFCX_NUM = (1.4521166161545574e-05, 0.0003188916160666721,
              0.0034393610016914215, 0.023693868889326765, 0.11463955199531266,
              0.4054742565561685, 1.0603718799606778, 2.0271799188361648,
              2.7236525946341863, 2.3440708140422286, 1.0)
_ERFCX_DEN = (2.573809688266499e-05, 0.0005652206729197412,
              0.006108977700476615, 0.04227889949527574, 0.20622850058082498,
              0.7393999439512633, 1.9780409587306649, 3.932133982415295,
              5.673177027957234, 5.641892812131202, 3.4724499811377414, 1.0)
# Veltkamp's split: with c = t * _SPLIT, c - (c - t) is t's leading 26 bits,
# whose square is exact
_SPLIT = 2.0 ** 27 + 1.0


def erfc(x):
    """Complementary error function, exp(-t*t) * erfcx(t) at t = |x| and
    2 minus that below 0; an np.float64 for a float.

    t * t = head * head + d exactly up to rounding of the tiny d, so the exp
    of -t * t loses none of the digits a rounded square would (about t * t
    ulps), and exp(-d) is a cubic in d, |d| < 2e-5. erfc(28) underflows
    to 0, so t stops there, and NaN stays NaN.
    """
    x = _operand(x)
    if not isinstance(x, float) and x.ndim == 0:
        x = float(x)  # in place steps need an array, so a 0-d one is a float
    if isinstance(x, float):
        t = abs(x)
        if t > 28.0:
            t = 28.0
    else:
        t = np.abs(x)
        np.minimum(t, 28.0, out=t)
    c = t * _SPLIT
    a = c - t
    head = c - a
    d = t - head
    d *= t + head
    s = d * (-1.0 / 6.0) + 0.5  # exp(-d) = 1 - d (1 - d (1/2 - d / 6))
    s *= d
    s -= 1.0
    s *= d
    s += 1.0
    # a - c is -head; negating head instead would flip a NaN's sign, and a
    # product of two NaNs keeps the sign of whichever operand the loop
    # takes first, which differs between an array's body and its remainder
    g = a - c
    g *= head
    e = _ratio(t, _ERFCX_NUM, _ERFCX_DEN)
    e *= s
    if isinstance(x, float):
        e *= float(np.exp(g))
        return np.float64(2.0 - e if x < 0.0 else e)
    e *= np.exp(g, out=g)
    np.subtract(2.0, e, out=e, where=x < 0.0)
    return e


# Wichura, Algorithm AS241 (PPND16), Applied Statistics 37 (1988): ratios of
# degree 7 for |p - 0.5| <= 0.425, then in r = sqrt(-log(min(p, 1 - p)))
# on r <= 5 and beyond
_AS241 = {
    "central": (
        (2.5090809287301226727e+3, 3.3430575583588128105e+4,
         6.7265770927008700853e+4, 4.5921953931549871457e+4,
         1.3731693765509461125e+4, 1.9715909503065514427e+3,
         1.3314166789178437745e+2, 3.3871328727963666080e+0),
        (5.2264952788528545610e+3, 2.8729085735721942674e+4,
         3.9307895800092710610e+4, 2.1213794301586595867e+4,
         5.3941960214247511077e+3, 6.8718700749205790830e+2,
         4.2313330701600911252e+1, 1.0)),
    "intermediate": (
        (7.74545014278341407640e-4, 2.27238449892691845833e-2,
         2.41780725177450611770e-1, 1.27045825245236838258e+0,
         3.64784832476320460504e+0, 5.76949722146069140550e+0,
         4.63033784615654529590e+0, 1.42343711074968357734e+0),
        (1.05075007164441684324e-9, 5.47593808499534494600e-4,
         1.51986665636164571966e-2, 1.48103976427480074590e-1,
         6.89767334985100004550e-1, 1.67638483018380384940e+0,
         2.05319162663775882187e+0, 1.0)),
    "far": (
        (2.01033439929228813265e-7, 2.71155556874348757815e-5,
         1.24266094738807843860e-3, 2.65321895265761230930e-2,
         2.96560571828504891230e-1, 1.78482653991729133580e+0,
         5.46378491116411436990e+0, 6.65790464350110377720e+0),
        (2.04426310338993978564e-15, 1.42151175831644588870e-7,
         1.84631831751005468180e-5, 7.86869131145613259100e-4,
         1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0)),
}


def ndtri(p):
    """Standard normal quantile by AS241; an np.float64 for a float.

    -inf at 0, inf at 1, NaN outside [0, 1] and for NaN.
    """
    p = _operand(p)
    if isinstance(p, float):
        if not 0.0 < p < 1.0:
            return np.float64(-math.inf if p == 0.0 else
                              math.inf if p == 1.0 else math.nan)
        q = p - 0.5
        if abs(q) <= 0.425:
            return np.float64(q * _ratio(0.180625 - q * q, *_AS241["central"]))
        r = math.sqrt(-float(np.log(p if q < 0.0 else 1.0 - p)))
        x = (_ratio(r - 1.6, *_AS241["intermediate"]) if r <= 5.0
             else _ratio(r - 5.0, *_AS241["far"]))
        return np.float64(math.copysign(x, q))
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    q = p - 0.5
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _ratio(0.180625 - qc * qc, *_AS241["central"])
    tail = ~central & (p > 0.0) & (p < 1.0)
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    x = _ratio(r - 1.6, *_AS241["intermediate"])
    far = r > 5.0
    if far.any():
        x[far] = _ratio(r[far] - 5.0, *_AS241["far"])
    out[tail] = np.copysign(x, q[tail])
    return out[()]


class DensityPoint(NamedTuple):
    density: float
    cumulative: float


@dataclass(frozen=True)
class Normal:
    """Gaussian law. The second parameter is the standard deviation."""

    mean: float
    stddev: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _number(self.mean, "Normal mean"))
        object.__setattr__(self, "stddev",
                           _number(self.stddev, "Normal stddev"))
        if not self.stddev > 0:
            raise ValidationError(f"Normal stddev must be > 0, got {self.stddev}")

    def pdf(self, x):
        z = (_operand(x) - self.mean) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * _SQRT2PI)

    def cdf(self, x):
        z = (_operand(x) - self.mean) / self.stddev
        # erfc keeps full relative precision in the far tails, unlike 1-erf
        return 0.5 * erfc(-z / _SQRT2)

    def ppf(self, q):
        return self.mean + self.stddev * ndtri(q)

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)


@dataclass(frozen=True)
class Triangular:
    """Triangular law on [lower, upper] with peak at mode."""

    lower: float
    upper: float
    mode: float

    def __post_init__(self):
        for name in ("lower", "upper", "mode"):
            object.__setattr__(self, name, _number(getattr(self, name),
                                                   f"Triangular {name}"))
        a, b, c = self.lower, self.upper, self.mode
        if not a < b:
            raise ValidationError(f"Triangular needs lower < upper, got [{a}, {b}]")
        # the edges' products and squares stay below width ** 2
        width = b - a
        if not math.isfinite(width * width):
            raise ValidationError(f"Triangular [{a}, {b}] is too wide: its "
                                  "squared width overflows")
        if not a <= c <= b:
            raise ValidationError(f"Triangular mode {c} outside [{a}, {b}]")

    def pdf(self, x):
        a, b, c = self.lower, self.upper, self.mode
        # an edge is absent when its denominator is 0: c == a (rising edge),
        # c == b (falling edge), or an edge so narrow that the product
        # underflows, where dividing would give 0/0 = NaN. Each edge computes
        # and divides only on its own span: off it, a denominator just above
        # 0 overflows, and so does 2 * (x - a) for a point far from a.
        rise, fall = (b - a) * (c - a), (b - a) * (b - c)
        if isinstance(x, float):  # the array path below, one element
            x = float(x)
            if rise > 0.0 and a <= x < c:
                return np.float64(2.0 * (x - a) / rise)
            if fall > 0.0:
                if c <= x <= b:
                    return np.float64(2.0 * (b - x) / fall)
            elif x == b:
                return np.float64(2.0 / (b - a))
            return np.float64(0.0)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if rise > 0.0:
            left = (x >= a) & (x < c)
            out[left] = 2.0 * (x[left] - a) / rise
        if fall > 0.0:
            right = (x >= c) & (x <= b)
            out[right] = 2.0 * (b - x[right]) / fall
        else:
            out = np.where(x == b, 2.0 / (b - a), out)
        return out

    def cdf(self, x):
        a, b, c = self.lower, self.upper, self.mode
        rise, fall = (b - a) * (c - a), (b - a) * (b - c)  # as in pdf
        if isinstance(x, float):  # the array path below, one element
            x = float(x)
            xc = a if x < a else b if x > b else x  # NaN stays NaN, as in clip
            if xc < c:
                d = xc - a
                return np.float64(d * d / rise if rise > 0.0 else 0.0)
            d = b - xc
            return np.float64(1.0 - d * d / fall if fall > 0.0 else 1.0)
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, a, b)
        # each edge squares the distance within its own span (see pdf)
        if rise > 0.0:
            low = np.square(np.minimum(xc, c) - a) / rise
        else:
            low = np.zeros_like(xc)
        if fall > 0.0:
            high = 1.0 - np.square(b - np.maximum(xc, c)) / fall
        else:
            high = np.ones_like(xc)
        return np.where(xc < c, low, high)

    def ppf(self, q):
        a, b, c = self.lower, self.upper, self.mode
        split = (c - a) / (b - a)
        if isinstance(q, float):  # the array path below, one element
            q = float(q)
            if q <= split:
                # np.maximum(q, 0.0): 0.0 for -0.0, NaN stays NaN
                q = 0.0 if q <= 0.0 else q
                return np.float64(a + math.sqrt(q * (b - a) * (c - a)))
            r = 1.0 - q
            r = 0.0 if r <= 0.0 else r
            return np.float64(b - math.sqrt(r * (b - a) * (b - c)))
        q = np.asarray(q, dtype=float)
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
            w = _number(w, "Mixture weight")
            if not 0.0 < w <= 1.0:
                raise ValidationError(f"Mixture weight must be in (0, 1], got {w}")
            if isinstance(dist, Mixture):
                if any(isinstance(d, Mixture) for _, d in dist.components):
                    raise ValidationError("Mixture nesting depth exceeds 2")
            elif not isinstance(dist, (Normal, Triangular)):
                raise ValidationError(f"Unsupported mixture component: {dist!r}")
            comps.append((w, dist))
        if not comps:
            raise ValidationError("Mixture needs at least one component")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"Mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", tuple(comps))

    def pdf(self, x):
        return sum(w * d.pdf(x) for w, d in self.components)

    def cdf(self, x):
        return sum(w * d.cdf(x) for w, d in self.components)

    def ppf(self, q):
        """Smallest x with cdf(x) >= q, to 1e-13 by one array bisection.

        Quantiles of 0 and 1 sit at the support edge (possibly infinite).
        """
        q = np.asarray(q, dtype=float)
        lo, hi = _finite_bracket(d for _, d in self.components)
        # widen to where the cdf is 0 (a Normal's is ~1e-33 at mean - 12 sd;
        # at the top knot every leaf's is already 1.0, as at inf): the bracket
        # then does not depend on q, so no result depends on the other
        # elements of q, and one count of halvings takes each to 1e-13
        while self.cdf(lo) > 0.0:
            lo -= (hi - lo) + 1.0
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


def _leaves(law) -> list:
    """The Normal and Triangular laws in law, through nested Mixtures."""
    if isinstance(law, Mixture):
        return [leaf for _, c in law.components for leaf in _leaves(c)]
    return [law]


def _knots(law) -> list:
    """Where law lives on the line, leaf by leaf: each Normal's mean and
    mean +- 1, 3, 6 and 12 sd, and each Triangular's lower, mode and upper."""
    knots = []
    for d in _leaves(law):
        knots += ([d.mean + k * d.stddev for k in
                   (-12.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 12.0)]
                  if isinstance(d, Normal) else [d.lower, d.mode, d.upper])
    return knots


def _finite_bracket(laws) -> tuple[float, float]:
    """The hull of the laws' _knots, which holds all but a negligible tail
    of every law: each Normal's mean +- 12 sd, each Triangular's support."""
    knots = [k for law in laws for k in _knots(law)]
    return min(knots), max(knots)


def _root(f, lo: float, hi: float, flo: float, fhi: float,
          xtol: float) -> float:
    """A root of the scalar function f in [lo, hi], where f changes sign,
    by Chandrupatla's method (Chandrupatla 1997, Adv. Eng. Software 28(3)).
    The caller passes flo = f(lo) and fhi = f(hi), which it already holds.

    Each step is an inverse quadratic interpolation through the bracket's
    ends and the point it last dropped, where those three points allow one,
    and a bisection otherwise. It stops at an exact zero, once the last
    bracket but one is narrower than tol = xtol + 4 eps |x|, x the end of
    smaller |f|, or once a step rounds onto an end, and returns that x.
    f is called with floats strictly inside (lo, hi) only.
    """
    a, b, fa, fb = lo, hi, flo, fhi
    if min(fa, fb) > 0.0 or max(fa, fb) < 0.0:
        raise ContractError(f"no sign change of f on [{lo!r}, {hi!r}]")
    c, t = a, 0.5
    for _ in range(100):
        # [a, b] brackets the root, a is the newest point and c the point
        # the last step dropped, beyond a; a step keeps tol / 2 |b - a| /
        # |b - c| away from both ends
        x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tol = xtol + 4.0 * math.ulp(1.0) * abs(x)
        if fx == 0.0 or abs(b - c) < tol:
            return x
        edge = 0.5 * tol / abs(b - c)
        step = a + min(max(t, edge), 1.0 - edge) * (b - a)
        if not (a < step < b or b < step < a):
            return x  # the bracket is two adjacent floats
        fstep = f(step)
        if (fstep < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = step, fstep
        # fc - fb and fb - fa join opposite signs, so neither is 0; the
        # interpolation's test fails where fc == fa
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = (fa / (fb - fa) * fc / (fb - fc)
             + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
             if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi) else 0.5)
    raise ResourceError(
        "Chandrupatla's method did not converge in 100 iterations")


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
    n = _whole(n, "sample size")
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=_seed_key(seed)))
    return _draw(dist, n, rng)


def _seed_key(seed) -> np.uint64:
    """seed as a Philox key word; seeds outside [0, 2**64) are refused."""
    seed = _whole(seed, "seed")
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
