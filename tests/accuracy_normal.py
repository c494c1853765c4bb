"""Accuracy of fairfrontier's erfc and ndtri against mpmath, next to scipy's.

Run from the repository root (needs mpmath and scipy, the test extras):

    python tests/accuracy_normal.py             # 10**6 points, ~5 min
    python tests/accuracy_normal.py --n 20000   # a quick look
    python tests/accuracy_normal.py --fit       # refit the erfcx ratio

The error of a value is in ulps of the true value's binade, measured over
the points whose true value is a normal float. The ndtri error is the
residual |Phi(y) - p| / (phi(y) * ulp), one Newton step from y, which is
exact to first order at these distances. The fit prints the coefficients
of ``distributions._ERFCX_NUM`` and ``_ERFCX_DEN``, highest degree first.
pytest does not collect this file; test_distributions.py runs
``ulp_errors`` on a smaller fixed point set.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

TINY = 2.0 ** -1022  # the smallest normal float
ERFC_MAX = 28.0      # the fit's range; erfc underflows to 0 before it


def erfc_points(n: int, seed: int) -> np.ndarray:
    """Points where Normal.cdf asks (|x| <= 6), across the whole range,
    log-spaced down to 1e-12, and where erfc turns subnormal."""
    rng = np.random.default_rng(seed)
    k = n // 5
    signs = rng.choice([-1.0, 1.0], k)
    return np.concatenate([
        rng.uniform(-6.0, 6.0, k),
        rng.uniform(-ERFC_MAX, ERFC_MAX, k),
        signs * 10.0 ** rng.uniform(-12.0, np.log10(ERFC_MAX), k),
        rng.uniform(-1.0, 1.0, k),
        rng.uniform(26.0, 27.5, n - 4 * k),
    ])


def ndtri_points(n: int, seed: int) -> np.ndarray:
    """Uniform levels, and levels log-spaced toward 0 (down to 1e-320) and
    toward 1 (up to 1 - 2**-53)."""
    rng = np.random.default_rng(seed)
    k = n // 3
    return np.concatenate([
        rng.uniform(0.0, 1.0, k),
        10.0 ** rng.uniform(-320.0, np.log10(0.5), k),
        1.0 - 10.0 ** rng.uniform(np.log10(2.0 ** -53), np.log10(0.5),
                                  n - 2 * k),
    ])


def _ulp(v):
    """The spacing of floats in the binade of the mpf v."""
    if v == 0:
        return mp.ldexp(1, -1074)
    return mp.ldexp(1, max(int(mp.frexp(v)[1]) - 53, -1074))


def ulp_errors(name: str, xs, answers: dict) -> dict:
    """For each answer array (one value per point), the ulp errors over
    the points whose true value is a normal float."""
    errors = {label: [] for label in answers}
    with mp.workprec(96):
        root2, root2pi = mp.sqrt(2), mp.sqrt(2 * mp.pi)
        for i, x in enumerate(xs.tolist()):
            if name == "erfc":
                true = mp.erfc(x)
                if true < TINY:
                    continue
                for label, ys in answers.items():
                    errors[label].append(abs(mp.mpf(float(ys[i])) - true)
                                         / _ulp(true))
                continue
            for label, ys in answers.items():
                y = mp.mpf(float(ys[i]))
                density = mp.exp(-y * y / 2) / root2pi
                if abs(y) < TINY or density == 0:
                    continue
                # Phi(y) - p, from the side where it has relative precision
                if x < 0.5:
                    resid = mp.erfc(-y / root2) / 2 - x
                else:
                    resid = mp.erfc(y / root2) / 2 - (1 - mp.mpf(x))
                errors[label].append(abs(resid) / density / _ulp(y))
    return {label: np.array([float(e) for e in errs])
            for label, errs in errors.items()}


def summary(errs: np.ndarray) -> str:
    return (f"max {errs.max():8.2f}  p99 {np.percentile(errs, 99):6.2f}  "
            f"p50 {np.percentile(errs, 50):5.2f} ulps over {len(errs)} points")


def fit_erfcx(m: int = 10, n: int = 11, upper: float = ERFC_MAX):
    """P/Q of degrees (m, n), Q(0) = 1, fitted to erfcx(t) on [0, upper] for
    least relative error: Sanathanan-Koerner reweighting, then Lawson's
    iteration toward the minimax weights, on Chebyshev nodes at 60 digits."""
    with mp.workdps(60):
        count = 6 * (m + n + 1)
        ts = [mp.mpf(0)] + [
            upper / 2 * (1 - mp.cos(mp.pi * (i + mp.mpf(1) / 2) / count))
            for i in range(count)] + [mp.mpf(upper)]
        fs = [mp.erfc(t) * mp.exp(t * t) for t in ts]
        weights = [mp.mpf(1)] * len(ts)
        q_prev = [mp.mpf(1)] * len(ts)
        for step in range(25):
            rows, rhs = [], []
            for t, f, w, q in zip(ts, fs, weights, q_prev):
                s = w / (f * q)
                rows.append([s * t ** k for k in range(m + 1)]
                            + [-s * f * t ** k for k in range(1, n + 1)])
                rhs.append(s * f)
            sol = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))[0]
            num = [sol[k] for k in range(m + 1)]
            den = [mp.mpf(1)] + [sol[m + 1 + k] for k in range(n)]
            q_prev = [mp.polyval(den[::-1], t) for t in ts]
            rel = [mp.polyval(num[::-1], t) / q / f - 1
                   for t, q, f in zip(ts, q_prev, fs)]
            if step >= 4:
                weights = [w * mp.sqrt(abs(e)) for w, e in zip(weights, rel)]
                total = sum(weights)
                weights = [w / total * len(weights) for w in weights]
        worst = max(abs(e) for e in rel)
        return ([float(c) for c in num[::-1]], [float(c) for c in den[::-1]],
                float(worst))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10 ** 6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fit", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from fairfrontier import distributions as D
    if args.fit:
        num, den, worst = fit_erfcx()
        print(f"largest relative error on the nodes: {worst:.3g}")
        print("_ERFCX_NUM =", tuple(num))
        print("_ERFCX_DEN =", tuple(den))
        same = tuple(num) == D._ERFCX_NUM and tuple(den) == D._ERFCX_DEN
        print("equal to distributions.py:", same)
        return
    from scipy import special
    for name, points, ours, scipys in (
            ("erfc", erfc_points, D.erfc, special.erfc),
            ("ndtri", ndtri_points, D.ndtri, special.ndtri)):
        xs = points(args.n, args.seed)
        errs = ulp_errors(name, xs, {"fairfrontier": ours(xs),
                                     "scipy": scipys(xs)})
        for label, e in errs.items():
            print(f"{name:5s} {label:12s} {summary(e)}")


if __name__ == "__main__":
    main()
