"""Reference values computed apart from fairfrontier, and the output checks
that compare against them.

Nothing here imports the package: the example1 numbers come from scipy's
normal cdf (`ndtr`) and a scalar optimiser, the example4 numbers from
triangle areas. Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq, minimize_scalar
from scipy.special import ndtr

# example1: (a, y) -> (P(A=a, Y=y), mean); every cell has stddev 2
EXAMPLE1 = {(0, 0): (0.125, -1.0), (0, 1): (0.125, 6.0),
            (1, 0): (0.25, 3.0), (1, 1): (0.5, 10.0)}
# example4_identical: (a, y) -> (lower, upper, mode); every cell has mass 1/4
EXAMPLE4 = {(0, 0): (5.0, 9.0, 7.0), (0, 1): (3.0, 7.0, 5.0),
            (1, 0): (0.0, 8.0, 4.0), (1, 1): (4.0, 12.0, 8.0)}


def _example1_rates(t0: float, t1: float):
    """TPR and TNR per group for "positive above t_a" rules on example1."""
    t = (t0, t1)
    tpr = [1.0 - ndtr((t[a] - EXAMPLE1[(a, 1)][1]) / 2.0) for a in (0, 1)]
    tnr = [ndtr((t[a] - EXAMPLE1[(a, 0)][1]) / 2.0) for a in (0, 1)]
    return tpr, tnr


def _example1_accuracy(t0: float, t1: float) -> float:
    tpr, tnr = _example1_rates(t0, t1)
    return float(sum(EXAMPLE1[(a, 1)][0] * tpr[a] + EXAMPLE1[(a, 0)][0] * tnr[a]
                     for a in (0, 1)))


# Per-group Bayes thresholds: the equal-density points of each group's two
# normals, 2.5 for group 0 and (91 - 8 ln 2) / 14 for group 1.
BAYES_T0 = 2.5
BAYES_T1 = 6.5 - (4.0 / 7.0) * math.log(2.0)
BAYES_ACCURACY = _example1_accuracy(BAYES_T0, BAYES_T1)

# t1 = t0 + 4 equalises both TPR and TNR, so every such pair is exactly
# fair; the best of them bounds the fairest frontier point from below.
FAIR_ACCURACY = -minimize_scalar(lambda t: -_example1_accuracy(t, t + 4.0),
                                 bracket=(0.0, 2.5, 5.0), tol=1e-12).fun


def _example1_f_du() -> float:
    tpr, tnr = _example1_rates(BAYES_T0, BAYES_T1)
    return float(0.5 * abs(tpr[1] - tpr[0]) + 0.5 * abs(tnr[1] - tnr[0]))


F_DU = _example1_f_du()


def _tri_cdf(x: float, lo: float, hi: float, mode: float) -> float:
    if x <= mode:
        return (x - lo) ** 2 / ((hi - lo) * (mode - lo))
    return 1.0 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))


def _tri_pdf(x: float, lo: float, hi: float, mode: float) -> float:
    if x <= mode:
        return 2.0 * (x - lo) / ((hi - lo) * (mode - lo))
    return 2.0 * (hi - x) / ((hi - lo) * (hi - mode))


def _example4_boundary(a: int) -> float:
    """Where group a's two label densities cross, between their modes."""
    neg, pos = EXAMPLE4[(a, 0)], EXAMPLE4[(a, 1)]
    lo, hi = sorted((neg[2], pos[2]))
    return brentq(lambda x: _tri_pdf(x, *pos) - _tri_pdf(x, *neg), lo, hi,
                  xtol=1e-14)


EXAMPLE4_BOUNDARIES = (_example4_boundary(0), _example4_boundary(1))


def _example4_accuracy() -> float:
    """Accuracy of the per-group Bayes rule from the triangles' tail areas."""
    total = 0.0
    for a, b in zip((0, 1), EXAMPLE4_BOUNDARIES):
        pos_left = EXAMPLE4[(a, 1)][2] < EXAMPLE4[(a, 0)][2]
        mass_pos = _tri_cdf(b, *EXAMPLE4[(a, 1)])
        mass_neg = _tri_cdf(b, *EXAMPLE4[(a, 0)])
        if pos_left:
            total += 0.25 * (mass_pos + 1.0 - mass_neg)
        else:
            total += 0.25 * (1.0 - mass_pos + mass_neg)
    return total


EXAMPLE4_ACCURACY = _example4_accuracy()


def frontier_problems(pairs, shape: str = None):
    """Check a frontier given as (fairness, accuracy) pairs sorted by fairness.

    Against example1's closed forms: the most accurate point is the per-group
    Bayes rule, the fairest point is exactly fair and at least as accurate as
    the best exactly-fair threshold pair, and along the frontier fairness
    rises strictly while accuracy falls strictly. When the program's shape
    label is passed, the frontier must also be continuous: labelled so, and
    with no adjacent accuracy drop above 0.02.
    """
    if len(pairs) < 2:
        return [f"frontier has {len(pairs)} points"]
    out = []
    steps = list(zip(pairs, pairs[1:]))
    if not all(f1 > f0 and a1 < a0 for (f0, a0), (f1, a1) in steps):
        out.append("fairness does not rise and accuracy fall strictly")
    best = max(a for _, a in pairs)
    if abs(best - BAYES_ACCURACY) > 1e-9:
        out.append(f"best accuracy {best!r} != {BAYES_ACCURACY!r}")
    fair_f, fair_a = pairs[-1]
    if 1.0 - fair_f > 1e-9:
        out.append(f"fairest point has F_U {1.0 - fair_f!r}")
    if fair_a < FAIR_ACCURACY - 1e-9:
        out.append(f"fairest accuracy {fair_a!r} < {FAIR_ACCURACY!r}")
    if shape is not None:
        if shape != "continuous":
            out.append(f"shape {shape!r} is not continuous")
        drop = max(a0 - a1 for (_, a0), (_, a1) in steps)
        if drop > 0.02:
            out.append(f"adjacent accuracy drop {drop!r} > 0.02")
    return out
