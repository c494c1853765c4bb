"""Independent oracles: Monte-Carlo metric estimates and a literal O(n^2)
dominance filter. Everything analytic is cross-checked against these."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _draw, _seed_key
from .errors import InputError, ResourceError, _whole
from .frontier import Frontier, _finish_frontier
from .metrics import MetricWeights
from .population import CELLS

BLOCKS = 8
MIN_SAMPLES = 1000
MC_CAP = 100_000_000
ORACLE_CAP = 100_000


@dataclass(frozen=True)
class McEstimate:
    """One sampled quantity; stderr is the plug-in standard error."""

    value: float
    stderr: float
    n: int
    seed: int
    unreliable: bool = False


@dataclass(frozen=True)
class McResult:
    tpr: tuple
    tnr: tuple
    f_u: McEstimate
    acc: McEstimate


def mc_estimate(model, clf, w: MetricWeights = None, n: int = 1_000_000,
                seed: int = 0) -> McResult:
    """Estimate rates, unfairness, and accuracy by sampling the model.

    Draws are split into 8 fixed blocks, each with its own generator keyed
    (seed, block), and tallied as integers, so the result is identical under
    any execution schedule. A group that receives no samples yields estimates
    flagged unreliable instead of an error. n must lie in [MIN_SAMPLES,
    MC_CAP]; above the cap it raises ResourceError before drawing anything,
    and a fractional n raises ValidationError instead of being truncated.
    """
    w = w or MetricWeights()
    n = _whole(n, "n")
    if n < MIN_SAMPLES:
        raise InputError(f"need at least {MIN_SAMPLES} samples, got {n}")
    if n > MC_CAP:
        raise ResourceError(
            f"{n} samples requested (cap {MC_CAP}); lower n")
    key = _seed_key(seed)
    seed = int(key)

    cum = np.cumsum([model.joint[c] for c in CELLS])
    count = {c: 0 for c in CELLS}
    positive = {c: 0 for c in CELLS}
    base, rem = divmod(n, BLOCKS)
    for b in range(BLOCKS):
        size = base + (1 if b < rem else 0)
        rng = np.random.Generator(
            np.random.Philox(key=[key, np.uint64(b)]))
        u = rng.random(size)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), 3)
        for ci, cell in enumerate(CELLS):
            m = int(np.count_nonzero(idx == ci))
            if m == 0:
                continue
            xs = _draw(model.conditional[cell], m, rng)
            count[cell] += m
            positive[cell] += int(clf.predict(xs, cell[0]).sum())

    def proportion(k: int, m: int) -> McEstimate:
        if m == 0:
            return McEstimate(float("nan"), float("nan"), 0, seed,
                              unreliable=True)
        v = k / m
        return McEstimate(v, float(np.sqrt(v * (1.0 - v) / m)), m, seed)

    tpr = tuple(proportion(positive[(a, 1)], count[(a, 1)]) for a in (0, 1))
    tnr = tuple(proportion(count[(a, 0)] - positive[(a, 0)], count[(a, 0)])
                for a in (0, 1))

    shaky = any(e.unreliable for e in tpr + tnr)
    if shaky:
        f_u = McEstimate(float("nan"), float("nan"), n, seed, unreliable=True)
    else:
        value = (w.omega1 * abs(tpr[1].value - tpr[0].value)
                 + w.omega2 * abs(tnr[1].value - tnr[0].value))
        stderr = float(np.sqrt(
            w.omega1 ** 2 * (tpr[0].stderr ** 2 + tpr[1].stderr ** 2)
            + w.omega2 ** 2 * (tnr[0].stderr ** 2 + tnr[1].stderr ** 2)))
        f_u = McEstimate(value, stderr, n, seed)

    # correctness scores take values {p1, p2, 0}; integer tallies give the
    # exact plug-in mean and variance
    c1 = positive[(0, 1)] + positive[(1, 1)]
    c0 = ((count[(0, 0)] - positive[(0, 0)])
          + (count[(1, 0)] - positive[(1, 0)]))
    mean = (w.p1 * c1 + w.p2 * c0) / n
    second = (w.p1 ** 2 * c1 + w.p2 ** 2 * c0) / n
    var = max(second - mean * mean, 0.0)
    acc = McEstimate(mean, float(np.sqrt(var / n)), n, seed)

    return McResult(tpr=tpr, tnr=tnr, f_u=f_u, acc=acc)


def dominance_oracle(candidates) -> Frontier:
    """Brute-force Pareto filter: test every ordered pair directly.

    Kept deliberately naive as the reference implementation; the fast filter
    must reproduce its output exactly.
    """
    pts = list(candidates)
    if not pts:
        raise InputError("no candidates to filter")
    if len(pts) > ORACLE_CAP:
        raise ResourceError(
            f"dominance oracle is quadratic; {len(pts)} candidates exceed "
            f"the {ORACLE_CAP} cap")
    tol = 1e-12
    f = np.fromiter((p.fairness for p in pts), float, len(pts))
    a = np.fromiter((p.accuracy for p in pts), float, len(pts))
    dominated = np.zeros(len(pts), dtype=bool)
    block = 2048
    for start in range(0, len(pts), block):
        fb = f[start:start + block, None]
        ab = a[start:start + block, None]
        cond1 = (f[None, :] >= fb - tol) & (a[None, :] > ab + tol)
        cond2 = (f[None, :] > fb + tol) & (a[None, :] >= ab - tol)
        dominated[start:start + block] = np.any(cond1 | cond2, axis=1)
    survivors = [p for p, d in zip(pts, dominated) if not d]
    return _finish_frontier(survivors)
