"""Shared builders for the test suite: seeded random models and classifiers,
a hand-built population whose frontier drops sharply by construction, and
reference helpers (pooled laws, complements, region parsing) that only
tests read."""

import math

import numpy as np

from fairfrontier import (GroupConditionalModel, GroupwiseClassifier,
                          IntervalSet, Mixture, Normal)
from fairfrontier.frontier import (_bounds, _cell_cdfs, _cut_table, _masses,
                                   _Table)

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def group_table(model, w, family, grid, a, orient):
    """The _Table a sweep of family over grid builds for group a at one
    orientation."""
    masses = _masses(_cell_cdfs(model, grid),
                     *_bounds(family, _cut_table(family), orient))
    return _Table(model, w, a, masses)


def parse_region(text: str) -> tuple:
    """Inverse of the CLI's region column format: 'lo:hi;lo:hi' -> bound
    pairs."""
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        lo, _, hi = part.partition(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


def complemented(clf: GroupwiseClassifier) -> GroupwiseClassifier:
    """clf with each group's positive region complemented."""
    return GroupwiseClassifier(tuple(r.complement() for r in clf.regions))


def label_given_group(model, y: int, a: int) -> float:
    """P(Y=y | A=a)."""
    return model.joint[(a, y)] / (model.joint[(a, 0)] + model.joint[(a, 1)])


def label_pdf(model, x, y: int):
    """f(x | Y=y), pooled over groups."""
    num = model.joint_pdf(x, 0, y) + model.joint_pdf(x, 1, y)
    return num / model.p_label(y)


def pooled_cdf(model, x):
    """The cdf of X pooled over all four cells."""
    return sum(model.joint[(a, y)] * model.conditional[(a, y)].cdf(x)
               for a, y in CELLS)


def random_model(seed: int) -> GroupConditionalModel:
    """Gaussian-mixture population drawn from a fixed-seed Philox stream.

    Joint cell masses stay bounded away from zero so every conditional keeps
    enough weight for rate estimates to be meaningful.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
    raw = raw / raw.sum()
    joint = {cell: float(p) for cell, p in zip(CELLS, raw)}
    conditional = {}
    for cell in CELLS:
        k = int(rng.integers(1, 4))
        means = rng.uniform(-5.0, 5.0, size=k)
        sds = rng.uniform(0.5, 3.0, size=k)
        if k == 1:
            conditional[cell] = Normal(float(means[0]), float(sds[0]))
        else:
            weights = rng.dirichlet(np.ones(k))
            conditional[cell] = Mixture(tuple(
                (float(w), Normal(float(m), float(s)))
                for w, m, s in zip(weights, means, sds)))
    return GroupConditionalModel(joint=joint, conditional=conditional,
                                 label=f"random-{seed}")


def random_classifier(seed: int) -> GroupwiseClassifier:
    """Per-group region with 1-3 cuts in (-6, 6) and random starting parity."""
    rng = np.random.Generator(np.random.Philox(seed))
    regions = []
    for _ in (0, 1):
        cuts = sorted(rng.uniform(-6.0, 6.0, size=int(rng.integers(1, 4))))
        edges = [-math.inf] + list(cuts) + [math.inf]
        start = int(rng.integers(0, 2))
        pairs = tuple((edges[i], edges[i + 1])
                      for i in range(start, len(edges) - 1, 2))
        regions.append(IntervalSet(pairs))
    return GroupwiseClassifier(tuple(regions))


def valley_model() -> GroupConditionalModel:
    """Population whose positive-below shared sweep is built to drop sharply.

    The unfairness of the region (-inf, t) is a sum of two humps peaking at
    t=2 and t=10, with a local minimum at t=6 that coincides with the global
    accuracy maximum; both sweep tails dip below the valley's unfairness at
    far lower accuracy, so the frontier jumps at the valley point.
    """
    return GroupConditionalModel(
        joint={cell: 0.25 for cell in CELLS},
        conditional={
            (0, 1): Normal(0.0, 1.0),
            (0, 0): Normal(12.0, 1.0),
            (1, 1): Normal(4.0, 1.0),
            (1, 0): Normal(8.0, 1.0),
        },
        label="valley",
    )


def swapped_groups(model: GroupConditionalModel) -> GroupConditionalModel:
    """model with groups 0 and 1 exchanged."""
    return GroupConditionalModel(
        joint={(1 - a, y): p for (a, y), p in model.joint.items()},
        conditional={(1 - a, y): law
                     for (a, y), law in model.conditional.items()})
