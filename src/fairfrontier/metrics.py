"""Confusion rates, Equalized-Odds unfairness, weighted accuracy, and the
data/model split of unfairness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal)
from .distributions import positive_mass
from .errors import ValidationError, _number

DECOMP_TOL = 1e-9


@dataclass(frozen=True)
class ConfusionRates:
    """Per-group true-positive and true-negative rates, indexed by group."""

    tpr: tuple
    tnr: tuple

    def __post_init__(self):
        tpr = tuple(float(v) for v in self.tpr)
        tnr = tuple(float(v) for v in self.tnr)
        for name, vals in (("tpr", tpr), ("tnr", tnr)):
            if len(vals) != 2 or any(not 0.0 <= v <= 1.0 for v in vals):
                raise ValidationError(f"{name} must be two rates in [0,1]")
        object.__setattr__(self, "tpr", tpr)
        object.__setattr__(self, "tnr", tnr)


@dataclass(frozen=True)
class MetricWeights:
    """Unfairness weights (must sum to 1) and accuracy weights.

    p1 = p2 = 1 gives plain accuracy P(prediction = Y); setting both to 1/2
    reproduces the halved scale some conventions use.
    """

    omega1: float = 0.5
    omega2: float = 0.5
    p1: float = 1.0
    p2: float = 1.0

    def __post_init__(self):
        for name in ("omega1", "omega2", "p1", "p2"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if min(self.omega1, self.omega2, self.p1, self.p2) < 0.0:
            raise ValidationError("weights must be nonnegative")
        if abs(self.omega1 + self.omega2 - 1.0) > 1e-12:
            raise ValidationError("omega1 + omega2 must equal 1")


@dataclass(frozen=True)
class Decomposition:
    """Unfairness split into a data part and a model part.

    f_du depends only on the population (via the per-group reference optima);
    f_mu measures how far the classifier's rates drift from the reference.
    well_defined says whether the classifier follows the reference wherever
    the per-group optima agree; condition_met is only set when it does.
    """

    f_u: float
    f_du: float
    f_mu: float
    equality_holds: bool
    condition_met: Optional[str] = None
    well_defined: bool = False

    def __post_init__(self):
        if min(self.f_u, self.f_du, self.f_mu) < 0.0:
            raise ValidationError("unfairness components must be nonnegative")
        if self.f_u > self.f_du + self.f_mu + DECOMP_TOL:
            raise ValidationError("f_u exceeds f_du + f_mu")
        if self.condition_met not in (None, "condition1", "condition2"):
            raise ValidationError(f"unknown condition {self.condition_met!r}")
        if self.condition_met is not None and not self.well_defined:
            raise ValidationError("condition_met needs well_defined")


def _group_rates(model, a: int, region: IntervalSet) -> tuple:
    """Group a's (tpr, tnr) on the positive region, from the cell cdfs."""
    return (positive_mass(model.conditional[(a, 1)], region),
            1.0 - positive_mass(model.conditional[(a, 0)], region))


def _gap(w: MetricWeights, tpr0, tpr1, tnr0, tnr1):
    """omega1 |tpr1 - tpr0| + omega2 |tnr1 - tnr0|, of floats or of arrays
    that broadcast. On rates it is the Equalized-Odds gap; on the drifts
    from a reference's rates it is F_MU, as |d1 - d0| == |d0 - d1|."""
    return w.omega1 * abs(tpr1 - tpr0) + w.omega2 * abs(tnr1 - tnr0)


def _hits(model, w: MetricWeights, tpr0, tpr1, tnr0, tnr1):
    """p1 (tpr1 J11 + tpr0 J01) + p2 (tnr1 J10 + tnr0 J00), J being the
    joint (A, Y) masses: the weighted accuracy, of floats or of arrays."""
    j = model.joint
    return (w.p1 * (tpr1 * j[(1, 1)] + tpr0 * j[(0, 1)])
            + w.p2 * (tnr1 * j[(1, 0)] + tnr0 * j[(0, 0)]))


def _split(w: MetricWeights, star: ConfusionRates, tpr0, tpr1, tnr0, tnr1,
           m0, m1) -> tuple:
    """(F_MU, well_defined) of group rates and region mismatches against
    reference rates star, of floats or of arrays: the gap of the drifts, and
    a summed mismatch within DECOMP_TOL (an overflow is inf; no warning)."""
    with np.errstate(over="ignore"):
        return (_gap(w, tpr0 - star.tpr[0], tpr1 - star.tpr[1],
                     tnr0 - star.tnr[0], tnr1 - star.tnr[1]),
                m0 + m1 <= DECOMP_TOL)


def confusion_rates(model, clf: GroupwiseClassifier) -> ConfusionRates:
    """Closed-form TPR/TNR per group from the conditional cdfs."""
    tpr, tnr = zip(*(_group_rates(model, a, clf.positive_region(a))
                     for a in (0, 1)))
    return ConfusionRates(tpr=tpr, tnr=tnr)


def unfairness(rates: ConfusionRates, w: MetricWeights = None) -> float:
    """Equalized-Odds gap: weighted rate differences across groups."""
    return _gap(w or MetricWeights(), *rates.tpr, *rates.tnr)


def fairness(rates: ConfusionRates, w: MetricWeights = None) -> float:
    return 1.0 - unfairness(rates, w)


def accuracy(model, clf: GroupwiseClassifier, w: MetricWeights = None) -> float:
    """Weighted share of correct predictions; plain accuracy at defaults."""
    rates = confusion_rates(model, clf)
    return _hits(model, w or MetricWeights(), *rates.tpr, *rates.tnr)


@dataclass(frozen=True)
class Reference:
    """The group-wise accuracy optimum that unfairness is split against.

    optima are the per-group accuracy optima and rates their confusion
    rates. disputed is where the two groups' optima disagree and common
    where both predict 1. pattern names the sign-pattern condition under
    which the split is exact for a well-defined classifier, or is None.
    """

    optima: GroupwiseClassifier
    rates: ConfusionRates
    disputed: IntervalSet
    common: IntervalSet
    pattern: Optional[str]

    @classmethod
    def of(cls, model, optima: GroupwiseClassifier = None) -> "Reference":
        """The reference of model; optima are computed when not given."""
        if optima is None:
            optima = bayes_accuracy_optimal(model, "per_group")
        rates = confusion_rates(model, optima)
        tpr, tnr = rates.tpr, rates.tnr
        r0, r1 = optima.regions
        disputed = r0.symmetric_difference(r1)
        pattern = None
        if (disputed.difference(r0).length() <= DECOMP_TOL
                and tpr[0] < tpr[1] and tnr[0] > tnr[1]):
            pattern = "condition1"
        elif (disputed.intersection(r0).length() <= DECOMP_TOL
                and tpr[0] > tpr[1] and tnr[0] < tnr[1]):
            pattern = "condition2"
        return cls(optima, rates, disputed, r0.intersection(r1), pattern)

    def mismatch(self, region: IntervalSet) -> float:
        """Length of the agreed set where region departs from the optima's
        shared verdict."""
        return (region.symmetric_difference(self.common)
                .difference(self.disputed).length())

    def well_defined(self, clf: GroupwiseClassifier) -> bool:
        """Does clf follow the optima wherever the two of them agree?"""
        star = self.rates  # the verdict reads no rate; these drift by 0
        return _split(MetricWeights(), star, *star.tpr, *star.tnr,
                      *map(self.mismatch, clf.regions))[1]

    def decompose(self, model, clf: GroupwiseClassifier,
                  w: MetricWeights = None) -> Decomposition:
        """clf's unfairness split against this reference."""
        w = w or MetricWeights()
        cur = confusion_rates(model, clf)
        f_u = unfairness(cur, w)
        f_du = unfairness(self.rates, w)
        f_mu, well_defined = _split(w, self.rates, *cur.tpr, *cur.tnr,
                                    *map(self.mismatch, clf.regions))
        return Decomposition(
            f_u=f_u, f_du=f_du, f_mu=f_mu, well_defined=well_defined,
            equality_holds=abs(f_u - (f_du + f_mu)) <= DECOMP_TOL,
            condition_met=self.pattern if well_defined else None)


def decompose_unfairness(model, clf: GroupwiseClassifier,
                         w: MetricWeights = None,
                         reference: GroupwiseClassifier = None) -> Decomposition:
    """Split the Equalized-Odds gap into data and model parts.

    The reference is the pair of per-group accuracy optima (computed here
    when not supplied). condition_met names the sign-pattern condition under
    which the split is exact, and is only reported when the classifier also
    matches the reference verdict outside the disputed region.
    """
    return Reference.of(model, reference).decompose(model, clf, w)


class WellDefinedResult(NamedTuple):
    well_defined: bool
    enclosed: IntervalSet


def well_defined_check(clf: GroupwiseClassifier, model) -> WellDefinedResult:
    """Does clf match the per-group optimal prediction outside the disputed set?

    The disputed (enclosed) set is where the two per-group accuracy-optimal
    classifiers disagree; outside it they share a verdict and clf must follow
    it, up to 1e-9 of total mismatch length.
    """
    ref = Reference.of(model)
    return WellDefinedResult(ref.well_defined(clf), ref.disputed)
