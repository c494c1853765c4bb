"""Confusion rates, Equalized-Odds unfairness, weighted accuracy, and the
data/model split of unfairness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal)
from .distributions import positive_mass
from .errors import ValidationError

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
        weights = (self.omega1, self.omega2, self.p1, self.p2)
        if not all(math.isfinite(v) for v in weights):
            raise ValidationError(f"weights must be finite, got {weights}")
        if min(weights) < 0.0:
            raise ValidationError("weights must be nonnegative")
        if abs(self.omega1 + self.omega2 - 1.0) > 1e-12:
            raise ValidationError("omega1 + omega2 must equal 1")


@dataclass(frozen=True)
class Decomposition:
    """Unfairness split into a data part and a model part.

    f_du depends only on the population (via the per-group reference optima);
    f_mu measures how far the classifier's rates drift from the reference.
    """

    f_u: float
    f_du: float
    f_mu: float
    equality_holds: bool
    condition_met: Optional[str] = None

    def __post_init__(self):
        if min(self.f_u, self.f_du, self.f_mu) < 0.0:
            raise ValidationError("unfairness components must be nonnegative")
        if self.f_u > self.f_du + self.f_mu + DECOMP_TOL:
            raise ValidationError("f_u exceeds f_du + f_mu")
        if self.condition_met not in (None, "condition1", "condition2"):
            raise ValidationError(f"unknown condition {self.condition_met!r}")


def confusion_rates(model, clf: GroupwiseClassifier) -> ConfusionRates:
    """Closed-form TPR/TNR per group from the conditional cdfs."""
    tpr = tuple(positive_mass(model.conditional[(a, 1)], clf.positive_region(a))
                for a in (0, 1))
    tnr = tuple(1.0 - positive_mass(model.conditional[(a, 0)],
                                    clf.positive_region(a))
                for a in (0, 1))
    return ConfusionRates(tpr=tpr, tnr=tnr)


def unfairness(rates: ConfusionRates, w: MetricWeights = None) -> float:
    """Equalized-Odds gap: weighted rate differences across groups."""
    w = w or MetricWeights()
    return (w.omega1 * abs(rates.tpr[1] - rates.tpr[0])
            + w.omega2 * abs(rates.tnr[1] - rates.tnr[0]))


def fairness(rates: ConfusionRates, w: MetricWeights = None) -> float:
    return 1.0 - unfairness(rates, w)


def accuracy(model, clf: GroupwiseClassifier, w: MetricWeights = None) -> float:
    """Weighted share of correct predictions; plain accuracy at defaults."""
    w = w or MetricWeights()
    rates = confusion_rates(model, clf)
    hit1 = sum(rates.tpr[a] * model.joint[(a, 1)] for a in (0, 1))
    hit0 = sum(rates.tnr[a] * model.joint[(a, 0)] for a in (0, 1))
    return w.p1 * hit1 + w.p2 * hit0


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
        return sum(self.mismatch(r) for r in clf.regions) <= DECOMP_TOL

    def decompose(self, model, clf: GroupwiseClassifier,
                  w: MetricWeights = None) -> Decomposition:
        """clf's unfairness split against this reference."""
        w = w or MetricWeights()
        star = self.rates
        cur = confusion_rates(model, clf)
        f_u = unfairness(cur, w)
        f_du = unfairness(star, w)
        f_mu = (w.omega1 * abs((cur.tpr[0] - star.tpr[0])
                               - (cur.tpr[1] - star.tpr[1]))
                + w.omega2 * abs((cur.tnr[0] - star.tnr[0])
                                 - (cur.tnr[1] - star.tnr[1])))
        return Decomposition(
            f_u=f_u, f_du=f_du, f_mu=f_mu,
            equality_holds=abs(f_u - (f_du + f_mu)) <= DECOMP_TOL,
            condition_met=self.pattern if self.well_defined(clf) else None,
        )


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
