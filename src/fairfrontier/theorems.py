"""Executable checks for the package's structural claims.

Each check measures the quantities a claim is stated in terms of and returns
a TheoremReport: named conditions with measured values, plus whether the
claim's conclusion held on this instance. Checks never assume a claim is
true; a failed condition is reported, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifiers import GroupwiseClassifier, fairness_optimal, sign_region
from .errors import ContractError, InputError
from .frontier import (FamilySpec, Frontier, Jump, _fairest, _sweep,
                       classify_shape)
from .metrics import (MetricWeights, Reference, accuracy, confusion_rates,
                      unfairness)

PRE_TOL = 1e-9


@dataclass(frozen=True)
class Condition:
    """One named clause of a claim with its measured evidence."""

    name: str
    satisfied: bool
    measured: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TheoremReport:
    claim: str
    conditions: tuple
    conclusion_checked: bool
    tolerance: float
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "conditions": [
                {"name": c.name, "satisfied": c.satisfied,
                 "measured": dict(c.measured)}
                for c in self.conditions
            ],
            "conclusion_checked": self.conclusion_checked,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TheoremReport":
        return cls(
            claim=payload["claim"],
            conditions=tuple(
                Condition(c["name"], c["satisfied"], dict(c["measured"]))
                for c in payload["conditions"]
            ),
            conclusion_checked=payload["conclusion_checked"],
            tolerance=payload["tolerance"],
            notes=tuple(payload["notes"]),
        )


def _boundary_points(clf: GroupwiseClassifier) -> tuple:
    return clf.positive_region(0).boundary


def check_simultaneous_optimality(model, clf: GroupwiseClassifier,
                                  tol: float = 1e-6) -> TheoremReport:
    """Necessary conditions for one shared classifier to be optimal for both
    accuracy and fairness: balanced label densities on the decision boundary,
    plus either equal rates across groups or equal group density gaps.
    """
    if not clf.shared:
        raise ContractError(
            "simultaneous-optimality conditions apply to shared classifiers; "
            "got per-group regions")
    boundary = _boundary_points(clf)
    notes = []
    if not boundary:
        notes.append("empty decision boundary: boundary conditions are vacuous")

    def max_over_boundary(fn) -> float:
        return max((fn(b) for b in boundary), default=0.0)

    label_gap = max_over_boundary(
        lambda b: abs(model.label_pdf(b, 1) - model.label_pdf(b, 0)))
    conds = [Condition(
        "boundary_label_density_balance", label_gap <= tol,
        {"max_abs_gap": label_gap, "boundary": list(boundary)})]

    rates = confusion_rates(model, clf)
    tpr_gap = abs(rates.tpr[1] - rates.tpr[0])
    tnr_gap = abs(rates.tnr[1] - rates.tnr[0])
    conds.append(Condition(
        "rate_equality", tpr_gap <= tol and tnr_gap <= tol,
        {"tpr_gap": tpr_gap, "tnr_gap": tnr_gap,
         "tpr": list(rates.tpr), "tnr": list(rates.tnr)}))

    def gap_identity(b: float) -> float:
        pos = abs(model.cell_pdf(b, 0, 1) - model.cell_pdf(b, 1, 1))
        neg = abs(model.cell_pdf(b, 0, 0) - model.cell_pdf(b, 1, 0))
        return abs(pos - neg)

    density_gap = max_over_boundary(gap_identity)
    conds.append(Condition("density_gap_identity", density_gap <= tol,
                           {"max_abs_gap": density_gap}))

    balanced = all(abs(model.joint[cell] - 0.25) <= 1e-12
                   for cell in model.joint)
    if balanced:
        def marginal_spread(b: float) -> float:
            vals = [model.joint_pdf(b, a, 0) + model.joint_pdf(b, a, 1)
                    for a in (0, 1)]
            vals += [model.joint_pdf(b, 0, y) + model.joint_pdf(b, 1, y)
                     for y in (0, 1)]
            return max(vals) - min(vals)

        spread = max_over_boundary(marginal_spread)
        conds.append(Condition("balanced_marginal_equality", spread <= tol,
                               {"max_spread": spread}))

        def cell_gap(b: float) -> float:
            return max(abs(model.cell_pdf(b, 0, 0) - model.cell_pdf(b, 0, 1)),
                       abs(model.cell_pdf(b, 1, 0) - model.cell_pdf(b, 1, 1)))

        gap = max_over_boundary(cell_gap)
        conds.append(Condition("balanced_cell_equality", gap <= tol,
                               {"max_abs_gap": gap}))

    concluded = conds[0].satisfied and (conds[1].satisfied or conds[2].satisfied)
    return TheoremReport("simultaneous_optimality", tuple(conds), concluded,
                         tol, tuple(notes))


def overpursuit_accuracy_bound(model, clf: GroupwiseClassifier,
                               w: MetricWeights = None) -> TheoremReport:
    """Accuracy ceiling for classifiers at least as fair as the fairness
    optimum: no better than the fairness optimum itself, nor than the best
    single group optimum applied to everyone.
    """
    return _overpursuit_report(model, Reference.of(model), clf, w)


def _overpursuit_report(model, ref: Reference, clf: GroupwiseClassifier,
                        w: MetricWeights = None) -> TheoremReport:
    w = w or MetricWeights()
    if not clf.shared:
        raise ContractError(
            "the over-pursuit bound concerns shared classifiers; got "
            "per-group regions")
    fair_clf = fairness_optimal(model)
    f_u_fair = unfairness(confusion_rates(model, fair_clf), w)
    f_u_clf = unfairness(confusion_rates(model, clf), w)
    if f_u_clf > f_u_fair + PRE_TOL:
        raise ContractError(
            f"classifier does not over-pursue fairness: its unfairness "
            f"{f_u_clf!r} exceeds the fairness optimum's {f_u_fair!r}")

    stars = ref.optima
    acc_star = [accuracy(model,
                         GroupwiseClassifier.from_shared(stars.positive_region(a)),
                         w)
                for a in (0, 1)]
    acc_fair = accuracy(model, fair_clf, w)
    acc_clf = accuracy(model, clf, w)
    bound = min(acc_fair, max(acc_star))

    conds = [
        Condition("over_pursuit_precondition", True,
                  {"f_u": f_u_clf, "f_u_fairness_optimal": f_u_fair}),
        Condition("accuracy_bound", acc_clf <= bound + PRE_TOL,
                  {"accuracy": acc_clf, "bound": bound,
                   "accuracy_fairness_optimal": acc_fair,
                   "accuracy_group0_rule_for_all": acc_star[0],
                   "accuracy_group1_rule_for_all": acc_star[1]}),
    ]
    notes = []
    if max(acc_star) < acc_fair:
        conds.append(Condition(
            "sharpened_bound", acc_clf <= max(acc_star) + PRE_TOL,
            {"accuracy": acc_clf, "bound": max(acc_star)}))
        notes.append("group-rule ceiling is below the fairness optimum's "
                     "accuracy, so the sharper bound applies")
    return TheoremReport("overpursuit_accuracy_bound", tuple(conds),
                         conds[1].satisfied, PRE_TOL, tuple(notes))


def check_decomposition_bound(model, clf: GroupwiseClassifier,
                              w: MetricWeights = None,
                              tol: float = 1e-9) -> TheoremReport:
    """Unfairness never exceeds its data part plus its model part, with
    equality when the classifier is well-defined and the reference optima
    disagree in one consistent direction.
    """
    return _decomposition_report(model, Reference.of(model), clf, w, tol)


def _decomposition_report(model, ref: Reference, clf: GroupwiseClassifier,
                          w: MetricWeights = None,
                          tol: float = 1e-9) -> TheoremReport:
    d = ref.decompose(model, clf, w)
    pattern = ref.pattern or "none"

    residual = d.f_u - (d.f_du + d.f_mu)
    conds = [
        Condition("subadditivity", residual <= tol,
                  {"f_u": d.f_u, "f_du": d.f_du, "f_mu": d.f_mu,
                   "residual": residual}),
        Condition("well_defined", d.well_defined, {}),
        Condition("sign_pattern", pattern != "none", {"pattern": pattern}),
        Condition("equality", d.equality_holds,
                  {"abs_residual": abs(residual), "f_mu": d.f_mu}),
    ]
    notes = []
    premises = d.well_defined and pattern != "none"
    if premises and d.f_mu <= tol:
        notes.append("classifier matches the reference inside the disputed "
                     "region too, so the strict model-unfairness clause is "
                     "vacuous here")
    concluded = (not premises) or d.equality_holds
    return TheoremReport("decomposition_bound", tuple(conds), concluded, tol,
                         tuple(notes))


SEARCH_FAMILY = FamilySpec("per_group_intervals", orientations="both",
                           resolution=9, k=2)


def check_boundary_alignment(model, mode: str = "boundary_location",
                             tol: float = 1e-9) -> TheoremReport:
    """When the data carries no unfairness of its own, matching per-group
    decision boundaries should make complete fairness attainable at optimal
    accuracy. Two reading of "matching" are provided: same boundary point
    sets, or same indicator values everywhere.
    """
    return _boundary_alignment_reports(model, (mode,), tol)[0]


def _boundary_alignment_reports(model, modes, tol: float = 1e-9) -> tuple:
    """One boundary-alignment report per mode, all from one family search,
    against the reference of the search's appended accuracy optimum.

    The search is sweep's, bounded as in build_frontier: only the lines
    that _open_lines leaves open against the pivot, the fairest appended
    optimum, are scored. That is exact. The pivot is kept, and every
    candidate left out is strictly less fair than it with accuracy no
    better, so the pivot meets the search's test whenever a left-out
    candidate would, and no left-out candidate is among the fairest, where
    _fairest looks. The accuracy optimum is still appended last, so the
    reference is the same.
    """
    for mode in modes:
        if mode not in ("boundary_location", "strict_indicator"):
            raise InputError(f"unknown mode {mode!r}")
    candidates = _sweep(model, SEARCH_FAMILY, MetricWeights(), bounded=True)
    ref = Reference.of(model, candidates[-1].clf)
    f_du = unfairness(ref.rates)
    absent = Condition("data_unfairness_absent", f_du <= tol, {"f_du": f_du})

    f, a = candidates.fairness, candidates.accuracy
    target = accuracy(model, ref.optima)
    found = bool(np.any((1.0 - f <= tol) & (a >= target - tol)))
    best_fairness, best_accuracy = _fairest(f, a)
    search = Condition(
        "complete_fairness_at_optimal_accuracy", found,
        {"optimal_accuracy": target,
         "best_candidate_f_u": 1.0 - best_fairness,
         "best_candidate_accuracy": best_accuracy,
         "family": "per_group_intervals(resolution=9, k=2)"})

    reports = []
    for mode in modes:
        if mode == "boundary_location":
            b0, b1 = (r.boundary for r in ref.optima.regions)
            aligned = (len(b0) == len(b1)
                       and all(abs(p - q) <= 1e-6 for p, q in zip(b0, b1)))
            match = Condition("boundary_location_match", aligned,
                              {"boundary_group0": list(b0),
                               "boundary_group1": list(b1)})
        else:
            disagreement = ref.disputed.length()
            aligned = disagreement <= tol
            match = Condition("indicator_match", aligned,
                              {"disagreement_length": disagreement})
        predicted = absent.satisfied and aligned
        concluded = predicted == found
        notes = ()
        if not concluded:
            notes = (f"{mode} alignment predicts "
                     f"{'existence' if predicted else 'absence'} but the "
                     f"search {'found' if found else 'did not find'} such a "
                     "classifier",)
        reports.append(TheoremReport("boundary_alignment",
                                     (absent, match, search), concluded, tol,
                                     notes))
    return tuple(reports)


def _prescribed_regions(model, branch: int, lo: float, hi: float):
    """Per-group rule forms expected at an accuracy jump.

    Branch 1 (group 1 ahead on both rates): group 1 gets the flipped rule
    (positive where its label-1 density loses), group 0 the plain one.
    Branch 2 swaps the roles.
    """
    def plain(a):
        return sign_region(
            lambda x, a=a: model.cell_pdf(x, a, 1) - model.cell_pdf(x, a, 0),
            lo, hi)

    def flipped(a):
        return sign_region(
            lambda x, a=a: model.cell_pdf(x, a, 0) - model.cell_pdf(x, a, 1),
            lo, hi)

    if branch == 1:
        return plain(0), flipped(1)
    return flipped(0), plain(1)


def check_accuracy_jump(model, frontier: Frontier, jump: Jump = None,
                        tol: float = 1e-6) -> TheoremReport:
    """Inspect one accuracy discontinuity against the three jump conditions:
    aligned rate gaps, unbeatable accuracy at its fairness level, and the
    prescribed flipped-rule form for the lagging group.
    """
    if frontier.shape is None:
        frontier = classify_shape(frontier)
    acc_jumps = tuple(j for j in frontier.jumps if j.kind == "accuracy")
    if jump is None:
        if not acc_jumps:
            return TheoremReport(
                "accuracy_jump_conditions", (), True, tol,
                ("no accuracy jump on this frontier; nothing to check",))
        jump = max(acc_jumps, key=lambda j: j.accuracy_drop)
    elif jump not in frontier.jumps:
        raise InputError("jump is not one of this frontier's detected jumps")

    pre = frontier.points[jump.index]
    post = frontier.points[jump.index + 1]
    rates_pre = confusion_rates(model, pre.clf)
    rates_post = confusion_rates(model, post.clf)
    dtpr = rates_pre.tpr[1] - rates_pre.tpr[0]
    dtnr = rates_pre.tnr[1] - rates_pre.tnr[0]
    product_pre = dtpr * dtnr
    product_post = ((rates_post.tpr[1] - rates_post.tpr[0])
                    * (rates_post.tnr[1] - rates_post.tnr[0]))
    conds = [Condition(
        "aligned_rate_gaps", product_pre >= -tol,
        {"product_pre_jump": product_pre, "product_post_jump": product_post,
         "tpr_gap": dtpr, "tnr_gap": dtnr})]

    target_fu = 1.0 - pre.fairness
    rivals = [p.accuracy for p in frontier.points
              if abs((1.0 - p.fairness) - target_fu) <= tol
              and p.accuracy > pre.accuracy + 1e-12]
    conds.append(Condition(
        "max_accuracy_at_fairness_level", not rivals,
        {"accuracy": pre.accuracy,
         "best_rival_accuracy": max(rivals) if rivals else None,
         "pool_size": len(frontier.points)}))

    if frontier.sweep_range is None or not frontier.resolution:
        raise InputError("frontier lacks sweep metadata needed for the "
                         "prescribed-form comparison")
    lo, hi = frontier.sweep_range
    step = (hi - lo) / (frontier.resolution - 1)
    branches = []
    if dtpr >= -tol and dtnr >= -tol:
        branches.append(1)
    if dtpr <= tol and dtnr <= tol:
        branches.append(2)
    if not branches:
        conds.append(Condition(
            "prescribed_rule_form", False,
            {"reason": "rate gaps point in opposite directions; no form "
                       "is prescribed", "branch": None}))
    else:
        window = (lo, hi)
        best = None
        for branch in branches:
            want0, want1 = _prescribed_regions(model, branch, lo, hi)
            dist = max(
                pre.clf.positive_region(0).symmetric_difference(want0)
                .length(window),
                pre.clf.positive_region(1).symmetric_difference(want1)
                .length(window))
            if best is None or dist < best[0]:
                best = (dist, branch)
        conds.append(Condition(
            "prescribed_rule_form", best[0] <= step,
            {"max_region_distance": best[0], "grid_step": step,
             "branch": best[1]}))

    concluded = all(c.satisfied for c in conds)
    return TheoremReport("accuracy_jump_conditions", tuple(conds), concluded,
                         tol)
