"""Executable checks for the package's structural claims.

Each check measures the quantities a claim is stated in terms of and returns
a TheoremReport: named conditions with measured values, plus whether the
claim's conclusion held on this instance. Checks never assume a claim is
true; a failed condition is reported, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classifiers import GroupwiseClassifier, fairness_optimal, sign_region
from .errors import ContractError, InputError
from .frontier import (FamilySpec, Frontier, Jump, _fairest, _sweep,
                       classify_shape)
from .metrics import (MetricWeights, Reference, _hits, accuracy,
                      confusion_rates, unfairness)

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
    boundary = clf.positive_region(0).boundary
    notes = () if boundary else (
        "empty decision boundary: boundary conditions are vacuous",)
    x = np.array(boundary, dtype=float)
    f = {cell: model.cell_pdf(x, *cell) for cell in model.joint}
    joint = {cell: model.joint[cell] * f[cell] for cell in f}

    def peak(values) -> float:  # the maximum over the boundary, 0 if empty
        return float(np.max(values, initial=0.0))

    label_gap = peak(abs((joint[0, 1] + joint[1, 1]) / model.p_label(1)
                         - (joint[0, 0] + joint[1, 0]) / model.p_label(0)))
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

    density_gap = peak(abs(abs(f[0, 1] - f[1, 1]) - abs(f[0, 0] - f[1, 0])))
    conds.append(Condition("density_gap_identity", density_gap <= tol,
                           {"max_abs_gap": density_gap}))

    if all(abs(p - 0.25) <= 1e-12 for p in model.joint.values()):
        marginals = [joint[a, 0] + joint[a, 1] for a in (0, 1)]
        marginals += [joint[0, y] + joint[1, y] for y in (0, 1)]
        spread = peak(np.ptp(marginals, axis=0))
        conds.append(Condition("balanced_marginal_equality", spread <= tol,
                               {"max_spread": spread}))

        gap = peak(np.maximum(abs(f[0, 0] - f[0, 1]), abs(f[1, 0] - f[1, 1])))
        conds.append(Condition("balanced_cell_equality", gap <= tol,
                               {"max_abs_gap": gap}))

    concluded = conds[0].satisfied and (conds[1].satisfied or conds[2].satisfied)
    return TheoremReport("simultaneous_optimality", tuple(conds), concluded,
                         tol, notes)


def overpursuit_accuracy_bound(model, clf: GroupwiseClassifier,
                               w: MetricWeights = None) -> TheoremReport:
    """Accuracy ceiling for classifiers at least as fair as the fairness
    optimum: no better than that optimum, nor than the best group optimum
    of the model's kept Reference applied to everyone.
    """
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

    acc_star = [accuracy(model, GroupwiseClassifier.from_shared(region), w)
                for region in model._solved(Reference.of).optima.regions]
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
    equality when the classifier is well-defined and the optima of the
    model's kept Reference disagree in one consistent direction.
    """
    ref = model._solved(Reference.of)
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
    accuracy. Two readings of "matching" are provided: same boundary point
    sets, or same indicator values everywhere.
    """
    return _boundary_alignment_reports(model, (mode,), tol)[0]


def _boundary_alignment_reports(model, modes, tol: float = 1e-9) -> tuple:
    """One boundary-alignment report per mode against the per-group
    accuracy optimum's Reference, all from one family search.

    The search is sweep's, scoring only the lines _open_lines leaves open
    under _unchanging against the pivot, the fairest appended optimum. That
    is exact: the pivot is kept, and every candidate left out fails the
    search's test and is less fair than the pivot, or as fair with accuracy
    no better, so found and _fairest read as on the full sweep.
    """
    for mode in modes:
        if mode not in ("boundary_location", "strict_indicator"):
            raise InputError(f"unknown mode {mode!r}")
    ref, w = model._solved(Reference.of), MetricWeights()
    f_du = unfairness(ref.rates, w)
    absent = Condition("data_unfairness_absent", f_du <= tol, {"f_du": f_du})

    target = _hits(model, w, *ref.rates.tpr, *ref.rates.tnr)
    candidates = _sweep(model, SEARCH_FAMILY, w,
                        partial(_unchanging, target=target, tol=tol))
    f, a = candidates.fairness, candidates.accuracy
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


def _unchanging(fairness, accuracy, f_top, a_top, target, tol):
    """The search's closing rule: what fails its test and is less fair than
    (f_top, a_top), or as fair and no more accurate; it marks no NaN."""
    return (((fairness < f_top) | ((fairness == f_top) & (accuracy <= a_top)))
            & ((1.0 - fairness > tol) | (accuracy < target - tol)))


def _prescribed_regions(model, branch: int, lo: float, hi: float):
    """Per-group rule forms expected at an accuracy jump.

    Branch 1 (group 1 ahead on both rates): group 1 gets the flipped rule
    (positive where its label-1 density loses), group 0 the plain one.
    Branch 2 swaps the roles.
    """
    def rule(a, y):  # where group a's label-y density wins
        return sign_region(
            lambda x: model.cell_pdf(x, a, y) - model.cell_pdf(x, a, 1 - y),
            lo, hi)

    if branch == 1:
        return rule(0, 1), rule(1, 0)
    return rule(0, 0), rule(1, 1)


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
    branches = [b for b, ahead in ((1, dtpr >= -tol and dtnr >= -tol),
                                   (2, dtpr <= tol and dtnr <= tol)) if ahead]
    if not branches:
        conds.append(Condition(
            "prescribed_rule_form", False,
            {"reason": "rate gaps point in opposite directions; no form "
                       "is prescribed", "branch": None}))
    else:
        def distance(b):
            want = _prescribed_regions(model, b, lo, hi)
            return max(pre.clf.positive_region(a).symmetric_difference(
                want[a]).length((lo, hi)) for a in (0, 1))

        # a tie goes to branch 1, the smaller second key
        dist, branch = min((distance(b), b) for b in branches)
        conds.append(Condition(
            "prescribed_rule_form", dist <= step,
            {"max_region_distance": dist, "grid_step": step,
             "branch": branch}))

    concluded = all(c.satisfied for c in conds)
    return TheoremReport("accuracy_jump_conditions", tuple(conds), concluded,
                         tol)
