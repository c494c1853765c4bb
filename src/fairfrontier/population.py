"""Group-conditional population model and the built-in scenario presets.

A population is a joint law over (A, Y) in {0,1}^2 plus one conditional
distribution of X per cell. Everything downstream (rates, sweeps, optima)
reads from this object.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .distributions import Mixture, Normal, Triangular, _finite_bracket
from .errors import InputError, ValidationError

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _cell_key(a: int, y: int) -> str:
    return f"a{a}y{y}"


@dataclass(frozen=True)
class GroupConditionalModel:
    """Joint (A, Y) probabilities plus per-cell conditionals f(x|a,y)."""

    joint: Mapping
    conditional: Mapping
    label: str = ""

    def __post_init__(self):
        joint = {cell: float(self.joint[cell]) for cell in CELLS if cell in self.joint}
        cond = dict(self.conditional)
        missing = [c for c in CELLS if c not in joint or c not in cond]
        if missing:
            raise ValidationError(f"model is missing cells: {missing}")
        for cell, p in joint.items():
            if not (np.isfinite(p) and p >= 0.0):
                raise ValidationError(f"joint{cell} must be >= 0, got {p}")
        total = sum(joint.values())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"joint mass {total!r} != 1")
        for a in (0, 1):
            if joint[(a, 0)] + joint[(a, 1)] <= 0.0:
                raise ValidationError(f"group A={a} has zero mass")
        for cell in CELLS:
            if not isinstance(cond[cell], (Normal, Triangular, Mixture)):
                raise ValidationError(f"conditional{cell} is not a distribution")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "conditional", cond)

    # -- derived probabilities ------------------------------------------

    def p_label(self, y: int) -> float:
        return self.joint[(0, y)] + self.joint[(1, y)]

    def p_group(self, a: int) -> float:
        return self.joint[(a, 0)] + self.joint[(a, 1)]

    def label_given_group(self, y: int, a: int) -> float:
        return self.joint[(a, y)] / self.p_group(a)

    # -- densities -------------------------------------------------------

    def cell_pdf(self, x, a: int, y: int):
        return self.conditional[(a, y)].pdf(x)

    def cell_cdf(self, x, a: int, y: int):
        return self.conditional[(a, y)].cdf(x)

    def joint_pdf(self, x, a: int, y: int):
        """f(x, A=a, Y=y) = P(A=a, Y=y) f(x|a,y)."""
        return self.joint[(a, y)] * self.conditional[(a, y)].pdf(x)

    def label_pdf(self, x, y: int):
        """f(x | Y=y), pooled over groups."""
        num = self.joint_pdf(x, 0, y) + self.joint_pdf(x, 1, y)
        return num / self.p_label(y)

    def pooled_cdf(self, x):
        return sum(self.joint[(a, y)] * self.cell_cdf(x, a, y) for a, y in CELLS)

    # -- ranges ----------------------------------------------------------

    def quantile_range(self, central_mass: float = 0.9999,
                       cells=CELLS) -> tuple[float, float]:
        """Interval holding the central ``central_mass`` of the pooled law."""
        if not 0.0 < central_mass < 1.0:
            raise InputError(f"central_mass must be in (0,1), got {central_mass}")
        weights = np.array([self.joint[c] for c in cells])
        weights = weights / weights.sum()
        dists = [self.conditional[c] for c in cells]

        def cdf(x):
            return float(sum(w * d.cdf(x) for w, d in zip(weights, dists)))

        tail = (1.0 - central_mass) / 2.0
        lo_b, hi_b = _finite_bracket(dists)
        return (self._pooled_quantile(cdf, tail, lo_b, hi_b),
                self._pooled_quantile(cdf, 1.0 - tail, lo_b, hi_b))

    def group_quantile_range(self, a: int,
                             central_mass: float = 0.9999) -> tuple[float, float]:
        return self.quantile_range(central_mass, cells=((a, 0), (a, 1)))

    @staticmethod
    def _pooled_quantile(cdf, q: float, lo: float, hi: float) -> float:
        while cdf(lo) > q:
            lo -= (hi - lo) + 1.0
        while cdf(hi) < q:
            hi += (hi - lo) + 1.0
        return float(brentq(lambda x: cdf(x) - q, lo, hi, xtol=1e-12))


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    joint_residual: float
    entries: tuple = field(default_factory=tuple)

    @property
    def problems(self) -> tuple:
        return tuple(msg for _, passed, msg in self.entries if not passed)


def validate(model) -> ValidationReport:
    """Check a model (or a raw scenario payload) and report every failure.

    Accepts either a constructed GroupConditionalModel or the dict payload of
    a scenario file, so malformed inputs can be diagnosed instead of raising.
    """
    if isinstance(model, GroupConditionalModel):
        joint = model.joint
        cond = model.conditional
    else:
        return _validate_payload(model)

    entries = []
    residual = abs(sum(joint.values()) - 1.0)
    entries.append(("joint_sum", residual <= 1e-12,
                    f"joint mass residual {residual:.3g}"))
    for cell in CELLS:
        dist = cond[cell]
        lo, hi = _effective_support(dist)
        mass, _ = quad(lambda x: float(dist.pdf(x)), lo, hi, limit=200)
        ok = abs(mass - 1.0) <= 1e-8
        entries.append((f"pdf_mass_{_cell_key(*cell)}", ok,
                        f"pdf integral over support = {mass:.12f}"))
    ok = all(passed for _, passed, _ in entries)
    return ValidationReport(ok=ok, joint_residual=residual, entries=tuple(entries))


def _effective_support(dist) -> tuple[float, float]:
    if isinstance(dist, Triangular):
        return dist.lower, dist.upper
    if isinstance(dist, Normal):
        return dist.mean - 10.0 * dist.stddev, dist.mean + 10.0 * dist.stddev
    return _finite_bracket((dist,))


def _validate_payload(payload) -> ValidationReport:
    entries = []
    residual = float("nan")
    if not isinstance(payload, dict):
        entries.append(("payload", False, "scenario payload must be a mapping"))
    else:
        joint = payload.get("joint", {})
        got = []
        for a, y in CELLS:
            key = _cell_key(a, y)
            if key not in joint:
                entries.append((f"joint.{key}", False, f"joint.{key} missing"))
            else:
                got.append(float(joint[key]))
                if got[-1] < 0:
                    entries.append((f"joint.{key}", False,
                                    f"joint.{key} = {got[-1]} < 0"))
        if len(got) == len(CELLS):
            residual = abs(sum(got) - 1.0)
            entries.append(("joint_sum", residual <= 1e-12,
                            f"joint mass {sum(got)!r} != 1" if residual > 1e-12
                            else "joint mass ok"))
        dist = payload.get("dist", {})
        for a, y in CELLS:
            key = _cell_key(a, y)
            if key not in dist:
                entries.append((f"dist.{key}", False, f"dist.{key} missing"))
                continue
            try:
                _dist_from_payload(dist[key], f"dist.{key}")
                entries.append((f"dist.{key}", True, "ok"))
            except ValidationError as exc:
                entries.append((f"dist.{key}", False, str(exc)))
    ok = all(passed for _, passed, _ in entries)
    return ValidationReport(ok=ok, joint_residual=residual, entries=tuple(entries))


# -- scenario file format -------------------------------------------------


def _dist_from_payload(spec, where: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{where}: expected an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "normal":
            return Normal(float(spec["mean"]), float(spec["stddev"]))
        if kind == "triangular":
            return Triangular(float(spec["lower"]), float(spec["upper"]),
                              float(spec["mode"]))
        if kind == "mixture":
            comps = [(float(c["weight"]), _dist_from_payload(c, f"{where}.components"))
                     for c in spec["components"]]
            return Mixture(comps)
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(f"{where}: unknown kind {kind!r}")


def _dist_to_payload(dist) -> dict:
    if isinstance(dist, Normal):
        return {"kind": "normal", "mean": dist.mean, "stddev": dist.stddev}
    if isinstance(dist, Triangular):
        return {"kind": "triangular", "lower": dist.lower, "upper": dist.upper,
                "mode": dist.mode}
    comps = []
    for w, d in dist.components:
        entry = _dist_to_payload(d)
        entry["weight"] = w
        comps.append(entry)
    return {"kind": "mixture", "components": comps}


def read_scenario_file(path: str) -> GroupConditionalModel:
    """Parse a scenario file; see the README for the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    report = _validate_payload(payload)
    if not report.ok:
        raise ValidationError(f"{path}: " + "; ".join(report.problems))
    joint = {(a, y): float(payload["joint"][_cell_key(a, y)]) for a, y in CELLS}
    cond = {(a, y): _dist_from_payload(payload["dist"][_cell_key(a, y)],
                                       f"dist.{_cell_key(a, y)}")
            for a, y in CELLS}
    return GroupConditionalModel(joint, cond, str(payload.get("label", "")))


def write_scenario_file(model: GroupConditionalModel, path: str) -> None:
    payload = {
        "label": model.label,
        "joint": {_cell_key(a, y): model.joint[(a, y)] for a, y in CELLS},
        "dist": {_cell_key(a, y): _dist_to_payload(model.conditional[(a, y)])
                 for a, y in CELLS},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- presets ---------------------------------------------------------------


def _example1() -> GroupConditionalModel:
    return GroupConditionalModel(
        joint={(1, 1): 0.5, (1, 0): 0.25, (0, 1): 0.125, (0, 0): 0.125},
        conditional={
            (1, 1): Normal(10.0, 2.0),
            (1, 0): Normal(3.0, 2.0),
            (0, 1): Normal(6.0, 2.0),
            (0, 0): Normal(-1.0, 2.0),
        },
        label="example1",
    )


def _example3() -> GroupConditionalModel:
    return GroupConditionalModel(
        joint={(1, 1): 0.5, (1, 0): 0.25, (0, 1): 0.125, (0, 0): 0.125},
        conditional={
            (1, 1): Normal(10.0, 3.0),
            (1, 0): Normal(2.0, 3.0),
            (0, 1): Normal(7.0, 3.0),
            (0, 0): Normal(-1.0, 3.0),
        },
        label="example3",
    )


def _example4_identical() -> GroupConditionalModel:
    return GroupConditionalModel(
        joint={cell: 0.25 for cell in CELLS},
        conditional={
            (1, 1): Triangular(4.0, 12.0, 8.0),
            (1, 0): Triangular(0.0, 8.0, 4.0),
            (0, 1): Triangular(3.0, 7.0, 5.0),
            (0, 0): Triangular(5.0, 9.0, 7.0),
        },
        label="example4_identical",
    )


def _example4_nonidentical() -> GroupConditionalModel:
    return GroupConditionalModel(
        joint={cell: 0.25 for cell in CELLS},
        conditional={
            (1, 1): Triangular(6.0, 14.0, 10.0),
            (1, 0): Triangular(2.0, 10.0, 6.0),
            (0, 1): Triangular(3.0, 7.0, 5.0),
            (0, 0): Triangular(5.0, 9.0, 7.0),
        },
        label="example4_nonidentical",
    )


PRESETS = {
    "example1": _example1,
    "example3": _example3,
    "example4_identical": _example4_identical,
    "example4_nonidentical": _example4_nonidentical,
}


def scenario(scenario_id: str) -> GroupConditionalModel:
    """Look up a preset by name, or load a custom scenario file by path."""
    if scenario_id in PRESETS:
        return PRESETS[scenario_id]()
    if os.path.exists(str(scenario_id)):
        return read_scenario_file(str(scenario_id))
    raise InputError(
        f"unknown scenario {scenario_id!r}; presets: {', '.join(sorted(PRESETS))}"
    )
