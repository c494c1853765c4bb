"""Group-conditional population model and the built-in scenario presets.

A population is a joint law over (A, Y) in {0,1}^2 plus one conditional
distribution of X per cell. Everything downstream (rates, sweeps, optima)
reads from this object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .distributions import (Mixture, Normal, Triangular, _finite_bracket,
                            _knots, _leaves, _root)
from .errors import InputError, ValidationError, _number

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
SOLVES_KEPT = 64  # 7 weight-free, 1 per explicit reference, 5 per weights


def _cell_key(a: int, y: int) -> str:
    return f"a{a}y{y}"


@dataclass(frozen=True)
class GroupConditionalModel:
    """Joint (A, Y) probabilities plus per-cell conditionals f(x|a,y).

    Both mappings are read-only, so _solved may keep solves on it."""

    joint: Mapping
    conditional: Mapping
    label: str = ""

    def __post_init__(self):
        joint = {cell: _number(self.joint[cell], f"joint{cell}")
                 for cell in CELLS if cell in self.joint}
        cond = dict(self.conditional)
        missing = [c for c in CELLS if c not in joint or c not in cond]
        if missing:
            raise ValidationError(f"model is missing cells: {missing}")
        for cell, p in joint.items():
            if not p >= 0.0:
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
        # quantile_range solves inside the cells' bracket, so its width must
        # be a float and each Normal's ends must lie off its mean
        lo, hi = _finite_bracket(cond.values())
        if not math.isfinite(hi - lo):
            raise ValidationError(
                f"the cells' quantile bracket [{lo!r}, {hi!r}] is wider "
                "than the largest float; rescale the feature")
        for cell in CELLS:
            for n in _leaves(cond[cell]):
                if isinstance(n, Normal) and n.mean in _finite_bracket((n,)):
                    raise ValidationError(
                        f"conditional{cell}: stddev {n.stddev!r} is below "
                        f"the float spacing at mean {n.mean!r} (mean +- 12 "
                        "sd rounds to the mean); shift or rescale the feature")
        object.__setattr__(self, "joint", MappingProxyType(joint))
        object.__setattr__(self, "conditional", MappingProxyType(cond))
        # _solved(solver, *args) is solver(self, *args), kept for the
        # SOLVES_KEPT most recent keys. It is no field, so repr, == and
        # dataclasses.replace ignore it; its key holds the solver object, so
        # a solver replaced later is called, not masked.
        object.__setattr__(self, "_solved", lru_cache(SOLVES_KEPT)(
            lambda solver, *args: solver(self, *args)))

    def __reduce__(self):
        # a copy or an unpickled model is built anew, with no solves kept
        return type(self), (dict(self.joint), dict(self.conditional),
                            self.label)

    # -- derived probabilities ------------------------------------------

    def p_label(self, y: int) -> float:
        return self.joint[(0, y)] + self.joint[(1, y)]

    # -- densities -------------------------------------------------------

    def cell_pdf(self, x, a: int, y: int):
        return self.conditional[(a, y)].pdf(x)

    def joint_pdf(self, x, a: int, y: int):
        """f(x, A=a, Y=y) = P(A=a, Y=y) f(x|a,y)."""
        return self.joint[(a, y)] * self.conditional[(a, y)].pdf(x)

    # -- ranges ----------------------------------------------------------

    def quantile_range(self, central_mass: float = 0.9999,
                       cells=CELLS) -> tuple[float, float]:
        """Interval holding the central ``central_mass`` of the pooled law."""
        if not 0.0 < central_mass < 1.0:
            raise InputError(f"central_mass must be in (0,1), got {central_mass}")
        cells = tuple(cells)
        if not cells or any(c not in CELLS for c in cells):
            raise InputError(
                f"cells must be a nonempty set of {CELLS}, got {cells!r}")
        weights = np.array([self.joint[c] for c in cells])
        if not weights.sum() > 0.0:
            raise InputError(f"cells {cells!r} hold no probability mass")
        weights = weights / weights.sum()
        laws = [self.conditional[c] for c in cells]
        parts = [(float(w), law) for w, law in zip(weights, laws) if w > 0.0]

        def cdf(x):
            return float(sum(w * law.cdf(x) for w, law in parts))

        # _root starts from the hull of every cell's _knots, of mass 0 too;
        # each law has cdf <= 1.8e-33 at its lower end and 1.0 at its upper
        # end, so widening the bracket could add no mass
        lo, hi = _finite_bracket(laws)
        tail = (1.0 - central_mass) / 2.0
        c_lo, c_hi = cdf(lo), cdf(hi)
        if not (c_lo <= tail and c_hi >= 1.0 - tail):
            raise InputError(f"central_mass {central_mass!r} exceeds the "
                             f"pooled mass {c_hi!r} of cells {cells!r}")
        return tuple(_root(lambda x: cdf(x) - q, lo, hi, c_lo - q, c_hi - q,
                           xtol=1e-12)
                     for q in (tail, 1.0 - tail))

    def group_quantile_range(self, a: int,
                             central_mass: float = 0.9999) -> tuple[float, float]:
        if a not in (0, 1):
            raise InputError(f"group must be 0 or 1, got {a!r}")
        return self._solved(type(self).quantile_range, central_mass,
                            ((a, 0), (a, 1)))


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
    if not isinstance(model, GroupConditionalModel):
        return _read_payload(model)[0]

    entries = []
    residual = abs(sum(model.joint.values()) - 1.0)
    entries.append(("joint_sum", residual <= 1e-12,
                    f"joint mass residual {residual:.3g}"))
    for cell in CELLS:
        mass = _pdf_mass(model.conditional[cell])
        ok = abs(mass - 1.0) <= 1e-8
        entries.append((f"pdf_mass_{_cell_key(*cell)}", ok,
                        f"pdf integral over support = {mass:.12f}"))
    ok = all(passed for _, passed, _ in entries)
    return ValidationReport(ok=ok, joint_residual=residual, entries=tuple(entries))


_GAUSS_LEGENDRE = 32  # nodes per piece; exact on polynomials of degree 63


def _pdf_mass(law) -> float:
    """The pdf's integral over _finite_bracket((law,)) by a Gauss-Legendre
    rule on each piece between the law's _knots. A Triangular piece is a
    line, which the rule integrates exactly, and a Normal piece is smooth
    and at most 6 sd wide."""
    knots = np.unique(_knots(law))
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_LEGENDRE)
    half = (knots[1:] - knots[:-1]) / 2.0
    mid = (knots[1:] + knots[:-1]) / 2.0
    pdf = law.pdf(mid[:, None] + half[:, None] * nodes)
    return float(np.sum(half * (pdf @ weights)))


# -- scenario file format -------------------------------------------------


def _read_payload(payload) -> tuple:
    """(report, model) for a scenario payload; model is None unless ok.

    Each field is read once, by the number rule in errors, and the model is
    built from those reads, so its constructor's checks (such as a group
    with zero mass) land in the same report as the field checks.
    """
    if not isinstance(payload, dict):
        entry = ("payload", False, "scenario payload must be a mapping")
        return ValidationReport(False, math.nan, (entry,)), None
    entries, cells = [], {"joint": {}, "dist": {}}
    residual = math.nan
    for name, read in (("joint", _number), ("dist", _dist_from_payload)):
        section = payload.get(name, {})
        if not isinstance(section, dict):
            entries.append((name, False, f"{name} must be a JSON object"))
            continue
        for cell in CELLS:
            key = f"{name}.{_cell_key(*cell)}"
            if _cell_key(*cell) not in section:
                entries.append((key, False, f"{key} missing"))
                continue
            try:
                cells[name][cell] = read(section[_cell_key(*cell)], key)
                entries.append((key, True, "ok"))
            except ValidationError as exc:
                entries.append((key, False, str(exc)))
    joint = cells["joint"]
    if len(joint) == len(CELLS):
        residual = abs(sum(joint.values()) - 1.0)
        entries.append(("joint_sum", residual <= 1e-12,
                        f"joint mass {sum(joint.values())!r} != 1"
                        if residual > 1e-12 else "joint mass ok"))
    model = None
    if all(passed for _, passed, _ in entries):
        try:
            model = GroupConditionalModel(joint, cells["dist"],
                                          str(payload.get("label", "")))
        except ValidationError as exc:
            entries.append(("model", False, str(exc)))
    return ValidationReport(model is not None, residual, tuple(entries)), model


_LAWS = {"normal": (Normal, ("mean", "stddev")),
         "triangular": (Triangular, ("lower", "upper", "mode"))}


def _fields(spec: dict, where: str, names) -> list:
    """spec's named fields as numbers, naming every missing or bad one."""
    values, problems = [], []
    for name in names:
        try:
            values.append(_number(spec[name], f"{where}.{name}"))
        except KeyError:
            problems.append(f"{where}: missing field {name!r}")
        except ValidationError as exc:
            problems.append(str(exc))
    if problems:
        raise ValidationError("; ".join(problems))
    return values


def _dist_from_payload(spec, where: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{where}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "mixture":
        parts = spec.get("components")
        if not isinstance(parts, list):
            raise ValidationError(f"{where}.components must be a JSON list")
        comps = []
        for i, part in enumerate(parts):
            at = f"{where}.components[{i}]"
            dist = _dist_from_payload(part, at)
            comps.append((*_fields(part, at, ("weight",)), dist))
        law, args = Mixture, (comps,)
    elif kind in _LAWS:
        law, names = _LAWS[kind]
        args = _fields(spec, where, names)
    else:
        raise ValidationError(f"{where}: unknown kind {kind!r}")
    try:
        return law(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _dist_to_payload(dist) -> dict:
    if isinstance(dist, Mixture):
        return {"kind": "mixture",
                "components": [{**_dist_to_payload(d), "weight": w}
                               for w, d in dist.components]}
    kind = "normal" if isinstance(dist, Normal) else "triangular"
    return {"kind": kind, **{name: getattr(dist, name)
                             for name in _LAWS[kind][1]}}


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
    report, model = _read_payload(payload)
    if model is None:
        raise ValidationError(f"{path}: " + "; ".join(report.problems))
    return model


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
