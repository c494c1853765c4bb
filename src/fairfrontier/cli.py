"""Command-line entry point: sweep scenarios, write CSV/SVG artifacts, and
print structured reports.

Everything written here is deterministic for a fixed config: floats are
formatted with 17 significant digits, rows keep sweep order, and the SVGs
carry no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal, fairness_optimal)
from .errors import (FairFrontierError, InputError, ResourceError,
                     ValidationError, _number, _whole)
from .frontier import (KINDS, ORIENTS, FamilySpec, _block_len, _capped,
                       _candidate_count, _grid, _members, _sweep_range,
                       build_frontier, classify_shape, pareto_filter, sweep)
from .metrics import (MetricWeights, Reference, _gap, _group_rates, _hits,
                      _split, confusion_rates, unfairness)
from .oracle import mc_estimate
from .population import PRESETS, _dist_to_payload, scenario
from .theorems import (check_accuracy_jump, check_boundary_alignment,
                       check_decomposition_bound,
                       check_simultaneous_optimality,
                       overpursuit_accuracy_bound)

ANALYSES = ("frontier", "decompose", "theorems")

_FAMILY_NAMES = {name: kind for kind in KINDS
                 for name in (kind, kind.replace("_", "-"))}
_ORIENT_NAMES = {name: orient for orient in ORIENTS
                 for name in (orient, orient.removeprefix("positive_"))}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; flags override config-file fields."""

    scenario: str
    family: FamilySpec
    weights: MetricWeights
    out: Optional[Path]
    analyses: tuple = ("frontier",)

    def __post_init__(self):
        unknown = [a for a in self.analyses if a not in ANALYSES]
        if unknown:
            raise ValidationError(
                f"unknown analyses {unknown}; choose from {list(ANALYSES)}")


# -- formatting ---------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt6(x) -> str:
    return f"{float(x):.6g}"


def _region_str(bounds) -> str:
    return ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in bounds)


def _ray_threshold(bounds) -> str:
    if len(bounds) != 1:
        return ""
    lo, hi = bounds[0]
    if lo == -math.inf and hi != math.inf:
        return _fmt(hi)
    if hi == math.inf and lo != -math.inf:
        return _fmt(lo)
    return ""


def _bool_str(flag) -> str:
    return "true" if flag else "false"


# -- CSV writers --------------------------------------------------------------
# No field holds a comma, a quote or a newline, so rows are joined as they are.

SWEEP_COLUMNS = ("source", "tag", "region0", "region1", "t0", "t1",
                 "fairness", "accuracy", "f_u", "f_du", "f_mu", "well_defined")
FRONTIER_COLUMNS = ("fairness", "accuracy", "source", "tag", "region0",
                    "region1", "t0", "t1", "on_jump")
DECOMP_COLUMNS = ("t", "fairness", "accuracy", "f_u", "f_du", "f_mu",
                  "well_defined", "condition")
# the columns of a shared-boundary sweep, for decomposition.csv and plots
SweepTable = namedtuple("SweepTable", DECOMP_COLUMNS)
_WRITE_BATCH = 32_768  # sweep.csv rows gathered and formatted at a time


def _measurer(model):
    """measure(a, regions): group a's (text, ray, tpr, tnr, mismatch) columns
    against the kept Reference; each region measured once, rates per group."""
    ref = model._solved(Reference.of)
    shared = cache(lambda bounds: (_region_str(bounds), _ray_threshold(bounds),
                                   ref.mismatch(IntervalSet(bounds))))
    rates = cache(lambda a, b: _group_rates(model, a, IntervalSet(b)))

    def measure(a: int, regions: list) -> tuple:
        text, ray, mismatch = zip(*map(shared, regions))
        tpr, tnr = zip(*(rates(a, bounds) for bounds in regions))
        return text, ray, np.array(tpr), np.array(tnr), np.array(mismatch)

    return measure


def _write_sweep_csv(model, candidates, w: MetricWeights, path: Path) -> None:
    """One row per candidate, block by block: each distinct region measured
    once against the model's kept Reference, and formatted once."""
    ref = model._solved(Reference.of)
    measure = _measurer(model)
    f_du = _fmt(unfairness(ref.rates, w))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        start = 0
        for block in candidates.blocks:
            source, tag, regions0, regions1, _ = block
            count = _block_len(block)
            if count:
                text0, ray0, *group0 = measure(0, list(regions0))
                text1, ray1, *group1 = measure(1, list(regions1))
            for lo in range(0, count, _WRITE_BATCH):
                k = np.arange(lo, min(lo + _WRITE_BATCH, count))
                i0, i1 = _members(block, k)
                tpr0, tnr0, m0 = (column[i0] for column in group0)
                tpr1, tnr1, m1 = (column[i1] for column in group1)
                f_mu, defined = _split(w, ref.rates, tpr0, tpr1, tnr0, tnr1,
                                       m0, m1)
                fh.writelines(
                    f"{source},{tag},{text0[r0]},{text1[r1]},{ray0[r0]},"
                    f"{ray1[r1]},{fair:.17g},{acc:.17g},{1.0 - fair:.17g},"
                    f"{f_du},{mu:.17g},{ok}\n"
                    for r0, r1, fair, acc, mu, ok in zip(
                        i0.tolist(), i1.tolist(),
                        candidates.fairness[start + k].tolist(),
                        candidates.accuracy[start + k].tolist(), f_mu.tolist(),
                        np.where(defined, "true", "false").tolist()))
            start += count


def _write_frontier_csv(frontier, family: FamilySpec, path: Path) -> None:
    on_jump = set()
    for j in frontier.jumps:
        on_jump.update((j.index, j.index + 1))
    lo, hi = frontier.sweep_range
    with open(path, "w", newline="") as fh:
        fh.write(f"# family kind={family.kind}"
                 f" orientations={'|'.join(family.orientations)}"
                 f" resolution={family.resolution}"
                 f" range={_fmt(lo)}:{_fmt(hi)} k={family.k}\n")
        fh.write(f"# shape={frontier.shape}\n")
        for j in frontier.jumps:
            fh.write(f"# jump kind={j.kind} fairness={_fmt(j.fairness_at)}"
                     f" drop={_fmt(j.accuracy_drop)} index={j.index}\n")
        for note in frontier.diagnostics:
            fh.write(f"# note {note}\n")
        fh.write(",".join(FRONTIER_COLUMNS) + "\n")
        for i, p in enumerate(frontier.points):
            source, tag, b0, b1 = p.params
            fh.write(",".join((
                _fmt(p.fairness), _fmt(p.accuracy), source, tag,
                _region_str(b0), _region_str(b1),
                _ray_threshold(b0), _ray_threshold(b1),
                _bool_str(i in on_jump),
            )) + "\n")


def _decomposition_table(model, family: FamilySpec,
                         w: MetricWeights) -> SweepTable:
    """Decompose unfairness along a shared-boundary sweep, column by column.

    Non-threshold families fall back to an ascending-positive boundary sweep
    at the family's resolution and range, since the decomposition curves are
    functions of a single boundary.
    """
    above = family.orientations != ("positive_below",)  # per group: 2 slots
    t = _grid(model, family)[1].tolist()
    # each boundary's shared_threshold region, which both groups take
    regions = [((x, math.inf),) if above else ((-math.inf, x),) for x in t]
    ref = model._solved(Reference.of)
    measure = _measurer(model)
    *_, tpr0, tnr0, m = measure(0, regions)
    *_, tpr1, tnr1, _ = measure(1, regions)
    f_u = _gap(w, tpr0, tpr1, tnr0, tnr1)
    f_mu, defined = _split(w, ref.rates, tpr0, tpr1, tnr0, tnr1, m, m)
    columns = (1.0 - f_u, _hits(model, w, tpr0, tpr1, tnr0, tnr1), f_u,
               np.full(len(t), unfairness(ref.rates, w)), f_mu, defined,
               np.where(defined, ref.pattern or "", ""))
    return SweepTable(t, *(column.tolist() for column in columns))


def _write_decomposition_csv(table: SweepTable, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(DECOMP_COLUMNS) + "\n")
        for *values, ok, condition in zip(*table):
            fh.write(",".join([*map(_fmt, values), _bool_str(ok), condition])
                     + "\n")


# -- SVG plots ----------------------------------------------------------------

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 18, 28, 46

_ACC_COLOR = "#1f77b4"
_UNFAIR_COLOR = "#d62728"
_MODEL_COLOR = "#ff7f0e"
_DATA_COLOR = "#7f7f7f"
_ACC_OPT_COLOR = "#2ca02c"
_FAIR_OPT_COLOR = "#000000"


def _axis_range(values) -> tuple:
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    if not math.isfinite((hi + pad) - (lo - pad)):  # near the float limit
        return lo, hi
    return lo - pad, hi + pad


def _plot_svg(title, xlabel, curves, verticals) -> str:
    """Fixed-size SVG scatter of labelled polylines plus dashed verticals.

    curves: (label, color, xs, ys) tuples; verticals: (label, color, x).
    Coordinates use 6 significant digits so output is byte-stable.
    """
    xs_all = [x for _, _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, _, ys in curves for y in ys]
    xlo, xhi = _axis_range(xs_all)
    ylo, yhi = _axis_range(ys_all)

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}"'
        f' viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        '<g font-family="DejaVu Sans Mono, monospace" font-size="11"'
        ' fill="#333333">',
        f'<text x="{_ML}" y="16">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}"'
        ' stroke="#333333"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}"'
        ' stroke="#333333"/>',
    ]
    for i in range(5):
        xv = xlo + (xhi - xlo) * (i / 4)
        px = _fmt6(sx(xv))
        parts.append(f'<line x1="{px}" y1="{_H - _MB}" x2="{px}"'
                     f' y2="{_H - _MB + 4}" stroke="#333333"/>')
        parts.append(f'<text x="{px}" y="{_H - _MB + 17}"'
                     f' text-anchor="middle">{_fmt6(xv)}</text>')
        yv = ylo + (yhi - ylo) * (i / 4)
        py = _fmt6(sy(yv))
        parts.append(f'<line x1="{_ML - 4}" y1="{py}" x2="{_ML}" y2="{py}"'
                     ' stroke="#333333"/>')
        parts.append(f'<text x="{_ML - 7}" y="{py}" text-anchor="end"'
                     f' dy="3.5">{_fmt6(yv)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}"'
                 f' text-anchor="middle">{xlabel}</text>')

    for label, color, x in verticals:
        px = _fmt6(sx(x))
        parts.append(f'<line x1="{px}" y1="{_MT}" x2="{px}" y2="{_H - _MB}"'
                     f' stroke="{color}" stroke-dasharray="5 4"/>')
    for label, color, xs, ys in curves:
        pts = " ".join(f"{_fmt6(sx(x))},{_fmt6(sy(y))}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}"'
                     f' stroke-width="1.5" points="{pts}"/>')
        if len(xs) <= 64:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{_fmt6(sx(x))}"'
                             f' cy="{_fmt6(sy(y))}" r="2" fill="{color}"/>')

    ly = _MT + 6
    for label, color, *_ in list(curves) + list(verticals):
        lx = _W - _MR - 150
        dash = ' stroke-dasharray="5 4"' if (label, color) in [
            (v[0], v[1]) for v in verticals] else ""
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}"'
                     f' stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" dy="3.5">{label}</text>')
        ly += 15
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(series, kind: str, path) -> None:
    """Render one figure to a standalone SVG file.

    frontier_curve puts fairness on the x-axis; the sweep and decomposition
    curves use the boundary position. Dashed verticals mark the
    accuracy-optimal and fairness-optimal members of the series.
    """
    if kind == "frontier_curve":
        points = getattr(series, "points", series)
        if not points:
            raise InputError("nothing to plot: empty frontier")
        xs = [p.fairness for p in points]
        ys = [p.accuracy for p in points]
        best_acc = max(range(len(points)), key=lambda i: ys[i])
        body = _plot_svg(
            "accuracy over fairness (maximal classifiers)", "fairness",
            [("frontier", _ACC_COLOR, xs, ys)],
            [("accuracy optimum", _ACC_OPT_COLOR, xs[best_acc]),
             ("fairness optimum", _FAIR_OPT_COLOR, xs[-1])])
    elif kind in ("sweep_curve", "decomposition_curve"):
        if not isinstance(series, SweepTable) or not len(series.t):
            raise InputError("nothing to plot: empty sweep")
        i_acc = int(np.argmax(series.accuracy))
        i_fair = int(np.argmin(series.f_u))
        verticals = [
            ("accuracy optimum", _ACC_OPT_COLOR, series.t[i_acc]),
            ("fairness optimum", _FAIR_OPT_COLOR, series.t[i_fair]),
        ]
        if kind == "sweep_curve":
            curves = [("accuracy", _ACC_COLOR, series.t, series.accuracy),
                      ("unfairness", _UNFAIR_COLOR, series.t, series.f_u)]
            title = "accuracy and unfairness over the boundary"
        else:
            curves = [("total unfairness", _UNFAIR_COLOR, series.t,
                       series.f_u),
                      ("model part", _MODEL_COLOR, series.t, series.f_mu),
                      ("data part", _DATA_COLOR, series.t, series.f_du)]
            title = "unfairness decomposition over the boundary"
        body = _plot_svg(title, "decision boundary", curves, verticals)
    else:
        raise InputError(f"unknown plot kind {kind!r}")
    with open(path, "w", newline="") as fh:
        fh.write(body)


# -- theorem report rendering -------------------------------------------------


def _measured_str(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_measured_str(v) for v in value) + ")"
    return str(value)


def _render_report(title: str, report) -> str:
    lines = [f"== {title} ==", f"claim: {report.claim}"]
    for c in report.conditions:
        mark = "ok" if c.satisfied else "unmet"
        lines.append(f"  [{mark}] {c.name}")
        for key, value in c.measured.items():
            lines.append(f"        {key} = {_measured_str(value)}")
    lines.append("conclusion as claimed: "
                 f"{_bool_str(report.conclusion_checked)}"
                 f" (tolerance {report.tolerance:g})")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _theorems_text(model, cfg: RunConfig, frontier=None) -> str:
    w = cfg.weights
    shared_opt = model._solved(bayes_accuracy_optimal, "overall")
    sections = [
        ("shared-optimum necessary conditions",
         check_simultaneous_optimality(model, shared_opt)),
        ("accuracy ceiling under fairness over-pursuit",
         overpursuit_accuracy_bound(model, fairness_optimal(model), w)),
        ("unfairness decomposition at the shared accuracy optimum",
         check_decomposition_bound(model, shared_opt, w)),
        ("unfairness decomposition at the per-group accuracy optimum",
         check_decomposition_bound(
             model, model._solved(bayes_accuracy_optimal, "per_group"), w)),
        ("boundary alignment, matching boundary points",
         check_boundary_alignment(model, "boundary_location", w=w)),
        ("boundary alignment, matching indicators",
         check_boundary_alignment(model, "strict_indicator", w=w)),
    ]
    if frontier is None:
        frontier = build_frontier(model, cfg.family, w)
    sections.append(("frontier accuracy-jump conditions",
                     check_accuracy_jump(model, frontier)))
    head = (f"scenario: {cfg.scenario}\n"
            f"weights: omega1={_fmt(w.omega1)} omega2={_fmt(w.omega2)}"
            f" p1={_fmt(w.p1)} p2={_fmt(w.p2)}\n")
    return head + "\n" + "\n".join(_render_report(t, r) for t, r in sections)


# -- config assembly ----------------------------------------------------------


def _family_kind(token) -> str:
    if isinstance(token, str) and token in _FAMILY_NAMES:
        return _FAMILY_NAMES[token]
    raise ValidationError(
        f"unknown family {token!r}; choose from "
        + ", ".join(k.replace("_", "-") for k in KINDS))


def _orientations(token) -> object:
    if isinstance(token, (list, tuple)):
        parts = [str(p) for p in token]
    else:
        parts = str(token).split(",")
    try:
        mapped = [_ORIENT_NAMES[p.strip()] for p in parts]
    except KeyError as exc:
        raise ValidationError(
            f"unknown orientation {exc.args[0]!r}; use above, below, or both")
    return mapped[0] if len(mapped) == 1 else tuple(mapped)


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}")
    if not isinstance(payload, dict):
        raise ValidationError("config file must hold a JSON object")
    if "seed" in payload:
        raise ValidationError(
            "config key \"seed\" is not used: every analysis is exact;"
            " remove it")
    return payload


def _config_section(payload: dict, key: str) -> dict:
    section = payload.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValidationError(f"config \"{key}\" must be a JSON object")
    return section


# config key: (flag, keyword argument, reader) of each family field
_FAMILY_FIELDS = {
    "kind": ("family", "kind", _family_kind),
    "orientations": ("orientations", "orientations", _orientations),
    "resolution": ("resolution", "resolution",
                   lambda v: _whole(v, "resolution")),
    "range": ("range", "sweep_range", _sweep_range),
    "k": ("k", "k", lambda v: _whole(v, "k")),
}
_WEIGHT_FIELDS = {name: (name, name, lambda v, name=name: _number(v, name))
                  for name in ("omega1", "omega2", "p1", "p2")}


def _merged(args, section: dict, fields: dict) -> dict:
    """Keyword arguments of one config section: each config value read with
    its field's reader, then replaced by the flag given for it, if any.

    Each value is checked on its own, so a value that a flag overrides is
    still refused when malformed; rules across fields are left to the
    object built from the merged values.
    """
    kwargs = {}
    for key, (flag, name, read) in fields.items():
        for value in (section.get(key), getattr(args, flag)):
            if value is not None:
                kwargs[name] = read(value)
    return kwargs


def _load_config(args, default_analyses=("frontier",)) -> RunConfig:
    payload = _read_config_file(args.config) if args.config else {}
    fam, wts = (_config_section(payload, key) for key in ("family", "weights"))

    def pick(flag, fallback):
        return flag if flag is not None else fallback

    scenario_id = pick(args.scenario, payload.get("scenario"))
    if not scenario_id:
        raise ValidationError("scenario is required (--scenario or config)")

    family = FamilySpec(**{"kind": "shared_threshold",
                           **_merged(args, fam, _FAMILY_FIELDS)})
    weights = MetricWeights(**_merged(args, wts, _WEIGHT_FIELDS))

    requested = tuple(a for a in ANALYSES
                      if getattr(args, a.replace("-", "_"), False))
    listed = payload.get("analyses", [])
    if not isinstance(listed, list):
        raise ValidationError("config \"analyses\" must be a JSON list")
    analyses = requested or tuple(listed) or tuple(default_analyses)

    out = pick(args.out, payload.get("out"))
    if not isinstance(out, (str, type(None))):
        raise ValidationError("config \"out\" must be a path string")
    return RunConfig(
        scenario=str(scenario_id),
        family=family,
        weights=weights,
        out=None if out is None else Path(out),
        analyses=analyses,
    )


# -- subcommands --------------------------------------------------------------


def _out_dir(path: Path) -> Path:
    """path, made a directory; main reports any OSError writing output."""
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if cfg.out is None:
        raise ValidationError(
            "output directory is required (--out or config \"out\")")
    model = scenario(cfg.scenario)
    # refuse an oversized analysis before anything is made or printed; a
    # decomposition row is one candidate, so the cap bounds the resolution
    if {"frontier", "theorems"} & set(cfg.analyses):
        _capped(_candidate_count(cfg.family))
    if "decompose" in cfg.analyses:
        _capped(cfg.family.resolution)
    _out_dir(cfg.out)
    print(f"scenario {cfg.scenario}"
          + (f" ({model.label})" if model.label else ""))

    frontier = None
    if "frontier" in cfg.analyses:
        candidates = sweep(model, cfg.family, cfg.weights)
        frontier = classify_shape(pareto_filter(candidates, cfg.family))
        print(f"swept {len(candidates)} candidates"
              f" ({cfg.family.kind}, resolution {cfg.family.resolution})")
        _write_sweep_csv(model, candidates, cfg.weights, cfg.out / "sweep.csv")
        _write_frontier_csv(frontier, cfg.family, cfg.out / "frontier.csv")
        emit_plot(frontier, "frontier_curve", cfg.out / "frontier.svg")
        print(f"frontier: {len(frontier.points)} points,"
              f" shape={frontier.shape}")
        for j in frontier.jumps:
            print(f"  {j.kind} jump of {_fmt6(j.accuracy_drop)}"
                  f" at fairness {_fmt6(j.fairness_at)}")
        for note in frontier.diagnostics:
            print(f"  note: {note}")
        print("wrote sweep.csv, frontier.csv, frontier.svg")

    if "decompose" in cfg.analyses:
        table = _decomposition_table(model, cfg.family, cfg.weights)
        _write_decomposition_csv(table, cfg.out / "decomposition.csv")
        emit_plot(table, "sweep_curve", cfg.out / "sweep.svg")
        emit_plot(table, "decomposition_curve", cfg.out / "decomposition.svg")
        print(f"decomposition over {len(table.t)} boundaries:"
              f" f_du={_fmt6(table.f_du[0])}")
        print("wrote decomposition.csv, sweep.svg, decomposition.svg")

    if "theorems" in cfg.analyses:
        text = _theorems_text(model, cfg, frontier)
        (cfg.out / "theorems.txt").write_text(text)
        print("wrote theorems.txt")
    return 0


def _cmd_scenarios(args) -> int:
    for name, builder in PRESETS.items():
        model = builder()
        cells = " ".join(
            f"a{a}y{y}={_fmt6(model.joint[(a, y)])}:"
            f"{_describe(_dist_to_payload(model.conditional[(a, y)]))}"
            for a in (0, 1) for y in (0, 1))
        label = f" ({model.label})" if model.label else ""
        print(f"{name}{label}\n  {cells}")
    return 0


def _describe(payload: dict) -> str:
    body = ",".join(f"{k}={_fmt6(v)}" for k, v in payload.items()
                    if k != "kind")
    return f"{payload['kind']}({body})"


def _cmd_check(args) -> int:
    cfg = _load_config(args, default_analyses=("theorems",))
    model = scenario(cfg.scenario)
    _capped(_candidate_count(cfg.family))  # before any optimum is solved
    text = _theorems_text(model, cfg)
    sys.stdout.write(text)
    if cfg.out is not None:
        (_out_dir(cfg.out) / "theorems.txt").write_text(text)
    return 0


def _cmd_oracle(args) -> int:
    model = scenario(args.scenario)
    w = MetricWeights()
    lo, hi = model._solved(type(model).quantile_range, 0.9999)
    t = args.threshold if args.threshold is not None else 0.5 * (lo + hi)
    subjects = (
        (f"threshold {_fmt6(t)}",
         GroupwiseClassifier.shared_threshold(float(t))),
        ("accuracy optimum", model._solved(bayes_accuracy_optimal, "overall")),
        ("fairness optimum", fairness_optimal(model)),
    )
    failures = 0
    names = ("tpr0", "tpr1", "tnr0", "tnr1", "f_u", "acc")
    for i, (name, clf) in enumerate(subjects):
        rates = confusion_rates(model, clf)
        analytic = (*rates.tpr, *rates.tnr, unfairness(rates, w),
                    _hits(model, w, *rates.tpr, *rates.tnr))
        est = mc_estimate(model, clf, w, n=args.n, seed=args.seed + i)
        sampled = (*est.tpr, *est.tnr, est.f_u, est.acc)
        for key, value, e in zip(names, analytic, sampled):
            if e.unreliable:
                print(f"{name} {key}: SKIP (no samples)")
                continue
            # a rate is judged against the binomial standard error of the
            # analytic rate: the plug-in one is 0 when a cell's sample is
            # all 0s or all 1s, and would fail any rate short of exact
            stderr = (e.stderr if key in ("f_u", "acc")
                      else math.sqrt(value * (1.0 - value) / e.n))
            ok = abs(value - e.value) <= 3.0 * stderr + 1e-12
            failures += 0 if ok else 1
            print(f"{name} {key}: analytic={value:.6f} mc={e.value:.6f}"
                  f" stderr={e.stderr:.3e} {'PASS' if ok else 'FAIL'}")
    print(f"{'all agree' if failures == 0 else f'{failures} disagreements'}"
          f" at 3 standard errors (n={args.n})")
    return 0 if failures == 0 else 1


# -- parser -------------------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--scenario",
                     help="preset name or scenario file path")
    sub.add_argument("--config", help="JSON config file; flags take priority")
    sub.add_argument("--family",
                     help="shared-threshold, per-group-threshold,"
                          " or per-group-intervals")
    sub.add_argument("--orientations",
                     help="above, below, both, or a group0,group1 pair")
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    sub.add_argument("--k", type=int, help="positive-interval budget"
                                           " per group (interval family)")
    sub.add_argument("--omega1", type=float)
    sub.add_argument("--omega2", type=float)
    sub.add_argument("--p1", type=float)
    sub.add_argument("--p2", type=float)
    sub.add_argument("--out", help="output directory (check: also write"
                                   " theorems.txt there)")


def _sample_count(text: str) -> int:
    """--n as a whole number; float notation such as 2e5 is accepted."""
    try:
        return _whole(float(text), "--n")
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(
            f"invalid sample count: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfrontier",
        description="Sweep group-conditional scenarios and report"
                    " accuracy-fairness frontiers.")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="sweep a scenario and write artifacts")
    _add_config_flags(run)
    run.add_argument("--frontier", action="store_true",
                     help="sweep the family and write frontier artifacts")
    run.add_argument("--decompose", action="store_true",
                     help="write the unfairness decomposition artifacts")
    run.add_argument("--theorems", action="store_true",
                     help="write the theorem report")
    run.set_defaults(func=_cmd_run)

    scenarios = subs.add_parser("scenarios", help="list preset scenarios")
    scenarios.set_defaults(func=_cmd_scenarios)

    check = subs.add_parser("check", help="print the theorem report")
    _add_config_flags(check)
    check.set_defaults(func=_cmd_check)

    oracle = subs.add_parser("oracle",
                             help="compare analytic metrics against"
                                  " Monte-Carlo estimates")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--n", type=_sample_count, default=1_000_000)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--threshold", type=float,
                        help="shared boundary to test"
                             " (default: range midpoint)")
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FairFrontierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be made or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
