"""Command-line entry point: sweep scenarios, write CSV/SVG artifacts, and
print structured reports.

Everything written here is deterministic for a fixed config: floats are
formatted with 17 significant digits, rows keep sweep order, and the SVGs
carry no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import (GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal, fairness_optimal)
from .distributions import positive_mass
from .errors import (FairFrontierError, InputError, ResourceError,
                     ValidationError)
from .frontier import FamilySpec, _swept_frontier
from .metrics import (DECOMP_TOL, MetricWeights, Reference, accuracy,
                      confusion_rates, unfairness)
from .oracle import mc_estimate
from .population import PRESETS, _dist_to_payload, scenario
from .theorems import (_boundary_alignment_reports, _decomposition_report,
                       _overpursuit_report, check_accuracy_jump,
                       check_simultaneous_optimality)

ANALYSES = ("frontier", "decompose", "theorems")

_FAMILY_NAMES = {
    "shared-threshold": "shared_threshold",
    "shared_threshold": "shared_threshold",
    "per-group-threshold": "per_group_threshold",
    "per_group_threshold": "per_group_threshold",
    "per-group-intervals": "per_group_intervals",
    "per_group_intervals": "per_group_intervals",
}

_ORIENT_NAMES = {
    "above": "positive_above",
    "below": "positive_below",
    "both": "both",
    "positive_above": "positive_above",
    "positive_below": "positive_below",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; flags override config-file fields."""

    scenario: str
    family: FamilySpec
    weights: MetricWeights
    out: Path
    analyses: tuple = ("frontier",)

    def __post_init__(self):
        if not self.scenario:
            raise ValidationError("scenario is required")
        if not self.analyses:
            raise ValidationError("at least one analysis must be requested")
        unknown = [a for a in self.analyses if a not in ANALYSES]
        if unknown:
            raise ValidationError(
                f"unknown analyses {unknown}; choose from {list(ANALYSES)}")


@dataclass(frozen=True)
class SweepTable:
    """Columns of a shared-boundary sweep, for decomposition CSV and plots."""

    t: tuple
    fairness: tuple
    accuracy: tuple
    f_u: tuple
    f_du: tuple
    f_mu: tuple
    well_defined: tuple
    condition: tuple


# -- formatting ---------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt6(x) -> str:
    return f"{float(x):.6g}"


def _region_str(bounds) -> str:
    return ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in bounds)


def parse_region(text: str) -> tuple:
    """Inverse of the region column format: 'lo:hi;lo:hi' -> bound pairs."""
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        lo, _, hi = part.partition(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


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

SWEEP_COLUMNS = ("source", "tag", "region0", "region1", "t0", "t1",
                 "fairness", "accuracy", "f_u", "f_du", "f_mu", "well_defined")
FRONTIER_COLUMNS = ("fairness", "accuracy", "source", "tag", "region0",
                    "region1", "t0", "t1", "on_jump")
DECOMP_COLUMNS = ("t", "fairness", "accuracy", "f_u", "f_du", "f_mu",
                  "well_defined", "condition")


def _write_sweep_csv(model, candidates, w: MetricWeights, ref: Reference,
                     path: Path) -> None:
    star = ref.rates
    f_du = unfairness(star, w)
    cache = {}

    def group_stats(a: int, bounds) -> tuple:
        key = (a, bounds)
        hit = cache.get(key)
        if hit is None:
            region = IntervalSet(bounds)
            tpr = positive_mass(model.conditional[(a, 1)], region)
            tnr = 1.0 - positive_mass(model.conditional[(a, 0)], region)
            hit = cache[key] = (tpr, tnr, ref.mismatch(region))
        return hit

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for p in candidates:
            source, tag, b0, b1 = p.params
            tpr0, tnr0, m0 = group_stats(0, b0)
            tpr1, tnr1, m1 = group_stats(1, b1)
            f_mu = (w.omega1 * abs((tpr0 - star.tpr[0]) - (tpr1 - star.tpr[1]))
                    + w.omega2 * abs((tnr0 - star.tnr[0])
                                     - (tnr1 - star.tnr[1])))
            writer.writerow((
                source, tag, _region_str(b0), _region_str(b1),
                _ray_threshold(b0), _ray_threshold(b1),
                _fmt(p.fairness), _fmt(p.accuracy), _fmt(1.0 - p.fairness),
                _fmt(f_du), _fmt(f_mu),
                _bool_str(m0 + m1 <= DECOMP_TOL),
            ))


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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FRONTIER_COLUMNS)
        for i, p in enumerate(frontier.points):
            source, tag, b0, b1 = p.params
            writer.writerow((
                _fmt(p.fairness), _fmt(p.accuracy), source, tag,
                _region_str(b0), _region_str(b1),
                _ray_threshold(b0), _ray_threshold(b1),
                _bool_str(i in on_jump),
            ))


def _decomposition_table(model, family: FamilySpec, w: MetricWeights,
                         ref: Reference) -> SweepTable:
    """Decompose unfairness along a shared-boundary sweep.

    Non-threshold families fall back to an ascending-positive boundary sweep
    at the family's resolution and range, since the decomposition curves are
    functions of a single boundary.
    """
    orient = "positive_above"
    if family.kind == "shared_threshold" and family.orientations[0] != "both":
        orient = family.orientations[0]
    lo, hi = family.sweep_range or model.quantile_range(0.9999)
    grid = np.linspace(lo, hi, family.resolution)
    cols = {name: [] for name in DECOMP_COLUMNS}
    for t in grid:
        clf = GroupwiseClassifier.shared_threshold(
            float(t), positive_above=orient == "positive_above")
        d = ref.decompose(model, clf, w)
        cols["t"].append(float(t))
        cols["fairness"].append(1.0 - d.f_u)
        cols["accuracy"].append(accuracy(model, clf, w))
        cols["f_u"].append(d.f_u)
        cols["f_du"].append(d.f_du)
        cols["f_mu"].append(d.f_mu)
        cols["well_defined"].append(ref.well_defined(clf))
        cols["condition"].append(d.condition_met or "")
    return SweepTable(**{k: tuple(v) for k, v in cols.items()})


def _write_decomposition_csv(table: SweepTable, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DECOMP_COLUMNS)
        for i in range(len(table.t)):
            writer.writerow((
                _fmt(table.t[i]), _fmt(table.fairness[i]),
                _fmt(table.accuracy[i]), _fmt(table.f_u[i]),
                _fmt(table.f_du[i]), _fmt(table.f_mu[i]),
                _bool_str(table.well_defined[i]), table.condition[i],
            ))


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
        xv = xlo + i * (xhi - xlo) / 4
        px = _fmt6(sx(xv))
        parts.append(f'<line x1="{px}" y1="{_H - _MB}" x2="{px}"'
                     f' y2="{_H - _MB + 4}" stroke="#333333"/>')
        parts.append(f'<text x="{px}" y="{_H - _MB + 17}"'
                     f' text-anchor="middle">{_fmt6(xv)}</text>')
        yv = ylo + i * (yhi - ylo) / 4
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
        if not isinstance(series, SweepTable) or not series.t:
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
    if isinstance(value, bool):
        return _bool_str(value)
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


def _theorems_text(model, cfg: RunConfig, ref: Reference,
                   frontier=None) -> str:
    w = cfg.weights
    shared_opt = bayes_accuracy_optimal(model, "overall")
    located, indicated = _boundary_alignment_reports(
        model, ref, ("boundary_location", "strict_indicator"))
    sections = [
        ("shared-optimum necessary conditions",
         check_simultaneous_optimality(model, shared_opt)),
        ("accuracy ceiling under fairness over-pursuit",
         _overpursuit_report(model, ref, fairness_optimal(model), w)),
        ("unfairness decomposition at the shared accuracy optimum",
         _decomposition_report(model, ref, shared_opt, w)),
        ("unfairness decomposition at the per-group accuracy optimum",
         _decomposition_report(model, ref, ref.optima, w)),
        ("boundary alignment, matching boundary points", located),
        ("boundary alignment, matching indicators", indicated),
    ]
    if frontier is None:
        frontier = _swept_frontier(model, cfg.family, w)[1]
    sections.append(("frontier accuracy-jump conditions",
                     check_accuracy_jump(model, frontier)))
    head = (f"scenario: {cfg.scenario}\n"
            f"weights: omega1={_fmt(w.omega1)} omega2={_fmt(w.omega2)}"
            f" p1={_fmt(w.p1)} p2={_fmt(w.p2)}\n")
    return head + "\n" + "\n".join(_render_report(t, r) for t, r in sections)


# -- config assembly ----------------------------------------------------------


def _family_kind(token: str) -> str:
    try:
        return _FAMILY_NAMES[token]
    except KeyError:
        raise ValidationError(
            f"unknown family {token!r}; choose from "
            "shared-threshold, per-group-threshold, per-group-intervals")


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


def _load_config(args, default_analyses=("frontier",),
                 require_out: bool = True) -> RunConfig:
    payload = _read_config_file(args.config) if getattr(args, "config",
                                                        None) else {}
    fam = payload.get("family", {}) or {}
    wts = payload.get("weights", {}) or {}

    def pick(flag, fallback, default=None):
        return flag if flag is not None else (
            fallback if fallback is not None else default)

    scenario_id = pick(args.scenario, payload.get("scenario"))
    if not scenario_id:
        raise ValidationError("scenario is required (--scenario or config)")

    kind = _family_kind(pick(args.family, fam.get("kind"), "shared-threshold"))
    orientations = _orientations(
        pick(args.orientations, fam.get("orientations"), "above"))
    sweep_range = pick(args.range, fam.get("range"))
    family = FamilySpec(
        kind=kind,
        orientations=orientations,
        resolution=pick(args.resolution, fam.get("resolution"), 801),
        sweep_range=tuple(sweep_range) if sweep_range is not None else None,
        k=pick(args.k, fam.get("k"), 2),
    )
    weights = MetricWeights(
        omega1=pick(args.omega1, wts.get("omega1"), 0.5),
        omega2=pick(args.omega2, wts.get("omega2"), 0.5),
        p1=pick(args.p1, wts.get("p1"), 1.0),
        p2=pick(args.p2, wts.get("p2"), 1.0),
    )

    requested = tuple(a for a in ANALYSES
                      if getattr(args, a.replace("-", "_"), False))
    analyses = requested or tuple(payload.get("analyses", ())) \
        or tuple(default_analyses)

    out = pick(getattr(args, "out", None), payload.get("out"))
    if out is None:
        if require_out:
            raise ValidationError(
                "output directory is required (--out or config \"out\")")
        out = "."
    return RunConfig(
        scenario=str(scenario_id),
        family=family,
        weights=weights,
        out=Path(out),
        analyses=analyses,
    )


# -- subcommands --------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    model = scenario(cfg.scenario)
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory: {exc}")
    print(f"scenario {cfg.scenario}"
          + (f" ({model.label})" if model.label else ""))
    ref = Reference.of(model)

    frontier = None
    if "frontier" in cfg.analyses:
        candidates, frontier = _swept_frontier(model, cfg.family,
                                               cfg.weights)
        print(f"swept {len(candidates)} candidates"
              f" ({cfg.family.kind}, resolution {cfg.family.resolution})")
        _write_sweep_csv(model, candidates, cfg.weights, ref,
                         cfg.out / "sweep.csv")
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
        table = _decomposition_table(model, cfg.family, cfg.weights, ref)
        _write_decomposition_csv(table, cfg.out / "decomposition.csv")
        emit_plot(table, "sweep_curve", cfg.out / "sweep.svg")
        emit_plot(table, "decomposition_curve", cfg.out / "decomposition.svg")
        spread = max(table.f_du) - min(table.f_du)
        print(f"decomposition over {len(table.t)} boundaries:"
              f" f_du={_fmt6(table.f_du[0])} (spread {_fmt6(spread)})")
        print("wrote decomposition.csv, sweep.svg, decomposition.svg")

    if "theorems" in cfg.analyses:
        text = _theorems_text(model, cfg, ref, frontier)
        (cfg.out / "theorems.txt").write_text(text)
        print("wrote theorems.txt")
    return 0


def _cmd_scenarios(args) -> int:
    for name, builder in PRESETS.items():
        model = builder()
        cells = " ".join(
            f"a{a}y{y}={_fmt6(model.joint[(a, y)])}:"
            f"{_describe(model.conditional[(a, y)])}"
            for a in (0, 1) for y in (0, 1))
        label = f" ({model.label})" if model.label else ""
        print(f"{name}{label}\n  {cells}")
    return 0


def _describe(dist) -> str:
    return _describe_payload(_dist_to_payload(dist))


def _describe_payload(payload: dict) -> str:
    payload = dict(payload)
    kind = payload.pop("kind")
    if kind == "mixture":
        inner = ",".join(
            f"{_fmt6(c['weight'])}*"
            + _describe_payload({k: v for k, v in c.items() if k != "weight"})
            for c in payload["components"])
        return f"mixture({inner})"
    body = ",".join(f"{k}={_fmt6(v)}" for k, v in payload.items())
    return f"{kind}({body})"


def _cmd_check(args) -> int:
    cfg = _load_config(args, default_analyses=("theorems",),
                       require_out=False)
    model = scenario(cfg.scenario)
    text = _theorems_text(model, cfg, Reference.of(model))
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "theorems.txt").write_text(text)
    return 0


def _cmd_oracle(args) -> int:
    model = scenario(args.scenario)
    w = MetricWeights()
    lo, hi = model.quantile_range(0.9999)
    t = args.threshold if args.threshold is not None else 0.5 * (lo + hi)
    subjects = (
        (f"threshold {_fmt6(t)}",
         GroupwiseClassifier.shared_threshold(float(t))),
        ("accuracy optimum", bayes_accuracy_optimal(model, "overall")),
        ("fairness optimum", fairness_optimal(model)),
    )
    failures = 0
    for i, (name, clf) in enumerate(subjects):
        rates = confusion_rates(model, clf)
        analytic = {
            "tpr0": rates.tpr[0], "tpr1": rates.tpr[1],
            "tnr0": rates.tnr[0], "tnr1": rates.tnr[1],
            "f_u": unfairness(rates, w), "acc": accuracy(model, clf, w),
        }
        est = mc_estimate(model, clf, w, n=args.n, seed=args.seed + i)
        sampled = {
            "tpr0": est.tpr[0], "tpr1": est.tpr[1],
            "tnr0": est.tnr[0], "tnr1": est.tnr[1],
            "f_u": est.f_u, "acc": est.acc,
        }
        for key, value in analytic.items():
            e = sampled[key]
            if e.unreliable:
                print(f"{name} {key}: SKIP (no samples)")
                continue
            gap = abs(value - e.value)
            ok = gap <= 3.0 * e.stderr + 1e-12
            failures += 0 if ok else 1
            print(f"{name} {key}: analytic={value:.6f} mc={e.value:.6f}"
                  f" stderr={e.stderr:.3e} {'PASS' if ok else 'FAIL'}")
    print(f"{'all agree' if failures == 0 else f'{failures} disagreements'}"
          f" at 3 standard errors (n={args.n})")
    return 0 if failures == 0 else 1


# -- parser -------------------------------------------------------------------


def _add_config_flags(sub, with_out: bool = True) -> None:
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
    if with_out:
        sub.add_argument("--out", help="output directory")


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
    _add_config_flags(check, with_out=False)
    check.add_argument("--out", help="also write theorems.txt here")
    check.set_defaults(func=_cmd_check)

    oracle = subs.add_parser("oracle",
                             help="compare analytic metrics against"
                                  " Monte-Carlo estimates")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--n", type=lambda s: int(float(s)),
                        default=1_000_000)
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


if __name__ == "__main__":
    sys.exit(main())
