"""The traced run: spans around calls into each layer, and the per-layer
metrics derived from them.

Spans are recorded from the benchmark's own code around public calls into
the package (name, start, end, parent), kept in memory, and written out as
JSON lines when the run ends. Each metric is one layer call on the
workload's scenario and family; `theorems.boundary_alignment_s` and the
`cli.*` metrics always use the README command block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import time
from pathlib import Path

import numpy as np

import fairfrontier as ff

from workloads import README_CHECK, README_FAMILY, README_ORACLE, README_RUN
from workloads import no_span, run_cli

SCALAR_POINTS = 2000
ARRAY_POINTS = 1_000_000
CONFUSION_CALLS = 500
DECOMPOSE_BOUNDARIES = 201
MC_SAMPLES = 1_000_000

UNITS = {
    "frontier.sweep_s": "s",
    "frontier.sweep_candidates_per_s": "1/s",
    "frontier.sweep_candidates": "count",
    "frontier.pareto_survivors": "count",
    "frontier.pareto_survivor_ratio": "ratio",
    "frontier.sweep_rss_mb": "MB",
    "frontier.optima_s": "s",
    "frontier.pareto_s": "s",
    "frontier.shape_s": "s",
    "population.quantile_range_s": "s",
    "classifiers.bayes_per_group_s": "s",
    "classifiers.bayes_overall_s": "s",
    "classifiers.fairness_optimal_s": "s",
    "distributions.scalar_cdf_us": "us",
    "distributions.array_cdf_mpts_per_s": "Mpts/s",
    "metrics.confusion_rates_us": "us",
    "metrics.decompose_s": "s",
    "theorems.simultaneous_s": "s",
    "theorems.overpursuit_s": "s",
    "theorems.decomposition_bound_s": "s",
    "theorems.boundary_alignment_s": "s",
    "theorems.accuracy_jump_s": "s",
    "oracle.mc_samples_per_s": "1/s",
    "cli.run_frontier_s": "s",
    "cli.run_decompose_s": "s",
    "cli.run_theorems_s": "s",
    "cli.check_s": "s",
    "cli.oracle_s": "s",
    "cli.frontier_write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder; spans opened inside a span are its children."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn):
        """fn() inside a span: (its value, the span's seconds)."""
        with self.span(name) as rec:
            value = fn()
        return value, rec["end"] - rec["start"]

    def write(self, path: Path, t0: float) -> None:
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = (child.get(s["parent"], 0.0)
                                      + s["end"] - s["start"])
        with open(path, "w") as fh:
            for s in self.spans:
                dur = s["end"] - s["start"]
                fh.write(json.dumps({
                    "id": s["id"], "parent": s["parent"], "name": s["name"],
                    "start_s": s["start"] - t0, "end_s": s["end"] - t0,
                    "self_s": dur - child.get(s["id"], 0.0)}) + "\n")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_ratio(wl, tracer: Tracer) -> float:
    """Wall time of the small operation with spans over without them."""
    t = time.perf_counter()
    wl.small(no_span)
    plain = time.perf_counter() - t
    with tracer.span("trace.small_op") as rec:
        wl.small(tracer.span)
    return (rec["end"] - rec["start"]) / plain


def walk(wl, tracer: Tracer, out_dir: Path):
    """Call every layer once on the workload's inputs, each call in a span.

    Returns the per-layer metrics, the frontier of the workload's family
    for the workload's traced checks, and the problems found on the way.
    """
    timed = tracer.timed
    model = ff.scenario(wl.scenario)
    m = {}
    problems = []

    (lo, hi), m["population.quantile_range_s"] = timed(
        "population.quantile_range", lambda: model.quantile_range(0.9999))

    cells = [model.conditional[c] for c in ff.CELLS]
    xs = [float(x) for x in np.linspace(lo, hi, SCALAR_POINTS)]

    def scalar_cdf():
        for dist in cells:
            for x in xs:
                dist.cdf(x)

    _, t = timed("distributions.cdf.scalar", scalar_cdf)
    m["distributions.scalar_cdf_us"] = 1e6 * t / (len(cells) * len(xs))
    big = np.linspace(lo, hi, ARRAY_POINTS)
    _, t = timed("distributions.cdf.array",
                 lambda: [dist.cdf(big) for dist in cells])
    m["distributions.array_cdf_mpts_per_s"] = len(cells) * ARRAY_POINTS / t / 1e6
    del big

    per_group, m["classifiers.bayes_per_group_s"] = timed(
        "classifiers.bayes_accuracy_optimal.per_group",
        lambda: ff.bayes_accuracy_optimal(model, "per_group"))
    overall, m["classifiers.bayes_overall_s"] = timed(
        "classifiers.bayes_accuracy_optimal.overall",
        lambda: ff.bayes_accuracy_optimal(model, "overall"))
    fair, m["classifiers.fairness_optimal_s"] = timed(
        "classifiers.fairness_optimal", lambda: ff.fairness_optimal(model))

    def confusion():
        for _ in range(CONFUSION_CALLS):
            ff.confusion_rates(model, per_group)

    _, t = timed("metrics.confusion_rates", confusion)
    m["metrics.confusion_rates_us"] = 1e6 * t / CONFUSION_CALLS

    def decompose():
        for b in np.linspace(lo, hi, DECOMPOSE_BOUNDARIES):
            clf = ff.GroupwiseClassifier.shared_threshold(float(b))
            ff.decompose_unfairness(model, clf, reference=per_group)

    _, m["metrics.decompose_s"] = timed("metrics.decompose_unfairness",
                                        decompose)

    fam = wl.family
    candidates, t = timed("frontier.sweep", lambda: ff.sweep(model, fam))
    m["frontier.sweep_s"] = t
    m["frontier.sweep_rss_mb"] = _rss_mb()
    n = len(candidates)
    m["frontier.sweep_candidates"] = n
    m["frontier.sweep_candidates_per_s"] = n / t
    frontier, m["frontier.pareto_s"] = timed(
        "frontier.pareto_filter", lambda: ff.pareto_filter(candidates, fam))
    del candidates
    m["frontier.pareto_survivors"] = len(frontier.points)
    m["frontier.pareto_survivor_ratio"] = len(frontier.points) / n
    frontier = dataclasses.replace(
        frontier, sweep_range=tuple(float(v) for v in fam.sweep_range
                                    or (lo, hi)))
    frontier, m["frontier.shape_s"] = timed(
        "frontier.classify_shape", lambda: ff.classify_shape(frontier))
    optima_family = dataclasses.replace(fam, resolution=3)
    if optima_family == fam:
        m["frontier.optima_s"] = m["frontier.sweep_s"]
    else:
        _, m["frontier.optima_s"] = timed(
            "frontier.sweep.resolution3",
            lambda: ff.sweep(model, optima_family))

    _, m["theorems.simultaneous_s"] = timed(
        "theorems.check_simultaneous_optimality",
        lambda: ff.check_simultaneous_optimality(model, overall))
    _, m["theorems.overpursuit_s"] = timed(
        "theorems.overpursuit_accuracy_bound",
        lambda: ff.overpursuit_accuracy_bound(model, fair))
    _, m["theorems.decomposition_bound_s"] = timed(
        "theorems.check_decomposition_bound",
        lambda: ff.check_decomposition_bound(model, per_group))
    # on the scenario `fairfrontier check` runs in the README block: on
    # example4 this check costs as much as the optima sweep above, and the
    # traced run has room for only one of the two
    example3 = ff.scenario("example3")
    _, m["theorems.boundary_alignment_s"] = timed(
        "theorems.check_boundary_alignment",
        lambda: ff.check_boundary_alignment(example3))
    _, m["theorems.accuracy_jump_s"] = timed(
        "theorems.check_accuracy_jump",
        lambda: ff.check_accuracy_jump(model, frontier))

    _, t = timed("oracle.mc_estimate",
                 lambda: ff.mc_estimate(model, overall, n=MC_SAMPLES, seed=1))
    m["oracle.mc_samples_per_s"] = MC_SAMPLES / t

    m.update(_cli_layer(tracer, out_dir, problems))
    return m, frontier, problems


def _cli_layer(tracer: Tracer, out_dir: Path, problems: list) -> dict:
    """The README block split into one `run` per analysis flag."""
    m = {}
    base = tuple(a for a in README_RUN
                 if a not in ("--frontier", "--decompose", "--theorems"))
    written = 0
    for flag in ("frontier", "decompose", "theorems"):
        out = out_dir / f"cli-{flag}"
        (code, _), m[f"cli.run_{flag}_s"] = tracer.timed(
            f"cli.main.run.{flag}",
            lambda: run_cli(base + (f"--{flag}", "--out", str(out))))
        if code != 0:
            problems.append(f"run --{flag} exited {code}")
        written += sum(p.stat().st_size for p in out.iterdir())
    m["cli.bytes_written"] = written
    (code, _), m["cli.check_s"] = tracer.timed(
        "cli.main.check", lambda: run_cli(README_CHECK))
    if code != 0:
        problems.append(f"check exited {code}")
    (code, text), m["cli.oracle_s"] = tracer.timed(
        "cli.main.oracle", lambda: run_cli(README_ORACLE))
    if code != 0 or "all agree" not in text:
        problems.append(f"oracle exited {code}")
    # what `run --frontier` spends beyond computing the frontier: the
    # sweep.csv reference columns, frontier.csv and frontier.svg
    example1 = ff.scenario("example1")
    _, compute = tracer.timed(
        "cli.frontier_compute",
        lambda: ff.build_frontier(example1, README_FAMILY))
    m["cli.frontier_write_s"] = m["cli.run_frontier_s"] - compute
    return m
