"""The four workloads: one operation each, a warm-up, and output checks.

Inputs are fixed presets, so every seed gives the same inputs. Each class
exposes:

- `scenario`: the preset its set-up builds,
- `warm_up()`: one untimed operation before timing starts; returns the
  problems found in its output, if it is checked,
- `op()`: the timed operation; its result goes to `check`,
- `check(result)`: a list of problems, empty when the output is right,
- `small(span)`: the same operation on small inputs, with `span` wrapped
  around each call into the package; the traced run times it with and
  without spans to measure tracing overhead,
- `family`: the family the traced run's frontier pipeline sweeps,
- `check_traced(frontier)`: the checks that apply to the frontier the
  traced run builds from `family`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import shutil
from pathlib import Path

import fairfrontier as ff
from fairfrontier import cli
from fairfrontier.theorems import SEARCH_FAMILY

import reference as ref

README_RUN = ("run", "--scenario", "example1", "--frontier", "--decompose",
              "--theorems", "--family", "per-group-threshold",
              "--orientations", "both", "--resolution", "201",
              "--range", "-8", "12")
README_CHECK = ("check", "--scenario", "example3", "--resolution", "1001")
README_ORACLE = ("oracle", "--scenario", "example4_identical", "--n", "1e6",
                 "--seed", "1")
README_FAMILY = ff.FamilySpec("per_group_threshold", "both", 201,
                              sweep_range=(-8.0, 12.0))
RUN_FILES = {"sweep.csv", "frontier.csv", "frontier.svg", "decomposition.csv",
             "sweep.svg", "decomposition.svg", "theorems.txt"}


def no_span(name):
    return contextlib.nullcontext()


def _replace(argv: tuple, old: str, new: str) -> tuple:
    return tuple(new if a == old else a for a in argv)


def run_cli(argv) -> tuple:
    """cli.main in-process with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class _FrontierWorkload:
    scenario = "example1"

    def __init__(self, out_dir: Path):
        self.model = ff.scenario(self.scenario)

    def warm_up(self):
        self.small(no_span)
        return []

    def op(self):
        return ff.build_frontier(self.model, self.family)

    def small(self, span):
        with span("frontier.sweep"):
            candidates = ff.sweep(self.model, self.small_family)
        with span("frontier.pareto_filter"):
            frontier = ff.pareto_filter(candidates, self.small_family)
        with span("population.quantile_range"):
            lo, hi = self.model.quantile_range(0.9999)
        frontier = dataclasses.replace(frontier,
                                       sweep_range=(float(lo), float(hi)))
        with span("frontier.classify_shape"):
            return ff.classify_shape(frontier)

    def check_traced(self, frontier):
        return self.check(frontier)


class FrontierGrid(_FrontierWorkload):
    name = "frontier-grid"
    family = ff.FamilySpec("per_group_threshold", "both", 801)
    small_family = ff.FamilySpec("per_group_threshold", "both", 101)

    def check(self, frontier):
        pairs = [(p.fairness, p.accuracy) for p in frontier.points]
        return ref.frontier_problems(pairs, frontier.shape)


class FrontierIntervals(_FrontierWorkload):
    name = "frontier-intervals"
    family = ff.FamilySpec("per_group_intervals", "both", 13, k=2)
    small_family = ff.FamilySpec("per_group_intervals", "both", 5, k=2)

    def check(self, frontier):
        return ref.frontier_problems(
            [(p.fairness, p.accuracy) for p in frontier.points])


class BoundaryAlignment:
    name = "boundary-alignment"
    scenario = "example4_identical"
    # The operation's own sweep is SEARCH_FAMILY at resolution 9, and almost
    # all of its time is the appended fairness optimum. Running the traced
    # pipeline at resolution 3 makes it the same call as frontier.optima_s,
    # which keeps the traced run well inside its time limit.
    family = dataclasses.replace(SEARCH_FAMILY, resolution=3)

    def __init__(self, out_dir: Path):
        self.model = ff.scenario(self.scenario)
        self.small_model = ff.scenario("example1")

    def warm_up(self):
        self.small(no_span)
        return []

    def op(self):
        return ff.check_boundary_alignment(self.model)

    def small(self, span):
        with span("theorems.check_boundary_alignment"):
            return ff.check_boundary_alignment(self.small_model)

    def check_traced(self, frontier):
        # the traced run sweeps example4 at resolution 3: its most accurate
        # point is the per-group Bayes rule and its fairest is exactly fair
        out = []
        best = max(p.accuracy for p in frontier.points)
        if abs(best - ref.EXAMPLE4_ACCURACY) > 1e-9:
            out.append(f"best accuracy {best!r} != {ref.EXAMPLE4_ACCURACY!r}")
        if 1.0 - frontier.points[-1].fairness > 1e-9:
            out.append("fairest point is not exactly fair")
        return out

    def check(self, report):
        out = []
        if not report.conclusion_checked:
            out.append("conclusion_checked is false")
        out += [f"condition {c.name} unmet"
                for c in report.conditions if not c.satisfied]
        measured = {c.name: c.measured for c in report.conditions}
        search = measured.get("complete_fairness_at_optimal_accuracy", {})
        acc = search.get("optimal_accuracy", float("nan"))
        if not abs(acc - ref.EXAMPLE4_ACCURACY) <= 1e-9:
            out.append(f"optimal_accuracy {acc!r} != {ref.EXAMPLE4_ACCURACY!r}")
        if not search.get("best_candidate_f_u", 1.0) <= 1e-9:
            out.append("best_candidate_f_u above 1e-9")
        where = measured.get("boundary_location_match", {})
        for a in (0, 1):
            got = list(where.get(f"boundary_group{a}", ()))
            want = ref.EXAMPLE4_BOUNDARIES[a]
            if len(got) != 1 or abs(got[0] - want) > 1e-6:
                out.append(f"group {a} boundary {got} != [{want!r}]")
        return out


class ReadmeCli:
    name = "readme-cli"
    scenario = "example1"
    family = README_FAMILY

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.count = 0
        self.first = None

    def commands(self, out: Path, small: bool = False):
        run, check, oracle = README_RUN, README_CHECK, README_ORACLE
        if small:
            run = _replace(run, "201", "21")
            check = _replace(check, "1001", "21")
            oracle = _replace(oracle, "1e6", "1e4")
        return (("run", run + ("--out", str(out))),
                ("scenarios", ("scenarios",)),
                ("check", check),
                ("oracle", oracle))

    def _fresh(self) -> Path:
        self.count += 1
        return self.out_dir / f"op{self.count}"

    def warm_up(self):
        # the full block: the first in-process CLI run is the slowest, and
        # its artifacts are the reference for byte identity
        return self.check(self.op())

    def op(self):
        out = self._fresh()
        return out, {name: run_cli(argv) for name, argv in self.commands(out)}

    def small(self, span):
        out = self._fresh()
        for name, argv in self.commands(out, small=True):
            with span(f"cli.{name}"):
                run_cli(argv)
        shutil.rmtree(out, ignore_errors=True)

    def check_traced(self, frontier):
        pairs = [(p.fairness, p.accuracy) for p in frontier.points]
        return ref.frontier_problems(pairs, frontier.shape)

    def check(self, result):
        out_dir, runs = result
        try:
            return self._check(out_dir, runs)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, out_dir: Path, runs: dict):
        out = [f"{name} exited {code}" for name, (code, _) in runs.items()
               if code != 0]
        if "all agree" not in runs["oracle"][1]:
            out.append("oracle did not print 'all agree'")
        names = {p.name for p in out_dir.iterdir()}
        if names != RUN_FILES:
            return out + [f"run wrote {sorted(names)}"]
        with open(out_dir / "sweep.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != 4 * 201 ** 2 + 2:
            out.append(f"sweep.csv has {rows} rows")
        out += _frontier_csv_problems(out_dir / "frontier.csv")
        out += _decomposition_problems(out_dir / "decomposition.csv")
        digest = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                  for name in sorted(RUN_FILES)}
        digest.update({f"stdout:{name}": hashlib.sha256(text.encode()).hexdigest()
                       for name, (_, text) in runs.items()})
        if self.first is None:
            self.first = digest
        out += [f"{name} differs from the first operation's"
                for name in digest if digest[name] != self.first[name]]
        return out


def _frontier_csv_problems(path: Path):
    shape = None
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# shape="):
                shape = line.strip().split("=", 1)[1]
            elif not line.startswith("#"):
                body.append(line)
    pairs = [(float(r["fairness"]), float(r["accuracy"]))
             for r in csv.DictReader(body)]
    return ref.frontier_problems(pairs, shape)


def _decomposition_problems(path: Path):
    with open(path) as fh:
        rows = [{k: float(r[k]) for k in ("f_u", "f_du", "f_mu")}
                for r in csv.DictReader(fh)]
    f_du = [r["f_du"] for r in rows]
    out = []
    if max(f_du) - min(f_du) > 1e-12:
        out.append("f_du is not constant")
    if abs(f_du[0] - ref.F_DU) > 1e-9:
        out.append(f"f_du {f_du[0]!r} != {ref.F_DU!r}")
    if any(r["f_u"] > r["f_du"] + r["f_mu"] + 1e-9 for r in rows):
        out.append("a row has f_u > f_du + f_mu")
    return out


WORKLOADS = {w.name: w for w in (FrontierGrid, FrontierIntervals,
                                 BoundaryAlignment, ReadmeCli)}
