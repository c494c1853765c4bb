"""Write the CLI artifact matrix of this tree, the refactor oracle.

Run from any directory (needs the package's runtime only):

    python tests/artifact_matrix.py OUT_DIR

For each of the four presets and the scenario files of random_model(0) and
random_model(3) it runs ``run --frontier --decompose --theorems`` with the
per-group-threshold and the shared-threshold family (orientations both,
resolution 201), ``check --resolution 1001 --out``, and a weighted
``check --family per-group-threshold --orientations both --resolution 201``
under omega 0.3/0.7 and p 0.8/1.2, so that a result wrongly shared across
weights shows, and a weighted ``run --decompose --family shared-threshold
--orientations below --resolution 201`` under the same weights, so that
the decomposition's other orientation and weighted columns show. It keeps
each command's stdout and exit code next to its artifacts.
``run --frontier`` goes through the full sweep, so each scenario also
gets a ``bounded.txt``, written in-process, of the bounded sweep's
results: the ``repr`` of ``build_frontier`` for ``per_group_threshold``
(orientations both, resolution 201) and ``per_group_intervals`` (both,
resolution 7, k = 2), and ``check_boundary_alignment(model, mode).to_dict()``
for both modes. Paths are relative to OUT_DIR, so the matrices of two trees
compare with ``diff -r``, which then lists every artifact a change moved.
The package is imported from this tree's ``src``. pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fairfrontier import (PRESETS, FamilySpec, build_frontier,  # noqa: E402
                          check_boundary_alignment, scenario)
from fairfrontier.cli import main  # noqa: E402
from fairfrontier.population import write_scenario_file  # noqa: E402
from helpers import random_model  # noqa: E402

RANDOM_SEEDS = (0, 3)
FAMILIES = ("per-group-threshold", "shared-threshold")
BOUNDED_FAMILIES = (FamilySpec("per_group_threshold", "both", 201),
                    FamilySpec("per_group_intervals", "both", 7, k=2))
MODES = ("boundary_location", "strict_indicator")
WEIGHTS = ("--omega1", "0.3", "--omega2", "0.7", "--p1", "0.8", "--p2",
           "1.2")


def commands(scenarios):
    """(output directory, CLI arguments) of every command in the matrix."""
    for name, scenario in scenarios:
        for family in FAMILIES:
            out = f"{name}/run-{family}"
            yield out, ["run", "--scenario", scenario, "--family", family,
                        "--orientations", "both", "--resolution", "201",
                        "--frontier", "--decompose", "--theorems",
                        "--out", out]
        out = f"{name}/check"
        yield out, ["check", "--scenario", scenario, "--resolution", "1001",
                    "--out", out]
        out = f"{name}/check-weighted"
        yield out, ["check", "--scenario", scenario, "--family",
                    "per-group-threshold", "--orientations", "both",
                    "--resolution", "201", *WEIGHTS, "--out", out]
        out = f"{name}/decompose-below-weighted"
        yield out, ["run", "--scenario", scenario, "--decompose", "--family",
                    "shared-threshold", "--orientations", "below",
                    "--resolution", "201", *WEIGHTS, "--out", out]


def bounded_text(model) -> str:
    """The bounded sweep's frontiers and boundary-alignment reports."""
    return "".join(
        [f"{family}\n{build_frontier(model, family)!r}\n"
         for family in BOUNDED_FAMILIES]
        + [f"{mode}\n{check_boundary_alignment(model, mode).to_dict()!r}\n"
           for mode in MODES])


def main_matrix(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    scenarios = [(name, name) for name in PRESETS]
    models = {name: scenario(name) for name in PRESETS}
    Path("scenarios").mkdir(exist_ok=True)
    for seed in RANDOM_SEEDS:
        path = f"scenarios/random_model_{seed}.json"
        write_scenario_file(random_model(seed), path)
        scenarios.append((f"random_model_{seed}", path))
        models[f"random_model_{seed}"] = random_model(seed)
    for name, model in models.items():
        Path(name).mkdir(exist_ok=True)
        Path(name, "bounded.txt").write_text(bounded_text(model))
        print(f"{name}/bounded.txt", file=sys.stderr)
    for out, argv in commands(scenarios):
        Path(out).mkdir(parents=True, exist_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        Path(out, "stdout.txt").write_text(
            f"$ fairfrontier {' '.join(argv)}\n{stdout.getvalue()}"
            f"exit {code}\n")
        print(f"{out}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    main_matrix(parser.parse_args().out_dir.resolve())
