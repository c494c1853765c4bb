"""Write the CLI artifact matrix of this tree, the refactor oracle.

Run from any directory (needs the package's runtime only):

    python tests/artifact_matrix.py OUT_DIR

For each of the four presets and the scenario files of random_model(0) and
random_model(3) it runs ``run --frontier --decompose --theorems`` with the
per-group-threshold and the shared-threshold family (orientations both,
resolution 201), ``check --resolution 1001 --out``, and a weighted
``check --family per-group-threshold --orientations both --resolution 201``
under omega 0.3/0.7 and p 0.8/1.2, so that a result wrongly shared across
weights shows. It keeps each command's stdout and exit code next to its
artifacts. Paths are relative to OUT_DIR, so the matrices of two trees
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

from fairfrontier import PRESETS  # noqa: E402
from fairfrontier.cli import main  # noqa: E402
from fairfrontier.population import write_scenario_file  # noqa: E402
from helpers import random_model  # noqa: E402

RANDOM_SEEDS = (0, 3)
FAMILIES = ("per-group-threshold", "shared-threshold")


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
                    "--resolution", "201", "--omega1", "0.3", "--omega2",
                    "0.7", "--p1", "0.8", "--p2", "1.2", "--out", out]


def main_matrix(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    scenarios = [(name, name) for name in PRESETS]
    Path("scenarios").mkdir(exist_ok=True)
    for seed in RANDOM_SEEDS:
        path = f"scenarios/random_model_{seed}.json"
        write_scenario_file(random_model(seed), path)
        scenarios.append((f"random_model_{seed}", path))
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
