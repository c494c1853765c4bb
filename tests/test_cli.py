"""End-to-end CLI behavior: artifacts, config precedence, exit codes."""

import csv
import json
import math

import pytest

from fairfrontier import FamilySpec, Frontier, InputError, build_frontier, scenario
from fairfrontier.cli import (DECOMP_COLUMNS, FRONTIER_COLUMNS, SWEEP_COLUMNS,
                              emit_plot, main, parse_region)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def test_parse_region_roundtrip():
    assert parse_region("") == ()
    assert parse_region("2:inf") == ((2.0, math.inf),)
    assert parse_region("-inf:1.5;3:4.25") == ((-math.inf, 1.5), (3.0, 4.25))


def test_run_writes_frontier_artifacts(tmp_path, capsys):
    code = main(["run", "--scenario", "example1", "--out", str(tmp_path),
                 "--frontier", "--resolution", "201", "--range", "-8", "12",
                 "--orientations", "both"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote sweep.csv, frontier.csv, frontier.svg" in out
    for name in ("sweep.csv", "frontier.csv", "frontier.svg"):
        assert (tmp_path / name).exists()

    rows = read_csv(tmp_path / "frontier.csv")
    assert list(rows[0]) == list(FRONTIER_COLUMNS)
    # %.17g serialization: parsing the CSV reproduces the package's floats
    want = build_frontier(scenario("example1"), FamilySpec(
        "shared_threshold", orientations="both", resolution=201,
        sweep_range=(-8, 12)))
    assert len(rows) == len(want.points)
    for row, p in zip(rows, want.points):
        assert float(row["fairness"]) == p.fairness
        assert float(row["accuracy"]) == p.accuracy
        assert parse_region(row["region0"]) == p.params[2]

    sweep_rows = read_csv(tmp_path / "sweep.csv")
    assert list(sweep_rows[0]) == list(SWEEP_COLUMNS)
    assert len(sweep_rows) == 201 * 2 + 2
    assert sweep_rows[-1]["source"] == "optimum"

    svg = (tmp_path / "frontier.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_run_decomposition_constant_data_part(tmp_path):
    code = main(["run", "--scenario", "example3", "--out", str(tmp_path),
                 "--decompose", "--resolution", "101"])
    assert code == 0
    rows = read_csv(tmp_path / "decomposition.csv")
    assert list(rows[0]) == list(DECOMP_COLUMNS)
    assert len(rows) == 101
    f_du = [float(r["f_du"]) for r in rows]
    assert max(f_du) - min(f_du) <= 1e-12
    assert f_du[0] == pytest.approx(0.04299729765437821, abs=1e-8)
    total = [float(r["f_u"]) for r in rows]
    parts = [float(r["f_du"]) + float(r["f_mu"]) for r in rows]
    assert all(t <= p + 1e-9 for t, p in zip(total, parts))
    assert (tmp_path / "sweep.svg").exists()
    assert (tmp_path / "decomposition.svg").exists()


def test_run_theorems_report(tmp_path):
    code = main(["run", "--scenario", "example1", "--out", str(tmp_path),
                 "--frontier", "--theorems", "--resolution", "201",
                 "--range", "-8", "12", "--orientations", "both"])
    assert code == 0
    text = (tmp_path / "theorems.txt").read_text()
    assert "simultaneous_optimality" in text
    assert "decomposition_bound" in text
    assert "accuracy_jump_conditions" in text


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "scenario": "example3",
        "family": {"kind": "per-group-threshold", "resolution": 41},
        "analyses": ["frontier"],
        "out": str(tmp_path / "cfg_out"),
    }))
    code = main(["run", "--config", str(cfg), "--resolution", "21"])
    assert code == 0
    out = capsys.readouterr().out
    assert "resolution 21" in out
    assert (tmp_path / "cfg_out" / "frontier.csv").exists()


def test_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", "example9", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_out_exits_2(capsys):
    code = main(["run", "--scenario", "example1"])
    assert code == 2
    assert "output directory" in capsys.readouterr().err


def test_nonfinite_weight_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", "example1", "--out", str(tmp_path),
                 "--frontier", "--resolution", "11", "--omega1", "nan",
                 "--omega2", "0.5"])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "frontier.csv").exists()


@pytest.mark.parametrize("argv", [
    ["oracle", "--scenario", "example1", "--n", "1000", "--seed", "-1"],
    ["run", "--scenario", "example1", "--resolution", "11", "--seed", "-1"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # oracle rejects the value; run has no --seed flag, so argparse exits
    if argv[0] == "run":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        return
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err


def test_config_seed_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "seed": 3,
                               "out": str(tmp_path / "cfg_out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert '"seed" is not used' in capsys.readouterr().err
    assert not (tmp_path / "cfg_out").exists()


def test_oversized_family_exits_3(tmp_path, capsys):
    code = main(["run", "--scenario", "example1", "--out", str(tmp_path),
                 "--family", "per-group-intervals", "--resolution", "801",
                 "--k", "4"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_scenarios_subcommand(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example3", "example4_identical",
                 "example4_nonidentical"):
        assert name in out


def test_check_subcommand(tmp_path, capsys):
    code = main(["check", "--scenario", "example4_identical",
                 "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "boundary_alignment" in printed
    assert (tmp_path / "theorems.txt").read_text() == printed


def test_oracle_subcommand_agrees(capsys):
    code = main(["oracle", "--scenario", "example1", "--n", "2e5",
                 "--threshold", "4.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all agree" in out


def test_emit_plot_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(InputError):
        emit_plot(Frontier(points=()), "frontier_curve", tmp_path / "x.svg")
    frontier = build_frontier(scenario("example3"),
                              FamilySpec("shared_threshold", resolution=11))
    with pytest.raises(InputError):
        emit_plot(frontier, "scatter", tmp_path / "x.svg")
