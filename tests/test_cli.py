"""End-to-end CLI behavior: artifacts, config precedence, exit codes."""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fairfrontier import (FamilySpec, Frontier, GroupConditionalModel,
                          GroupwiseClassifier, InputError, MetricWeights,
                          Reference, accuracy, build_frontier,
                          confusion_rates, scenario, write_scenario_file)
from fairfrontier import cli
from fairfrontier.cli import (DECOMP_COLUMNS, FRONTIER_COLUMNS, SWEEP_COLUMNS,
                              emit_plot, main)
from fairfrontier.frontier import _block_len, _sweep
from helpers import parse_region, random_model, swapped_groups


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


@pytest.mark.parametrize("seed, kind, orientations, bounded", [
    (1, "shared_threshold", "positive_above", False),
    (2, "shared_threshold", "positive_below", False),
    (3, "per_group_threshold", "positive_above", False),
    (4, "per_group_threshold", "positive_below", False),
    (5, "per_group_threshold", ("positive_below", "positive_above"), False),
    (6, "per_group_intervals", "positive_above", False),
    (8, "per_group_intervals", "positive_below", False),
    (10, "per_group_intervals", ("positive_above", "positive_below"), False),
    (3, "per_group_threshold", "both", True),
    (7, "per_group_intervals", "both", True),
])
def test_sweep_csv_rows_match_the_decomposition_oracle(
        tmp_path, monkeypatch, seed, kind, orientations, bounded):
    # a small prime batch splits the larger blocks across several batches;
    # these bounded sweeps hold zero-count blocks
    monkeypatch.setattr(cli, "_WRITE_BATCH", 7)
    model = random_model(seed)
    family = FamilySpec(kind, orientations=orientations, k=1,
                        resolution=6 if kind == "per_group_intervals" else 17)
    w = MetricWeights(omega1=0.3, omega2=0.7, p1=0.8, p2=1.0)
    c = _sweep(model, family, w, bounded)
    cli._write_sweep_csv(model, c, w, tmp_path / "sweep.csv")
    ref = Reference.of(model)
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == len(c)
    assert max(map(_block_len, c.blocks)) > 2 * cli._WRITE_BATCH
    for k, (row, p) in enumerate(zip(rows, c)):
        d = ref.decompose(model, p.clf, w)
        assert (row["source"], row["tag"]) == p.params[:2]
        assert (parse_region(row["region0"]),
                parse_region(row["region1"])) == p.params[2:]
        assert (row["t0"], row["t1"]) == tuple(map(cli._ray_threshold,
                                                   p.params[2:]))
        assert float(row["fairness"]) == c.fairness[k]
        assert float(row["accuracy"]) == c.accuracy[k]
        assert float(row["f_u"]) == 1.0 - c.fairness[k]
        assert float(row["f_du"]) == d.f_du
        assert float(row["f_mu"]) == d.f_mu
        assert row["well_defined"] == ("true" if d.well_defined else "false")


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


WEIGHTED = ["--omega1", "0.3", "--omega2", "0.7", "--p1", "0.8", "--p2", "1.2"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, family, w, pattern", [
    pytest.param(scenario("example1"),
                 FamilySpec("shared_threshold", "positive_above", 801),
                 MetricWeights(), "condition1", id="example1-shared-above"),
    pytest.param(scenario("example3"),
                 FamilySpec("shared_threshold", "positive_below", 801),
                 MetricWeights(0.3, 0.7, 0.8, 1.2), "condition1",
                 id="example3-shared-below-weighted"),
    pytest.param(swapped_groups(scenario("example1")),
                 FamilySpec("per_group_threshold", "both", 801),
                 MetricWeights(), "condition2",
                 id="swapped-example1-per-group-both"),
    pytest.param(random_model(3),
                 FamilySpec("per_group_intervals", "both", 41),
                 MetricWeights(), None, id="random_model_3-intervals"),
    pytest.param(scenario("example1"),
                 FamilySpec("shared_threshold", resolution=5,
                            sweep_range=(-1e308, 7e307)),
                 MetricWeights(), "condition1", id="example1-range-overflow"),
])
def test_decomposition_csv_rows_match_the_decomposition_oracle(
        tmp_path, model, family, w, pattern):
    # each row is its boundary's shared classifier, decomposed on its own;
    # a non-shared family falls back to the positive-above sweep
    write_scenario_file(model, tmp_path / "model.json")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "scenario": str(tmp_path / "model.json"), "weights": vars(w),
        "family": {"kind": family.kind, "resolution": family.resolution,
                   "orientations": family.orientations,
                   "range": family.sweep_range}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--decompose",
                 "--out", str(out)]) == 0
    above = family.orientations != ("positive_below",)
    ref = Reference.of(model)
    assert ref.pattern == pattern
    lo, hi = family.sweep_range or model.quantile_range(0.9999)
    ts = np.linspace(lo, hi, family.resolution).tolist()
    rows = read_csv(out / "decomposition.csv")
    assert len(rows) == len(ts)
    for t, row in zip(ts, rows):
        clf = GroupwiseClassifier.shared_threshold(t, positive_above=above)
        d = ref.decompose(model, clf, w)
        assert float(row["t"]) == t
        assert float(row["fairness"]) == 1.0 - d.f_u
        assert float(row["accuracy"]) == accuracy(model, clf, w)
        assert ((float(row["f_u"]), float(row["f_du"]), float(row["f_mu"]))
                == (d.f_u, d.f_du, d.f_mu))
        assert row["well_defined"] == ("true" if d.well_defined else "false")
        assert row["condition"] == (d.condition_met or "")
    if family.sweep_range:  # mismatch lengths near 1e308 sum to inf
        assert {row["well_defined"] for row in rows} == {"false"}


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


@pytest.mark.parametrize("section", [
    {"family": {"range": [1]}},
    {"family": {"range": [1, 2, 3]}},
    {"family": {"range": ["a", "b"]}},
    {"family": {"range": "12"}},
    {"family": {"range": 5}},
    {"weights": {"omega1": "x"}},
    {"family": [1]},
    {"weights": [1]},
    {"family": {"resolution": "21"}},
    {"family": {"k": True}},
    {"family": {"range": [True, 2]}},
    {"weights": {"omega1": True, "omega2": False}},
    {"family": {"kind": ["per-group-threshold"]}},
], ids=["range-one", "range-three", "range-strings", "range-string",
        "range-int", "weight-string", "family-list", "weights-list",
        "resolution-string", "k-bool", "range-bool", "weights-bool",
        "kind-list"])
def test_malformed_config_value_exits_2(tmp_path, capsys, section):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1",
                               "out": str(tmp_path / "cfg_out"), **section}))
    # no flag here: a flag would override the config value under test
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "cfg_out").exists()


@pytest.mark.parametrize("section, out_flag", [
    ({"analyses": 5}, True),
    ({"out": 5}, False),
    ({"weights": {"p1": 10 ** 400}}, True),
], ids=["analyses-int", "out-int", "weight-huge-int"])
def test_mistyped_config_value_exits_2(tmp_path, capsys, section, out_flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", **section}))
    argv = ["run", "--config", str(cfg), "--resolution", "11"]
    out = tmp_path / "cfg_out"
    assert main(argv + (["--out", str(out)] if out_flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section, flag", [
    ({"family": {"resolution": "21"}}, ["--resolution", "11"]),
    ({"family": {"k": True}}, ["--k", "2"]),
    ({"weights": {"omega1": "0.5"}}, ["--omega1", "0.5"]),
    ({"family": {"kind": "bogus"}}, ["--family", "shared-threshold"]),
], ids=["resolution-string", "k-bool", "omega1-string", "kind-unknown"])
def test_overridden_config_value_is_still_checked(tmp_path, capsys, section,
                                                  flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", **section}))
    out = tmp_path / "cfg_out"
    argv = ["run", "--config", str(cfg), "--out", str(out), *flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [
    None, "{not json", "[1]", "{}",
    json.dumps({"scenario": "example1", "analyses": ["bogus"]}),
], ids=["unreadable", "not-json", "not-object", "no-scenario",
        "unknown-analysis"])
def test_check_config_refusal_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "check.json"  # None leaves no file there to read
    if text is not None:
        cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and not captured.out


def test_config_orientations_may_be_a_list(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "family": {
        "kind": "per-group-threshold", "orientations": ["above", "below"],
        "resolution": 11}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--frontier"]) == 0
    header = (out / "frontier.csv").read_text().splitlines()[0]
    assert "orientations=positive_above|positive_below" in header


def test_config_seed_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "seed": 3,
                               "out": str(tmp_path / "cfg_out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert '"seed" is not used' in capsys.readouterr().err
    assert not (tmp_path / "cfg_out").exists()


def test_infinite_oracle_sample_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--scenario", "example1", "--n", "inf"])
    assert exc.value.code == 2
    assert "invalid sample count: 'inf'" in capsys.readouterr().err


def test_fractional_oracle_sample_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--scenario", "example1", "--n", "1000.9"])
    assert exc.value.code == 2
    assert "invalid sample count: '1000.9'" in capsys.readouterr().err


def test_oversized_oracle_sample_count_exits_3(capsys):
    code = main(["oracle", "--scenario", "example1", "--n", "1e30"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap" in err
    assert len(err.splitlines()) == 1


def test_oversized_family_exits_3(tmp_path, capsys):
    # the theorems build the family's frontier too; a refused run makes no
    # output directory and prints nothing
    out = tmp_path / "out"
    for size in (("801", "4"), ("100000000", "100000000")):
        for analysis in ("--frontier", "--theorems"):
            code = main(["run", "--scenario", "example1", "--out", str(out),
                         "--family", "per-group-intervals", "--resolution",
                         size[0], "--k", size[1], analysis])
            assert code == 3
            captured = capsys.readouterr()
            assert "cap" in captured.err and not captured.out
            assert not out.exists()


def test_oversized_family_check_exits_3(capsys):
    # the count stops once it passes the cap, so a huge family is refused
    # at once instead of being counted term by term
    code = main(["check", "--scenario", "example1", "--family",
                 "per-group-intervals", "--resolution", "100000000",
                 "--k", "100000000"])
    assert code == 3
    captured = capsys.readouterr()
    assert "cap" in captured.err and not captured.out


def test_oversized_family_check_solves_no_optimum(tmp_path, monkeypatch,
                                                  capsys):
    # check refuses the family before its first report, as run does: the
    # boundary-alignment search on a mixture model took 0.86 s before the
    # frontier refused it
    from fairfrontier import classifiers, frontier, metrics, theorems
    solved = []

    def solve(*args, **kwargs):
        solved.append(args)
        raise AssertionError("an optimum was solved")

    for module in (cli, classifiers, frontier, metrics, theorems):
        for name in ("bayes_accuracy_optimal", "fairness_optimal",
                     "_per_group_fairness_optimum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, solve)
    path = tmp_path / "random0.json"
    write_scenario_file(random_model(0), path)
    code = main(["check", "--scenario", str(path), "--family",
                 "per-group-intervals", "--resolution", "100000000",
                 "--k", "100000000"])
    assert code == 3 and not solved
    captured = capsys.readouterr()
    assert "cap" in captured.err and not captured.out


@pytest.mark.parametrize("command, family, flags, fair_solves", [
    *(pytest.param(command, family, flags, int(family != "shared-threshold"),
                   id=f"{prefix}{family}-1")
      for command, prefix, flags in (
          ("check", "", []), ("run", "run-", ["--theorems"]),
          ("run", "run-all-", ["--frontier", "--decompose", "--theorems"]))
      for family in ("shared-threshold", "per-group-threshold")),
    pytest.param("check", "per-group-threshold", WEIGHTED, 1,
                 id="weighted-per-group-threshold-1")])
def test_check_solves_the_per_group_optimum(monkeypatch, capsys, tmp_path,
                                            command, family, flags,
                                            fair_solves):
    # one command solves each optimum once, whichever analyses read it;
    # the per-group fairness optimum only for a per-group family, under
    # the command's weights: boundary alignment solves none
    from fairfrontier import classifiers, frontier, metrics, population
    solved = []
    fair_optimum = frontier._per_group_fairness_optimum
    quantile_range = population.GroupConditionalModel.quantile_range

    def ranges(self, central_mass=0.9999, cells=population.CELLS):
        if tuple(cells) == population.CELLS:
            solved.append(("pooled", central_mass))
        else:
            solved.append(("group", cells[0][0], central_mass))
        return quantile_range(self, central_mass, cells)

    def bayes(model, scope="overall", *args, **kwargs):
        solved.append(scope)
        return classifiers.bayes_accuracy_optimal(model, scope, *args,
                                                  **kwargs)

    def fair(model, w):
        solved.append("fair")
        return fair_optimum(model, w)

    def reference(cls, *args, **kwargs):
        solved.append("reference")
        return of(*args, **kwargs)

    of = metrics.Reference.of
    for module in (cli, frontier, metrics):
        monkeypatch.setattr(module, "bayes_accuracy_optimal", bayes)
    monkeypatch.setattr(frontier, "_per_group_fairness_optimum", fair)
    monkeypatch.setattr(metrics.Reference, "of", classmethod(reference))
    monkeypatch.setattr(population.GroupConditionalModel, "quantile_range",
                        ranges)
    argv = [command, "--scenario", "example1", "--family", family, *flags]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    # and builds the per-group optimum's Reference once, and every grid
    # without a range (the sweep's, the decomposition's) reads one solve
    # of the pooled range
    assert [solved.count(k) for k in (
        "overall", "per_group", "fair", "reference", ("pooled", 0.9999))
    ] == [1, 1, fair_solves, 1, 1]
    # both scopes of the Bayes optimum search each group's range, which is
    # solved once too
    assert [solved.count(("group", a, 0.99999)) for a in (0, 1)] == [1, 1]


def test_oversized_decomposition_exits_3(tmp_path, capsys):
    # the decomposition has one row per boundary, under the sweep's cap
    out = tmp_path / "out"
    for resolution in ("10000001", "1000000000000"):
        code = main(["run", "--scenario", "example1", "--out", str(out),
                     "--decompose", "--resolution", resolution])
        assert code == 3
        captured = capsys.readouterr()
        assert "cap" in captured.err and not captured.out
        assert not out.exists()


def test_sweep_range_near_the_float_limit_plots_finite_svgs(tmp_path):
    # the range is accepted, but padding its axis by 4% a side, or a
    # tick's offset i * (hi - lo) before the division by 4, overflows
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "family": {
        "range": [-1e308, 7e307], "resolution": 21}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--frontier", "--decompose"]) == 0
    for name in ("frontier.svg", "sweep.svg", "decomposition.svg"):
        words = set(re.findall(r"[a-z]+", (out / name).read_text().lower()))
        assert not {"nan", "inf"} & words, name


@pytest.mark.parametrize("command", ["run", "check"])
def test_overflowing_sweep_range_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "family": {
        "range": [-1e308, 1e308], "resolution": 5}}))
    out = tmp_path / "cfg_out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--frontier"] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert "too wide" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_sweep_csv_well_defined_sum_that_overflows(tmp_path):
    # region mismatch lengths near 1e308 sum to inf: not well-defined, as
    # Reference.well_defined says, and no overflow warning
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example1", "family": {
        "range": [-1e308, 7e307], "resolution": 5}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--frontier"]) == 0
    model = scenario("example1")
    ref = Reference.of(model)
    c = _sweep(model, FamilySpec("shared_threshold", resolution=5,
                                 sweep_range=(-1e308, 7e307)),
               MetricWeights(), False)
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == len(c)
    assert [row["well_defined"] for row in rows] == [
        "true" if ref.well_defined(p.clf) else "false" for p in c]
    assert "false" in [row["well_defined"] for row in rows]


def test_unknown_orientation_exits_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "example1", "--orientations", "sideways",
                 "--frontier", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines() == [
        "error: unknown orientation 'sideways'; use above, below, or both"]
    assert not out.exists()


def test_oracle_skips_the_estimates_of_an_empty_cell(tmp_path, capsys):
    # no sample falls in cell a0y1, so group 0's TPR, and the gap built on
    # it, have no estimate: each is skipped, and the rest still agree
    base = scenario("example1")
    model = GroupConditionalModel(
        joint={(0, 0): 0.4, (0, 1): 0.0, (1, 0): 0.2, (1, 1): 0.4},
        conditional=base.conditional)
    write_scenario_file(model, tmp_path / "empty_cell.json")
    assert main(["oracle", "--scenario", str(tmp_path / "empty_cell.json"),
                 "--n", "20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    skipped = [line for line in lines if "SKIP" in line]
    assert skipped == [f"{name} {key}: SKIP (no samples)"
                       for name in ("threshold 4.49999", "accuracy optimum",
                                    "fairness optimum")
                       for key in ("tpr0", "f_u")]
    assert len(lines) == 3 * 6 + 1
    assert all(line.endswith("PASS") for line in lines[:-1]
               if line not in skipped)
    assert lines[-1] == "all agree at 3 standard errors (n=20000)"


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


def test_weighted_check_prints_one_f_du(tmp_path, capsys):
    # the decomposition and boundary-alignment sections all read F_DU under
    # the command's weights
    assert main(["check", "--scenario", "example1", "--resolution", "11",
                 "--omega1", "0.3", "--omega2", "0.7", "--p1", "0.8",
                 "--p2", "1.2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "theorems.txt").read_text()
    assert text == capsys.readouterr().out
    values = re.findall(r"^ +f_du = (\S+)$", text, re.MULTILINE)
    assert len(values) == 4
    assert set(values) == {"0.018500147537727829"}


def test_check_at_a_huge_scale_exits_0(tmp_path, capsys):
    # at stddev 1e300 the range solver's inverse quadratic denominator
    # underflows to 0; dividing by it raised ZeroDivisionError
    cells = {"a0y0": 0.0, "a0y1": 1e300, "a1y0": 0.0, "a1y1": 2e300}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "joint": {key: 0.25 for key in cells},
        "dist": {key: {"kind": "normal", "mean": mean, "stddev": 1e300}
                 for key, mean in cells.items()}}))
    assert main(["check", "--scenario", str(path)]) == 0
    assert "boundary_alignment" in capsys.readouterr().out


@pytest.mark.parametrize("with_out", [True, False])
def test_check_config_out_writes_theorems(tmp_path, capsys, with_out):
    out = tmp_path / "cfg_out"
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"scenario": "example1",
                               "family": {"resolution": 11},
                               **({"out": str(out)} if with_out else {})}))
    assert main(["check", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "boundary_alignment" in printed
    if with_out:
        assert (out / "theorems.txt").read_bytes() == printed.encode()
    else:
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["check.json"]


def test_check_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["check", "--scenario", "example1", "--resolution", "11",
                 "--out", str(taken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(taken) in err


def test_run_artifact_path_that_cannot_be_opened_exits_2(tmp_path, capsys):
    (tmp_path / "sweep.csv").mkdir()
    code = main(["run", "--scenario", "example1", "--resolution", "11",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "sweep.csv") in err


def test_oracle_subcommand_agrees(capsys):
    code = main(["oracle", "--scenario", "example1", "--n", "2e5",
                 "--threshold", "4.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all agree" in out


def test_oracle_agrees_when_a_cell_sample_is_all_ones(capsys):
    # the optimum's tnr0 is 0.998957: all 1s in a 1,000-sample cell is likely,
    # and its plug-in standard error is then 0
    code = main(["oracle", "--scenario", "example1", "--n", "1e3"])
    out = capsys.readouterr().out
    assert "accuracy optimum tnr0: analytic=0.998957 mc=1.000000" in out
    assert code == 0
    assert "all agree" in out


def test_oracle_fails_a_rate_ten_standard_errors_off(monkeypatch, capsys):
    real = cli.mc_estimate

    def shifted(model, clf, w, n, seed):
        est = real(model, clf, w, n=n, seed=seed)
        p, m = confusion_rates(model, clf).tpr[0], est.tpr[0].n
        off = p + 10.0 * math.sqrt(p * (1.0 - p) / m)
        return replace(est, tpr=(replace(est.tpr[0], value=off), est.tpr[1]))

    monkeypatch.setattr(cli, "mc_estimate", shifted)
    code = main(["oracle", "--scenario", "example1", "--n", "1e4",
                 "--threshold", "4.5"])
    out = capsys.readouterr().out
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("threshold"))
    assert "tpr0" in line and line.endswith("FAIL")


def test_emit_plot_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(InputError):
        emit_plot(Frontier(points=()), "frontier_curve", tmp_path / "x.svg")
    frontier = build_frontier(scenario("example3"),
                              FamilySpec("shared_threshold", resolution=11))
    with pytest.raises(InputError):
        emit_plot(frontier, "scatter", tmp_path / "x.svg")
    # a sweep table of empty columns, as tuples or as arrays
    for column in ((), np.array([])):
        empty = cli.SweepTable(*[column] * len(DECOMP_COLUMNS))
        for kind in ("sweep_curve", "decomposition_curve"):
            with pytest.raises(InputError, match="empty sweep"):
                emit_plot(empty, kind, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()
