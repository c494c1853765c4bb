"""Model construction, validation reporting, presets, and the file format."""

import copy
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from fairfrontier import (CELLS, PRESETS, ContractError, GroupConditionalModel,
                          InputError, Mixture, Normal, ResourceError,
                          Triangular, ValidationError, read_scenario_file,
                          scenario, validate, write_scenario_file)
from fairfrontier import population
from fairfrontier.cli import main
from fairfrontier.distributions import _finite_bracket, _root
from helpers import label_given_group, pooled_cdf, random_model


def test_example1_joint_and_conditionals():
    m = scenario("example1")
    assert m.joint[(1, 1)] == 0.5
    assert m.joint[(1, 0)] == 0.25
    assert m.joint[(0, 1)] == 0.125
    assert m.joint[(0, 0)] == 0.125
    assert m.conditional[(1, 1)] == Normal(10, 2)
    assert m.conditional[(1, 0)] == Normal(3, 2)
    assert m.conditional[(0, 1)] == Normal(6, 2)
    assert m.conditional[(0, 0)] == Normal(-1, 2)


def test_example3_conditionals():
    m = scenario("example3")
    assert m.conditional[(0, 0)] == Normal(-1, 3)
    assert m.conditional[(1, 1)] == Normal(10, 3)


def test_example4_identical_joints_are_quarter():
    m = scenario("example4_identical")
    assert all(m.joint[cell] == 0.25 for cell in CELLS)
    assert m.conditional[(1, 1)] == Triangular(4, 12, 8)


def test_derived_probabilities_example1():
    m = scenario("example1")
    assert m.p_label(1) == pytest.approx(0.625, abs=1e-15)
    assert m.joint[(1, 0)] + m.joint[(1, 1)] == pytest.approx(0.75, abs=1e-15)
    assert m.joint[(0, 0)] + m.joint[(0, 1)] == pytest.approx(0.25, abs=1e-15)
    assert label_given_group(m, 1, 1) == pytest.approx(2 / 3, abs=1e-15)


def test_pooled_quantile_range_example4():
    m = scenario("example4_identical")
    lo, hi = m.quantile_range(0.99999)
    assert lo == pytest.approx(0.02529822128125926, abs=1e-6)
    assert hi == pytest.approx(11.974701778718241, abs=1e-6)
    assert pooled_cdf(m, lo) == pytest.approx(5e-6, abs=1e-9)
    assert 1.0 - pooled_cdf(m, hi) == pytest.approx(5e-6, abs=1e-9)


def test_validate_example1_all_pass():
    report = validate(scenario("example1"))
    assert report.ok
    assert report.problems == ()
    assert report.joint_residual <= 1e-12


def test_validate_masses_equal_quadrature():
    # validate integrates each density by Gauss-Legendre between knots;
    # scipy's adaptive quadrature over the same bracket is the oracle
    quad = pytest.importorskip("scipy.integrate").quad
    models = [scenario(name) for name in PRESETS]
    models += [random_model(seed) for seed in range(40)]
    # the knots of a Mixture inside a Mixture
    models += [m for m in PINNED_MODELS if m.label == "two-level-mixture"]
    for model in models:
        for cell in CELLS:
            law = model.conditional[cell]
            want, _ = quad(lambda x: float(law.pdf(x)),
                           *_finite_bracket((law,)), limit=200)
            assert abs(population._pdf_mass(law) - want) <= 1e-12


def test_constructor_rejects_bad_joint_mass():
    with pytest.raises(ValidationError):
        GroupConditionalModel(
            joint={(0, 0): 0.5, (0, 1): 0.2, (1, 0): 0.1, (1, 1): 0.1},
            conditional={cell: Normal(0, 1) for cell in CELLS})


NORMALS = {cell: Normal(0, 1) for cell in CELLS}
QUARTERS = {cell: 0.25 for cell in CELLS}


@pytest.mark.parametrize("joint, conditional, message", [
    ({cell: 0.25 for cell in CELLS[:3]}, NORMALS, "missing cells"),
    ({**QUARTERS, (0, 0): -0.25, (0, 1): 0.75}, NORMALS, "must be >= 0"),
    (QUARTERS, {**NORMALS, (1, 1): "normal"}, "not a distribution"),
], ids=["missing-cell", "negative-mass", "not-a-law"])
def test_constructor_refuses_malformed_cells(joint, conditional, message):
    with pytest.raises(ValidationError, match=message):
        GroupConditionalModel(joint, conditional)


def test_validate_payload_reports_joint_mass_failure():
    payload = {
        "joint": {"a0y0": 0.5, "a0y1": 0.2, "a1y0": 0.1, "a1y1": 0.1},
        "dist": {k: {"kind": "normal", "mean": 0, "stddev": 1}
                 for k in ("a0y0", "a0y1", "a1y0", "a1y1")},
    }
    report = validate(payload)
    assert not report.ok
    failing = {key: msg for key, passed, msg in report.entries if not passed}
    assert "joint_sum" in failing
    assert "!= 1" in failing["joint_sum"]


def test_validate_payload_names_bad_distribution_field():
    payload = {
        "joint": {"a0y0": 0.25, "a0y1": 0.25, "a1y0": 0.25, "a1y1": 0.25},
        "dist": {
            "a0y0": {"kind": "triangular", "lower": 0, "upper": 4, "mode": 9},
            "a0y1": {"kind": "normal", "mean": 0, "stddev": 1},
            "a1y0": {"kind": "normal", "mean": 0, "stddev": 1},
            "a1y1": {"kind": "normal", "mean": 0, "stddev": 1},
        },
    }
    report = validate(payload)
    assert not report.ok
    failing = {key for key, passed, _ in report.entries if not passed}
    assert failing == {"dist.a0y0"}


def test_presets_listing():
    assert set(PRESETS) == {"example1", "example3", "example4_identical",
                            "example4_nonidentical"}


def test_scenario_unknown_name_lists_presets():
    with pytest.raises(InputError) as exc:
        scenario("example2")
    for name in PRESETS:
        assert name in str(exc.value)


def test_scenario_file_roundtrip_bit_identical(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    model = scenario("example1")
    write_scenario_file(model, str(first))
    loaded = read_scenario_file(str(first))
    assert loaded.joint == model.joint
    assert loaded.conditional == model.conditional
    assert loaded.label == model.label
    write_scenario_file(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_scenario_accepts_a_file_path(tmp_path):
    path = tmp_path / "custom.json"
    write_scenario_file(scenario("example3"), str(path))
    loaded = scenario(str(path))
    assert loaded.conditional == scenario("example3").conditional


def test_read_scenario_file_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"joint": {\n  "a0y0": 0.25,,\n}}\n')
    with pytest.raises(ValidationError) as exc:
        read_scenario_file(str(path))
    assert "line 2" in str(exc.value)


def test_read_scenario_file_missing_path():
    with pytest.raises(InputError):
        read_scenario_file("/nonexistent/scenario.json")


def test_mixture_roundtrips_through_files(tmp_path):
    from fairfrontier import Mixture
    model = GroupConditionalModel(
        joint={cell: 0.25 for cell in CELLS},
        conditional={
            (0, 0): Mixture(((0.5, Normal(-2, 1)), (0.5, Triangular(0, 4, 2)))),
            (0, 1): Normal(1, 1),
            (1, 0): Normal(-1, 2),
            (1, 1): Triangular(2, 8, 5),
        },
        label="mixed")
    path = tmp_path / "mixed.json"
    write_scenario_file(model, str(path))
    loaded = read_scenario_file(str(path))
    assert loaded.conditional == model.conditional
    assert json.loads(path.read_text())["label"] == "mixed"


def _normal_payload(**changes):
    keys = ("a0y0", "a0y1", "a1y0", "a1y1")
    payload = {"joint": {k: 0.25 for k in keys},
               "dist": {k: {"kind": "normal", "mean": 0, "stddev": 1}
                        for k in keys}}
    for section, value in changes.items():
        if isinstance(value, dict):
            payload[section].update(value)
        else:
            payload[section] = value
    return payload


# JSON booleans and numeric strings are not numbers; read through float(),
# this payload would sum to 1 and fail only later, on group A=1's mass
MISTYPED_PAYLOAD = _normal_payload(
    joint={"a0y0": True, "a0y1": "0", "a1y0": 0, "a1y1": 0},
    dist={key: {"kind": "normal", "mean": "1", "stddev": True}
          for key in ("a0y0", "a0y1", "a1y0", "a1y1")})
ZERO_MASS_PAYLOAD = _normal_payload(
    joint={"a0y0": 0.5, "a0y1": 0.5, "a1y0": 0, "a1y1": 0})


def test_validate_names_each_mistyped_field():
    report = validate(MISTYPED_PAYLOAD)
    assert not report.ok
    failing = {key: msg for key, passed, msg in report.entries if not passed}
    assert set(failing) == {"joint.a0y0", "joint.a0y1", "dist.a0y0",
                            "dist.a0y1", "dist.a1y0", "dist.a1y1"}
    for key in ("a0y0", "a0y1", "a1y0", "a1y1"):
        assert f"dist.{key}.mean" in failing[f"dist.{key}"]
        assert f"dist.{key}.stddev" in failing[f"dist.{key}"]


def test_validate_payload_reports_group_mass():
    report = validate(ZERO_MASS_PAYLOAD)
    assert not report.ok
    assert report.problems == ("group A=1 has zero mass",)


@pytest.mark.parametrize("payload, key, message", [
    ([], "payload", "must be a mapping"),
    ({"joint": {k: 0.25 for k in ("a0y0", "a0y1", "a1y0")},
      "dist": _normal_payload()["dist"]}, "joint.a1y1", "joint.a1y1 missing"),
    (_normal_payload(dist={"a0y1": {"kind": "normal", "mean": 0}}),
     "dist.a0y1", "dist.a0y1: missing field 'stddev'"),
    (_normal_payload(dist={"a1y0": 3}), "dist.a1y0",
     "dist.a1y0: expected an object"),
    (_normal_payload(dist={"a1y1": {"kind": "mixture", "components": {}}}),
     "dist.a1y1", "dist.a1y1.components must be a JSON list"),
    (_normal_payload(dist={"a0y0": {"kind": "cauchy"}}), "dist.a0y0",
     "dist.a0y0: unknown kind 'cauchy'"),
], ids=["not-a-dict", "missing-cell", "missing-field", "cell-not-object",
        "components-not-list", "unknown-kind"])
def test_validate_names_each_payload_fault_by_path(payload, key, message):
    report = validate(payload)
    assert not report.ok
    failing = {k: msg for k, passed, msg in report.entries if not passed}
    assert list(failing) == [key]
    assert message in failing[key]


@pytest.mark.parametrize("payload", [
    _normal_payload(joint=3),
    _normal_payload(joint=["a0y0", "a0y1", "a1y0", "a1y1"]),
    _normal_payload(dist=3),
    _normal_payload(dist="a0y0 a0y1 a1y0 a1y1"),
    _normal_payload(joint={"a0y0": "x"}),
    _normal_payload(joint={"a0y0": None}),
    _normal_payload(joint={"a0y0": 10**400}),
    _normal_payload(dist={"a0y0": {"kind": "normal", "mean": 10**400,
                                   "stddev": 1}}),
    MISTYPED_PAYLOAD,
    ZERO_MASS_PAYLOAD,
], ids=["joint-int", "joint-list", "dist-int", "dist-str", "cell-str",
        "cell-null", "cell-huge", "mean-huge", "mistyped", "group-zero-mass"])
def test_malformed_scenario_payload_is_reported_not_raised(
        tmp_path, capsys, payload):
    report = validate(payload)
    assert not report.ok and report.problems
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("call", [
    lambda m: m.group_quantile_range(2),
    lambda m: m.group_quantile_range(-1, 0.99),
    lambda m: m.quantile_range(0.9, cells=()),
    lambda m: m.quantile_range(0.9, cells=((0, 2),)),
    lambda m: m.quantile_range(0.9, cells=[[0, 0]]),
], ids=["group-2", "group-minus-1", "no-cells", "unknown-cell", "list-cell"])
def test_quantile_range_rejects_bad_cell_sets(call):
    with pytest.raises(InputError):
        call(scenario("example1"))


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_quantile_range_refuses_a_central_mass_of_0_or_1(mass):
    with pytest.raises(InputError, match="central_mass"):
        scenario("example1").quantile_range(mass)


def test_quantile_range_rejects_cells_without_mass():
    m = GroupConditionalModel(
        joint={(0, 0): 0.0, (0, 1): 0.5, (1, 0): 0.25, (1, 1): 0.25},
        conditional={cell: Normal(0, 1) for cell in CELLS})
    with pytest.raises(InputError, match="no probability mass"):
        m.quantile_range(0.9, cells=((0, 0),))


# central masses whose tails are 5e-5, 5e-6, their complements and the
# interior levels 0.05, 0.4, 0.6 and 0.95
SOLVER_MASSES = (0.9999, 0.99999, 0.9, 0.2)


def against_brentq(levels):
    """A stand-in for _root that solves with it, checks the root against
    scipy's brentq and records it in levels.

    The roots agree within _root's tolerance, xtol + 4 eps |x|, widened by
    the distance over which f, a cdf minus a level, moves by eps: in a far
    tail a cdf near 1 is flat to its last bit over more than the tolerance,
    so any point there is a root of the float function (a 1 - 5e-6 level of
    example1 puts the solvers 1.9e-12 apart, the widening 2.0e-11)."""
    eps = 2.0 ** -52

    def both(f, lo, hi, flo, fhi, xtol):
        ours = _root(f, lo, hi, flo, fhi, xtol)
        theirs = brentq(f, lo, hi, xtol=xtol)
        h = (hi - lo) * 2.0 ** -20
        slope = (f(ours + h) - f(ours - h)) / (2.0 * h)
        assert type(ours) is float
        assert (abs(ours - theirs) * slope
                <= (xtol + 4.0 * eps * abs(ours)) * slope + eps)
        levels.append(ours)
        return ours
    return both


@pytest.mark.parametrize("model", [scenario(name) for name in PRESETS]
                         + [random_model(seed) for seed in range(20)],
                         ids=lambda m: m.label)
def test_brent_solver_equals_scipy_brentq(monkeypatch, model):
    levels = []
    monkeypatch.setattr(population, "_root", against_brentq(levels))
    for mass in SOLVER_MASSES:
        model.quantile_range(mass)
        for a in (0, 1):
            model.group_quantile_range(a, mass)
    assert len(levels) == 3 * 2 * len(SOLVER_MASSES)


def test_quantile_range_evaluates_each_point_once(monkeypatch):
    # both tails share one bracket; its ends used to be evaluated again by
    # the bracket checks and by the solver's first two steps (40 evaluations)
    points, cdf = [], Normal.cdf

    def counted(self, x):
        points.append(x)
        return cdf(self, x)

    monkeypatch.setattr(Normal, "cdf", counted)
    lo, hi = scenario("example1").quantile_range(0.9999)
    assert len(points) % 4 == 0 and len(points) // 4 <= 34  # 4 Normal cells
    assert (lo, hi) == (-7.705709397419543, 17.438039738119)


def test_brent_solver_raises_at_the_cap_or_without_a_sign_change():
    def step(x):
        return -1.0 if x < math.pi else 1.0

    with pytest.raises(RuntimeError):  # scipy gives up after 100 too
        brentq(step, -1e300, 1e300, xtol=1e-12)
    with pytest.raises(ResourceError, match="100 iterations"):
        _root(step, -1e300, 1e300, step(-1e300), step(1e300), xtol=1e-12)
    with pytest.raises(ContractError):
        _root(step, 4.0, 5.0, step(4.0), step(5.0), xtol=1e-12)


def scaled_model(scale: float) -> GroupConditionalModel:
    """Four Normal cells of stddev ``scale``, with means 0, 1, 0, 2 scales."""
    return GroupConditionalModel(
        joint={cell: 0.25 for cell in CELLS},
        conditional={cell: Normal(m * scale, scale)
                     for cell, m in zip(CELLS, (0, 1, 0, 2))},
        label=f"scale-{scale:g}")


# from a stddev of 1e-100 down, xtol is wider than the whole bracket; from
# 1e200 up, brentq.c's inverse quadratic step divides by an underflowed 0
@pytest.mark.parametrize("k", (-300, -200, -100, -8, 0, 8, 100, 200, 300,
                               305))
def test_brent_solver_equals_scipy_brentq_at_every_scale(monkeypatch, k):
    levels = []
    monkeypatch.setattr(population, "_root", against_brentq(levels))
    model = scaled_model(10.0 ** k)
    for mass in SOLVER_MASSES[:3]:
        model.quantile_range(mass)
        for a in (0, 1):
            model.group_quantile_range(a, mass)
    assert len(levels) == 3 * 2 * 3


def summed_quantile_range(model, central_mass, cells):
    """The range from a hand-rolled normalized sum of the cells' cdfs, solved
    from the bracket of every cell, as quantile_range computed it before the
    pooled law was a Mixture."""
    weights = np.array([model.joint[c] for c in cells])
    weights = weights / weights.sum()
    dists = [model.conditional[c] for c in cells]

    def cdf(x):
        return float(sum(w * d.cdf(x) for w, d in zip(weights, dists)))

    tail = (1.0 - central_mass) / 2.0
    lo, hi = _finite_bracket(dists)
    return tuple(_root(lambda x: cdf(x) - q, lo, hi, cdf(lo) - q,
                       cdf(hi) - q, xtol=1e-12)
                 for q in (tail, 1.0 - tail))


_TWO_LEVEL = Mixture(((0.5, Mixture(((0.5, Normal(0, 1)),
                                     (0.5, Normal(2, 1))))),
                      (0.5, Normal(1, 2))))
PINNED_MODELS = ([scenario(name) for name in PRESETS]
                 + [random_model(seed) for seed in range(120)] + [
    # a cell without mass still widens the bracket _root starts from
    GroupConditionalModel({(0, 0): 0.0, (0, 1): 0.5, (1, 0): 0.25,
                           (1, 1): 0.25},
                          {**scaled_model(1.0).conditional,
                           (0, 0): Normal(-40, 5)}, "no-mass-a0y0"),
    GroupConditionalModel({(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.5,
                           (1, 1): 0.0},
                          scenario("example1").conditional, "no-mass-a1y1"),
    GroupConditionalModel({cell: 0.25 for cell in CELLS},
                          {**scenario("example1").conditional,
                           (0, 0): _TWO_LEVEL}, "two-level-mixture")])


@pytest.mark.parametrize("model", PINNED_MODELS, ids=lambda m: m.label)
def test_pooled_mixture_range_equals_the_summed_cdf_range(model):
    for mass in (0.1, 0.9, 0.9999, 0.99999):
        for cells in (CELLS, ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                      ((0, 1), (1, 1))):
            assert model.quantile_range(mass, cells) == \
                summed_quantile_range(model, mass, cells)


def _scale_payload(laws):
    return _normal_payload(dist={
        key: {"kind": "normal", "mean": mean, "stddev": sd}
        for key, (mean, sd) in zip(("a0y0", "a0y1", "a1y0", "a1y1"), laws)})


# the first bracket's width overflows; the others' mean + 12 sd rounds back
# onto the mean, so the bracket misses the upper tail
@pytest.mark.parametrize("laws, problem", [
    ([(0.0, 1e307)] * 4, "wider than the largest float"),
    ([(1e18 + i, 1.0) for i in range(4)], "below the float spacing"),
    ([(1e308, 1.0), (1e308, 2.0), (1e308, 1.0), (1e308, 3.0)],
     "below the float spacing"),
    ([(-1e308, 1.0), (-1e308, 2.0), (-1e308, 1.0), (-1e308, 3.0)],
     "below the float spacing"),
], ids=["stddev-1e307", "mean-1e18", "mean-1e308", "mean-minus-1e308"])
def test_a_scale_the_bracket_cannot_hold_is_refused(tmp_path, capsys, laws,
                                                    problem):
    payload = _scale_payload(laws)
    report = validate(payload)
    failing = {key: msg for key, passed, msg in report.entries if not passed}
    assert not report.ok and list(failing) == ["model"]
    assert problem in failing["model"]
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(payload))
    assert main(["check", "--scenario", str(path)]) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("laws, central", [
    ([(0.0, 1e306)] * 4, (-3.8905918864131214e+306, 3.8905918864133484e+306)),
    ([(1e18 + i, 10.0) for i in range(4)],
     (9.999999999999999e+17, 1.0000000000000001e+18)),
], ids=["stddev-1e306", "mean-1e18-stddev-10"])
def test_the_largest_scales_the_bracket_holds_keep_their_ranges(laws,
                                                                central):
    assert validate(_scale_payload(laws)).ok
    model = GroupConditionalModel(
        {cell: 0.25 for cell in CELLS},
        {cell: Normal(mean, sd) for cell, (mean, sd) in zip(CELLS, laws)})
    assert model.quantile_range() == central
    # each endpoint is within _root's tolerance of the pooled law's true
    # quantile, widened by the level's float spacing over the density:
    # near 1 the cdf cannot tell points closer than that apart
    mp = pytest.importorskip("mpmath")
    tail = (1.0 - 0.9999) / 2.0
    shift, scale = mp.mpf(laws[0][0]), mp.mpf(laws[0][1])
    with mp.workdps(40):
        for q, got in zip((tail, 1.0 - tail), central):
            def excess(y, q=q):
                return sum(mp.ncdf((shift + scale * y - mean) / sd)
                           for mean, sd in laws) / 4 - q
            y = mp.findroot(excess, 3.9 if q > 0.5 else -3.9)
            true = shift + scale * y
            density = sum(mp.npdf((true - mean) / sd) / sd
                          for mean, sd in laws) / 4
            tol = 1e-12 + 4 * 2.0 ** -52 * abs(true) + math.ulp(q) / density
            assert abs(got - true) <= tol


ABOVE_THE_MASS = """
import sys
sys.path.insert(0, sys.argv[1])
from fairfrontier import (CELLS, GroupConditionalModel, InputError, Mixture,
                          Normal)
short = Mixture([(0.5, Normal(0, 1)), (0.4999999999995, Normal(3, 1))])
model = GroupConditionalModel(
    {cell: 0.25 for cell in CELLS},
    {(0, 0): short, (1, 0): short, (0, 1): Normal(1, 1), (1, 1): Normal(2, 1)})
model.quantile_range(0.9999)
try:
    model.quantile_range(1 - 1e-13)
except InputError as exc:
    print(exc)
"""


def test_quantile_range_refuses_a_level_above_the_pooled_mass():
    # Mixture accepts weights summing to 1 - 5e-13, so the pooled cdf never
    # reaches 1 - 5e-14; widening the bracket toward it never ended
    src = Path(population.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", ABOVE_THE_MASS, str(src)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.startswith("central_mass 0.9999999999999 exceeds")


IMPORT_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fairfrontier import FamilySpec, build_frontier, scenario, validate
from fairfrontier.cli import main
build_frontier(scenario("example1"),
               FamilySpec("per_group_threshold", "both", 801))
codes = [main(["check", "--scenario", "example4_identical"]),
         main(["oracle", "--scenario", "example1", "--n", "1e4"]),
         main(["scenarios"]),
         main(["run", "--scenario", "example3", "--frontier", "--decompose",
               "--theorems", "--resolution", "21", "--out", sys.argv[2]])]
ok = validate(scenario("example1")).ok
print(json.dumps([codes, ok, sorted(m for m in sys.modules
                                    if m.split(".")[0] == "scipy")]))
"""


def test_commands_import_no_scipy_optimize_or_integrate(tmp_path):
    # nor any other part of scipy, validate included
    src = Path(population.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK, str(src), str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True)
    codes, ok, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0] and ok
    assert loaded == []


def test_model_mappings_are_read_only():
    # the model keeps its solves, so its laws cannot change under them
    model = scenario("example1")
    with pytest.raises(TypeError):
        model.joint[(0, 0)] = 0.5
    with pytest.raises(TypeError):
        model.conditional[(0, 0)] = Normal(0.0, 1.0)


def test_model_solves_stay_out_of_repr_and_equality():
    model, fresh = scenario("example1"), scenario("example1")
    model.group_quantile_range(0, 0.99999)
    assert model._solved.cache_info().currsize == 1
    assert fresh._solved.cache_info().currsize == 0
    assert model == fresh and repr(model) == repr(fresh)
    assert "_solved" not in repr(model)


@pytest.mark.parametrize("model", [scenario("example1"), random_model(3)],
                         ids=["example1", "random_model_3"])
def test_pickled_and_copied_models_equal_the_original(model):
    # a model sent to a worker process is pickled; the copy is built anew,
    # so its laws are read-only again and it keeps no solves
    model.group_quantile_range(1, 0.99999)
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model),
                 copy.copy(model)):
        assert twin == model and repr(twin) == repr(model)
        assert twin._solved.cache_info().currsize == 0
        assert (twin.group_quantile_range(1, 0.99999)
                == model.group_quantile_range(1, 0.99999))
        with pytest.raises(TypeError):
            twin.joint[(0, 0)] = 0.5
