"""Command-line interface: outputs, exit codes, determinism."""

import copy
import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr import surfaces
from h2xr.cli import RunConfig, build_parser, load_run_config, main
from h2xr.errors import ConfigError
from h2xr.surfaces import CORPUS_CONFIGS, Surface, from_config

from conftest import faulty_at_cell_centres

SLICE_CFG = {"surface": {"kind": "slice", "t0": 0.0, "radius": 2.0}}
CIRCLE_CFG = {"surface": CORPUS_CONFIGS["cylinder_circle"]}
INFLECTION_CFG = {"surface": CORPUS_CONFIGS["cylinder_inflection"]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def read_json(path):
    """An output JSON file, which must be strict JSON: no NaN or Infinity."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=lambda c: pytest.fail(f"{c} in {path}"))


class TestCurvatureCommand:
    def test_slice_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "curvature"]) == 0
        summary = read_json(tmp_path / "out" / "curvature_summary.json")
        assert abs(summary["max_abs_Kint_gauss"] - 1.0) < 1e-9
        csv = (tmp_path / "out" / "curvature.csv").read_text()
        assert csv.splitlines()[0] == \
            "u,v,k1,k2,H,Kext,Kint_gauss,Kint_brioschi,nu,class,status"

    def test_circle_all_parabolic(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "curvature"]) == 0
        summary = read_json(tmp_path / "out" / "curvature_summary.json")
        assert summary["class_counts"] == {"PARABOLIC": 400}

    def test_empty_domain_is_bad_config(self, tmp_path):
        cfg = write_cfg(tmp_path, {"surface": {
            "kind": "cylinder", "curve": {"kind": "constant", "value": 0.0},
            "domain": {"u": [1.0, 1.0]}}})
        assert main(["--config", cfg, "--out", str(tmp_path), "curvature"]) == 2

    def test_missing_surface_is_bad_config(self, tmp_path):
        cfg = write_cfg(tmp_path, {})
        assert main(["--config", cfg, "--out", str(tmp_path), "curvature"]) == 2

    @pytest.mark.parametrize("curve", [
        {"kind": "linear", "slope": 1.0, "intercept": math.nan},
        {"kind": "linear", "slope": 1.0, "intercept": -math.inf},
        {"kind": "linear", "slope": 1.0, "intercept": "0.5x"},
        {"kind": "spline", "knots_s": [0.0, 1.0, 2.0], "knots_k": [0.4, math.nan, 0.2]},
        {"kind": "spline", "knots_s": [0.0, 1.0, 2.0], "knots_k": [0.4, math.inf, 0.2]},
        {"kind": "spline", "knots_s": [0.0, 1.0, math.inf], "knots_k": [0.4, 0.1, 0.2]},
        {"kind": "spline", "knots_s": [0.0, 1.0, 2.0], "knots_k": [0.4, "k", 0.2]},
        {"kind": "spline", "knots_s": [0.0, "one", 2.0], "knots_k": [0.4, 0.1, 0.2]},
    ], ids=["intercept_nan", "intercept_inf", "intercept_str", "knot_k_nan",
            "knot_k_inf", "knot_s_inf", "knot_k_str", "knot_s_str"])
    def test_bad_curve_number_is_bad_config(self, tmp_path, curve):
        cfg = write_cfg(tmp_path, {"surface": {"kind": "cylinder", "curve": curve,
                                               "domain": {"u": [0.0, 2.0]}}})
        assert main(["--config", cfg, "--out", str(tmp_path), "curvature"]) == 2

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        for d in ("a", "b"):
            assert main(["--config", cfg, "--out", str(tmp_path / d),
                         "--seed", "7", "curvature"]) == 0
        for name in ("curvature.csv", "curvature_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_jobs_flag_gives_identical_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "a"),
                     "curvature"]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "b"),
                     "--jobs", "4", "curvature"]) == 0
        assert (tmp_path / "a" / "curvature.csv").read_bytes() == \
            (tmp_path / "b" / "curvature.csv").read_bytes()


class TestTraceCommand:
    def test_circle_sidecar(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "trace", "1.0", "0.0"]) == 0
        side = read_json(tmp_path / "out" / "trace_summary.json")
        assert side["deviation"]["max_dev"] < 1e-6
        assert abs(side["fit"]["a"]) < 1e-8
        assert abs(side["fit"]["b"] - 2.0 * math.tanh(1.0)) < 1e-6
        csv = (tmp_path / "out" / "trace.csv").read_text()
        assert csv.splitlines()[0] == "s,u,v,h_x0,h_x1,h_x2,t,k2,H,lambda"

    def test_slice_seed_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path), "trace", "1.0", "3.0"]) == 4

    def test_seed_with_no_step_either_way_exits_3(self, tmp_path, capsys):
        """A strip 0.0004 high, seeded in its middle: every first stage of
        step 1e-3 leaves the domain, so the trace is one domain error."""
        cfg = write_cfg(tmp_path, {"surface": {
            "kind": "cylinder", "curve": {"kind": "constant", "value": 0.5},
            "domain": {"v": [0, 0.0004]}}})
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "trace", "0.5", "0.0002"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed (0.5, 0.0002)" in err and "DOMAIN_EDGE" in err

    def test_residuals_without_samples_are_null(self, tmp_path):
        """Seeded 1e-9 from the u edge of the chart, the trace has no sample
        where a connection step fits, so every lam is NaN: the run warns
        nothing and writes the residuals of lam as null."""
        cfg = write_cfg(tmp_path, {"surface": {"kind": "cylinder",
                                               "curve": {"kind": "constant", "value": 1.0},
                                               "domain": {"u": [0.0, 3.0]}},
                                   "trace": {"length": 0.2}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                         "trace", "1e-9", "0"]) == 0
        assert not caught
        side = read_json(tmp_path / "out" / "trace_summary.json")
        assert side["residuals"]["lambda_ode"] is None
        assert side["residuals"]["k2_ode"] is None
        assert side["samples"] > 5

    def test_inflection_never_planar_hit(self, tmp_path):
        cfg = write_cfg(tmp_path, INFLECTION_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "trace", "1.0", "0.0"]) == 0
        side = read_json(tmp_path / "out" / "trace_summary.json")
        assert side["stop_reason"] != "PLANAR_HIT"

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        for d in ("a", "b"):
            assert main(["--config", cfg, "--out", str(tmp_path / d),
                         "trace", "2.0", "0.5"]) == 0
        for name in ("trace.csv", "trace_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestClassifyCommand:
    def test_cylinder(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "classify"]) == 0
        verdict = read_json(tmp_path / "out" / "verdict.json")
        assert verdict["verdict"] == "CYLINDER"
        assert verdict["ruling_verticality"] < 1e-6

    def test_slice(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "classify"]) == 0
        verdict = read_json(tmp_path / "out" / "verdict.json")
        assert verdict["verdict"] == "NOT_FLAT"

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        for d in ("a", "b"):
            assert main(["--config", cfg, "--out", str(tmp_path / d),
                         "classify"]) == 0
        assert (tmp_path / "a" / "verdict.json").read_bytes() == \
            (tmp_path / "b" / "verdict.json").read_bytes()

    def test_numerical_overflow_exits_3(self, tmp_path):
        # cosh overflows on a huge slice radius: numerical failure, not config
        cfg = write_cfg(tmp_path, {"surface": {"kind": "slice", "t0": 0.0,
                                               "radius": 800.0}})
        assert main(["--config", cfg, "--out", str(tmp_path), "classify"]) == 3

    def test_inconsistent_exits_5(self, tmp_path, monkeypatch):
        # a chart that fails at some scan cells: its verdict is INCONSISTENT
        import h2xr.cli as cli
        from h2xr.surfaces import from_config

        monkeypatch.setattr(cli, "from_config", lambda cfg: faulty_at_cell_centres(
            from_config(cfg), 21, 2.8))
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "classify"]) == 5
        verdict = read_json(tmp_path / "out" / "verdict.json")
        assert verdict["verdict"] == "INCONSISTENT"
        assert verdict["notes"] == ["flatness scan: 21 cells failed with NOT_IMMERSED"]


class TestGeodesicCommand:
    def test_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "geodesic", "--point", "0,0,0",
                     "--velocity", "1,0,1", "--length", "2.0",
                     "--step", "0.001"]) == 0
        lines = (out / "geodesic.csv").read_text().strip().splitlines()
        assert lines[0] == "s,h_x0,h_x1,h_x2,t"
        assert len(lines) == 2002
        last = [float(x) for x in lines[-1].split(",")]
        r2 = math.sqrt(0.5)
        s = last[0]
        assert last[1] == pytest.approx(math.cosh(r2 * s), abs=1e-12)
        assert last[2] == pytest.approx(math.sinh(r2 * s), abs=1e-12)
        assert last[3] == 0.0
        assert last[4] == pytest.approx(r2 * s, abs=1e-12)

    def test_zero_velocity_is_bad_config(self, tmp_path):
        assert main(["--out", str(tmp_path), "geodesic", "--velocity", "0,0,0"]) == 2

    def test_overflow_exits_3(self, tmp_path):
        # cosh(800) overflows: a numerical failure, not a traceback
        assert main(["--out", str(tmp_path), "geodesic", "--length", "800", "--step", "1"]) == 3


class TestTolFlag:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--tol", "bogus=1e-3", "curvature"]) == 2

    def test_malformed_value_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--tol", "flatness=abc", "curvature"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-6"])
    def test_non_finite_or_nonpositive_value_rejected(self, tmp_path, value):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--tol", f"planar={value}", "curvature"]) == 2


CONSTANT_CYLINDER = {"kind": "cylinder", "curve": {"kind": "constant", "value": 1.0}}


def _grid(nu):
    return {"surface": SLICE_CFG["surface"], "grid": {"nu": nu, "nv": 3}}


def _perturbed(depth: int) -> dict:
    """A slice perturbed ``depth`` times: a chart of cost 9 ** depth."""
    cfg = SLICE_CFG["surface"]
    for _ in range(depth):
        cfg = {"kind": "perturbed", "eps": 0.01, "base": cfg}
    return cfg


def _deep_cfg(tmp_path, depth=1500):
    """A config whose surface is ``depth`` perturbations of a slice: nested
    too deeply for the JSON reader (and for json.dumps, so written as text)."""
    p = tmp_path / "deep.json"
    p.write_text('{"surface": ' + '{"kind": "perturbed", "eps": 0.1, "base": ' * depth
                 + json.dumps(SLICE_CFG["surface"]) + "}" * depth + "}", encoding="utf-8")
    return str(p)


class TestRejectedInputs:
    """Malformed numbers, and numbers asking for more work than the library's
    limits allow, exit 2 with a one-line error; every limit refuses its input
    before any work starts, so none of these runs long."""

    @pytest.mark.parametrize("cfg, argv", [
        (_grid("abc"), ["curvature"]),
        (_grid(math.nan), ["curvature"]),
        (_grid(math.inf), ["curvature"]),
        (_grid(2.9), ["curvature"]),
        (_grid(True), ["curvature"]),
        (_grid(None), ["curvature"]),
        (_grid(1e9), ["curvature"]),
        ({"surface": {"kind": "slice", "t0": 0.0, "radius": True}}, ["curvature"]),
        ({"surface": {"kind": "slice", "t0": "0", "radius": 2.0}}, ["curvature"]),
        (SLICE_CFG, ["--seed", "-1", "curvature"]),
        ({"corpus": [{"surface": SLICE_CFG["surface"], "expect": "cylinder"}]},
         ["verify-paper"]),
        ({"corpus": [{"surface": SLICE_CFG["surface"], "expect": "NOT_FLAT", "fd": 1}]},
         ["verify-paper"]),
        ({}, ["geodesic", "--length", "inf"]),
        ({}, ["geodesic", "--step", "nan"]),
        ({}, ["geodesic", "--length", "1e30", "--step", "1e-30"]),
        ({"surface": CONSTANT_CYLINDER, "trace": {"length": 1, "step": 1e-300}},
         ["trace", "0.0", "0.0"]),
        ({"surface": CONSTANT_CYLINDER, "trace": {"length": 1, "step": 1e-300}}, ["classify"]),
        ({"surface": CONSTANT_CYLINDER, "trace": {"length": "5"}}, ["classify"]),
        ({"surface": CONSTANT_CYLINDER, "trace": {"length": 1e-4, "step": 1e-3}},
         ["trace", "0.5", "0.0"]),
        ({"surface": CONSTANT_CYLINDER, "trace": {"length": 1e-4, "step": 1e-3}}, ["classify"]),
        ({"surface": dict(CONSTANT_CYLINDER, domain={"u": [-1e6, 1e6]})}, ["curvature"]),
        ({"surface": dict(CONSTANT_CYLINDER, domain={"u": [0.0, 10**400]})}, ["curvature"]),
        ({"surface": CONSTANT_CYLINDER}, ["trace", "nan", "0"]),
        ({"surface": CONSTANT_CYLINDER}, ["trace", "0.5", "inf"]),
        ({}, ["geodesic", "--point", "nan,0,0"]),
        ({}, ["geodesic", "--point", "0,0,inf"]),
        ({}, ["geodesic", "--velocity", "inf,0,0"]),
        ({}, ["geodesic", "--velocity", "1,nan,0"]),
        ({}, ["geodesic", "--point", "1e200,0,0"]),
        ({}, ["geodesic", "--velocity", "1e200,0,0"]),
        ({}, ["geodesic", "--point", "1e150,0,0", "--velocity", "1e10,0,1"]),
        # 3,136 cells, 254,016 at cost 81
        ({"surface": _perturbed(2), "grid": {"nu": 56, "nv": 56}}, ["curvature"]),
        (None, ["curvature"]),
    ], ids=["nu_str", "nu_nan", "nu_inf", "nu_fraction", "nu_bool", "nu_null", "nu_1e9",
            "radius_bool", "t0_str", "seed_negative", "expect_not_a_verdict", "fd_not_bool",
            "geodesic_length_inf", "geodesic_step_nan", "geodesic_samples",
            "trace_half_steps", "classify_trace_half_steps", "trace_length_str",
            "trace_no_step", "classify_trace_no_step",
            "curve_steps", "u_beyond_floats", "trace_u0_nan", "trace_v0_inf",
            "geodesic_point_nan", "geodesic_point_inf", "geodesic_velocity_inf",
            "geodesic_velocity_nan", "geodesic_point_overflows", "geodesic_velocity_overflows",
            "geodesic_projection_overflows", "grid_cells_times_cost", "config_too_deep"])
    def test_exits_2(self, tmp_path, capsys, cfg, argv):
        path = write_cfg(tmp_path, cfg) if cfg is not None else _deep_cfg(tmp_path)
        assert main(["--config", path, "--out", str(tmp_path / "out")] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, name", [
        (["trace", "nan", "0"], "u0"), (["trace", "0.5", "inf"], "v0"),
        (["geodesic", "--point", "0,0,inf"], "--point"),
        (["geodesic", "--velocity", "inf,0,0"], "--velocity"),
    ])
    def test_non_finite_argument_named(self, tmp_path, capsys, argv, name):
        path = write_cfg(tmp_path, {"surface": CONSTANT_CYLINDER})
        assert main(["--config", path, "--out", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be a finite number")

    @pytest.mark.parametrize("argv, name", [
        (["geodesic", "--point", "1e200,0,0"], "--point"),
        (["geodesic", "--velocity", "1e200,0,0"], "--velocity"),
        (["geodesic", "--point", "1e150,0,0", "--velocity", "1e10,0,1"], "--velocity"),
    ])
    def test_finite_argument_that_overflows_named(self, tmp_path, capsys, argv, name):
        # the hyperboloid coordinate x0 of the point, or the length of the
        # velocity or of its projection to the point's tangent plane,
        # overflows: a bad input, not a numerical failure
        assert main(["--out", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} ")

    def test_finite_seed_outside_the_domain_exits_3(self, tmp_path):
        path = write_cfg(tmp_path, {"surface": CONSTANT_CYLINDER})
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     "trace", "1e6", "0"]) == 3

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_cfg(tmp_path, _grid(4.0))
        assert main(["--config", cfg, "--out", str(tmp_path), "curvature"]) == 0
        summary = read_json(tmp_path / "curvature_summary.json")
        assert summary["grid"] == [4, 3]


class TestChartCost:
    """A chart costing more than MAX_CHART_COST innermost evaluations per jet
    is refused where the surface is built, before its chart is called."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Chart points evaluated on every slice built from config, scalar
        or in blocks."""
        count = []

        def counted_slice(*args, inner=surfaces.make_slice, **kwargs):
            S = inner(*args, **kwargs)

            def chart(u, v):
                count.append(1)
                return S.chart(u, v)

            def jets(us, vs):
                count.append(len(us))
                return S.chart.jets(us, vs)

            chart.jets = jets
            return dataclasses.replace(S, chart=chart)

        monkeypatch.setattr(surfaces, "make_slice", counted_slice)
        return count

    def test_three_levels_exit_2_before_any_chart_evaluation(self, tmp_path, capsys,
                                                              evaluations):
        path = write_cfg(tmp_path, {"surface": _perturbed(3), "grid": {"nu": 2, "nv": 2}})
        assert main(["--config", path, "--out", str(tmp_path / "out"), "curvature"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "costs 729 chart evaluations per jet" in err and "MAX_CHART_COST = 112" in err
        assert evaluations == [] and not (tmp_path / "out").exists()

    def test_two_levels_are_accepted(self, tmp_path, evaluations):
        path = write_cfg(tmp_path, {"surface": _perturbed(2), "grid": {"nu": 2, "nv": 2}})
        assert main(["--config", path, "--out", str(tmp_path / "out"), "curvature"]) == 0
        # four Brioschi stencils of 25 jets, each of 81 slice points
        assert sum(evaluations) == 4 * 25 * 81

    def test_limit_is_one_brioschi_stencil_per_block(self):
        assert surfaces.MAX_CHART_COST == surfaces.POINT_BLOCK // 25 == 112
        S = surfaces.preset("slice")
        assert dataclasses.replace(S, cost=112).cost == 112
        with pytest.raises(ConfigError, match="MAX_CHART_COST"):
            dataclasses.replace(S, cost=113)


# Every kind of JSON scalar, with the edges of each: integers past the float
# range, integral floats, signed zeros, subnormals, NaN and +-Infinity.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([10**400, -10**400, 2**53 + 1, 20.0, 2.9, -0.0, 5e-324, 1e308]))

RUN_FIELDS = [("grid", "nu"), ("grid", "nv"), ("trace", "length"), ("trace", "step"),
              ("tol", "flatness"), ("tol", "verticality"), ("tol", "planar")]
SURFACE_FIELDS = [
    ({"kind": "slice", "t0": 0.0, "radius": 2.0}, ("t0",)),
    ({"kind": "slice", "t0": 0.0, "radius": 2.0}, ("radius",)),
    ({"kind": "graph", "f": {"kind": "bilinear", "coef": 0.3}}, ("f", "coef")),
    ({"kind": "graph", "f": {"kind": "linear", "a": 0.3}}, ("f", "a")),
] + [({"kind": "graph", "f": {"kind": "zero"}, "domain": {"u": [-1.0, 1.0], "v": [-1.0, 1.0]}},
      ("domain", axis, end)) for axis in "uv" for end in (0, 1)]


def _put(cfg: dict, path: tuple, value) -> dict:
    """A JSON round trip of ``cfg`` with ``value`` at ``path``, as a config
    file would deliver it."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return json.loads(json.dumps(cfg))


class TestConfigNumbers:
    """Any JSON scalar in any numeric field loads or raises ConfigError; none
    of these configs asks for work, so nothing is evaluated."""

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(RUN_FIELDS), value=JSON_SCALARS)
    def test_run_config(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(_put({}, field, value)), encoding="utf-8")
            args = build_parser().parse_args(["--config", str(path), "curvature"])
            try:
                cfg = load_run_config(args)
            except ConfigError:
                return
        assert isinstance(cfg, RunConfig)
        c = cfg.classifier
        for x in (cfg.grid_nu, cfg.grid_nv, c.trace_length, c.trace_step, c.flatness_tol,
                  c.verticality_tol, c.planar_tol):
            assert type(x) in (int, float) and math.isfinite(x)
        assert type(cfg.grid_nu) is int and type(cfg.grid_nv) is int

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(SURFACE_FIELDS), value=JSON_SCALARS)
    def test_surface_config(self, case, value):
        base, field = case
        try:
            surface = from_config(_put(base, field, value))
        except ConfigError:
            return
        assert isinstance(surface, Surface)
        assert all(math.isfinite(x) for x in (*surface.domain.u_range,
                                              *surface.domain.v_range))


class TestOverflowingChart:
    """A height slope of 1.3e154 overflows the first form: no cell evaluates,
    and no NaN or Infinity reaches a JSON file."""

    CFG = {"surface": {"kind": "graph", "f": {"kind": "linear", "a": 1.3e154},
                       "domain": {"u": [-1, 1], "v": [-3, 3]}}}

    def _json_files_are_finite(self, out):
        for path in out.glob("*.json"):
            read_json(path)

    def test_curvature_exits_3(self, tmp_path, capsys):
        """Every Brioschi stencil overflows too: numpy stays silent, and the
        run reports the one error."""
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--out", str(out), "curvature"]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        self._json_files_are_finite(out)

    def test_classify_is_inconsistent_or_numerical(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "classify"]) in (3, 5)
        self._json_files_are_finite(out)


class TestVerifyPaperCommand:
    def test_injected_fault_and_tolerance_floor(self, tmp_path):
        """One injected fault, a perturbed cylinder mislabeled as CYLINDER,
        fails THEOREM1; a finite-difference cylinder judged at a verticality
        tolerance of 1e-12 still passes, because ruling drift is measured by
        a hyperbolic distance accurate down to zero (its rulings do not
        drift at all)."""
        cfg = write_cfg(tmp_path, {"corpus": [
            {"label": "mislabeled", "surface": CORPUS_CONFIGS["perturbed_cylinder"],
             "expect": "CYLINDER"},
            {"label": "fd_floor", "surface": CORPUS_CONFIGS["cylinder_circle"],
             "expect": "CYLINDER", "fd": True},
        ]})
        code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol", "verticality=1e-12", "verify-paper"])
        assert code == 1
        report = read_json(tmp_path / "out" / "verify_report.json")
        assert report["overall"] == "FAIL"
        by_id = {c["id"]: c for c in report["checks"]}
        assert set(by_id) == {"PROP1", "PROP2", "LEMMA2", "PROP3", "GEO_LEMMA",
                              "FOLIATION", "THEOREM1", "DIVERGENCE"}
        assert by_id["THEOREM1"]["status"] == "FAIL"
        details = {d["name"]: d for d in by_id["THEOREM1"]["details"]}
        assert not details["mislabeled verdict == CYLINDER"]["passed"]
        assert details["fd_floor verdict == CYLINDER"]["passed"]
        assert details["fd_floor ruling verticality"]["passed"]
        assert details["fd_floor ruling verticality"]["threshold"] == 1e-12
        # the curve is read off the cylinder before its finite-difference wrapping
        assert details["fd_floor recovered-curve Hausdorff"]["passed"]
        for other in ("PROP1", "PROP2", "LEMMA2", "PROP3", "GEO_LEMMA",
                      "FOLIATION", "DIVERGENCE"):
            assert by_id[other]["status"] == "PASS"
        # self-auditing: every entry carries its measured value and threshold
        for c in report["checks"]:
            assert "measured" in c and "threshold" in c
        assert (tmp_path / "out" / "verify_report.txt").exists()
