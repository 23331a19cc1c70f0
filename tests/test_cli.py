"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import pytest

from h2xr.cli import main
from h2xr.surfaces import CORPUS_CONFIGS

from conftest import faulty_at_cell_centres

SLICE_CFG = {"surface": {"kind": "slice", "t0": 0.0, "radius": 2.0}}
CIRCLE_CFG = {"surface": CORPUS_CONFIGS["cylinder_circle"]}
INFLECTION_CFG = {"surface": CORPUS_CONFIGS["cylinder_inflection"]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


class TestCurvatureCommand:
    def test_slice_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "curvature"]) == 0
        summary = json.loads((tmp_path / "out" / "curvature_summary.json").read_text())
        assert abs(summary["max_abs_Kint_gauss"] - 1.0) < 1e-9
        csv = (tmp_path / "out" / "curvature.csv").read_text()
        assert csv.splitlines()[0] == \
            "u,v,k1,k2,H,Kext,Kint_gauss,Kint_brioschi,nu,class,status"

    def test_circle_all_parabolic(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "curvature"]) == 0
        summary = json.loads((tmp_path / "out" / "curvature_summary.json").read_text())
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
        side = json.loads((tmp_path / "out" / "trace_summary.json").read_text())
        assert side["deviation"]["max_dev"] < 1e-6
        assert abs(side["fit"]["a"]) < 1e-8
        assert abs(side["fit"]["b"] - 2.0 * math.tanh(1.0)) < 1e-6
        csv = (tmp_path / "out" / "trace.csv").read_text()
        assert csv.splitlines()[0] == "s,u,v,h_x0,h_x1,h_x2,t,k2,H,lambda"

    def test_slice_seed_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path), "trace", "1.0", "3.0"]) == 4

    def test_inflection_never_planar_hit(self, tmp_path):
        cfg = write_cfg(tmp_path, INFLECTION_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "trace", "1.0", "0.0"]) == 0
        side = json.loads((tmp_path / "out" / "trace_summary.json").read_text())
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
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["verdict"] == "CYLINDER"
        assert verdict["ruling_verticality"] < 1e-6

    def test_slice(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "classify"]) == 0
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
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
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
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


class TestTolFlag:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--tol", "bogus=1e-3", "curvature"]) == 2

    def test_malformed_value_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SLICE_CFG)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "--tol", "flatness=abc", "curvature"]) == 2


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
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
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
        for other in ("PROP1", "PROP2", "LEMMA2", "PROP3", "GEO_LEMMA",
                      "FOLIATION", "DIVERGENCE"):
            assert by_id[other]["status"] == "PASS"
        # self-auditing: every entry carries its measured value and threshold
        for c in report["checks"]:
            assert "measured" in c and "threshold" in c
        assert (tmp_path / "out" / "verify_report.txt").exists()
