"""Command-line front end: scans, traces, classification, verification.

Commands
--------
  curvature     write a curvature table (CSV) and a JSON summary
  trace         trace an asymptotic line; CSV samples plus a JSON sidecar
  classify      run the cylinder detection pipeline; JSON verdict
  geodesic      evaluate a closed-form product geodesic to CSV
  verify-paper  run the consolidated verification suite; JSON + text report

Global flags: ``--config PATH`` (JSON run configuration), ``--out DIR``,
``--tol KEY=VAL`` (repeatable; keys flatness, verticality, planar),
``--seed N``.  ``--jobs N`` is accepted and ignored: every command runs in
one thread.

Exit codes: 0 success (including NOT_FLAT verdicts), 1 verification suite
failed, 2 bad configuration, 3 numerical failure, 4 trace seeded at a
non-parabolic point, 5 INCONSISTENT verdict.

Surface JSON schema
-------------------
::

  {"kind": "cylinder",
   "curve": {"kind": "constant", "value": K}
          | {"kind": "linear", "slope": A, "intercept": B}
          | {"kind": "spline", "knots_s": [...], "knots_k": [...]},
   "domain": {"u": [u0, u1], "v": [v0, v1]},   # optional
   "curve_step": 0.001}                         # optional

  {"kind": "slice", "t0": T, "radius": R}

  {"kind": "graph",
   "f": {"kind": "bilinear", "coef": C} | {"kind": "linear", "a": A}
      | {"kind": "zero"},
   "domain": {"u": [u0, u1], "v": [v0, v1]}}   # optional

  {"kind": "perturbed", "base": {...}, "eps": E,
   "bump": {"center": [u, v], "width": W}}      # bump optional

Run configuration schema (all fields optional)::

  {"surface": {...},                  # as above
   "grid": {"nu": 20, "nv": 20},
   "trace": {"length": 5.0, "step": 0.001},
   "tol": {"flatness": 1e-6, "verticality": 1e-6, "planar": 1e-7},
   "corpus": [{"label": L, "surface": {...}, "expect": "CYLINDER",
               "fd": false}, ...]}   # verify-paper corpus override

Numbers: every config number is read by ``surfaces.config_number``, which
takes finite JSON integers and floats only (no bool, string, null, NaN or
Infinity), integral ones for ``grid.nu``/``grid.nv`` (20.0 is 20, 2.9 is not).
``--tol`` values, the ``trace`` seed and the ``geodesic`` numbers go through
float() first; ``--seed`` is an integer >= 0.  To
bound memory and time (a few hundred MB, about a minute) the work of one input
is capped, before it starts, by ``curvature.MAX_GRID_CELLS`` (250,000 cells,
each weighted by the chart's ``Surface.cost``, so a 56 x 56 grid of a slice
perturbed twice, cost 81, is refused), ``hyperbolic.MAX_CURVE_STEPS``
(1,000,000), ``flows.MAX_TRACE_HALF_STEPS`` (50,000 RK4 steps per leg,
length / (2 step)) and ``MAX_GEODESIC_SAMPLES`` (1,000,000); each
constant's comment gives its per-unit cost.  A surface
whose jet costs more than ``surfaces.MAX_CHART_COST`` (112) evaluations of
its innermost chart, such as a slice perturbed three times (729), is refused
where it is built.  Every refused input exits 2 with one ``error:`` line, a
``geodesic`` ``--point`` whose hyperboloid coordinate x0 overflows, a
``--velocity`` whose tangent projection or length does, a config nested too
deeply to read and a chart too costly among them; a valid
number that overflows later in the computation exits 3 (5 for an INCONSISTENT
``classify`` verdict).

Outputs are deterministic: a fixed config and seed produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .classifier import (CYLINDER, INCONSISTENT, NOT_FLAT, ClassifierConfig,
                         classify_surface, verdict_to_json)
from .curvature import curvature_grid
from .errors import ConfigError, GeometryError, NotParabolic, NumericalError
from .flows import (fit_inverse_H, frame_ode_residuals, geodesic_deviation,
                    trace_asymptotic)
from .hyperbolic import check_point
from .minkowski import _mdot, _project_tangent
from .product import ProdGeodesic
from .surfaces import config_number, from_config
from .verification import report_to_json, report_to_text, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NOT_PARABOLIC = 4
EXIT_INCONSISTENT = 5

_TOL_KEYS = ("flatness", "verticality", "planar")
_VERDICTS = (CYLINDER, NOT_FLAT, INCONSISTENT)
MAX_GEODESIC_SAMPLES = 1_000_000  # rows: 230 B, 12 us each (2-core VM)


@dataclass
class RunConfig:
    surface: dict | None = None
    grid_nu: int = 20
    grid_nv: int = 20
    classifier: ClassifierConfig = ClassifierConfig()
    out: Path = Path(".")
    seed: int = 0
    corpus: list | None = None


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object")
    return value


def load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config file nests too deeply to be read") from None
        if not isinstance(raw, dict):
            raise ConfigError("run config must be a JSON object")
    cfg.surface = raw.get("surface")
    grid = _section(raw, "grid")
    cfg.grid_nu = config_number(grid.get("nu", cfg.grid_nu), "grid.nu", integer=True)
    cfg.grid_nv = config_number(grid.get("nv", cfg.grid_nv), "grid.nv", integer=True)
    settings = {f"trace_{k}": config_number(v, f"trace.{k}")
                for k, v in _section(raw, "trace").items() if k in ("length", "step")}
    tols = list(_section(raw, "tol").items())
    for spec in args.tol or []:
        if "=" not in spec:
            raise ConfigError(f"--tol expects KEY=VAL, got {spec!r}")
        k, _, v = spec.partition("=")
        try:
            tols.append((k, float(v)))
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {v!r}") from exc
    for k, v in tols:
        if k not in _TOL_KEYS:
            raise ConfigError(f"unknown tolerance key {k!r}")
        settings[f"{k}_tol"] = config_number(v, f"tol.{k}")
    cfg.classifier = ClassifierConfig(**settings)
    cfg.corpus = raw.get("corpus")
    if cfg.corpus is not None:
        if not isinstance(cfg.corpus, list) or not all(
                isinstance(e, dict) and "surface" in e and e.get("expect") in _VERDICTS
                and isinstance(e.get("fd", False), bool) for e in cfg.corpus):
            raise ConfigError("'corpus' must be a list of {surface, expect, fd} objects, "
                              f"expect one of {', '.join(_VERDICTS)} and fd a bool")
    cfg.out = Path(args.out)
    cfg.seed = config_number(args.seed, "--seed", integer=True)
    if cfg.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {cfg.seed}")
    return cfg


def _require_surface(cfg: RunConfig):
    if cfg.surface is None:
        raise ConfigError("this command needs a 'surface' entry in the config")
    return from_config(cfg.surface)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _json_number(x: float) -> float | None:
    """x, or null where it is not finite (JSON has no NaN or Infinity)."""
    return x if math.isfinite(x) else None


def _dump_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- commands ---------------------------------------------------------------------

def cmd_curvature(cfg: RunConfig) -> int:
    surface = _require_surface(cfg)
    grid = curvature_grid(surface, cfg.grid_nu, cfg.grid_nv, tol=cfg.classifier.planar_tol)
    ok = grid.valid_rows()
    if not ok:
        raise NumericalError(f"no grid point of {surface.label} could be evaluated")
    summary = {
        "label": surface.label,
        "grid": [cfg.grid_nu, cfg.grid_nv],
        "rows": len(grid.rows),
        "rows_failed": len(grid.rows) - len(ok),
        "max_abs_Kint_gauss": max(abs(r.Kint_gauss) for r in ok),
        "max_abs_Kint_brioschi": max(abs(r.Kint_brioschi) for r in ok),
        "max_abs_Kext": max(abs(r.Kext) for r in ok),
        "class_counts": dict(Counter(r.cls for r in ok)),
    }
    _write(cfg.out / "curvature.csv", grid.to_csv())
    _dump_json(cfg.out / "curvature_summary.json", summary)
    print(f"wrote {cfg.out / 'curvature.csv'} ({len(grid.rows)} rows)")
    return EXIT_OK


def cmd_trace(cfg: RunConfig, u0: float, v0: float) -> int:
    surface = _require_surface(cfg)
    c = cfg.classifier
    tr = trace_asymptotic(surface, u0, v0, c.trace_length, c.trace_step, c.planar_tol)
    dev = geodesic_deviation(tr)
    res = frame_ode_residuals(tr)
    num = _json_number
    sidecar = {
        "label": surface.label,
        "seed": [u0, v0],
        "samples": len(tr),
        "stop_reason": tr.stop_reason,
        "deviation": {"max_dev": num(dev.max_dev), "at_s": num(dev.at_s)},
        "residuals": {"lambda_ode": num(res.lambda_ode), "k2_ode": num(res.k2_ode),
                      "de2": num(res.de2), "de3": num(res.de3)},
        "fit": None,
    }
    try:
        fit = fit_inverse_H(tr)
        sidecar["fit"] = {"a": num(fit.a), "b": num(fit.b),
                          "rms_residual": num(fit.rms_residual), "n": fit.n}
    except GeometryError:
        pass  # planar samples present; no affine law to fit
    _write(cfg.out / "trace.csv", tr.to_csv())
    _dump_json(cfg.out / "trace_summary.json", sidecar)
    print(f"wrote {cfg.out / 'trace.csv'} ({len(tr)} samples, {tr.stop_reason})")
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    surface = _require_surface(cfg)
    verdict = classify_surface(surface, cfg.classifier)
    _dump_json(cfg.out / "verdict.json", verdict_to_json(verdict))
    print(f"{surface.label}: {verdict.verdict}")
    return EXIT_INCONSISTENT if verdict.verdict == INCONSISTENT else EXIT_OK


def cmd_geodesic(cfg: RunConfig, point: str, velocity: str,
                 length: float, step: float) -> int:
    try:
        x1, x2, t = (config_number(float(x), "--point") for x in point.split(","))
        w1, w2, vt = (config_number(float(x), "--velocity") for x in velocity.split(","))
    except ValueError as exc:
        raise ConfigError("--point and --velocity expect comma-separated triples") from exc
    length = config_number(length, "--length")
    step = config_number(step, "--step")
    if length <= 0.0 or step <= 0.0:
        raise ConfigError("length and step must be positive")
    if not length / step <= MAX_GEODESIC_SAMPLES:
        raise ConfigError(f"--length {length:g} at --step {step:g} gives more than "
                          f"MAX_GEODESIC_SAMPLES = {MAX_GEODESIC_SAMPLES} samples")
    foot = (math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)
    try:
        check_point(foot)
    except NumericalError as exc:
        raise ConfigError(f"--point {point} gives no point of the hyperboloid: {exc}") from None
    wh = _project_tangent(foot, (0.0, w1, w2))
    q = _mdot(wh, wh)
    norm = math.sqrt(max(0.0, q) + vt * vt)
    if not (math.isfinite(q) and math.isfinite(norm)):
        raise ConfigError(f"--velocity {velocity} is too long at --point {point}: "
                          "its tangent projection or its length overflows")
    if norm < 1e-12:
        raise ConfigError("velocity must be nonzero")
    geo = ProdGeodesic.from_tangent(foot, t, tuple(c / norm for c in wh), vt / norm)
    lines = ["s,h_x0,h_x1,h_x2,t"]
    n = int(round(length / step))
    for i in range(n + 1):
        s = i * step
        p, height = geo.point(s)
        check_point(p)
        if not math.isfinite(height):
            raise NumericalError(f"non-finite height {height}")
        lines.append(",".join(map(repr, (s, *p, height))))
    _write(cfg.out / "geodesic.csv", "\n".join(lines) + "\n")
    print(f"wrote {cfg.out / 'geodesic.csv'} ({n + 1} samples)")
    return EXIT_OK


def cmd_verify_paper(cfg: RunConfig) -> int:
    report = run_verification(seed=cfg.seed, corpus=cfg.corpus,
                              classifier_config=cfg.classifier)
    _dump_json(cfg.out / "verify_report.json", report_to_json(report))
    text = report_to_text(report)
    _write(cfg.out / "verify_report.txt", text)
    print(text, end="")
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


# -- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2xr",
        description="Curvature scans, asymptotic traces and cylinder detection "
                    "for surfaces in the product of the hyperbolic plane and a line.")
    parser.add_argument("--config", help="JSON run configuration", default=None)
    parser.add_argument("--out", help="output directory", default=".")
    parser.add_argument("--tol", action="append", metavar="KEY=VAL",
                        help="tolerance override (flatness, verticality, planar)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored (every command runs in one thread)")
    parser.add_argument("--seed", type=int, default=0, help="random seed for probes")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("curvature", help="curvature grid scan")

    p_trace = sub.add_parser("trace", help="trace an asymptotic line")
    p_trace.add_argument("u0", type=float)
    p_trace.add_argument("v0", type=float)

    sub.add_parser("classify", help="cylinder detection pipeline")

    p_geo = sub.add_parser("geodesic", help="evaluate a product geodesic")
    p_geo.add_argument("--point", default="0,0,0",
                       help="x1,x2,t (the hyperboloid x0 is derived)")
    p_geo.add_argument("--velocity", default="1,0,0", help="w1,w2,vt")
    p_geo.add_argument("--length", type=float, default=2.0)
    p_geo.add_argument("--step", type=float, default=1e-3)

    sub.add_parser("verify-paper", help="run the consolidated verification suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args)
        if args.command == "curvature":
            return cmd_curvature(cfg)
        if args.command == "trace":
            return cmd_trace(cfg, config_number(args.u0, "u0"), config_number(args.v0, "v0"))
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "geodesic":
            return cmd_geodesic(cfg, args.point, args.velocity,
                                args.length, args.step)
        if args.command == "verify-paper":
            return cmd_verify_paper(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (GeometryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_BAD_CONFIG
        return EXIT_NOT_PARABOLIC if isinstance(exc, NotParabolic) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
