"""The four benchmark workloads: seeded inputs, one pass of items, and the
correctness gate of every item.

Every item is one CLI-sized job, run through the library functions that the
CLI's ``cmd_*`` handlers call.  The library is always reached through its
module attributes (``classifier.classify_surface``, never a name imported
into this module), so the tracer's patches see every call.

Each pass rebuilds its surfaces and reference curves from their JSON configs,
as a CLI run does, so the ``H2Curve`` frame memo starts cold in every pass.
The preset cache ``surfaces.preset`` is never used for the same reason.

Sizes are smaller than the CLI defaults where a default-sized pass would not
fit the benchmark's time budget (one pass must take a few seconds, so that a
run of tens of seconds holds several); ``Sizes`` documents each reduction.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from h2xr import classifier, curvature, flows, hyperbolic, surfaces

CORPUS = surfaces.CORPUS_CONFIGS
CURVED_CYLINDERS = ("cylinder_circle", "cylinder_horocycle", "cylinder_spline",
                    "cylinder_inflection")

# Thresholds pinned by verify-paper (h2xr/verification.py); the ruling
# verticality bound is the classifier's own verticality_tol.
CYLINDER_KINT_GAUSS = 1e-8
CYLINDER_KINT_BRIOSCHI = 1e-5
CYLINDER_KEXT = 1e-10
SLICE_GAUSS = 1e-9
SLICE_BRIOSCHI = 1e-4
CROSS_ORACLE = 1e-4
PERTURBED_KEXT = 1e-6
DEVIATION = 1e-5
FIT_RMS = 1e-6
FRAME_RESIDUAL = 1e-4
HAUSDORFF = 1e-5
PLANAR_TOL = 1e-7          # CLI default tol.planar, also the grid class tolerance
TRACE_STEP = 1e-3          # CLI default trace step
REFERENCE_STEP = 0.02      # curve_step of the reference curve in compare (config 0.001)
SEED_GRID = 21             # grid the trace start points are drawn from
SEED_MIN_K2 = 1e-3


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one pass.

    Reductions from the CLI defaults, all made so that a pass takes a few
    seconds and a run holds several passes: ``curvature_grid`` 10 (CLI 20),
    ``classify_grid`` 15 (21; odd, so the inflection strip still lands on a
    cell centre), ``ruling_length`` 0.5 and ``trace_length`` 1.0 (5.0),
    ``recovery_samples`` 201 in ``compare`` (1201).  The reference curve of
    ``compare`` is built with ``REFERENCE_STEP``, so the half of its
    Hausdorff search that starts from the reference points runs about 20
    times fewer searches than THEOREM1.  Trace step, planar tolerance, seeds
    per classification and every correctness threshold are the defaults.
    """

    curvature_grid: int = 10
    classify_grid: int = 15
    ruling_length: float = 0.5
    trace_length: float = 1.0
    seeds_per_preset: int = 2
    recovery_samples: int = 201


@dataclass
class Outcome:
    """What one item produced: its serialized output, gates and fingerprint."""

    output: str
    gates: list[tuple[str, float, str, float]]
    fingerprint: dict

    def failures(self) -> list[str]:
        bad = []
        for label, measured, op, threshold in self.gates:
            ok = measured < threshold if op == "<" else measured >= threshold
            if not ok:  # NaN fails either way
                bad.append(f"{label} = {measured!r} (need {op} {threshold!r})")
        return bad


@dataclass
class Item:
    label: str
    run: Callable[[], Outcome]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- seeded inputs ---------------------------------------------------------------

def _bumped(name: str, rng: random.Random) -> dict:
    """Perturbed preset with a seeded bump centre and width."""
    cfg = copy.deepcopy(CORPUS[name])
    dom = surfaces.from_config(cfg["base"]).domain
    (u0, u1), (v0, v1) = dom.u_range, dom.v_range
    wu, wv = dom.widths
    cfg["bump"] = {"center": [u0 + wu * rng.uniform(0.3, 0.7),
                              v0 + wv * rng.uniform(0.3, 0.7)],
                   "width": min(wu, wv) * rng.uniform(0.15, 0.35)}
    return cfg


def _graph(rng: random.Random) -> dict:
    return {"kind": "graph", "label": "graph_bilinear",
            "f": {"kind": "bilinear", "coef": rng.uniform(0.2, 0.4)}}


def _trace_seeds(name: str, rng: random.Random, sizes: Sizes) -> list[list[float]]:
    """Parabolic cell centres of a 21x21 grid with |k2| > 1e-3 whose trace
    fits the chart, so every trace runs its full length."""
    S = surfaces.from_config(CORPUS[name])
    (v0, v1) = S.domain.v_range
    reach = 0.5 * sizes.trace_length + 10.0 * TRACE_STEP
    cells = []
    for (u, v) in curvature.grid_points(S, SEED_GRID, SEED_GRID):
        if not v0 + reach <= v <= v1 - reach:
            continue
        sd = curvature.shape_data(curvature.fundamental_forms(S, u, v))
        if (curvature.classify_point(sd, PLANAR_TOL).tag == curvature.PARABOLIC
                and abs(sd.k2) > SEED_MIN_K2):
            cells.append([u, v])
    return rng.sample(cells, sizes.seeds_per_preset)


def draw_inputs(workload: str, seed: int, sizes: Sizes) -> list[dict]:
    """The item specs of one workload: plain JSON, fixed by the seed."""
    rng = random.Random(f"h2xr-benchmark/{workload}/{seed}")
    if workload == "classify":
        return [
            {"label": "cylinder_inflection", "surface": CORPUS["cylinder_inflection"],
             "expect": classifier.CYLINDER},
            {"label": "perturbed_slice", "surface": _bumped("perturbed_slice", rng),
             "expect": classifier.NOT_FLAT},
            {"label": "slice", "surface": CORPUS["slice"], "expect": classifier.NOT_FLAT},
        ]
    if workload == "curvature":
        specs = [{"label": name, "surface": CORPUS[name], "check": "cylinder"}
                 for name in surfaces.CYLINDER_PRESETS]
        specs.append({"label": "slice", "surface": CORPUS["slice"], "check": "slice"})
        for name in ("perturbed_cylinder", "perturbed_slice"):
            specs.append({"label": name, "surface": _bumped(name, rng),
                          "check": "perturbed"})
        specs.append({"label": "graph_bilinear", "surface": _graph(rng), "check": "graph"})
        return specs
    if workload == "trace":
        return [{"label": f"{name}@{i}", "surface": CORPUS[name], "seed": uv}
                for name in CURVED_CYLINDERS
                for i, uv in enumerate(_trace_seeds(name, rng, sizes))]
    if workload == "compare":
        return [{"label": name, "surface": CORPUS[name], "t0": rng.uniform(-2.0, 2.0)}
                for name in surfaces.CYLINDER_PRESETS]
    raise ValueError(f"unknown workload {workload!r}")


# -- items -------------------------------------------------------------------------

def _classify_item(spec: dict, sizes: Sizes) -> Callable[[], Outcome]:
    S = surfaces.from_config(spec["surface"])
    config = classifier.ClassifierConfig(grid_n=sizes.classify_grid,
                                         trace_length=sizes.ruling_length)

    def run() -> Outcome:
        v = classifier.classify_surface(S, config)
        js = classifier.verdict_to_json(v)
        gates = [(f"verdict {v.verdict} == {spec['expect']}",
                  float(v.verdict == spec["expect"]), ">=", 1.0)]
        if v.verdict == classifier.CYLINDER:
            gates.append(("ruling verticality", v.ruling_verticality, "<",
                          config.verticality_tol))
        flat = js["flatness"]
        return Outcome(_dump(js), gates, {
            "verdict": v.verdict, "max_abs_Kint": flat["max_abs_Kint"],
            "max_abs_Kext": flat["max_abs_Kext"]})

    return run


def _max_abs(values) -> float:
    arr = np.abs(np.asarray(values, dtype=float))
    return float(arr.max()) if arr.size else math.nan


def _curvature_item(spec: dict, sizes: Sizes) -> Callable[[], Outcome]:
    S = surfaces.from_config(spec["surface"])
    n = sizes.curvature_grid

    def run() -> Outcome:
        grid = curvature.curvature_grid(S, n, n, tol=PLANAR_TOL)
        ok = grid.valid_rows()
        kg = [r.Kint_gauss for r in ok]
        kb = [r.Kint_brioschi for r in ok]
        summary = {
            "label": spec["label"], "grid": [n, n], "rows": len(grid.rows),
            "rows_failed": len(grid.rows) - len(ok),
            "max_abs_Kint_gauss": _max_abs(kg),
            "max_abs_Kint_brioschi": _max_abs(kb),
            "max_abs_Kext": _max_abs([r.Kext for r in ok]),
        }
        gates = [("failed cells", float(summary["rows_failed"]), "<", 1.0)]
        check = spec["check"]
        if check == "cylinder":
            gates += [("max|Kint_gauss|", summary["max_abs_Kint_gauss"], "<", CYLINDER_KINT_GAUSS),
                      ("max|Kint_brioschi|", summary["max_abs_Kint_brioschi"], "<",
                       CYLINDER_KINT_BRIOSCHI),
                      ("max|Kext|", summary["max_abs_Kext"], "<", CYLINDER_KEXT)]
        elif check == "slice":
            gates += [("max|Kint_gauss + 1|", _max_abs([k + 1.0 for k in kg]), "<", SLICE_GAUSS),
                      ("max|Kint_brioschi + 1|", _max_abs([k + 1.0 for k in kb]), "<",
                       SLICE_BRIOSCHI)]
        elif check == "graph":
            gates.append(("max|Kb - Kg|", _max_abs([b - g for b, g in zip(kb, kg)]), "<",
                          CROSS_ORACLE))
        else:
            gates.append(("max|Kext|", summary["max_abs_Kext"], ">=", PERTURBED_KEXT))
        return Outcome(grid.to_csv() + _dump(summary), gates, {
            "max_abs_Kint": summary["max_abs_Kint_gauss"],
            "max_abs_Kext": summary["max_abs_Kext"]})

    return run


def _trace_item(spec: dict, sizes: Sizes) -> Callable[[], Outcome]:
    S = surfaces.from_config(spec["surface"])
    u0, v0 = spec["seed"]

    def run() -> Outcome:
        tr = flows.trace_asymptotic(S, u0, v0, sizes.trace_length, TRACE_STEP, PLANAR_TOL)
        dev = flows.geodesic_deviation(tr)
        res = flows.frame_ode_residuals(tr)
        fit = flows.fit_inverse_H(tr)
        sidecar = {"seed": [u0, v0], "samples": len(tr), "stop_reason": tr.stop_reason,
                   "deviation": dev.max_dev, "fit_rms": fit.rms_residual,
                   "residuals": [res.lambda_ode, res.k2_ode, res.de2, res.de3]}
        gates = [("planar hit", float(tr.stop_reason == flows.PLANAR_HIT), "<", 1.0),
                 ("geodesic deviation", dev.max_dev, "<", DEVIATION),
                 ("1/H fit rms", fit.rms_residual, "<", FIT_RMS),
                 ("|lam' - lam^2|", res.lambda_ode, "<", FRAME_RESIDUAL),
                 ("|k2' - lam k2|", res.k2_ode, "<", FRAME_RESIDUAL),
                 ("max|De2|", res.de2, "<", FRAME_RESIDUAL),
                 ("max|De3|", res.de3, "<", FRAME_RESIDUAL)]
        return Outcome(tr.to_csv() + _dump(sidecar), gates,
                       {"deviation": dev.max_dev, "fit_rms": fit.rms_residual})

    return run


def _compare_item(spec: dict, sizes: Sizes) -> Callable[[], Outcome]:
    S = surfaces.from_config(spec["surface"])
    reference = surfaces.generating_curve_of_config(
        dict(spec["surface"], curve_step=REFERENCE_STEP))

    def run() -> Outcome:
        curve = classifier.recover_generating_curve(S, spec["t0"], sizes.recovery_samples)
        d = hyperbolic.curve_hausdorff(curve, reference)
        out = {"t0": spec["t0"], "samples": len(curve.s), "hausdorff": d,
               "points": hashlib.sha256(curve.points.tobytes()).hexdigest()}
        return Outcome(_dump(out), [("Hausdorff", d, "<", HAUSDORFF)], {"hausdorff": d})

    return run


_ITEMS = {"classify": _classify_item, "curvature": _curvature_item,
          "trace": _trace_item, "compare": _compare_item}


def build_items(workload: str, specs: list[dict], sizes: Sizes) -> list[Item]:
    """Set-up of one pass: every surface and reference curve, fresh from config."""
    make = _ITEMS[workload]
    return [Item(spec["label"], make(spec, sizes)) for spec in specs]
