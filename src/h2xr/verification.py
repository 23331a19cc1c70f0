"""Consolidated verification checks behind the ``verify-paper`` command.

Each check measures a concrete numerical claim about the preset corpus and
reports the measured value against its pinned threshold, so a report is
self-auditing.  Check identifiers:

* ``PROP1``      - cylinders are doubly flat (grids over five generating
                   curves), plus the Brioschi/Gauss-relation cross oracle on
                   a generic graph;
* ``FOLIATION``  - the horizontal slice has intrinsic curvature -1 (control),
                   planar components of flat charts are full-height vertical
                   strips, and curve recovery is independent of the slicing
                   height;
* ``PROP2``      - asymptotic traces are ambient geodesics (deviation against
                   the closed-form geodesic, plus step-halving behaviour);
* ``LEMMA2``     - 1/H is affine along traces and the frame ODE residuals
                   vanish;
* ``PROP3``      - no trace from a parabolic seed reaches the planar set;
* ``GEO_LEMMA``  - product geodesics project to hyperbolic geodesics with
                   affine height;
* ``THEOREM1``   - the classifier labels the whole corpus correctly and
                   recovers generating curves faithfully (the Hausdorff
                   distance to the true curve, and next to it the one-sided
                   recovered -> true distance, which the end trim of
                   recovery does not enter);
* ``DIVERGENCE`` - distinct hyperbolic geodesics move apart beyond any bound.

Report: a check's "worst" sub-check is a failing one, NaN first, or else
the one of least relative margin (``SubCheck.margin``, also in each JSON
detail), so thresholds of different scales compare.

Step-halving details: traces on cylinder presets are exact in chart
coordinates (the asymptotic direction is exactly vertical), so their
deviations sit at roundoff level at every step size.  The halving
sub-check therefore passes when the halved deviation either improves
threefold or is already below 1e-6, i.e. well under the 1e-5 requirement
and at the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import (CYLINDER, ClassifierConfig, INCONSISTENT,
                         _farthest_point_seeds, classify_surface,
                         planar_set_map, recover_generating_curve)
from .curvature import DEFAULT_CLASS_TOL, PARABOLIC, curvature_grid, shape_at
from .errors import DivergenceNotReached
from .flows import (PLANAR_HIT, fit_inverse_H, frame_ode_residuals,
                    geodesic_deviation, trace_asymptotic)
from .hyperbolic import ORIGIN_T, curve_distances, h2_dist
from .minkowski import _normalize_spacelike, _project_tangent
from .numerics import affine_fit
from .product import (H2Geodesic, ProdGeodesic, prod_geodesic_residual,
                      verify_geodesic_divergence)
from .surfaces import (CORPUS_CONFIGS, CYLINDER_PRESETS, Surface, from_config,
                       finite_difference_surface, generating_curve_of_config,
                       preset)

DEVIATION_FLOOR = 1e-6  # metric roundoff floor for exact vertical traces
SEED_GRID = 21          # cells per axis of the scan parabolic seeds are drawn from

CHECK_IDS = ("PROP1", "PROP2", "LEMMA2", "PROP3", "GEO_LEMMA", "FOLIATION",
             "THEOREM1", "DIVERGENCE")


@dataclass(frozen=True)
class SubCheck:
    name: str
    measured: float
    threshold: float
    op: str  # "<" or ">="

    @property
    def passed(self) -> bool:
        if math.isnan(self.measured):
            return False
        if self.op == "<":
            return bool(self.measured < self.threshold)
        return bool(self.measured >= self.threshold)

    @property
    def margin(self) -> float:
        """Relative headroom, comparable across thresholds of any scale:
        threshold / measured for "<", measured / threshold for ">="; NaN
        for a NaN measurement, inf where the divisor is zero."""
        num, den = ((self.threshold, self.measured) if self.op == "<"
                    else (self.measured, self.threshold))
        return num / den if den != 0.0 else math.inf


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    subs: list[SubCheck]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.subs)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def worst(self) -> SubCheck:
        """The failing sub-check, NaN first, else the passing one, of least
        relative margin (the first of equals)."""
        pool = [s for s in self.subs if not s.passed] or self.subs
        return min(pool, key=lambda s: -math.inf if math.isnan(s.measured) else s.margin)


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckResult]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


# -- shared helpers -----------------------------------------------------------------

def parabolic_seeds(S: Surface, k: int) -> list[tuple[float, float]]:
    """Deterministic well-spread parabolic cell centres of a SEED_GRID x
    SEED_GRID scan (forms only, fast) whose principal curvatures separate by
    20 times the class tolerance."""
    grid = curvature_grid(S, SEED_GRID, SEED_GRID, brioschi=False)
    cells = [(r.u, r.v) for r in grid.rows
             if r.cls == PARABOLIC and abs(r.k2) - abs(r.k1) >= 20.0 * DEFAULT_CLASS_TOL]
    return _farthest_point_seeds(cells, k, S.domain.center)


def _grid_maxima(S: Surface, n: int) -> tuple[float, float, float]:
    grid = curvature_grid(S, n, n)
    kint = np.array([r.Kint_gauss for r in grid.rows])
    kbri = np.array([r.Kint_brioschi for r in grid.rows])
    kext = np.array([r.Kext for r in grid.rows])
    return (float(np.max(np.abs(kint))), float(np.max(np.abs(kbri))),
            float(np.max(np.abs(kext))))


# -- individual checks ----------------------------------------------------------------

def check_prop1(rng: np.random.Generator) -> CheckResult:
    """Cylinders over five generating curves are doubly flat on 20x20 grids,
    and the two intrinsic-curvature computations agree on a generic graph."""
    subs = []
    for name in CYLINDER_PRESETS:
        s = preset(name)
        kint, kbri, kext = _grid_maxima(s, 20)
        subs.append(SubCheck(f"{name} max|Kint_gauss|", kint, 1e-8, "<"))
        subs.append(SubCheck(f"{name} max|Kint_brioschi|", kbri, 1e-5, "<"))
        subs.append(SubCheck(f"{name} max|Kext|", kext, 1e-10, "<"))

    graph = from_config({"kind": "graph", "f": {"kind": "bilinear", "coef": 0.3},
                         "label": "graph_bilinear"})
    (u0, u1) = graph.domain.u_range
    (v0, v1) = graph.domain.v_range
    pad = 3e-3
    worst = 0.0
    for _ in range(100):
        u = float(rng.uniform(u0 + pad, u1 - pad))
        v = float(rng.uniform(v0 + pad, v1 - pad))
        _, sd = shape_at(graph, u, v)
        worst = max(worst, abs(sd.Kint_brioschi - sd.Kint_gauss))
    subs.append(SubCheck("graph cross-oracle |Kbrioschi - Kgauss| (100 probes)",
                         worst, 1e-4, "<"))
    return CheckResult("PROP1", subs)


_TRACE_PRESETS = ("cylinder_circle", "cylinder_horocycle", "cylinder_spline",
                  "cylinder_inflection")


def _corpus_traces():
    """Asymptotic traces (length 5, step 1e-3) from two spread parabolic
    seeds on each flat preset."""
    out = []
    for name in _TRACE_PRESETS:
        s = preset(name)
        for (u, v) in parabolic_seeds(s, 2):
            out.append((name, s, (u, v), trace_asymptotic(s, u, v, 5.0, 1e-3)))
    return out


def check_prop2(traces) -> CheckResult:
    subs = []
    for name, s, (u, v), tr in traces:
        dev = geodesic_deviation(tr).max_dev
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) deviation", dev, 1e-5, "<"))
        tr_half = trace_asymptotic(s, u, v, 5.0, tr.step / 2.0,
                                   with_connection=False)
        dev_half = geodesic_deviation(tr_half).max_dev
        subs.append(SubCheck(
            f"{name}@({u:.3g},{v:.3g}) halved-step deviation",
            dev_half, max(dev / 3.0, DEVIATION_FLOOR), "<"))
    return CheckResult("PROP2", subs)


def check_lemma2(traces) -> CheckResult:
    subs = []
    circle_done = False
    for name, _, (u, v), tr in traces:
        fit = fit_inverse_H(tr)
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) fit rms", fit.rms_residual,
                             1e-6, "<"))
        res = frame_ode_residuals(tr)
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) |lam'-lam^2|",
                             res.lambda_ode, 1e-4, "<"))
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) |k2'-lam*k2|",
                             res.k2_ode, 1e-4, "<"))
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) max|De2|", res.de2, 1e-4, "<"))
        subs.append(SubCheck(f"{name}@({u:.3g},{v:.3g}) max|De3|", res.de3, 1e-4, "<"))
        if name == "cylinder_circle" and not circle_done:
            circle_done = True
            subs.append(SubCheck("circle fit |a|", abs(fit.a), 1e-8, "<"))
            subs.append(SubCheck("circle fit |b - 2 tanh 1|",
                                 abs(fit.b - 2.0 * math.tanh(1.0)), 1e-6, "<"))
    return CheckResult("LEMMA2", subs)


def check_prop3() -> CheckResult:
    s = preset("cylinder_inflection")
    seeds = parabolic_seeds(s, 20)
    hits = 0
    for (u, v) in seeds:
        tr = trace_asymptotic(s, u, v, 5.0, 1e-3, with_connection=False)
        if tr.stop_reason == PLANAR_HIT:
            hits += 1
    return CheckResult("PROP3", [
        SubCheck(f"planar hits among {len(seeds)} traces", float(hits), 1.0, "<"),
    ])


def check_geo_lemma() -> CheckResult:
    r2 = math.sqrt(0.5)
    cases = {
        "vertical": ((0.0, 0.0, 0.0), 1.0),
        "horizontal": ((0.0, 1.0, 0.0), 0.0),
        "tilted": ((0.0, r2, 0.0), r2),
    }
    subs = []
    step = 1e-3
    svals = np.arange(0.0, 2.0 + 0.5 * step, step)
    for name, (vh, vt) in cases.items():
        geo = ProdGeodesic.from_tangent(ORIGIN_T, 0.0, vh, vt)
        feet, heights = zip(*(geo.point(float(s)) for s in svals))
        res = prod_geodesic_residual(feet, heights, spacing=step)
        subs.append(SubCheck(f"{name} geodesic residual", res, 1e-6, "<"))
        _, _, rms = affine_fit(svals, heights)
        subs.append(SubCheck(f"{name} height affine rms", rms, 1e-12, "<"))
    return CheckResult("GEO_LEMMA", subs)


def check_foliation() -> CheckResult:
    subs = []
    sl = preset("slice")
    grid = curvature_grid(sl, 20, 20)
    kint = np.array([r.Kint_gauss for r in grid.rows])
    kbri = np.array([r.Kint_brioschi for r in grid.rows])
    subs.append(SubCheck("slice max|Kint_gauss + 1|",
                         float(np.max(np.abs(kint + 1.0))), 1e-9, "<"))
    subs.append(SubCheck("slice max|Kint_brioschi + 1|",
                         float(np.max(np.abs(kbri + 1.0))), 1e-4, "<"))

    # planar components of a flat chart are full-height vertical strips
    infl = preset("cylinder_inflection")
    pmap = planar_set_map(infl, curvature_grid(infl, 21, 21, brioschi=False))
    subs.append(SubCheck("inflection planar components", float(len(pmap.components)),
                         1.0, ">="))
    if pmap.components:
        comp = pmap.components[0]
        (v0, v1) = infl.domain.v_range
        spans = float(abs(comp.v_range[0] - v0) + abs(comp.v_range[1] - v1))
        subs.append(SubCheck("planar strip spans full height (edge gap)",
                             spans, 1e-9, "<"))
        du = (infl.domain.u_range[1] - infl.domain.u_range[0]) / 21.0
        width = comp.u_range[1] - comp.u_range[0]
        subs.append(SubCheck("planar strip width / cell", width / du, 2.0 + 1e-9, "<"))

    # recovery does not depend on the slicing height
    circ = preset("cylinder_circle")
    c1 = recover_generating_curve(circ, -1.0, 801)
    c2 = recover_generating_curve(circ, 1.5, 801)
    worst = 0.0
    for i in range(len(c1.s)):
        worst = max(worst, h2_dist(tuple(c1.points[i]), tuple(c2.points[i])))
    subs.append(SubCheck("recovery t0-independence (pointwise)", worst, 1e-6, "<"))
    return CheckResult("FOLIATION", subs)


def default_corpus() -> list[dict]:
    """Corpus entries for the classification check: surface + expected verdict."""
    entries = []
    for name, cfg in CORPUS_CONFIGS.items():
        expect = CYLINDER if name in CYLINDER_PRESETS else "NOT_FLAT"
        entries.append({"label": name, "surface": cfg, "expect": expect})
    return entries


def check_theorem1(corpus: list[dict] | None = None,
                   config: ClassifierConfig | None = None) -> CheckResult:
    subs = []
    config = config or ClassifierConfig()
    entries = corpus if corpus is not None else default_corpus()
    inconsistent = 0
    for entry in entries:
        label = entry.get("label", "surface")
        scfg = entry["surface"]
        surface = from_config(scfg)
        if entry.get("fd"):
            surface = finite_difference_surface(surface)
        expect = entry["expect"]
        verdict = classify_surface(surface, config)
        if verdict.verdict == INCONSISTENT:
            inconsistent += 1
        subs.append(SubCheck(f"{label} verdict == {expect}",
                             1.0 if verdict.verdict == expect else 0.0, 1.0, ">="))
        if verdict.verdict == CYLINDER and expect == CYLINDER:
            if verdict.ruling_verticality is not None:
                subs.append(SubCheck(f"{label} ruling verticality",
                                     verdict.ruling_verticality,
                                     config.verticality_tol, "<"))
            true_curve = generating_curve_of_config(scfg)
            if true_curve is not None and verdict.generating_curve is not None:
                to_true, from_true = curve_distances(verdict.generating_curve, true_curve)
                subs.append(SubCheck(f"{label} recovered-curve Hausdorff",
                                     max(to_true, from_true), 1e-5, "<"))
                subs.append(SubCheck(f"{label} recovered -> true distance",
                                     to_true, 1e-5, "<"))
    subs.append(SubCheck("INCONSISTENT verdicts", float(inconsistent), 1.0, "<"))
    return CheckResult("THEOREM1", subs)


def check_divergence() -> CheckResult:
    g_x = H2Geodesic(ORIGIN_T, (0.0, 1.0, 0.0))
    g_y = H2Geodesic(ORIGIN_T, (0.0, 0.0, 1.0))
    g_ultra = H2Geodesic((math.cosh(1.0), 0.0, math.sinh(1.0)), (0.0, 1.0, 0.0))
    q2 = (math.cosh(0.7), math.sinh(0.7), 0.0)
    g_skew = H2Geodesic(q2, _normalize_spacelike(_project_tangent(q2, (0.3, 0.0, 1.0))))

    pairs = [("orthogonal-through-origin", g_x, g_y),
             ("ultraparallel-dist-1", g_x, g_ultra),
             ("skew", g_x, g_skew)]
    subs = []
    for name, a, b in pairs:
        try:
            rep = verify_geodesic_divergence(a, b, target=10.0, s_max=35.0)
            subs.append(SubCheck(f"{name} achieved distance", rep.achieved_distance,
                                 10.0, ">="))
        except DivergenceNotReached:
            subs.append(SubCheck(f"{name} achieved distance", 0.0, 10.0, ">="))
    return CheckResult("DIVERGENCE", subs)


# -- the full report ----------------------------------------------------------------

def run_verification(seed: int = 0, corpus: list[dict] | None = None,
                     classifier_config: ClassifierConfig | None = None) -> VerificationReport:
    """Run every check on the preset corpus; seconds-scale, deterministic."""
    rng = np.random.default_rng(seed)
    traces = _corpus_traces()
    checks = [
        check_prop1(rng),
        check_prop2(traces),
        check_lemma2(traces),
        check_prop3(),
        check_geo_lemma(),
        check_foliation(),
        check_theorem1(corpus, classifier_config),
        check_divergence(),
    ]
    order = {cid: i for i, cid in enumerate(CHECK_IDS)}
    checks.sort(key=lambda c: order[c.check_id])
    return VerificationReport(checks)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "overall": "PASS" if report.overall_pass else "FAIL",
        "checks": [
            {
                "id": c.check_id,
                "status": c.status,
                "measured": None if math.isnan(c.worst().measured)
                else float(c.worst().measured),
                "threshold": float(c.worst().threshold),
                "op": c.worst().op,
                "details": [
                    {"name": s.name,
                     "measured": None if math.isnan(s.measured) else float(s.measured),
                     "threshold": float(s.threshold), "op": s.op, "passed": s.passed,
                     "margin": float(s.margin) if math.isfinite(s.margin) else None}
                    for s in c.subs
                ],
            }
            for c in report.checks
        ],
    }


def report_to_text(report: VerificationReport) -> str:
    lines = []
    for c in report.checks:
        w = c.worst()
        lines.append(f"{c.status:4s} {c.check_id:10s} "
                     f"worst: {w.name} = {w.measured:.6g} (need {w.op} {w.threshold:.6g})")
    lines.append("OVERALL " + ("PASS" if report.overall_pass else "FAIL"))
    return "\n".join(lines) + "\n"
