"""Cylinder detection from chart data.

The pipeline tests the two flatness hypotheses on a grid, maps the planar
set, traces asymptotic rulings from parabolic seeds and measures how far
their footprints drift in the hyperbolic plane, then recovers the generating
curve by slicing the chart at a fixed height.  A chart passes as CYLINDER
when it is doubly flat, its rulings are vertical, and a generating curve can
be recovered; it is NOT_FLAT when the flatness scan fails; INCONSISTENT
verdicts flag internal contradictions (flat data with tilted rulings) and
scans in which some grid cell failed to evaluate, which indicate numerical
failure or an invalid input rather than a genuine counterexample.

Verticality is measured as hyperbolic distance between ruling footprints and
the seed footprint, which is chart-independent and matches the definition of
a cylinder as a vertical surface over a plane curve.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureGrid, PARABOLIC, PLANAR, curvature_grid
from .errors import (ConfigError, EmptyIntersection, GeometryError,
                     NumericalError)
from .flows import (PLANAR_HIT, TraceRecord, geodesic_deviation, trace_asymptotic,
                    trace_half_steps)
from .hyperbolic import H2Curve, _dists_raw, curvature_profile
from .minkowski import _mcross, _mdot, _normalize_spacelike, _project_tangent
from .numerics import bracket_root
from .surfaces import Surface

CYLINDER = "CYLINDER"
NOT_FLAT = "NOT_FLAT"
INCONSISTENT = "INCONSISTENT"

RULING_SEEDS = 8  # parabolic seeds traced per classification, farthest apart first


@dataclass(frozen=True, slots=True)
class ClassifierConfig:
    """Tolerances and sampling sizes for the whole pipeline, checked when
    built (ConfigError), trace bound of ``flows.trace_half_steps`` included."""

    grid_n: int = 21  # odd: a symmetric planar strip lands on a cell center
    flatness_tol: float = 1e-6
    verticality_tol: float = 1e-6
    planar_tol: float = 1e-7
    trace_length: float = 5.0
    trace_step: float = 1e-3
    recovery_samples: int = 1201

    def __post_init__(self):
        for name in ("flatness_tol", "verticality_tol", "planar_tol",
                     "trace_length", "trace_step"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        trace_half_steps(self.trace_length, self.trace_step)
        if self.grid_n < 8:
            raise ConfigError("grid_n must be at least 8")
        if self.recovery_samples < 9:
            raise ConfigError("recovery_samples must be at least 9")


@dataclass(frozen=True)
class FlatnessReport:
    """Grid maxima of the two curvatures the hypotheses require to vanish."""

    max_abs_Kint: float
    max_abs_Kext: float
    grid_shape: tuple[int, int]
    tol: float
    grid: CurvatureGrid = field(repr=False)

    @property
    def passed(self) -> bool:
        return bool(self.max_abs_Kint < self.tol and self.max_abs_Kext < self.tol)


@dataclass(frozen=True)
class PlanarComponent:
    cells: list[tuple[int, int]]
    u_range: tuple[float, float]
    v_range: tuple[float, float]


@dataclass(frozen=True)
class PlanarSetMap:
    """Per-cell point classes and the connected components of planar cells."""

    classes: np.ndarray  # (nu, nv) array of class tags ('' where evaluation failed)
    components: list[PlanarComponent]
    u_edges: tuple[float, float]
    v_edges: tuple[float, float]


@dataclass(frozen=True)
class Ruling:
    trace: TraceRecord
    seed: tuple[float, float]
    verticality: float
    max_dev: float


@dataclass(frozen=True)
class VerdictEvidence:
    flatness: FlatnessReport
    planar_map: PlanarSetMap | None
    rulings: list[Ruling]
    notes: list[str]


@dataclass(frozen=True)
class CylinderVerdict:
    verdict: str
    ruling_verticality: float | None
    generating_curve: H2Curve | None
    evidence: VerdictEvidence
    verticality_tol: float

    def __post_init__(self):
        if self.verdict == CYLINDER:
            if self.generating_curve is None:
                raise NumericalError("CYLINDER verdict requires a generating curve")
            if self.ruling_verticality is None \
                    or self.ruling_verticality >= self.verticality_tol:
                raise NumericalError("CYLINDER verdict requires vertical rulings")


# -- pipeline stages ---------------------------------------------------------------

def flatness_scan(S: Surface, n: int, tol: float,
                  planar_tol: float = 1e-7) -> FlatnessReport:
    """Grid maxima of |Kint| and |Kext| over the cells that evaluated; passes
    when both stay below tol.

    Kint is the Gauss-relation value, so the grid skips the Brioschi stencil
    (its rows carry NaN there).  Failed cells are left to the caller, which
    finds them by their status.
    """
    grid = curvature_grid(S, n, n, tol=planar_tol, brioschi=False)
    ok = grid.valid_rows()
    if not ok:
        raise NumericalError(f"no grid point of {S.label} could be evaluated")
    return FlatnessReport(
        max_abs_Kint=max(abs(r.Kint_gauss) for r in ok),
        max_abs_Kext=max(abs(r.Kext) for r in ok),
        grid_shape=(n, n), tol=tol, grid=grid)


def planar_set_map(S: Surface, grid: CurvatureGrid) -> PlanarSetMap:
    """Collect the 4-connected planar components of a grid's cells; only the
    class column is read, so the grid may skip the Brioschi stencil."""
    nu_, nv_ = grid.nu_, grid.nv_
    classes = np.empty((nu_, nv_), dtype=object)
    for idx, row in enumerate(grid.rows):
        classes[idx // nv_, idx % nv_] = row.cls

    seen = np.zeros((nu_, nv_), dtype=bool)
    comps: list[PlanarComponent] = []
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    du = (u1 - u0) / nu_
    dv = (v1 - v0) / nv_
    for i in range(nu_):
        for j in range(nv_):
            if classes[i, j] != PLANAR or seen[i, j]:
                continue
            cells = []
            queue = deque([(i, j)])
            seen[i, j] = True
            while queue:
                a, b = queue.popleft()
                cells.append((a, b))
                for na, nb in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                    if 0 <= na < nu_ and 0 <= nb < nv_ and not seen[na, nb] \
                            and classes[na, nb] == PLANAR:
                        seen[na, nb] = True
                        queue.append((na, nb))
            us = [u0 + a * du for a, _ in cells]
            vs = [v0 + b * dv for _, b in cells]
            comps.append(PlanarComponent(
                cells=sorted(cells),
                u_range=(min(us), max(us) + du),
                v_range=(min(vs), max(vs) + dv)))
    comps.sort(key=lambda c: c.cells[0])
    return PlanarSetMap(classes, comps, (u0, u1), (v0, v1))


def _ruling_verticality(tr: TraceRecord) -> float:
    """Max hyperbolic drift of the trace footprints from the seed footprint."""
    seed = tr.h[int(np.argmin(np.abs(tr.s)))]
    return float(np.max(_dists_raw(tuple(tr.h.T), tuple(seed))))


def extract_rulings(S: Surface, seeds: list[tuple[float, float]], length: float,
                    step: float, tol: float) -> list[Ruling]:
    """Trace the asymptotic line from each seed and measure its drift."""
    rulings = []
    for (u, v) in seeds:
        tr = trace_asymptotic(S, u, v, length, step, tol, with_connection=False)
        dev = geodesic_deviation(tr)
        rulings.append(Ruling(tr, (u, v), _ruling_verticality(tr), dev.max_dev))
    return rulings


def _farthest_point_seeds(cells: list[tuple[float, float]], k: int,
                          start_near: tuple[float, float]) -> list[tuple[float, float]]:
    """Deterministic farthest-point subsample of candidate chart points."""
    if len(cells) <= k:
        return list(cells)
    pts = np.asarray(cells)
    d0 = np.hypot(pts[:, 0] - start_near[0], pts[:, 1] - start_near[1])
    chosen = [int(np.argmin(d0))]
    dist = np.hypot(pts[:, 0] - pts[chosen[0], 0], pts[:, 1] - pts[chosen[0], 1])
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.hypot(pts[:, 0] - pts[nxt, 0],
                                         pts[:, 1] - pts[nxt, 1]))
    return [tuple(pts[i]) for i in chosen]


def recover_generating_curve(S: Surface, t0: float, n: int) -> H2Curve:
    """Intersect the chart with the height-t0 slice and project horizontally.

    For each u on a uniform grid the height is solved for v by bracketed
    root finding; tangents, arclength (per-interval Simpson) and signed
    curvature all come from the chart jets, so the recovered curve carries
    full Frenet data.
    """
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    margin = 1e-9 * (u1 - u0)
    us = np.linspace(u0 + margin, u1 - margin, n)

    v_lo, v_hi = v0 + 1e-12, v1 - 1e-12

    def solve_v(u: float, guess: float | None) -> float | None:
        def height(v: float) -> float:
            return S.jet(u, v).X.t - t0

        if guess is not None:
            w = 0.05 * (v1 - v0)
            lo, hi = max(v_lo, guess - w), min(v_hi, guess + w)
            flo, fhi = height(lo), height(hi)
            if flo == 0.0:
                return lo
            if flo * fhi < 0.0:
                return bracket_root(height, lo, hi, flo, fhi)
        probes = np.linspace(v_lo, v_hi, 9)
        vals = [height(p) for p in probes]
        for a, b, fa, fb in zip(probes[:-1], probes[1:], vals[:-1], vals[1:]):
            if fa == 0.0:
                return float(a)
            if fa * fb < 0.0:
                return bracket_root(height, float(a), float(b), fa, fb)
        if vals[-1] == 0.0:
            return float(probes[-1])
        return None

    hits: list[tuple[float, float]] = []
    guess = None
    for u in us:
        v = solve_v(float(u), guess)
        if v is None:
            if hits:
                break  # keep the contiguous run that contains the first hits
            continue
        hits.append((float(u), v))
        guess = v
    if len(hits) < 9:
        raise EmptyIntersection(f"slice t = {t0} meets {S.label} in fewer than 9 samples")

    m = len(hits)
    pts = np.empty((m, 3))
    tans = np.empty((m, 3))
    nrms = np.empty((m, 3))
    kgs = np.empty(m)
    speeds = np.empty(m)

    def frenet(u: float, v: float):
        jet = S.jet(u, v)
        if abs(jet.Xv.t) < 1e-12:
            raise NumericalError("slice is not transversal to the chart")
        vp = -jet.Xu.t / jet.Xv.t
        beta = jet.X.htup
        bp = tuple(a + vp * b for a, b in zip(jet.Xu.htup, jet.Xv.htup))
        speed = math.sqrt(max(0.0, _mdot(bp, bp)))
        vpp = -(jet.Xuu.t + 2.0 * jet.Xuv.t * vp + jet.Xvv.t * vp * vp) / jet.Xv.t
        bpp = tuple(a + 2.0 * vp * b + vp * vp * c + vpp * d
                    for a, b, c, d in zip(jet.Xuu.htup, jet.Xuv.htup,
                                          jet.Xvv.htup, jet.Xv.htup))
        that = _normalize_spacelike(bp)
        nhat = _mcross(beta, that)
        cov = _project_tangent(beta, bpp)
        kg = _mdot(cov, nhat) / (speed * speed)
        return beta, that, nhat, kg, speed

    for i, (u, v) in enumerate(hits):
        pts[i], tans[i], nrms[i], kgs[i], speeds[i] = frenet(u, v)

    s = np.empty(m)
    s[0] = 0.0
    for i in range(m - 1):
        um = 0.5 * (hits[i][0] + hits[i + 1][0])
        vm = solve_v(um, 0.5 * (hits[i][1] + hits[i + 1][1]))
        if vm is None:
            raise NumericalError("lost the slice between recovery samples")
        sm = frenet(um, vm)[4]
        h = hits[i + 1][0] - hits[i][0]
        s[i + 1] = s[i] + h * (speeds[i] + 4.0 * sm + speeds[i + 1]) / 6.0
    return H2Curve(s, pts, tans, "hermite", nrms, kgs)


# -- the verdict --------------------------------------------------------------------

def classify_surface(S: Surface, config: ClassifierConfig = ClassifierConfig()) -> CylinderVerdict:
    """Run the full detection pipeline and assemble the verdict."""
    notes: list[str] = []
    rep = flatness_scan(S, config.grid_n, config.flatness_tol,
                        planar_tol=config.planar_tol)

    def verdict(kind: str, pmap=None, rulings=None, verticality=None, curve=None):
        return CylinderVerdict(kind, verticality, curve,
                               VerdictEvidence(rep, pmap, rulings or [], notes),
                               config.verticality_tol)

    failed = Counter(r.status for r in rep.grid.rows if r.status != "ok")
    if failed:
        # the maxima cover only the cells that evaluated, so neither verdict holds
        notes.append("flatness scan: " + ", ".join(
            f"{count} cells failed with {code}" for code, count in sorted(failed.items())))
        return verdict(INCONSISTENT)
    if not rep.passed:
        return verdict(NOT_FLAT)

    pmap = planar_set_map(S, rep.grid)
    parabolic_cells = [(r.u, r.v) for r in rep.grid.rows if r.cls == PARABOLIC]

    if not parabolic_cells:
        # everything planar: the chart must be a vertical plane over a geodesic
        t_center = S.jet(*S.domain.center).X.t
        try:
            curve = recover_generating_curve(S, t_center, config.recovery_samples)
        except GeometryError as exc:
            notes.append(f"recovery failed: {exc.code}")
            return verdict(INCONSISTENT, pmap)
        _, kg = curvature_profile(curve)
        max_kg = float(np.max(np.abs(kg)))
        if max_kg >= config.planar_tol * 100.0:
            notes.append(f"planar chart but recovered curvature reaches {max_kg}")
            return verdict(INCONSISTENT, pmap)
        notes.append("totally geodesic chart; rulings degenerate to the vertical field")
        return verdict(CYLINDER, pmap, verticality=0.0, curve=curve)

    seeds = _farthest_point_seeds(parabolic_cells, RULING_SEEDS, S.domain.center)
    rulings: list[Ruling] = []
    for (u, v) in seeds:
        try:
            rulings.extend(extract_rulings(S, [(u, v)], config.trace_length,
                                           config.trace_step, config.planar_tol))
        except GeometryError as exc:
            notes.append(f"seed ({u:.6g}, {v:.6g}) failed: {exc.code}")
    if not rulings:
        notes.append("no ruling could be traced from any parabolic seed")
        return verdict(INCONSISTENT, pmap, rulings)

    verticality = max(r.verticality for r in rulings)
    if any(r.trace.stop_reason == PLANAR_HIT for r in rulings):
        notes.append("a ruling ran into the planar set")
        return verdict(INCONSISTENT, pmap, rulings, verticality)
    if verticality >= config.verticality_tol:
        notes.append(f"flat chart with tilted rulings (drift {verticality})")
        return verdict(INCONSISTENT, pmap, rulings, verticality)

    t_center = S.jet(*S.domain.center).X.t
    try:
        curve = recover_generating_curve(S, t_center, config.recovery_samples)
    except GeometryError as exc:
        notes.append(f"recovery failed: {exc.code}")
        return verdict(INCONSISTENT, pmap, rulings, verticality)
    return verdict(CYLINDER, pmap, rulings, verticality, curve)


# -- serialization -------------------------------------------------------------------

def verdict_to_json(v: CylinderVerdict) -> dict:
    """JSON-ready dictionary for a verdict (NaN-free); the generating curve
    is thinned to about 200 points."""
    flat = v.evidence.flatness
    out = {
        "verdict": v.verdict,
        "ruling_verticality": None if v.ruling_verticality is None
        else float(v.ruling_verticality),
        "flatness": {
            "max_abs_Kint": float(flat.max_abs_Kint),
            "max_abs_Kext": float(flat.max_abs_Kext),
            "grid": list(flat.grid_shape),
            "tol": flat.tol,
            "passed": flat.passed,
        },
        "planar_components": [],
        "generating_curve": None,
        "rulings": [
            {"seed": [float(r.seed[0]), float(r.seed[1])],
             "verticality": float(r.verticality),
             "max_dev": float(r.max_dev), "stop_reason": r.trace.stop_reason}
            for r in v.evidence.rulings
        ],
        "notes": v.evidence.notes,
    }
    if v.evidence.planar_map is not None:
        out["planar_components"] = [
            {"cells": len(c.cells), "u_range": list(c.u_range),
             "v_range": list(c.v_range)}
            for c in v.evidence.planar_map.components
        ]
    if v.generating_curve is not None:
        pts = v.generating_curve.points
        stride = max(1, len(pts) // 200)
        out["generating_curve"] = [[float(x) for x in row] for row in pts[::stride]]
    return out
