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

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureGrid, PARABOLIC, PLANAR, block_size, curvature_grid
from .errors import (ConfigError, EmptyIntersection, GeometryError,
                     NumericalError)
from .flows import (PLANAR_HIT, TraceRecord, geodesic_deviation, trace_asymptotic,
                    trace_half_steps)
from .hyperbolic import MAX_CURVE_STEPS, H2Curve, _dists_raw
from .minkowski import _mcross, _mdot, _mscale, _normalize_spacelike, _project_tangent
from .numerics import bracket_root, bracket_root_batch
from .surfaces import Surface

CYLINDER = "CYLINDER"
NOT_FLAT = "NOT_FLAT"
INCONSISTENT = "INCONSISTENT"

RULING_SEEDS = 8  # parabolic seeds traced per classification, farthest apart first


@dataclass(frozen=True, slots=True)
class ClassifierConfig:
    """Tolerances and sampling sizes for the whole pipeline, checked when
    built (ConfigError), trace bound of ``flows.trace_half_steps`` included;
    ``recovery_samples`` is bounded by ``hyperbolic.MAX_CURVE_STEPS``, as a
    built curve is, so a recovery never allocates beyond it."""

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
        if self.recovery_samples > MAX_CURVE_STEPS:  # the bound of a built curve
            raise ConfigError(f"recovery_samples must be at most MAX_CURVE_STEPS = "
                              f"{MAX_CURVE_STEPS}")


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
    """Deterministic farthest-point subsample of candidate chart points, as
    Python floats (the traces from them run on float arithmetic)."""
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
    return [tuple(pts[i].tolist()) for i in chosen]


def ruling_seeds(grid: CurvatureGrid, k: int, min_gap: float,
                 centre: tuple[float, float]) -> list[tuple[float, float]]:
    """Up to ``k`` seeds for ruling traces: the PARABOLIC cells of ``grid``
    with |k2| - |k1| >= ``min_gap``, farthest-point thinned from ``centre``."""
    cells = [(r.u, r.v) for r in grid.rows
             if r.cls == PARABOLIC and abs(r.k2) - abs(r.k1) >= min_gap]
    return _farthest_point_seeds(cells, k, centre)


def _slice_frenet(jets):
    """Footprints, unit tangents, normals, geodesic curvatures and speeds of
    the slice curve through chart jets (floats, or the arrays of a JetBlock,
    with the same bits); the speed is not positive where the tangent is not
    spacelike, and the other entries are meaningless there."""
    X, Xu, Xv, Xuu, Xuv, Xvv = jets[:6]
    vp = -Xu.t / Xv.t
    bp = tuple(a + vp * b for a, b in zip(Xu.htup, Xv.htup))
    q = _mdot(bp, bp)
    speed = np.sqrt(np.maximum(0.0, q))
    vpp = -(Xuu.t + 2.0 * Xuv.t * vp + Xvv.t * vp * vp) / Xv.t
    bpp = tuple(a + 2.0 * vp * b + vp * vp * c + vpp * d
                for a, b, c, d in zip(Xuu.htup, Xuv.htup, Xvv.htup, Xv.htup))
    that = _mscale(1.0 / np.sqrt(q), bp)  # as _normalize_spacelike
    nhat = _mcross(X.htup, that)
    kg = _mdot(_project_tangent(X.htup, bpp), nhat) / (speed * speed)
    return X.htup, that, nhat, kg, speed


def _frenet_alone(S: Surface, u: float, v: float):
    """:func:`_slice_frenet` of one chart point on the scalar path, raising
    what a point-by-point loop raises there."""
    jet = S.jet(u, v)
    if abs(jet.Xv.t) < 1e-12:
        raise NumericalError("slice is not transversal to the chart")
    vp = -jet.Xu.t / jet.Xv.t
    _normalize_spacelike(tuple(a + vp * b for a, b in zip(jet.Xu.htup, jet.Xv.htup)))
    return _slice_frenet(jet)


def _frenet_block(S: Surface, us: np.ndarray, vs: np.ndarray):
    """:func:`_slice_frenet` at arrays of chart points through one call of
    ``S.jets``, as a (n, 11) array of rows (footprint, tangent, normal, kg,
    speed), and the mask of the points where :func:`_frenet_alone` raises."""
    jets = S.jets(us, vs)
    with np.errstate(all="ignore"):
        beta, that, nhat, kg, speed = _slice_frenet(jets)
    bad = jets.bad | (np.abs(jets.Xv.t) < 1e-12) | ~(speed > 0.0)
    return np.column_stack([*beta, *that, *nhat, kg, speed]), bad


def _lockstep_roots(S: Surface, t0: float, us: np.ndarray, guesses: np.ndarray,
                    v_lo: float, v_hi: float, w: float):
    """The root searches of ``solve_v`` from the guesses, in lockstep.

    Each sample's bracket [max(v_lo, g - w), min(v_hi, g + w)] around its
    guess g is solved by ``bracket_root_batch`` on ``S.jets``, in blocks of
    ``block_size(S, 1)`` samples.  Returns the roots, with the bits of the
    scalar search on the same bracket, and the mask of the samples that
    search must solve instead: a bad point, no sign change or a zero at the
    low end (their entries are meaningless).
    """
    roots, failed = np.empty(len(us)), np.empty(len(us), dtype=bool)
    step = block_size(S, 1)

    def heights(u, v):
        jets = S.jets(u, v)
        return jets.X.t - t0, jets.bad

    for k in range(0, len(us), step):
        u, g = us[k:k + step], guesses[k:k + step]
        lo = np.where(g - w > v_lo, g - w, v_lo)  # max(v_lo, g - w), as for floats
        hi = np.where(g + w < v_hi, g + w, v_hi)
        (flo, bad_lo), (fhi, bad_hi) = heights(u, lo), heights(u, hi)
        bad = bad_lo | bad_hi | ~(flo * fhi < 0.0)  # also where flo is 0
        inner, v = np.flatnonzero(~bad), lo.copy()

        def f(idx, x):
            fx, bad_x = heights(u[inner[idx]], x)
            bad[inner[idx[bad_x]]] = True
            return fx

        v[inner] = bracket_root_batch(f, lo[inner], hi[inner], flo[inner], fhi[inner])
        roots[k:k + step], failed[k:k + step] = v, bad
    return roots, failed


def _frenet_rows(S: Surface, us: np.ndarray, vs: np.ndarray):
    """:func:`_frenet_block` in blocks of ``block_size(S, 1)`` points."""
    rows, bad = np.empty((len(us), 11)), np.empty(len(us), dtype=bool)
    step = block_size(S, 1)
    for k in range(0, len(us), step):
        rows[k:k + step], bad[k:k + step] = _frenet_block(S, us[k:k + step], vs[k:k + step])
    return rows, bad


def recover_generating_curve(S: Surface, t0: float, n: int) -> H2Curve:
    """Intersect the chart with the height-t0 slice and project horizontally.

    For each u on a uniform grid the height is solved for v by bracketed
    root finding; tangents, arclength (per-interval Simpson) and signed
    curvature all come from the chart jets, so the recovered curve carries
    full Frenet data.

    Each hit's bracket is centred on the previous hit's v, a chain that
    scalar ``solve_v`` on ``S.jet`` defines.  Only its first hit is found
    that way.  The later samples are solved in lockstep rounds
    (:func:`_lockstep_roots`), first on brackets centred on the first hit's
    v.  A round keeps the longest prefix of samples that are regular (no
    bad point, a sign change, a nonzero low end) and whose guess equals the
    previous sample's root: each such root is the chain's own.  The next
    round centres each remaining bracket on the root just found before it,
    and rounds go on while each certifies at least half of what is left.
    On a chart whose height is v, one round certifies the whole chain.  The
    rest of the chain runs on the scalar path from the last certified hit,
    so its breaks and errors are those of the scalar chain.

    The hits' Frenet data, the midpoints' root searches (one lockstep
    round) and the midpoints' speeds run on ``S.jets`` in blocks of
    ``block_size(S, 1)`` samples.  A sample flagged as failing is run again
    alone on the scalar path, in the order of a point-by-point loop (all
    hits, then each midpoint's solve before its Frenet data), so the first
    failure raises the error of that loop; every value has the bits of that
    loop.
    """
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    margin = 1e-9 * (u1 - u0)
    us = np.linspace(u0 + margin, u1 - margin, n)

    v_lo, v_hi = v0 + 1e-12, v1 - 1e-12
    w = 0.05 * (v1 - v0)

    def solve_v(u: float, guess: float | None) -> float | None:
        def height(v: float) -> float:
            return S.jet(u, v).X.t - t0

        if guess is not None:
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

    def chain_from(start: int, v: float) -> list[float]:
        """The hits from the hit v at sample start - 1 on: lockstep rounds,
        then the scalar chain from the last certified hit."""
        hv, guesses = [v], np.full(n - start, v)
        while start < n:
            left = n - start
            roots, failed = _lockstep_roots(S, t0, us[start:], guesses, v_lo, v_hi, w)
            prev = np.concatenate([[hv[-1]], roots[:-1]])
            sure = ~failed & (guesses == prev)  # +-0.0 centre the same bracket
            c = left if sure.all() else int(np.argmin(sure))
            hv.extend(roots[:c].tolist())
            start += c
            if 2 * c < left:
                break
            guesses = prev[c:]
        for u in us[start:].tolist():
            v = solve_v(u, hv[-1])
            if v is None:
                break  # keep the contiguous run that contains the first hits
            hv.append(v)
        return hv

    hv: list[float] = []
    for first, u in enumerate(us.tolist()):
        v = solve_v(u, None)
        if v is not None:
            hv = chain_from(first + 1, v)
            break
    if len(hv) < 9:
        raise EmptyIntersection(f"slice t = {t0} meets {S.label} in fewer than 9 samples")

    hu, hv = us[first:first + len(hv)], np.array(hv)
    rows, bad = _frenet_rows(S, hu, hv)
    for i in np.flatnonzero(bad):
        rows[i] = np.hstack(_frenet_alone(S, float(hu[i]), float(hv[i])))
    um, gm = 0.5 * (hu[:-1] + hu[1:]), 0.5 * (hv[:-1] + hv[1:])
    vm, failed = _lockstep_roots(S, t0, um, gm, v_lo, v_hi, w)
    ok = np.flatnonzero(~failed)
    frenet, bad = _frenet_rows(S, um[ok], vm[ok])
    mid_speed = np.empty(len(um))
    mid_speed[ok] = frenet[:, 10]
    failed[ok[bad]] = True
    for i in np.flatnonzero(failed):
        v = solve_v(float(um[i]), float(gm[i]))
        if v is None:
            raise NumericalError("lost the slice between recovery samples")
        mid_speed[i] = _frenet_alone(S, float(um[i]), v)[4]

    speeds = rows[:, 10]
    s = np.concatenate([[0.0], np.cumsum(
        (hu[1:] - hu[:-1]) * (speeds[:-1] + 4.0 * mid_speed + speeds[1:]) / 6.0)])
    pts, tans, nrms = (rows[:, k:k + 3].copy() for k in (0, 3, 6))
    return H2Curve(s, pts, tans, "hermite", nrms, rows[:, 9].copy())


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
    # only seeds the tracer accepts: principal curvatures 10 planar_tol apart
    seeds = ruling_seeds(rep.grid, RULING_SEEDS, 10.0 * config.planar_tol, S.domain.center)

    rulings: list[Ruling] = []
    verticality = None
    if seeds:
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
    if not seeds:
        # planar, or too weakly curved to trace: the curve must be a geodesic;
        # each sample's geodesic curvature from the chart jets is
        # chart-independent, where a curvature profile needs samples uniform
        # in the chart's u
        max_kg = float(np.max(np.abs(curve.kg)))
        if max_kg >= config.planar_tol * 100.0:
            notes.append(f"planar chart but recovered curvature reaches {max_kg}")
            return verdict(INCONSISTENT, pmap)
        notes.append("chart too weakly curved to trace: no parabolic cell separates its "
                     "principal curvatures by 10 planar_tol"
                     if any(r.cls == PARABOLIC for r in rep.grid.rows) else
                     "totally geodesic chart; rulings degenerate to the vertical field")
        verticality = 0.0
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
