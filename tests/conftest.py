"""Shared fixtures: preset surfaces, curves and the verification report.

Everything heavy is session-scoped; surfaces are immutable and safe to
share.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from h2xr.curvature import (CurvatureGrid, GridRow, classify_point, grid_points,
                            shape_at)
from h2xr.errors import GeometryError, NotImmersed
from h2xr.flows import GeodesicDeviation, _principal_at
from h2xr.hyperbolic import H2Point, H2Tangent, curve_from_curvature
from h2xr.minkowski import (SpacetimeVec, _mdot, _normalize_spacelike,
                            _project_tangent)
from h2xr.product import ProdGeodesic, ProdTangent, prod_dist
from h2xr.surfaces import Surface, preset

COTH1 = math.cosh(1.0) / math.sinh(1.0)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def scalar_golden_min(f, a, b, tol=1e-12, max_iter=200):
    """The plain scalar loop, kept as the reference for the array version."""
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


@pytest.fixture(scope="session")
def circle_cylinder():
    return preset("cylinder_circle")


@pytest.fixture(scope="session")
def geodesic_cylinder():
    return preset("cylinder_geodesic")


@pytest.fixture(scope="session")
def inflection_cylinder():
    return preset("cylinder_inflection")


@pytest.fixture(scope="session")
def spline_cylinder():
    return preset("cylinder_spline")


@pytest.fixture(scope="session")
def slice_surface():
    return preset("slice")


@pytest.fixture(scope="session")
def perturbed_cylinder():
    return preset("perturbed_cylinder")


@pytest.fixture(scope="session")
def circle_curve():
    return curve_from_curvature(lambda s: COTH1,
                                (0.0, 2.0 * math.pi * math.sinh(1.0)), 1e-3)


@pytest.fixture(scope="session")
def circle_trace(circle_cylinder):
    from h2xr.flows import trace_asymptotic
    return trace_asymptotic(circle_cylinder, 1.0, 0.0, 5.0, 1e-3)


@pytest.fixture(scope="session")
def inflection_trace(inflection_cylinder):
    from h2xr.flows import trace_asymptotic
    return trace_asymptotic(inflection_cylinder, 1.0, 0.0, 5.0, 1e-3)


@pytest.fixture(scope="session")
def verification_report():
    from h2xr.verification import run_verification
    return run_verification(seed=0)


def faulty_at_cell_centres(S: Surface, n: int, v_min: float) -> Surface:
    """S with a chart that raises NotImmersed at the centres of an n x n
    scan's cells above height v_min, and nowhere else: the rulings, which
    never land on a cell centre, trace through the faulty rows unharmed."""
    centres = set(grid_points(S, n, n))

    def chart(u: float, v: float, base=S.chart):
        if v > v_min and (u, v) in centres:
            raise NotImmersed(f"injected fault at ({u}, {v})")
        return base(u, v)

    return dataclasses.replace(S, chart=chart, label=f"{S.label}+fault")


# -- point-by-point references for the array kernels -----------------------------

def scalar_grid(S: Surface, nu_: int, nv_: int, tol: float = 1e-7,
                stencil_h: float = 1e-3, brioschi: bool = True) -> CurvatureGrid:
    """The cell-by-cell loop of curvature_grid before bulk evaluation."""
    rows = []
    for u, v in grid_points(S, nu_, nv_):
        try:
            forms, sd = shape_at(S, u, v, stencil_h, brioschi)
            rows.append(GridRow(u, v, sd.k1, sd.k2, sd.H, sd.Kext, sd.Kint_gauss,
                                sd.Kint_brioschi, forms.nu, classify_point(sd, tol).tag,
                                "ok"))
        except GeometryError as exc:
            nan = math.nan
            rows.append(GridRow(u, v, nan, nan, nan, nan, nan, nan, nan, "", exc.code))
    return CurvatureGrid(rows, nu_, nv_)


def _prod_inner4(a, b):
    return float(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])


def _ambient_dir4(jet, d):
    hu, hv = jet.Xu.htup, jet.Xv.htup
    return np.array([d[0] * hu[0] + d[1] * hv[0], d[0] * hu[1] + d[1] * hv[1],
                     d[0] * hu[2] + d[1] * hv[2], d[0] * jet.Xu.t + d[1] * jet.Xv.t])


def scalar_lambdas(S: Surface, tr, delta: float = 1e-5) -> np.ndarray:
    """The per-sample connection coefficients of a trace, one transverse
    point at a time, as trace_asymptotic computed them before bulk
    evaluation.  e1 is d1 oriented along increasing s (the trace is assumed
    to move at every sample)."""
    (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
    lam = np.empty(len(tr))
    for i in range(len(tr)):
        u, v = (float(x) for x in tr.uv[i])
        jet, _, _, _, d1, d2 = _principal_at(S, u, v)
        e1 = _ambient_dir4(jet, d1)
        j, k = max(i - 1, 0), min(i + 1, len(tr) - 1)
        ds = np.append(tr.h[k] - tr.h[j], tr.t[k] - tr.t[j])
        if _prod_inner4(e1, ds) < 0.0:
            e1 = -e1
        room = min(u - u0, u1 - u, v - v0, v1 - v)
        hstep = min(delta, 0.25 * room / (1e-12 + max(abs(d2[0]), abs(d2[1]))))
        if hstep <= 1e-9:
            lam[i] = math.nan
            continue

        def e2_field(uu, vv):
            pj, _, _, _, _, d2o = _principal_at(S, uu, vv)
            w = _ambient_dir4(pj, d2o)
            return -w if _prod_inner4(w, tr.e2[i]) < 0.0 else w

        der = (e2_field(u + hstep * d2[0], v + hstep * d2[1])
               - e2_field(u - hstep * d2[0], v - hstep * d2[1])) / (2.0 * hstep)
        cov_h = _project_tangent(tuple(tr.h[i]), (der[0], der[1], der[2]))
        lam[i] = _prod_inner4(np.array([*cov_h, der[3]]), e1)
    return lam


def loop_geodesic_deviation(tr) -> GeodesicDeviation:
    """geodesic_deviation with a ProdPoint per sample, as before vectorising."""
    h = tr.step
    vh = (-3.0 * tr.h[0] + 4.0 * tr.h[1] - tr.h[2]) / (2.0 * h)
    vt = float(-3.0 * tr.t[0] + 4.0 * tr.t[1] - tr.t[2]) / (2.0 * h)
    base = tr.point(0)
    vh = _project_tangent(base.h.tup, tuple(vh))
    norm = math.sqrt(max(0.0, _mdot(vh, vh)) + vt * vt)
    tangent = ProdTangent(base, H2Tangent(base.h, SpacetimeVec.of(
        tuple(c / norm for c in vh))), vt / norm)
    geo = ProdGeodesic.from_tangent(tangent)
    max_dev, at_s = 0.0, float(tr.s[0])
    for i in range(len(tr)):
        d = prod_dist(geo.point(float(tr.s[i] - tr.s[0])), tr.point(i))
        if d > max_dev:
            max_dev, at_s = d, float(tr.s[i])
    return GeodesicDeviation(max_dev, at_s)


def loop_cov_norm(tr, rows: np.ndarray) -> float:
    """frame_ode_residuals' covariant-derivative norm, one sample at a time."""
    der = (rows[2:] - rows[:-2]) / (2.0 * tr.step)
    worst = 0.0
    for i in range(der.shape[0]):
        ch = _project_tangent(tuple(tr.h[i + 1]), tuple(der[i, :3]))
        n2 = max(0.0, _mdot(ch, ch)) + der[i, 3] ** 2
        worst = max(worst, math.sqrt(n2))
    return worst


# -- hypothesis strategies ------------------------------------------------------

def h2_points(max_coord: float = 3.0):
    """Points on the upper sheet with bounded spatial coordinates."""

    def build(x1: float, x2: float) -> H2Point:
        return H2Point.of((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))

    finite = st.floats(-max_coord, max_coord, allow_nan=False)
    return st.builds(build, finite, finite)


def h2_unit_tangents(max_coord: float = 3.0):
    """(point, unit tangent) pairs; the raw direction is projected."""

    def build(p: H2Point, w1: float, w2: float) -> H2Tangent:
        raw = (0.0, w1, w2)
        proj = _project_tangent(p.tup, raw)
        unit = _normalize_spacelike(proj)
        return H2Tangent(p, SpacetimeVec.of(unit))

    nonzero = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    return st.builds(build, h2_points(max_coord), nonzero, nonzero)
