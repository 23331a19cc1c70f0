"""Shared fixtures: preset surfaces, curves and the verification report.

Everything heavy is session-scoped; surfaces are immutable and safe to
share.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from h2xr.curvature import (PARABOLIC, CurvatureGrid, FundamentalForms, GridRow,
                            classify_point, forms_from_jet, grid_points,
                            principal_curvatures, shape_at, shape_data)
from h2xr.errors import (BadCurvatureFunction, DegenerateDirection, EmptyIntersection,
                         GeometryError, InsufficientSamples, NotImmersed, NotParabolic,
                         NumericalError, OutOfDomain)
from h2xr import flows
from h2xr.flows import (DOMAIN_EDGE, MAX_LENGTH, PLANAR_HIT, STEP_FAILURE,
                        TRACE_CSV_HEADER, GeodesicDeviation, TraceRecord, _aligned,
                        _ambient_dir, _connection, _sample, trace_half_steps)
from h2xr.hyperbolic import (ORIGIN_T, H2Curve, _check_on_sheet, _dists_raw,
                             curve_from_curvature)
from h2xr.minkowski import (_check_finite, _mcomb, _mcross, _mdot, _mscale, _msub,
                            _normalize_point, _normalize_points, _normalize_spacelike,
                            _normalize_spacelikes, _project_tangent)
from h2xr.numerics import bracket_root, golden_min_batch
from h2xr.product import AmbientVec, ProdGeodesic, _prod_inner, prod_dist
from h2xr.surfaces import ChartDomain, Surface, SurfaceJet, preset

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
                brioschi: bool = True) -> CurvatureGrid:
    """The cell-by-cell loop of curvature_grid before bulk evaluation; a
    cell that raises, or whose numbers are not all finite, fails."""
    rows = []
    nan = math.nan
    for u, v in grid_points(S, nu_, nv_):
        try:
            forms, sd = shape_at(S, u, v, brioschi)
        except (GeometryError, ArithmeticError) as exc:
            rows.append(GridRow(u, v, nan, nan, nan, nan, nan, nan, nan, "",
                                getattr(exc, "code", "NUMERICAL_FAILURE")))
            continue
        values = [sd.k1, sd.k2, sd.H, sd.Kext, sd.Kint_gauss, forms.nu]
        if not all(math.isfinite(x) for x in values + [sd.Kint_brioschi] * brioschi):
            rows.append(GridRow(u, v, nan, nan, nan, nan, nan, nan, nan, "",
                                "NUMERICAL_FAILURE"))
            continue
        rows.append(GridRow(u, v, sd.k1, sd.k2, sd.H, sd.Kext, sd.Kint_gauss,
                            sd.Kint_brioschi, forms.nu, classify_point(sd, tol).tag, "ok"))
    return CurvatureGrid(rows, nu_, nv_)


def reference_slice_hits(S: Surface, t0: float, n: int):
    """The chain of slice hits (u, v) of recover_generating_curve, whose
    solver ``solve_v(u, guess)`` it returns with them."""
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
    return hits, solve_v


def scalar_recover_generating_curve(S: Surface, t0: float, n: int) -> H2Curve:
    """recover_generating_curve as one scalar jet per evaluation, sample by
    sample: the reference for the blocked, lockstep version."""
    hits, solve_v = reference_slice_hits(S, t0, n)
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


def reference_principal_at(S: Surface, u: float, v: float):
    """Jet, forms, k1, k2, d1, d2 at (u, v) by the whole chain, as
    flows._principal_at computes them, kept apart from the library so that
    the reference traces never call into the code they check."""
    jet = S.jet(u, v)
    try:
        forms = forms_from_jet(jet, S.orientation)
        k1, k2, d1, d2 = principal_curvatures(forms)
    except ArithmeticError as exc:
        raise NumericalError(f"{type(exc).__name__} in the shape operator at ({u}, {v})") \
            from exc
    if not math.isfinite(k1 + k2 + d1[0] + d1[1] + d2[0] + d2[1]):
        raise NumericalError(f"non-finite principal curvatures or directions at ({u}, {v})")
    return jet, forms, k1, k2, d1, d2


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
        jet, _, _, _, d1, d2 = reference_principal_at(S, u, v)
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
            pj, _, _, _, _, d2o = reference_principal_at(S, uu, vv)
            w = _ambient_dir4(pj, d2o)
            return -w if _prod_inner4(w, tr.e2[i]) < 0.0 else w

        der = (e2_field(u + hstep * d2[0], v + hstep * d2[1])
               - e2_field(u - hstep * d2[0], v - hstep * d2[1])) / (2.0 * hstep)
        cov_h = _project_tangent(tuple(tr.h[i]), (der[0], der[1], der[2]))
        lam[i] = _prod_inner4(np.array([*cov_h, der[3]]), e1)
    return lam


def loop_geodesic_deviation(tr) -> GeodesicDeviation:
    """geodesic_deviation with a product distance per sample, as before
    vectorising."""
    h = tr.step
    vh = (-3.0 * tr.h[0] + 4.0 * tr.h[1] - tr.h[2]) / (2.0 * h)
    vt = float(-3.0 * tr.t[0] + 4.0 * tr.t[1] - tr.t[2]) / (2.0 * h)
    p, t = tr.point(0)
    vh = _project_tangent(p, tuple(vh))
    norm = math.sqrt(max(0.0, _mdot(vh, vh)) + vt * vt)
    geo = ProdGeodesic.from_tangent(p, t, tuple(c / norm for c in vh), vt / norm)
    max_dev, at_s = 0.0, float(tr.s[0])
    for i in range(len(tr)):
        d = prod_dist(geo.point(float(tr.s[i] - tr.s[0])), tr.point(i))
        if d > max_dev:
            max_dev, at_s = d, float(tr.s[i])
    return GeodesicDeviation(max_dev, at_s)


def loop_cov_norm(tr, rows: np.ndarray) -> float:
    """frame_ode_residuals' covariant-derivative norm, one sample at a time:
    the largest norm that is not NaN, or NaN when there is none."""
    der = (rows[2:] - rows[:-2]) / (2.0 * tr.step)
    norms = []
    for i in range(der.shape[0]):
        ch = _project_tangent(tuple(tr.h[i + 1]), tuple(der[i, :3]))
        n2 = max(0.0, _mdot(ch, ch)) + der[i, 3] ** 2
        if not math.isnan(n2):
            norms.append(math.sqrt(n2))
    return max(norms) if norms else math.nan


# -- covariant differentiation along curves ---------------------------------------

def tangent_norm(w) -> float:
    """Length of a spacelike (tangent) triple."""
    return math.sqrt(max(0.0, _mdot(w, w)))


def h2_covariant_deriv(curve: H2Curve, fld, s: float) -> tuple:
    """Covariant derivative of a vector field along the curve at arclength s.

    ``fld`` is either an (N, 3) array aligned with the curve samples or a
    callable s -> triple.  The coordinate derivative is taken by centered
    differences (five-point on sampled fields, short-step three-point on
    callables) and projected onto the tangent space at the curve point.
    """
    if s < curve.s_min - 1e-9 or s > curve.s_max + 1e-9:
        raise OutOfDomain(f"s = {s} outside [{curve.s_min}, {curve.s_max}]")
    if callable(fld):
        span = min(s - curve.s_min, curve.s_max - s)
        h = min(1e-5 * (1.0 + abs(s)), 0.5 * span)
        if h <= 0.0:
            raise OutOfDomain("s must be interior to the sample range")
        der = _mscale(1.0 / (2.0 * h), _msub(tuple(fld(s + h)), tuple(fld(s - h))))
        a, _, _, _ = curve.frame_at(s)
    else:
        w = np.asarray(fld, dtype=float)
        if w.shape != curve.points.shape:
            raise InsufficientSamples("sampled field must align with the curve samples")
        i = int(np.argmin(np.abs(curve.s - s)))
        n = len(curve.s)
        h = curve.uniform_step()
        if 2 <= i <= n - 3:
            row = (w[i - 2] - 8.0 * w[i - 1] + 8.0 * w[i + 1] - w[i + 2]) / (12.0 * h)
        elif 1 <= i <= n - 2:
            row = (w[i + 1] - w[i - 1]) / (2.0 * h)
        else:
            raise OutOfDomain("s must be interior to the sample range")
        der = tuple(row)
        a = tuple(curve.points[i])
    return _project_tangent(a, der)


def measure_geodesic_curvature(curve: H2Curve, s: float) -> float:
    """Signed geodesic curvature <D_T T, alpha x T> measured from samples."""
    if curve.interpolation == "rk4":
        acc = h2_covariant_deriv(curve, lambda u: curve.frame_at(u)[1], s)
        a, t, _, _ = curve.frame_at(s)
    else:
        acc = h2_covariant_deriv(curve, curve.tangents, s)
        i = int(np.argmin(np.abs(curve.s - s)))
        a, t = tuple(curve.points[i]), tuple(curve.tangents[i])
    return _mdot(acc, _mcross(a, t))


# -- helper-based references for the plain-float kernels --------------------------
# The Frenet build, frame re-projection, jet checks, unit normal, forms and
# principal curvatures as they were written on the triple helpers, before
# the kernels were rewritten on unpacked coordinates: same operations in the
# same order, so the kernels must match them bit for bit.

def _madd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _frenet_rhs(a, t, n, k):
    return t, _madd(_mscale(k, n), a), _mscale(-k, t)


def reference_frenet_rk4_step(a, t, n, s, h, kfn):
    k1 = _frenet_rhs(a, t, n, kfn(s))
    mid = kfn(s + 0.5 * h)
    k2 = _frenet_rhs(*(_madd(x, _mscale(0.5 * h, d)) for x, d in zip((a, t, n), k1)), mid)
    k3 = _frenet_rhs(*(_madd(x, _mscale(0.5 * h, d)) for x, d in zip((a, t, n), k2)), mid)
    k4 = _frenet_rhs(*(_madd(x, _mscale(h, d)) for x, d in zip((a, t, n), k3)), kfn(s + h))
    c = h / 6.0
    return tuple(_madd(x, _mscale(c, _madd(_madd(d1, _mscale(2.0, d2)),
                                           _madd(_mscale(2.0, d3), d4))))
                 for x, d1, d2, d3, d4 in zip((a, t, n), k1, k2, k3, k4))


def reference_reproject_frame(a, t, n, point=_normalize_point, spacelike=_normalize_spacelike):
    a = point(a)
    t = spacelike(_project_tangent(a, t))
    n = _project_tangent(a, n)
    n = _msub(n, _mscale(_mdot(n, t), t))
    return a, t, spacelike(n)


def reference_curve(k_g, s_range, step, start=None, direction=None):
    """The rows (s, points, tangents, normals, kg) of curve_from_curvature,
    four curvature calls per step."""
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not (math.isfinite(s0) and math.isfinite(s1)) or s1 <= s0:
        raise OutOfDomain(f"bad arclength range {s_range}")
    if step <= 0.0:
        raise NumericalError("step must be positive")
    a = ORIGIN_T if start is None else start
    if direction is None:
        t = (0.0, 1.0, 0.0) if start is None else _normalize_spacelike(
            _project_tangent(a, (0.0, 1.0, 0.0)))
    else:
        t = direction
    n = _mcross(a, t)

    def kfn(s):
        k = k_g(s)
        if not math.isfinite(k):
            raise BadCurvatureFunction(f"k_g({s}) = {k}")
        return float(k)

    n_steps = max(1, math.ceil((s1 - s0) / step - 1e-12))
    h = (s1 - s0) / n_steps
    rows = [(s0, a, t, n, kfn(s0))]
    s = s0
    for i in range(1, n_steps + 1):
        a, t, n = reference_frenet_rk4_step(a, t, n, s, h, kfn)
        a, t, n = reference_reproject_frame(a, t, n)
        s = s0 + i * h
        rows.append((s, a, t, n, kfn(s)))
    return tuple(np.array(col) for col in zip(*rows))


def reference_frames_at(curve, s):
    """H2Curve.frames_at of an rk4 curve, on the reference step."""
    s = np.asarray(s, dtype=float)
    i = np.clip(np.searchsorted(curve.s, s, side="right") - 1, 0, len(curve.s) - 2)
    frame = [x[i].T for x in (curve.points, curve.tangents, curve.normals)]
    ds = s - curve.s[i]
    moved = np.flatnonzero(ds != 0.0)
    if moved.size:
        step = reference_frenet_rk4_step(*(tuple(x[:, moved]) for x in frame),
                                         curve.s[i[moved]], ds[moved], curve.kg_fn)
        for out, new in zip(frame, reference_reproject_frame(*step, _normalize_points,
                                                             _normalize_spacelikes)):
            out[:, moved] = new
    return tuple(tuple(x) for x in frame)


def reference_points_to_curve_dist(q, curve):
    """points_to_curve_dist as it was before positions_at: the lockstep
    golden-section searches over the positions of frames_at."""
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    inner = -(curve.points[:, 0] * q[:, 0:1]) + curve.points[:, 1] * q[:, 1:2] \
        + curve.points[:, 2] * q[:, 2:3]
    nearest = np.argmax(inner, axis=1)
    lo = curve.s[np.maximum(nearest - 1, 0)]
    hi = curve.s[np.minimum(nearest + 1, len(curve.s) - 1)]
    qc = q.T

    def dist(idx, x):
        return _dists_raw(tuple(qc[:, idx]), curve.frames_at(x)[0])

    return golden_min_batch(dist, lo, hi, tol=1e-12)[1]


def reference_hermite_frame(curve, s: float):
    """H2Curve.frame_at of a hermite curve (position, tangent, normal) on the
    scalar Hermite formula it used before it read frames_at."""
    i = min(max(int(np.searchsorted(curve.s, s, side="right")) - 1, 0), len(curve.s) - 2)
    s0, s1 = curve.s[i], curve.s[i + 1]
    h = s1 - s0
    t = (s - s0) / h
    p0, p1 = curve.points[i], curve.points[i + 1]
    m0, m1 = curve.tangents[i] * h, curve.tangents[i + 1] * h
    t2, t3 = t * t, t * t * t
    pos = ((2 * t3 - 3 * t2 + 1) * p0 + (t3 - 2 * t2 + t) * m0
           + (-2 * t3 + 3 * t2) * p1 + (t3 - t2) * m1)
    vel = ((6 * t2 - 6 * t) * p0 + (3 * t2 - 4 * t + 1) * m0
           + (-6 * t2 + 6 * t) * p1 + (3 * t2 - 2 * t) * m1) / h
    a = _normalize_point(tuple(pos))
    tangent = _normalize_spacelike(_project_tangent(a, tuple(vel)))
    return a, tangent, _mcross(a, tangent)


def reference_jet_checks(X, Xu, Xv, Xuu, Xuv, Xvv):
    """The checks of check_jet, in their order."""
    ws = (X, Xu, Xv, Xuu, Xuv, Xvv)
    for w in ws:
        _check_finite(w.htup)
    for w in ws:
        if not math.isfinite(w.t):
            raise NumericalError(f"non-finite height {w.t}")
    p = X.htup
    _check_on_sheet(p)
    for w in (Xu, Xv):
        drift = _mdot(w.htup, p)
        if abs(drift) > 1e-8 * (1.0 + abs(_mdot(w.htup, w.htup))):
            raise NumericalError(f"first derivative not tangent, <w,p> = {drift}")
    e = _mdot(Xu.htup, Xu.htup) + Xu.t ** 2
    g = _mdot(Xv.htup, Xv.htup) + Xv.t ** 2
    f = _mdot(Xu.htup, Xv.htup) + Xu.t * Xv.t
    if e * g - f * f <= 1e-12:
        raise NotImmersed(f"Gram determinant {e * g - f * f} too small")


def reference_unit_normal(jet, orientation) -> AmbientVec:
    """unit_normal with the triple helpers: orientation times the
    normalized Xu x Xv in the frame b1, b2 = p x b1, vertical."""
    p = jet.X.htup
    b1 = _normalize_spacelike(_project_tangent(p, (0.0, 1.0, 0.0)))
    b2 = _mcross(p, b1)
    xu = (_mdot(jet.Xu.htup, b1), _mdot(jet.Xu.htup, b2), jet.Xu.t)
    xv = (_mdot(jet.Xv.htup, b1), _mdot(jet.Xv.htup, b2), jet.Xv.t)
    nc = (xu[1] * xv[2] - xu[2] * xv[1],
          xu[2] * xv[0] - xu[0] * xv[2],
          xu[0] * xv[1] - xu[1] * xv[0])
    nn = math.sqrt(nc[0] ** 2 + nc[1] ** 2 + nc[2] ** 2)
    if nn < 1e-12:
        raise NotImmersed("first derivatives are parallel")
    nc = tuple(orientation * (c / nn) for c in nc)
    nh = _mcomb(nc[0], b1, nc[1], b2)
    _check_finite(nh)
    return AmbientVec(nh, nc[2])


def reference_forms(jet, orientation) -> FundamentalForms:
    """forms_from_jet, with the checks of its forms run before the second
    forms are paired."""
    E = _prod_inner(jet.Xu, jet.Xu)
    F = _prod_inner(jet.Xu, jet.Xv)
    G = _prod_inner(jet.Xv, jet.Xv)
    if E * G - F * F <= 1e-12:
        raise NotImmersed("degenerate jet")
    normal = reference_unit_normal(jet, orientation)
    p = jet.X.htup

    def second(w):
        return _mdot(_project_tangent(p, w.htup), normal.htup) + w.t * normal.t

    if not (E > 0.0 and G > 0.0 and E * G - F ** 2 > 0.0):
        raise NotImmersed("first form is not positive definite")
    n2 = _mdot(normal.htup, normal.htup) + normal.t ** 2
    if abs(n2 - 1.0) > 1e-9:
        raise NumericalError(f"normal norm^2 = {n2}")
    if abs(normal.t) > 1.0 + 1e-12:
        raise NumericalError(f"|nu| = {abs(normal.t)} exceeds 1")
    return FundamentalForms(E, F, G, second(jet.Xuu), second(jet.Xuv), second(jet.Xvv),
                            normal, normal.t)


def reference_principal_curvatures(forms):
    E, F, G = forms.E, forms.F, forms.G
    L, M2, N2 = forms.L, forms.M2, forms.N2
    A = E * G - F * F
    B = -(E * N2 - 2.0 * F * M2 + G * L)
    C = L * N2 - M2 * M2
    sq = math.sqrt(max(0.0, B * B - 4.0 * A * C))
    q = -0.5 * (B + sq) if B >= 0.0 else -0.5 * (B - sq)
    ka, kb = (0.0, 0.0) if q == 0.0 else (q / A, C / q)
    k1, k2 = (ka, kb) if abs(ka) <= abs(kb) else (kb, ka)

    def direction(k):
        r1 = (L - k * E, M2 - k * F)
        r2 = (M2 - k * F, N2 - k * G)
        n1 = r1[0] ** 2 + r1[1] ** 2
        n2 = r2[0] ** 2 + r2[1] ** 2
        row = r1 if n1 >= n2 else r2
        if max(n1, n2) < 1e-28:
            return None
        return (-row[1], row[0])

    def unit_in_form(d):
        n = math.sqrt(E * d[0] ** 2 + 2.0 * F * d[0] * d[1] + G * d[1] ** 2)
        d = (d[0] / n, d[1] / n)
        if d[0] < 0.0 or (d[0] == 0.0 and d[1] < 0.0):
            d = (-d[0], -d[1])
        return d

    d1 = unit_in_form(direction(k1) or (1.0, 0.0))
    d2 = direction(k2)
    if d2 is None or abs(k2 - k1) < 1e-14 * (1.0 + abs(k1)):
        d2 = (-F * d1[0] - G * d1[1], E * d1[0] + F * d1[1])
    g12 = (E * d1[0] * d2[0] + F * (d1[0] * d2[1] + d1[1] * d2[0]) + G * d1[1] * d2[1])
    return k1, k2, d1, unit_in_form((d2[0] - g12 * d1[0], d2[1] - g12 * d1[1]))


# -- the trace loop on objects, the reference for flows._leg -------------------------

def _negated(w: AmbientVec) -> AmbientVec:
    return AmbientVec(_mscale(-1.0, w.htup), -w.t)


def reference_trace(S: Surface, u0: float, v0: float, length: float,
                     step: float, tol: float = 1e-7,
                     with_connection: bool = True) -> TraceRecord:
    """trace_asymptotic as it was before its legs became rows of floats: a
    memo of the current step's points, and one object tuple per sample."""
    if step <= 0.0 or length <= 0.0:
        raise NumericalError("length and step must be positive")
    half_steps = trace_half_steps(length, step)

    # The points of the current step: only these, and the seed at the start
    # of each leg, are ever evaluated twice (on cylinders the second and
    # third stages, and the fourth stage and the next sample, coincide).
    memo: dict[tuple[float, float], tuple] = {}

    def eval_at(u: float, v: float):
        hit = memo.get((u, v))
        if hit is None:
            hit = memo[u, v] = reference_principal_at(S, u, v)
        return hit

    seed = jet0, forms0, k1_0, k2_0, d1_0, d2_0 = reference_principal_at(S, u0, v0)
    cls = classify_point(shape_data(forms0), tol)
    if cls.tag != PARABOLIC:
        raise NotParabolic(f"seed ({u0}, {v0}) classifies {cls.tag}")
    if abs(k2_0) - abs(k1_0) < 10.0 * tol:
        raise DegenerateDirection("principal curvatures too close to separate directions")

    def field(u: float, v: float, ref):
        _, _, _, _, d1, _ = eval_at(u, v)
        return _aligned(d1, ref)

    def leg(direction) -> tuple[list, str]:
        """Samples after the seed, walking the field aligned to ``direction``."""
        samples = []
        u, v = u0, v0
        ref = direction
        here = seed
        for _ in range(half_steps):
            memo.clear()
            memo[u, v] = here
            try:
                k1v = field(u, v, ref)
                k2v = field(u + 0.5 * step * k1v[0], v + 0.5 * step * k1v[1], k1v)
                k3v = field(u + 0.5 * step * k2v[0], v + 0.5 * step * k2v[1], k1v)
                k4v = field(u + step * k3v[0], v + step * k3v[1], k1v)
            except OutOfDomain:
                return samples, DOMAIN_EDGE
            except NumericalError:
                return samples, STEP_FAILURE
            un = u + step * (k1v[0] + 2.0 * k2v[0] + 2.0 * k3v[0] + k4v[0]) / 6.0
            vn = v + step * (k1v[1] + 2.0 * k2v[1] + 2.0 * k3v[1] + k4v[1]) / 6.0
            if not S.domain.contains(un, vn):
                return samples, DOMAIN_EDGE
            try:
                here = jet, forms, k1n, k2n, d1n, d2n = eval_at(un, vn)
            except NumericalError:
                return samples, STEP_FAILURE
            if abs(k2n) < tol:
                return samples, PLANAR_HIT
            if abs(k2n) - abs(k1n) < 10.0 * tol:
                return samples, STEP_FAILURE
            d1n = _aligned(d1n, k1v)
            samples.append((un, vn, jet, forms, k1n, k2n, d1n, d2n))
            u, v, ref = un, vn, d1n
        return samples, MAX_LENGTH

    fwd, reason_f = leg(d1_0)
    bwd, reason_b = leg((-d1_0[0], -d1_0[1]))

    priority = {PLANAR_HIT: 3, STEP_FAILURE: 2, DOMAIN_EDGE: 1, MAX_LENGTH: 0}
    stop = reason_f if priority[reason_f] >= priority[reason_b] else reason_b
    if not fwd and not bwd:  # the seed alone is no record (trace_asymptotic's rule)
        error = OutOfDomain if stop == DOMAIN_EDGE else NumericalError
        raise error(f"trace from seed ({u0}, {v0}) stops at its first step both ways "
                    f"({stop})")

    n_b, n_f = len(bwd), len(fwd)
    n = n_b + 1 + n_f
    s = np.empty(n)
    uv = np.empty((n, 2))
    hpts = np.empty((n, 3))
    ts = np.empty(n)
    k2s = np.empty(n)
    hs = np.empty(n)
    e2s = np.empty((n, 4))
    e3s = np.empty((n, 4))

    e1s = np.empty((n, 4))
    d2s = np.empty((n, 2))

    seed_entry = (u0, v0, jet0, forms0, k1_0, k2_0, d1_0, d2_0)
    ordered = [*reversed(bwd), seed_entry, *fwd]
    e2_amb = None
    for i, (u, v, jet, forms, k1v, k2v, d1v, d2v) in enumerate(ordered):
        s[i] = (i - n_b) * step
        uv[i] = (u, v)
        hpts[i] = jet.X.htup
        ts[i] = jet.X.t
        k2s[i] = k2v
        hs[i] = 0.5 * (k1v + k2v)
        d1_amb = _ambient_dir(jet.Xu, jet.Xv, d1v)
        if i < n_b:
            # the backward leg walked against d1; flip so e1 always points
            # along increasing s
            d1_amb = _negated(d1_amb)
        e1s[i] = (*d1_amb.htup, d1_amb.t)
        d2s[i] = d2v
        prev, e2_amb = e2_amb, _ambient_dir(jet.Xu, jet.Xv, d2v)
        nh = forms.normal.htup
        e3s[i] = (nh[0], nh[1], nh[2], forms.normal.t)
        if prev is not None and _prod_inner(e2_amb, prev) < 0.0:
            e2_amb = _negated(e2_amb)
        e2s[i] = (*e2_amb.htup, e2_amb.t)
    lams = _connection(S, uv, d2s, e2s, e1s, hpts) if with_connection \
        else np.full(n, math.nan)

    return TraceRecord(s, uv, hpts, ts, k2s, hs, lams, e2s, e3s, stop, step, tol)


def reference_leg(S: Surface, u: float, v: float, here, ref, steps: int, step: float,
                  tol: float) -> tuple[list, str]:
    """flows._leg as it was before straight steps went in blocks: every RK4
    step on the scalar path, a point equal to an earlier one of the same
    step reusing the first such's result."""
    rows = []
    for _ in range(steps):
        m1 = _aligned(here[4], ref)
        try:
            u2, v2 = u + 0.5 * step * m1[0], v + 0.5 * step * m1[1]
            r2 = here if u2 == u and v2 == v else flows._principal_at(S, u2, v2)
            m2 = _aligned(r2[4], m1)
            u3, v3 = u + 0.5 * step * m2[0], v + 0.5 * step * m2[1]
            r3 = (here if u3 == u and v3 == v else r2 if u3 == u2 and v3 == v2
                  else flows._principal_at(S, u3, v3))
            m3 = _aligned(r3[4], m1)
            u4, v4 = u + step * m3[0], v + step * m3[1]
            r4 = (here if u4 == u and v4 == v else r2 if u4 == u2 and v4 == v2
                  else r3 if u4 == u3 and v4 == v3 else flows._principal_at(S, u4, v4))
            m4 = _aligned(r4[4], m1)
            u5 = u + step * (m1[0] + 2.0 * m2[0] + 2.0 * m3[0] + m4[0]) / 6.0
            v5 = v + step * (m1[1] + 2.0 * m2[1] + 2.0 * m3[1] + m4[1]) / 6.0
            here = (here if u5 == u and v5 == v else r2 if u5 == u2 and v5 == v2
                    else r3 if u5 == u3 and v5 == v3 else r4 if u5 == u4 and v5 == v4
                    else flows._principal_at(S, u5, v5))
        except OutOfDomain:
            return rows, DOMAIN_EDGE
        except NumericalError:
            return rows, STEP_FAILURE
        u, v, ref = u5, v5, _aligned(here[4], m1)
        _, _, k1, k2, _, _ = here
        if abs(k2) < tol:
            return rows, PLANAR_HIT
        if abs(k2) - abs(k1) < 10.0 * tol:
            return rows, STEP_FAILURE
        rows.append(_sample(u, v, here, ref))
    return rows, MAX_LENGTH


def scalar_leg_trace(S: Surface, u0: float, v0: float, length: float, step: float,
                     tol: float = 1e-7, with_connection: bool = True) -> TraceRecord:
    """trace_asymptotic with both legs walked by :func:`reference_leg`."""
    def leg(*args):
        rows, reason = reference_leg(*args)
        return np.array(rows).reshape(-1, 24), reason

    with mock.patch.object(flows, "_leg", leg):
        return flows.trace_asymptotic(S, u0, v0, length, step, tol, with_connection)


def kinked(S: Surface, v_c: float, scale: float) -> Surface:
    """S with the horizontal part of Xuu times ``scale`` above v = v_c, in
    its float chart and in its array evaluator alike (scaling by 1.0 keeps
    every bit): on a cylinder, a ruling whose jet repeats up to v_c and,
    for a finite new Xuu, again above it, with other shape data (the
    curvature times ``scale``), or none where the shape operator overflows."""
    base = S.chart

    def chart(u: float, v: float) -> SurfaceJet:
        jet = base(u, v)
        if not v > v_c:
            return jet
        (a0, a1, a2), at = jet.Xuu
        return jet._replace(Xuu=AmbientVec((scale * a0, scale * a1, scale * a2), at))

    def jets(us, vs):
        blk = base.jets(us, vs)
        c = np.where(vs > v_c, scale, 1.0)
        xuu = (c * blk.Xuu.htup[0], c * blk.Xuu.htup[1], c * blk.Xuu.htup[2])
        bad = blk.bad | ~(np.isfinite(xuu[0]) & np.isfinite(xuu[1]) & np.isfinite(xuu[2]))
        return blk._replace(Xuu=AmbientVec(xuu, blk.Xuu.t), bad=bad)

    chart.jets = jets
    return dataclasses.replace(S, chart=chart, label=f"{S.label}+kinked({v_c},{scale})")


def reference_trace_csv(tr: TraceRecord) -> str:
    """TraceRecord.to_csv as a loop over samples and fields."""
    lines = [TRACE_CSV_HEADER]
    for i in range(len(tr.s)):
        lines.append(",".join([
            repr(float(tr.s[i])), repr(float(tr.uv[i, 0])), repr(float(tr.uv[i, 1])),
            repr(float(tr.h[i, 0])), repr(float(tr.h[i, 1])), repr(float(tr.h[i, 2])),
            repr(float(tr.t[i])), repr(float(tr.k2[i])), repr(float(tr.H[i])),
            repr(float(tr.lam[i])),
        ]))
    return "\n".join(lines) + "\n"


def reparametrised(S: Surface, phi, domain: ChartDomain, label: str) -> Surface:
    """S on the chart (u, v) -> S(phi(u, v)), its jets by the chain rule.
    ``phi(u, v)`` gives (a, b), the first partials ((a_u, a_v), (b_u, b_v))
    and the second ((a_uu, a_uv, a_vv), (b_uu, b_uv, b_vv)); ``domain`` must
    map into S's."""

    def comb(*terms):
        return AmbientVec(tuple(sum(c * w.htup[i] for c, w in terms) for i in range(3)),
                          sum(c * w.t for c, w in terms))

    def chart(u: float, v: float) -> SurfaceJet:
        (a, b), ((au, av), (bu, bv)), ((auu, auv, avv), (buu, buv, bvv)) = phi(u, v)
        j = S.chart(a, b)
        first = (j.Xu, j.Xv)
        return SurfaceJet(
            X=j.X, Xu=comb((au, j.Xu), (bu, j.Xv)), Xv=comb((av, j.Xu), (bv, j.Xv)),
            Xuu=comb((au * au, j.Xuu), (2.0 * au * bu, j.Xuv), (bu * bu, j.Xvv),
                     *zip((auu, buu), first)),
            Xuv=comb((au * av, j.Xuu), (au * bv + av * bu, j.Xuv), (bu * bv, j.Xvv),
                     *zip((auv, buv), first)),
            Xvv=comb((av * av, j.Xuu), (2.0 * av * bv, j.Xuv), (bv * bv, j.Xvv),
                     *zip((avv, bvv), first)))

    return dataclasses.replace(S, chart=chart, domain=domain, label=label)


def bent_chart(S: Surface, eps: float = 0.05) -> Surface:
    """S reparametrised by (u, v) -> (u + eps v^2, v): the same surface, whose
    asymptotic lines bend in the chart, so the RK4 stages of a trace are
    distinct points (three evaluations a step, not two).  The u range
    shrinks so the map stays inside S's domain."""
    (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range

    def phi(u, v):
        return ((u + eps * v * v, v), ((1.0, 2.0 * eps * v), (0.0, 1.0)),
                ((0.0, 0.0, 2.0 * eps), (0.0, 0.0, 0.0)))

    domain = ChartDomain((u0, u1 - eps * max(v0 * v0, v1 * v1)), (v0, v1))
    return reparametrised(S, phi, domain, f"{S.label}+bent")


def turned_chart(S: Surface) -> Surface:
    """S reparametrised by (u, v) -> (u + v, v^3/3 - v/4 - u) on
    [-0.5, 0.5] x [-0.9, 0.9], for S with rulings along its second
    coordinate and a domain holding [-1.4, 1.4] x [-1, 1]: the rulings run
    diagonally, and the transverse principal direction, (v^2 - 1/4, 1) in
    the chart, turns through the v axis at v = +-1/2, where its d[0] >= 0
    convention flips it along a trace."""

    def phi(u, v):
        return ((u + v, v ** 3 / 3.0 - 0.25 * v - u), ((1.0, 1.0), (-1.0, v * v - 0.25)),
                ((0.0, 0.0, 0.0), (0.0, 0.0, 2.0 * v)))

    return reparametrised(S, phi, ChartDomain((-0.5, 0.5), (-0.9, 0.9)), f"{S.label}+turned")


def lifted(S: Surface, c: float) -> Surface:
    """S translated vertically by c, an isometry of H2xR: every jet the same
    but for its height X.t + c."""

    def chart(u: float, v: float) -> SurfaceJet:
        jet = S.chart(u, v)
        return jet._replace(X=AmbientVec(jet.X.htup, jet.X.t + c))

    return dataclasses.replace(S, chart=chart, label=f"{S.label}+lifted")


@pytest.fixture(scope="session")
def bent_cylinder(inflection_cylinder):
    return bent_chart(inflection_cylinder)


# -- hypothesis strategies ------------------------------------------------------

def h2_points(max_coord: float = 3.0):
    """Points on the upper sheet with bounded spatial coordinates."""

    def build(x1: float, x2: float) -> tuple:
        return (math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)

    finite = st.floats(-max_coord, max_coord, allow_nan=False)
    return st.builds(build, finite, finite)


def h2_unit_tangents(max_coord: float = 3.0):
    """(point, unit tangent there) pairs of triples; the raw direction is
    projected."""

    def build(p: tuple, w1: float, w2: float) -> tuple:
        return p, _normalize_spacelike(_project_tangent(p, (0.0, w1, w2)))

    nonzero = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    return st.builds(build, h2_points(max_coord), nonzero, nonzero)
