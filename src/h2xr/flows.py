"""Asymptotic lines through parabolic points, with their diagnostics.

A parabolic point has exactly one vanishing principal curvature; the
corresponding principal direction is the asymptotic direction and the
integral curve of that direction field is the unique asymptotic line.  The
tracer integrates the field in chart coordinates (so the curve stays on the
surface by construction) with a fourth-order Runge-Kutta step and
sign-continuity of the eigenvector choice.

Per-sample diagnostics recorded along the trace:

* ``k2``, ``H`` - the nonzero principal curvature and the mean curvature;
* ``lam`` - the connection coefficient <D_{e2} e2, e1>, measured by a short
  transverse finite difference of the e2 field; the two transverse points of
  every sample are known once the trace is, so they are evaluated in bulk
  (``curvature.point_block``), while the RK4 steps, each depending on the
  last, stay on the scalar path;
* ``e2``, ``e3`` - the transverse principal direction and the unit normal as
  ambient vectors.

On doubly flat surfaces the trace must be an ambient geodesic, 1/H must be
affine in arclength, lam' = lam^2 and k2' = lam k2 must hold, and e2, e3
must be covariantly constant; the checkers below measure all of that from
the samples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (PARABOLIC, block_size, classify_point, forms_from_jet,
                        point_block, principal_curvatures, shape_data)
from .errors import (DegenerateDirection, GeometryError, InsufficientSamples,
                     NotParabolic, NumericalError, OutOfDomain, PlanarSample)
from .hyperbolic import H2Point, H2Tangent, _dists_raw
from .minkowski import SpacetimeVec, _mcomb, _mdot, _mscale, _project_tangent
from .numerics import _each, _sq, affine_fit
from .product import (AmbientVec, ProdGeodesic, ProdPoint, ProdTangent, _prod_exp_raw,
                      _prod_inner)
from .surfaces import Surface

DOMAIN_EDGE = "DOMAIN_EDGE"
MAX_LENGTH = "MAX_LENGTH"
PLANAR_HIT = "PLANAR_HIT"
STEP_FAILURE = "STEP_FAILURE"

TRACE_CSV_HEADER = "s,u,v,h_x0,h_x1,h_x2,t,k2,H,lambda"


@dataclass(frozen=True)
class TraceRecord:
    """Arclength-sampled asymptotic line (or control path) with diagnostics."""

    s: np.ndarray
    uv: np.ndarray
    h: np.ndarray
    t: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    stop_reason: str
    step: float
    tol: float

    def __post_init__(self):
        d = np.diff(self.s)
        if len(self.s) < 2 or np.any(d <= 0.0):
            raise NumericalError("trace samples must be strictly increasing in s")
        if (d.max() - d.min()) > 0.01 * d.mean():
            raise NumericalError("trace samples must be uniformly spaced within 1%")
        parab = np.abs(self.k2) >= self.tol
        gap = np.abs(2.0 * self.H[parab] - self.k2[parab])
        if gap.size and gap.max() >= 1e-10:
            raise NumericalError("2H must equal k2 at parabolic samples")

    def __len__(self) -> int:
        return len(self.s)

    def point(self, i: int) -> ProdPoint:
        return ProdPoint(H2Point.of(tuple(self.h[i])), float(self.t[i]))

    def to_csv(self) -> str:
        lines = [TRACE_CSV_HEADER]
        for i in range(len(self.s)):
            lines.append(",".join([
                repr(float(self.s[i])), repr(float(self.uv[i, 0])),
                repr(float(self.uv[i, 1])), repr(float(self.h[i, 0])),
                repr(float(self.h[i, 1])), repr(float(self.h[i, 2])),
                repr(float(self.t[i])), repr(float(self.k2[i])),
                repr(float(self.H[i])), repr(float(self.lam[i])),
            ]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class AffineFit:
    """Least-squares line a*s + b with its root-mean-square residual."""

    a: float
    b: float
    rms_residual: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InsufficientSamples("affine fit needs at least three samples")
        if self.rms_residual < 0.0:
            raise NumericalError("rms residual cannot be negative")


@dataclass(frozen=True, slots=True)
class GeodesicDeviation:
    max_dev: float
    at_s: float

    def __post_init__(self):
        if self.max_dev < 0.0:
            raise NumericalError("deviation cannot be negative")


# -- tracing ----------------------------------------------------------------------

def _principal_at(S: Surface, u: float, v: float):
    jet = S.jet(u, v)
    forms = forms_from_jet(jet)
    k1, k2, d1, d2 = principal_curvatures(forms)
    return jet, forms, k1, k2, d1, d2


def _aligned(d: tuple[float, float], ref: tuple[float, float]) -> tuple[float, float]:
    if d[0] * ref[0] + d[1] * ref[1] < 0.0:
        return (-d[0], -d[1])
    return d


def _ambient_dir(xu: AmbientVec, xv: AmbientVec, d) -> AmbientVec:
    """Chart direction d as the ambient vector d0 Xu + d1 Xv (floats, or
    arrays for a block of points)."""
    return AmbientVec(_mcomb(d[0], xu.htup, d[1], xv.htup), d[0] * xu.t + d[1] * xv.t)


def _negated(w: AmbientVec) -> AmbientVec:
    return AmbientVec(_mscale(-1.0, w.htup), -w.t)


def _rows(w: AmbientVec) -> np.ndarray:
    """(n, 4) rows of a block of ambient vectors."""
    return np.stack([*w.htup, w.t], axis=1)


def _vec(rows: np.ndarray) -> AmbientVec:
    return AmbientVec(tuple(rows[:, :3].T), rows[:, 3])


def _connection(S: Surface, uv: np.ndarray, d2: np.ndarray, e2: np.ndarray,
                e1: np.ndarray, foot: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """Transverse connection coefficient <D_{e2} e2, e1> at every sample.

    The e2 field is differenced centrally across the trace, along the chart
    direction d2, at a step that keeps both points inside the chart (NaN
    where that step is below 1e-9).  All transverse points are evaluated in
    blocks of POINT_BLOCK chart evaluations; a sample whose pair the block
    flags has both points evaluated again on the scalar path, which raises
    what a scalar trace raises.  Rows of ``d2``, ``e2``, ``e1`` and ``foot``
    are per sample.
    """
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    u, v = uv[:, 0], uv[:, 1]
    room = np.minimum(np.minimum(u - u0, u1 - u), np.minimum(v - v0, v1 - v))
    hstep = np.minimum(delta, 0.25 * room / (1e-12 + np.maximum(np.abs(d2[:, 0]),
                                                                 np.abs(d2[:, 1]))))
    lam = np.full(len(u), math.nan)
    live = np.flatnonzero(~(hstep <= 1e-9))
    size = block_size(S, 2)
    for k0 in range(0, len(live), size):
        blk = live[k0:k0 + size]
        h = hstep[blk]
        up, vp = u[blk] + h * d2[blk, 0], v[blk] + h * d2[blk, 1]
        um, vm = u[blk] - h * d2[blk, 0], v[blk] - h * d2[blk, 1]
        try:  # e2 at every transverse point, before its sign is fixed
            pb = point_block(S, np.concatenate([up, um]), np.concatenate([vp, vm]))
            w = _rows(_ambient_dir(pb.jets.Xu, pb.jets.Xv, pb.d2))
            flagged = pb.bad.reshape(2, -1).any(axis=0)
        except (GeometryError, ArithmeticError, ValueError):
            w = np.empty((2 * len(blk), 4))
            flagged = np.ones(len(blk), dtype=bool)
        for k in np.flatnonzero(flagged):
            for row, uu, vv in ((k, up[k], vp[k]), (k + len(blk), um[k], vm[k])):
                jet, _, _, _, _, d2o = _principal_at(S, float(uu), float(vv))
                wk = _ambient_dir(jet.Xu, jet.Xv, d2o)
                w[row] = (*wk.htup, wk.t)
        ref = _vec(np.concatenate([e2[blk], e2[blk]]))
        w = np.where((_prod_inner(_vec(w), ref) < 0.0)[:, None], -w, w)
        der = (w[:len(blk)] - w[len(blk):]) / (2.0 * h[:, None])
        cov = AmbientVec(_project_tangent(tuple(foot[blk].T), tuple(der[:, :3].T)), der[:, 3])
        lam[blk] = _prod_inner(cov, _vec(e1[blk]))
    return lam


def trace_asymptotic(S: Surface, u0: float, v0: float, length: float,
                     step: float, tol: float = 1e-7,
                     with_connection: bool = True) -> TraceRecord:
    """Trace the asymptotic line through a parabolic point, both ways.

    The trace runs length/2 in each direction from the seed and stops early
    at the domain edge, at a planar point (|k2| < tol), or on numerical
    breakdown of the direction field.  ``with_connection=False`` skips the
    transverse measurement of the connection coefficient (NaN in the record),
    which roughly halves the cost when only the path is needed.
    """
    if step <= 0.0 or length <= 0.0:
        raise NumericalError("length and step must be positive")

    # The points of the current step: only these, and the seed at the start
    # of each leg, are ever evaluated twice (on cylinders the second and
    # third stages, and the fourth stage and the next sample, coincide).
    memo: dict[tuple[float, float], tuple] = {}

    def eval_at(u: float, v: float):
        hit = memo.get((u, v))
        if hit is None:
            hit = memo[u, v] = _principal_at(S, u, v)
        return hit

    seed = jet0, forms0, k1_0, k2_0, d1_0, d2_0 = _principal_at(S, u0, v0)
    cls = classify_point(shape_data(forms0), tol)
    if cls.tag != PARABOLIC:
        raise NotParabolic(f"seed ({u0}, {v0}) classifies {cls.tag}")
    if abs(k2_0) - abs(k1_0) < 10.0 * tol:
        raise DegenerateDirection("principal curvatures too close to separate directions")

    half_steps = int(round(0.5 * length / step))

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


# -- diagnostics -------------------------------------------------------------------

def geodesic_deviation(tr: TraceRecord) -> GeodesicDeviation:
    """Max distance from the trace to the exact geodesic it should be.

    The comparison geodesic is built from the first sample and a
    second-order one-sided estimate of the initial velocity, so it uses
    nothing but the sampled points.
    """
    if len(tr) < 3:
        raise InsufficientSamples("need at least three samples")
    h = tr.step
    vh = (-3.0 * tr.h[0] + 4.0 * tr.h[1] - tr.h[2]) / (2.0 * h)
    vt = float(-3.0 * tr.t[0] + 4.0 * tr.t[1] - tr.t[2]) / (2.0 * h)
    base = tr.point(0)
    vh = _project_tangent(base.h.tup, tuple(vh))
    norm = math.sqrt(max(0.0, _mdot(vh, vh)) + vt * vt)
    if norm < 1e-12:
        raise NumericalError("trace samples do not define a direction")
    tangent = ProdTangent(base, H2Tangent(base.h, SpacetimeVec.of(
        tuple(c / norm for c in vh))), vt / norm)
    geo = ProdGeodesic.from_tangent(tangent)
    foot, height = _prod_exp_raw(geo.p0.h.tup, geo.p0.t, geo.v0.vh.tup, geo.v0.vt,
                                 tr.s - tr.s[0])
    d = _each(math.hypot, _dists_raw(foot, tuple(tr.h.T)), height - tr.t)
    d = np.where(np.isnan(d), 0.0, d)  # a NaN distance never becomes the maximum
    i = int(np.argmax(d))  # the first sample at the maximum
    return GeodesicDeviation(float(d[i]), float(tr.s[i]))


@dataclass(frozen=True, slots=True)
class FrameOdeResiduals:
    """Max residuals of the structure equations along a trace."""

    lambda_ode: float
    k2_ode: float
    de2: float
    de3: float


def frame_ode_residuals(tr: TraceRecord) -> FrameOdeResiduals:
    """Residuals of lam' = lam^2, k2' = lam k2, and covariant constancy of e2, e3."""
    n = len(tr)
    if n < 5:
        raise InsufficientSamples("need at least five samples")
    h = tr.step
    lam_p = (tr.lam[2:] - tr.lam[:-2]) / (2.0 * h)
    k2_p = (tr.k2[2:] - tr.k2[:-2]) / (2.0 * h)
    lam_c = tr.lam[1:-1]
    k2_c = tr.k2[1:-1]
    r1 = float(np.nanmax(np.abs(lam_p - lam_c ** 2)))
    r2 = float(np.nanmax(np.abs(k2_p - lam_c * k2_c)))

    def cov_norm(rows: np.ndarray) -> float:
        der = (rows[2:] - rows[:-2]) / (2.0 * h)
        ch = _project_tangent(tuple(tr.h[1:-1].T), tuple(der[:, :3].T))
        norms = np.sqrt(np.fmax(0.0, _mdot(ch, ch)) + _sq(der[:, 3]))
        return float(np.max(norms, initial=0.0, where=~np.isnan(norms)))

    return FrameOdeResiduals(r1, r2, cov_norm(tr.e2), cov_norm(tr.e3))


def fit_inverse_H(tr: TraceRecord) -> AffineFit:
    """Least-squares affine fit of 1/H against arclength."""
    if len(tr) < 3:
        raise InsufficientSamples("need at least three samples")
    if np.any(np.abs(tr.k2) < tr.tol) or np.any(~np.isfinite(tr.k2)):
        raise PlanarSample("trace contains planar samples; 1/H is not defined there")
    a, b, rms = affine_fit(tr.s, 1.0 / tr.H)
    return AffineFit(a, b, rms, len(tr))
