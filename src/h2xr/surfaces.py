"""Parametric surfaces in the product space, evaluated as second-order jets.

A surface is a chart (u, v) -> jet, where the jet carries the point and all
coordinate derivatives through second order.  Differentiation lives here, in
the surface, so the curvature code never needs to know how a preset was
built.  Presets:

* ``make_cylinder`` - vertical surface over a unit-speed generating curve,
  chart (curve arclength) x (height);
* ``make_slice`` - horizontal copy of the hyperbolic plane in geodesic polar
  coordinates (the pole is excluded, polar charts degenerate there);
* ``make_graph`` - height graph over a Fermi chart of the hyperbolic plane;
* ``perturb`` - displace any chart along its unit normal by a bump
  (negative controls for the flatness tests).

A jet is six plain ambient vectors (coordinate triple plus height), the
first of them the point, in the plain tuple ``SurfaceJet``.  ``check_jet``
checks it once, where a chart's output enters the library (``Surface.jet``,
which the point-by-point fallback of bulk evaluation calls, and a derived
chart's call of its base's chart for one jet): finite coordinates and
heights, a footprint on the upper sheet, first derivatives tangent to it,
and a Gram determinant that makes the chart an immersion.

Bulk evaluation: ``Surface.jets``, the one caller of a chart's array
evaluator (a derived surface's blocks of base jets included), evaluates many
chart points at once into a ``JetBlock`` (struct of arrays) whose ``bad``
mask marks every point where the scalar path would raise.  The charts built
here carry an array evaluator as the ``jets`` attribute of the chart
function, written from the same formulas in the same order as the float
chart, with cosh, sinh, cos, sin, squares and height functions taken
elementwise from the scalar functions (a height function's array twin, such
as the Gaussian bump's, does the same without a Python call per point), so
every element has the bits of the float chart (a cylinder's evaluates each
run of equal u once and names the runs in ``JetBlock.run``, see
``make_cylinder``); any other chart (rescaled,
wrapped, user-supplied) is called point by point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .errors import (ConfigError, GeometryError, NonUnitCurve, NotImmersed,
                     NumericalError, OutOfDomain)
from .hyperbolic import (H2Curve, _check_on_sheet, _exp_raw, _off_sheet,
                         constant_curvature, curvature_profile,
                         curve_from_curvature, linear_curvature,
                         spline_curvature)
from .minkowski import (Triple, _check_finite, _mcomb, _mcross, _mdot, _mscale,
                        _normalize_spacelike, _project_tangent)
from .numerics import _each, _sq
from .product import AmbientVec

DEFAULT_CYLINDER_HEIGHT = 3.0
DEFAULT_CURVE_STEP = 1e-3
SLICE_INNER_RADIUS = 1e-3
FD_STEP = 1e-4
DOMAIN_SLACK = 1e-9    # chart points this far outside the domain still count as inside
POINT_BLOCK = 2808     # chart evaluations per block of bulk evaluation
MAX_CHART_COST = POINT_BLOCK // 25  # 112: a 5x5 Brioschi stencil fits in one block


@dataclass(frozen=True, slots=True)
class ChartDomain:
    """Closed rectangle of chart parameters."""

    u_range: tuple[float, float]
    v_range: tuple[float, float]

    def __post_init__(self):
        for lo, hi in (self.u_range, self.v_range):
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
                raise ConfigError(f"bad chart range [{lo}, {hi}]")

    def contains(self, u, v):
        """In the domain, to DOMAIN_SLACK: a bool for floats, a mask for arrays."""
        return ((self.u_range[0] - DOMAIN_SLACK <= u) & (u <= self.u_range[1] + DOMAIN_SLACK)
                & (self.v_range[0] - DOMAIN_SLACK <= v) & (v <= self.v_range[1] + DOMAIN_SLACK))

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_range[0] + self.u_range[1]),
                0.5 * (self.v_range[0] + self.v_range[1]))

    @property
    def widths(self) -> tuple[float, float]:
        return (self.u_range[1] - self.u_range[0], self.v_range[1] - self.v_range[0])


class SurfaceJet(namedtuple("SurfaceJet", "X Xu Xv Xuu Xuv Xvv")):
    """Chart point ``X`` (footprint triple and height) with coordinate
    derivatives through second order, ambient vectors; a chart's jet is
    checked where it enters the library (:func:`check_jet`)."""

    __slots__ = ()


class JetBlock(namedtuple("JetBlock", (*SurfaceJet._fields, "bad", "run"),
                          defaults=(None,))):
    """Jets of many chart points, struct of arrays: the six ambient vectors
    of ``SurfaceJet`` with float arrays for coordinates and heights, plus
    ``bad``, the points whose scalar evaluation raises (their entries are
    meaningless).  ``run``, where not None, gives each point the index of
    its run: consecutive points whose jets have equal bits in every number
    but X.t, so that their shape data is the same (a cylinder's array
    evaluator sets it, ``curvature.shape_block`` reads it); None says
    nothing about repeats.  ``_replace`` of any field but ``bad`` drops
    ``run``, so a wrapper that edits a block's jets never keeps a stale
    one."""

    __slots__ = ()

    def _replace(self, **fields) -> "JetBlock":
        if not fields.keys() <= {"bad", "run"}:
            fields.setdefault("run", None)
        return super()._replace(**fields)


def check_jet(jet: SurfaceJet) -> SurfaceJet:
    """The jet, after checking it (NumericalError, or NotImmersed for a
    degenerate Gram determinant): finite coordinates and heights, a
    footprint on the upper sheet, first derivatives tangent to it, and a
    Gram determinant that makes the chart an immersion.  It reads X.t only
    for its finiteness, so a jet with the bits of a checked one in all but
    a finite X.t passes too (``flows._straight_block`` certifies by that)."""
    ((p0, p1, p2), pt), ((u0, u1, u2), ut), ((v0, v1, v2), vt), \
        ((a0, a1, a2), at), ((b0, b1, b2), bt), ((c0, c1, c2), ct) = jet
    # a non-finite number makes the sum non-finite (as, rarely, does an
    # overflowing sum); the field by field checks then name the first
    # bad one, or pass
    if not math.isfinite(p0 + p1 + p2 + pt + u0 + u1 + u2 + ut + v0 + v1 + v2 + vt
                         + a0 + a1 + a2 + at + b0 + b1 + b2 + bt + c0 + c1 + c2 + ct):
        for w in jet:
            _check_finite(w.htup)
        for w in jet:
            if not math.isfinite(w.t):
                raise NumericalError(f"non-finite height {w.t}")
    _check_on_sheet(jet.X.htup)
    e = -u0 * u0 + u1 * u1 + u2 * u2
    drift = -u0 * p0 + u1 * p1 + u2 * p2
    if abs(drift) > 1e-8 * (1.0 + abs(e)):
        raise NumericalError(f"first derivative not tangent, <w,p> = {drift}")
    g = -v0 * v0 + v1 * v1 + v2 * v2
    drift = -v0 * p0 + v1 * p1 + v2 * p2
    if abs(drift) > 1e-8 * (1.0 + abs(g)):
        raise NumericalError(f"first derivative not tangent, <w,p> = {drift}")
    e += ut ** 2
    g += vt ** 2
    f = -u0 * v0 + u1 * v1 + u2 * v2 + ut * vt
    if e * g - f * f <= 1e-12:
        raise NotImmersed(f"Gram determinant {e * g - f * f} too small")
    return jet


def _jet_block(X, Xu, Xv, Xuu, Xuv, Xvv, bad=False) -> JetBlock:
    """JetBlock from ambient vectors of arrays or floats (broadcast to one
    length), flagging the points that :func:`check_jet` would reject."""
    cols = [np.asarray(c, dtype=float) for w in (X, Xu, Xv, Xuu, Xuv, Xvv)
            for c in (*w.htup, w.t)]
    n = max(c.size for c in cols)
    cols = [c if c.shape == (n,) else np.full(n, c) for c in cols]
    X, Xu, Xv, Xuu, Xuv, Xvv = (AmbientVec(tuple(cols[k:k + 3]), cols[k + 3])
                                for k in range(0, 24, 4))
    bad = bad | ~np.isfinite(np.stack(cols)).all(axis=0)
    p = X.htup
    bad |= _off_sheet(p)
    for w in (Xu, Xv):
        bad |= np.abs(_mdot(w.htup, p)) > 1e-8 * (1.0 + np.abs(_mdot(w.htup, w.htup)))
    e = _mdot(Xu.htup, Xu.htup) + _sq(Xu.t)
    g = _mdot(Xv.htup, Xv.htup) + _sq(Xv.t)
    f = _mdot(Xu.htup, Xv.htup) + Xu.t * Xv.t
    bad |= e * g - f * f <= 1e-12
    return JetBlock(X, Xu, Xv, Xuu, Xuv, Xvv, bad)


def _stack_jets(jet_at, us: np.ndarray, vs: np.ndarray) -> JetBlock:
    """Checked jets ``jet_at(u, v)``, called point by point, stacked into a
    block; a point whose call raises is bad."""
    rows = np.full((len(us), 24), math.nan)
    bad = np.zeros(len(us), dtype=bool)
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        try:
            jet = jet_at(u, v)
        except (GeometryError, ArithmeticError):
            bad[k] = True
            continue
        rows[k] = [c for h, t in jet for c in (*h, t)]
    cols = rows.T
    return JetBlock(*(AmbientVec(tuple(cols[k:k + 3]), cols[k + 3])
                      for k in range(0, 24, 4)), bad)


@dataclass(frozen=True)
class Surface:
    """Chart evaluator plus its domain, bookkeeping and orientation.

    Evaluators must be pure.  ``orientation`` (+1.0 or -1.0, ConfigError
    otherwise) is the sign of the unit normal against Xu x Xv on the whole
    chart (see :func:`unit_normal`).  ``cost`` is the number of evaluations
    of the innermost chart behind one jet: 1 for a chart evaluated directly,
    9 times the base's for finite differences of a base's positions;
    ConfigError above MAX_CHART_COST (two levels of finite differences are
    81, three 729), so one Brioschi stencil, or 8 trace steps, always fit in
    a block of POINT_BLOCK evaluations.  ``curve`` is the generating curve
    whose frames a cylinder's chart evaluates (set by :func:`make_cylinder`
    only; None for every other surface, derived ones included).
    """

    chart: Callable[[float, float], SurfaceJet]
    domain: ChartDomain
    derivative_mode: str
    label: str
    orientation: float
    cost: int = 1
    curve: H2Curve | None = None

    def __post_init__(self):
        if self.orientation not in (1.0, -1.0):
            raise ConfigError(f"orientation must be +1.0 or -1.0, got {self.orientation!r}")
        if self.cost > MAX_CHART_COST:
            raise ConfigError(f"{self.label} costs {self.cost} chart evaluations per jet, "
                              f"more than MAX_CHART_COST = {MAX_CHART_COST}")

    def jet(self, u: float, v: float) -> SurfaceJet:
        """The checked jet at (u, v) (:func:`check_jet`): OutOfDomain outside
        the domain, NumericalError where the chart or the check overflows."""
        if not self.domain.contains(u, v):
            raise OutOfDomain(f"({u}, {v}) outside chart domain of {self.label}")
        try:
            return check_jet(self.chart(u, v))
        except OverflowError as exc:
            raise NumericalError(f"overflow evaluating {self.label} at ({u}, {v})") from exc

    def jets(self, us, vs) -> JetBlock:
        """Jets at arrays of chart points (a float is broadcast to the other
        array's points; two floats give a one-point block), as one block:
        the one caller of a chart's array evaluator.

        ``bad`` marks every point where :meth:`jet` would raise (outside the
        domain, a failed jet check, a curve or stencil that does not reach)
        or where a value is not finite; one bad point never makes the whole
        call raise.  A chart without an array evaluator, or one that fails
        for the whole array, is evaluated point by point through :meth:`jet`.
        """
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        if us.shape != vs.shape:
            us, vs = np.broadcast_arrays(us, vs)
        block = None
        bulk = getattr(self.chart, "jets", None)
        if bulk is not None:
            try:
                with np.errstate(all="ignore"):
                    block = bulk(us, vs)
            except (GeometryError, ArithmeticError, ValueError):
                pass
        if block is None:
            block = _stack_jets(self.jet, us, vs)
        return block._replace(bad=block.bad | ~self.domain.contains(us, vs))


def unit_normal(jet: SurfaceJet, orientation: float) -> AmbientVec:
    """Unit normal of a chart jet in the product metric: ``orientation``
    (+1.0 or -1.0, one sign per chart) times the normalized Xu x Xv.

    Xu and Xv are written in an orthonormal frame of the ambient tangent
    space (two horizontal directions plus the vertical one), so unit length
    and orthogonality to the first derivatives are exact by construction.
    The frame, and so the cross product in it, varies continuously over the
    hyperbolic plane, so on an immersed chart the normal and every signed
    curvature vary continuously too.
    """
    p0, p1, p2 = jet.X.htup
    (u0, u1, u2), ut = jet.Xu
    (v0, v1, v2), vt = jet.Xv
    # b1 projects (0, 1, 0), whose pairing with p is p1 up to the sign of a
    # zero, which the projection cannot see (check_jet found p finite with
    # p0 > 0)
    b10, b11, b12 = _normalize_spacelike((0.0 + p1 * p0, 1.0 + p1 * p1, 0.0 + p1 * p2))
    b20, b21, b22 = -(p1 * b12 - p2 * b11), p2 * b10 - p0 * b12, p0 * b11 - p1 * b10
    x0, x1 = -u0 * b10 + u1 * b11 + u2 * b12, -u0 * b20 + u1 * b21 + u2 * b22
    y0, y1 = -v0 * b10 + v1 * b11 + v2 * b12, -v0 * b20 + v1 * b21 + v2 * b22
    n0, n1, n2 = x1 * vt - ut * y1, ut * y0 - x0 * vt, x0 * y1 - x1 * y0
    nn = math.sqrt(n0 ** 2 + n1 ** 2 + n2 ** 2)
    if nn < 1e-12:
        raise NotImmersed("first derivatives are parallel")
    n0, n1, n2 = orientation * n0 / nn, orientation * n1 / nn, orientation * n2 / nn
    nh = (n0 * b10 + n1 * b20, n0 * b11 + n1 * b21, n0 * b12 + n1 * b22)
    _check_finite(nh)
    return AmbientVec(nh, n2)


def unit_normals(jets: JetBlock, orientation: float) -> tuple[AmbientVec, np.ndarray]:
    """:func:`unit_normal` on a block of jets: the normals, as an ambient
    vector of arrays, and the mask of the points where it raises."""
    p = jets.X.htup
    b1 = _project_tangent(p, (0.0, 1.0, 0.0))
    q = _mdot(b1, b1)  # normalized as by _normalize_spacelike, which rejects q <= 0
    c, bad = 1.0 / np.sqrt(q), ~(q > 0.0)
    b1 = (c * b1[0], c * b1[1], c * b1[2])
    b2 = _mcross(p, b1)
    xu = (_mdot(jets.Xu.htup, b1), _mdot(jets.Xu.htup, b2), jets.Xu.t)
    xv = (_mdot(jets.Xv.htup, b1), _mdot(jets.Xv.htup, b2), jets.Xv.t)
    nc = (xu[1] * xv[2] - xu[2] * xv[1],
          xu[2] * xv[0] - xu[0] * xv[2],
          xu[0] * xv[1] - xu[1] * xv[0])
    nn = np.sqrt(_sq(nc[0]) + _sq(nc[1]) + _sq(nc[2]))
    bad |= ~(nn >= 1e-12)
    nc = (orientation * nc[0] / nn, orientation * nc[1] / nn, orientation * nc[2] / nn)
    nh = _mcomb(nc[0], b1, nc[1], b2)
    bad |= ~(np.isfinite(nh[0]) & np.isfinite(nh[1]) & np.isfinite(nh[2]))
    return AmbientVec(nh, nc[2]), bad


def _call_arrays(fn, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The float function ``fn(u, v)`` at arrays of chart points: through
    its array twin ``fn.arrays``, written with the same operations in the
    same order, where it has one, else point by point."""
    bulk = getattr(fn, "arrays", None)
    return _each(fn, us, vs) if bulk is None else bulk(us, vs)


# Float and array versions of the math a chart body calls: a chart written
# once against ``m`` gives the float chart with ``_FLOATS`` and its array
# evaluator with ``_ARRAYS``.
_FLOATS = SimpleNamespace(cosh=math.cosh, sinh=math.sinh, cos=math.cos, sin=math.sin,
                          call=lambda fn, u, v: fn(u, v), jet=SurfaceJet)
_ARRAYS = SimpleNamespace(cosh=partial(_each, math.cosh), sinh=partial(_each, math.sinh),
                          cos=partial(_each, math.cos), sin=partial(_each, math.sin),
                          call=_call_arrays, jet=_jet_block)


def _chart(body):
    """Float chart ``body(u, v, _FLOATS)``, carrying ``body(us, vs, _ARRAYS)``
    as its array evaluator."""

    def chart(u: float, v: float) -> SurfaceJet:
        return body(u, v, _FLOATS)

    chart.jets = lambda us, vs: body(us, vs, _ARRAYS)
    return chart


# -- cylinders -----------------------------------------------------------------

_ZERO = AmbientVec((0.0, 0.0, 0.0), 0.0)
_VERTICAL = AmbientVec((0.0, 0.0, 0.0), 1.0)


def make_cylinder(alpha: H2Curve, v_range: tuple[float, float] = (-DEFAULT_CYLINDER_HEIGHT, DEFAULT_CYLINDER_HEIGHT),
                  label: str = "cylinder") -> Surface:
    """Vertical surface over a unit-speed generating curve.

    The chart is X(u, v) = (alpha(u), v) with u the curve arclength, so the
    vertical field is a chart direction by construction and Xuv = Xvv = 0
    exactly.  Orientation -1: the normal Xv x Xu is the curve's Frenet
    normal (footprint x tangent), so the nonzero principal curvature is the
    curve's signed geodesic curvature.  Vertical translations are
    isometries, so the jets of a ruling (one u) differ only in X.t, which
    :func:`check_jet` reads for finiteness alone.  The scalar chart reads
    the curve's memoized ``frame_at``; the array evaluator takes each run of
    consecutive equal arclengths (equal bits) as one point, paying one
    ``frames_at`` arclength and one jet check per run, fills in X.t and
    its finiteness per point, and hands on each point's run index as the
    block's ``run``, so that ``curvature.shape_block`` also computes the
    shape data once per run (a block whose runs are all one point long
    keeps ``run`` None).  The surface carries that curve
    as ``curve``: ``alpha`` itself when it has ``kg``, else a copy with
    ``kg`` interpolated from its curvature profile.
    """
    tt = -alpha.tangents[:, 0] ** 2 + alpha.tangents[:, 1] ** 2 + alpha.tangents[:, 2] ** 2
    if np.max(np.abs(tt - 1.0)) > 1e-8:
        raise NonUnitCurve("generating curve must be unit speed")
    curve = alpha
    if curve.kg is None:
        s_mid, kg_mid = curvature_profile(curve)
        kg_all = np.interp(curve.s, s_mid, kg_mid)
        curve = H2Curve(curve.s, curve.points, curve.tangents, curve.interpolation,
                        curve.normals, kg_all, curve.kg_fn)

    def body(a, t, n, kg, v, jet):
        acc = (kg * n[0] + a[0], kg * n[1] + a[1], kg * n[2] + a[2])
        return jet(AmbientVec(a, v), AmbientVec(t, 0.0), _VERTICAL, AmbientVec(acc, 0.0),
                   _ZERO, _ZERO)

    def chart(u: float, v: float) -> SurfaceJet:
        a, t, n, kg = curve.frame_at(u)
        if not math.isfinite(kg):
            raise NumericalError(f"no curvature data at u = {u}")
        return body(a, t, n, kg, v, SurfaceJet)

    def jets(us, vs):
        # runs of equal bits (so -0.0 and 0.0 stay apart): one jet per run,
        # at a finite placeholder height, which no check but finiteness reads
        bits = us.view(np.int64)
        new = np.empty(len(us), dtype=bool)
        new[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        if new.all():  # every run one point long: nothing to expand
            return body(*curve.frames_at(us), curve.kg_at(us), vs, _jet_block)
        s = us[new]
        X, *rest, bad, _ = body(*curve.frames_at(s), curve.kg_at(s), 0.0, _jet_block)
        run = np.cumsum(new) - 1
        return JetBlock(AmbientVec(tuple(c[run] for c in X.htup), vs),
                        *(AmbientVec(tuple(c[run] for c in w.htup), w.t[run]) for w in rest),
                        bad[run] | ~np.isfinite(vs), run)

    chart.jets = jets
    dom = ChartDomain((curve.s_min, curve.s_max), v_range)
    return Surface(chart, dom, "analytic", label, -1.0, curve=curve)


# -- horizontal slices -----------------------------------------------------------

def make_slice(t0: float, radius: float, label: str = "slice") -> Surface:
    """Horizontal slice in geodesic polar coordinates around the origin;
    orientation +1, the normal points up."""
    if radius <= 0.0:
        raise ConfigError("slice radius must be positive")

    def body(r, th, m):
        ch, sh = m.cosh(r), m.sinh(r)
        c, s = m.cos(th), m.sin(th)
        sigma = (ch, sh * c, sh * s)
        return m.jet(
            AmbientVec(sigma, t0),
            AmbientVec((sh, ch * c, ch * s), 0.0),
            AmbientVec((0.0, -sh * s, sh * c), 0.0),
            AmbientVec(sigma, 0.0),
            AmbientVec((0.0, -ch * s, ch * c), 0.0),
            AmbientVec((0.0, -sh * c, -sh * s), 0.0),
        )

    dom = ChartDomain((SLICE_INNER_RADIUS, radius), (0.0, 2.0 * math.pi))
    return Surface(_chart(body), dom, "analytic", label, 1.0)


# -- graphs over a Fermi chart ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class HeightFunction:
    """Height field on a chart with analytic derivatives through order two."""

    f: Callable[[float, float], float]
    fu: Callable[[float, float], float]
    fv: Callable[[float, float], float]
    fuu: Callable[[float, float], float]
    fuv: Callable[[float, float], float]
    fvv: Callable[[float, float], float]


def zero_height() -> HeightFunction:
    z = lambda u, v: 0.0
    return HeightFunction(z, z, z, z, z, z)


def linear_height(a: float) -> HeightFunction:
    return HeightFunction(
        f=lambda u, v: a * u,
        fu=lambda u, v: a,
        fv=lambda u, v: 0.0,
        fuu=lambda u, v: 0.0,
        fuv=lambda u, v: 0.0,
        fvv=lambda u, v: 0.0,
    )


def bilinear_height(coef: float) -> HeightFunction:
    return HeightFunction(
        f=lambda u, v: coef * u * v,
        fu=lambda u, v: coef * v,
        fv=lambda u, v: coef * u,
        fuu=lambda u, v: 0.0,
        fuv=lambda u, v: coef,
        fvv=lambda u, v: 0.0,
    )


def gaussian_bump(center: tuple[float, float], width: float) -> HeightFunction:
    """Smooth localized bump exp(-((u-cu)^2 + (v-cv)^2) / width^2); its
    height ``f`` carries its array twin (see :func:`_call_arrays`)."""
    if not width > 0.0:
        raise ConfigError("bump width must be positive")
    cu, cv = center
    w2 = width * width

    def val(u, v):
        return math.exp(-((u - cu) ** 2 + (v - cv) ** 2) / w2)

    val.arrays = lambda us, vs: _each(math.exp, -(_sq(us - cu) + _sq(vs - cv)) / w2)
    return HeightFunction(
        f=val,
        fu=lambda u, v: val(u, v) * (-2.0 * (u - cu) / w2),
        fv=lambda u, v: val(u, v) * (-2.0 * (v - cv) / w2),
        fuu=lambda u, v: val(u, v) * (4.0 * (u - cu) ** 2 / (w2 * w2) - 2.0 / w2),
        fuv=lambda u, v: val(u, v) * (4.0 * (u - cu) * (v - cv) / (w2 * w2)),
        fvv=lambda u, v: val(u, v) * (4.0 * (v - cv) ** 2 / (w2 * w2) - 2.0 / w2),
    )


def make_graph(height: HeightFunction,
               domain: ChartDomain = ChartDomain((-1.0, 1.0), (-1.0, 1.0)),
               label: str = "graph") -> Surface:
    """Height graph over the Fermi chart along the geodesic through the origin.

    The chart of the hyperbolic plane is sigma(u, v) = point at signed
    distance v from the axis point at arclength u; its metric is
    cosh^2(v) du^2 + dv^2.  Orientation +1, the normal points up (nu > 0).
    """

    def body(u, v, m):
        chu, shu = m.cosh(u), m.sinh(u)
        chv, shv = m.cosh(v), m.sinh(v)
        sigma = (chu * chv, shu * chv, shv)
        sig_u = (shu * chv, chu * chv, 0.0)
        sig_v = (chu * shv, shu * shv, chv)
        sig_uu = (chu * chv, shu * chv, 0.0)
        sig_uv = (shu * shv, chu * shv, 0.0)
        return m.jet(
            AmbientVec(sigma, m.call(height.f, u, v)),
            AmbientVec(sig_u, m.call(height.fu, u, v)),
            AmbientVec(sig_v, m.call(height.fv, u, v)),
            AmbientVec(sig_uu, m.call(height.fuu, u, v)),
            AmbientVec(sig_uv, m.call(height.fuv, u, v)),
            AmbientVec(sigma, m.call(height.fvv, u, v)),
        )

    return Surface(_chart(body), domain, "analytic", label, 1.0)


# -- finite-difference jets ----------------------------------------------------------

def _fd_jet(h, samples, jet):
    """Jet from positions at the centre and the eight neighbours (u +- h,
    v +- h) of a central-difference stencil, in the order c, u+, u-, v+, v-,
    ++, +-, -+, --; floats or arrays alike."""
    ((pc, tc), (pu_p, tu_p), (pu_m, tu_m), (pv_p, tv_p), (pv_m, tv_m),
     (ppp, tpp), (ppm, tpm), (pmp, tmp_), (pmm, tmm)) = samples

    def d1(pp, pm):
        return tuple((a - b) / (2.0 * h) for a, b in zip(pp, pm))

    def d2(pp, pm):
        return tuple((a - 2.0 * b + c) / (h * h) for a, b, c in zip(pp, pc, pm))

    xu = _project_tangent(pc, d1(pu_p, pu_m))
    xv = _project_tangent(pc, d1(pv_p, pv_m))
    xuu = d2(pu_p, pu_m)
    xvv = d2(pv_p, pv_m)
    xuv = tuple((a - b - c + d) / (4.0 * h * h)
                for a, b, c, d in zip(ppp, ppm, pmp, pmm))
    return jet(
        AmbientVec(pc, tc),
        AmbientVec(xu, (tu_p - tu_m) / (2.0 * h)),
        AmbientVec(xv, (tv_p - tv_m) / (2.0 * h)),
        AmbientVec(xuu, (tu_p - 2.0 * tc + tu_m) / (h * h)),
        AmbientVec(xuv, (tpp - tpm - tmp_ + tmm) / (4.0 * h * h)),
        AmbientVec(xvv, (tv_p - 2.0 * tc + tv_m) / (h * h)),
    )


def _fd_surface(pos, pos_arrays, base: Surface, label: str) -> Surface:
    """Surface over ``base``'s domain with jets from a position-only chart,
    by central differences at step FD_STEP; a jet costs nine positions,
    each of ``base.cost`` chart evaluations.

    First-derivative horizontal parts are re-projected onto the hyperboloid
    tangent space; second derivatives are the raw coordinate differences.
    The stencil shrinks near the chart boundary; a point where its step, or
    the square of the step (which divides the second differences), is not
    positive is OutOfDomain.  ``pos(u, v)`` gives one position (footprint
    triple, height); ``pos_arrays(us, vs)`` gives the positions of arrays of
    points with their bad mask, and serves the array evaluator, which takes
    the nine stencil positions of every point from one call.
    """
    (u0, u1) = base.domain.u_range
    (v0, v1) = base.domain.v_range

    def chart(u: float, v: float) -> SurfaceJet:
        h = min(FD_STEP, 0.5 * (u - u0), 0.5 * (u1 - u), 0.5 * (v - v0), 0.5 * (v1 - v))
        if not (h > 0.0 and h * h > 0.0):
            raise OutOfDomain("finite-difference stencil does not fit at the boundary")
        samples = [pos(u, v), pos(u + h, v), pos(u - h, v), pos(u, v + h), pos(u, v - h),
                   pos(u + h, v + h), pos(u + h, v - h), pos(u - h, v + h),
                   pos(u - h, v - h)]
        return _fd_jet(h, samples, SurfaceJet)

    def chart_arrays(us: np.ndarray, vs: np.ndarray) -> JetBlock:
        h = np.minimum.reduce([np.full(us.shape, FD_STEP), 0.5 * (us - u0), 0.5 * (u1 - us),
                               0.5 * (vs - v0), 0.5 * (v1 - vs)])
        up, um, vp, vm = us + h, us - h, vs + h, vs - h
        p, t, bad = pos_arrays(np.concatenate([us, up, um, us, us, up, up, um, um]),
                               np.concatenate([vs, vs, vs, vp, vm, vp, vm, vp, vm]))
        n = len(us)
        samples = [(tuple(c[k:k + n] for c in p), t[k:k + n]) for k in range(0, 9 * n, n)]
        bad = bad.reshape(9, n).any(axis=0) | ~((h > 0.0) & (h * h > 0.0))
        return _fd_jet(h, samples, partial(_jet_block, bad=bad))

    chart.jets = chart_arrays
    return Surface(chart, base.domain, "finite-difference", label, base.orientation,
                   9 * base.cost)


def finite_difference_surface(base: Surface) -> Surface:
    """Rebuild a surface with jets from central differences (step FD_STEP)
    of positions only."""

    def pos(u: float, v: float) -> AmbientVec:
        return check_jet(base.chart(u, v)).X

    def pos_arrays(us: np.ndarray, vs: np.ndarray):
        jets = base.jets(us, vs)
        return jets.X.htup, jets.X.t, jets.bad

    return _fd_surface(pos, pos_arrays, base, f"{base.label}(fd)")


# -- perturbation ------------------------------------------------------------------

def perturb(base: Surface, eps: float, bump: HeightFunction | None = None,
            label: str | None = None) -> Surface:
    """Displace the chart by eps * bump along the unit normal.

    Pure height bumps are invisible on vertical charts (they only slide
    points along the rulings), so the perturbation moves each point off the
    surface along its normal; on slices and graphs, where the normal is
    nearly vertical, this is essentially a height bump.  Jets of the
    displaced chart come from central differences of its positions.

    eps = 0 returns the base surface object unchanged.  The default bump is
    a Gaussian centered on the chart domain with width a quarter of the
    smaller extent.
    """
    if eps < 0.0:
        raise ConfigError("perturbation size must be nonnegative")
    if eps == 0.0:
        return base
    if bump is None:
        wu, wv = base.domain.widths
        bump = gaussian_bump(base.domain.center, 0.25 * min(wu, wv))

    def pos(u: float, v: float) -> tuple[Triple, float]:
        jet = check_jet(base.chart(u, v))
        n = unit_normal(jet, base.orientation)
        d = eps * bump.f(u, v)
        p = jet.X.htup
        a_h = math.sqrt(max(0.0, _mdot(n.htup, n.htup)))
        if a_h < 1e-15:
            return p, jet.X.t + d * n.t
        direction = _mscale(1.0 / a_h, n.htup)
        return _exp_raw(p, direction, d * a_h), jet.X.t + d * n.t

    def pos_arrays(us: np.ndarray, vs: np.ndarray):
        jets = base.jets(us, vs)
        n, bad = unit_normals(jets, base.orientation)
        d = eps * _call_arrays(bump.f, us, vs)
        p = jets.X.htup
        a_h = np.sqrt(np.maximum(0.0, _mdot(n.htup, n.htup)))
        moved = _exp_raw(p, _mscale(1.0 / a_h, n.htup), d * a_h)
        still = a_h < 1e-15
        return (tuple(np.where(still, a, b) for a, b in zip(p, moved)),
                jets.X.t + d * n.t, jets.bad | bad)

    return _fd_surface(pos, pos_arrays, base, label or f"{base.label}+bump({eps})")


def rescale_chart(base: Surface, a: float, b: float) -> Surface:
    """Reparametrize the chart by (u, v) = (a * u', b * v'); the orientation
    takes the sign of a * b, so the normal stays the base's."""
    if a == 0.0 or b == 0.0:
        raise ConfigError("scale factors must be nonzero")

    def chart(u: float, v: float) -> SurfaceJet:
        j = check_jet(base.chart(a * u, b * v))
        return SurfaceJet(j.X, *(AmbientVec(_mscale(c, w.htup), c * w.t)
                                 for w, c in zip(j[1:], (a, b, a * a, a * b, b * b))))

    (u0, u1) = sorted((base.domain.u_range[0] / a, base.domain.u_range[1] / a))
    (v0, v1) = sorted((base.domain.v_range[0] / b, base.domain.v_range[1] / b))
    dom = ChartDomain((u0, u1), (v0, v1))
    return Surface(chart, dom, base.derivative_mode, f"{base.label}(x{a},x{b})",
                   base.orientation * math.copysign(1.0, a * b), base.cost)


# -- JSON configuration ---------------------------------------------------------------

def config_number(value, name: str, *, integer: bool = False):
    """The config or flag number ``value`` of field ``name`` as a float (an
    int with ``integer=True``); ConfigError for bools, strings, null, NaN,
    +-Infinity, ints beyond the float range and, for integers, non-integral
    values (20.0 gives 20, 2.9 fails).  Ranges are checked by the users."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and not integer:
            return x
        if math.isfinite(x) and x.is_integer():
            return int(value)  # exact, also for integers past 2**53
    raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}, "
                      f"got {value!r}")


def _curve_from_config(cfg: dict, u_range: tuple[float, float], step: float) -> H2Curve:
    kind = cfg.get("kind")
    if kind == "constant":
        fn = constant_curvature(config_number(cfg.get("value"), "curve.value"))
    elif kind == "linear":
        fn = linear_curvature(config_number(cfg.get("slope"), "curve.slope"),
                              config_number(cfg.get("intercept", 0.0), "curve.intercept"))
    elif kind == "spline":
        ks = cfg.get("knots_s")
        kk = cfg.get("knots_k")
        if not isinstance(ks, list) or not isinstance(kk, list) or len(ks) != len(kk):
            raise ConfigError("spline curve needs matching 'knots_s' and 'knots_k'")
        ks = [config_number(x, "curve.knots_s") for x in ks]
        kk = [config_number(y, "curve.knots_k") for y in kk]
        try:
            fn = spline_curvature(ks, kk)
        except NumericalError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"unknown curve kind {kind!r}")
    return curve_from_curvature(fn, u_range, step)


def _range_from_config(cfg, default: tuple[float, float], name: str) -> tuple[float, float]:
    if cfg is None:
        return default
    if not isinstance(cfg, (list, tuple)) or len(cfg) != 2:
        raise ConfigError(f"{name} must be a pair [lo, hi], got {cfg!r}")
    return config_number(cfg[0], name), config_number(cfg[1], name)


def _domain_from_config(domain: dict, u_default: tuple[float, float],
                        v_default: tuple[float, float]) -> ChartDomain:
    return ChartDomain(_range_from_config(domain.get("u"), u_default, "domain.u"),
                       _range_from_config(domain.get("v"), v_default, "domain.v"))


def from_config(cfg: dict) -> Surface:
    """Build a preset surface from its JSON description.

    See the CLI module docstring for the exact schema.  Every number goes
    through :func:`config_number`; anything malformed raises ConfigError.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("surface config must be an object")
    kind = cfg.get("kind")
    domain = cfg.get("domain") or {}
    if not isinstance(domain, dict):
        raise ConfigError("'domain' must be an object")
    if kind == "cylinder":
        dom = _domain_from_config(domain, (-1.5, 1.5),
                                  (-DEFAULT_CYLINDER_HEIGHT, DEFAULT_CYLINDER_HEIGHT))
        curve_cfg = cfg.get("curve")
        if not isinstance(curve_cfg, dict):
            raise ConfigError("cylinder needs a 'curve' object")
        step = config_number(cfg.get("curve_step", DEFAULT_CURVE_STEP), "curve_step")
        if not 0.0 < step <= 0.1:
            raise ConfigError(f"bad curve_step {step!r}")
        return make_cylinder(_curve_from_config(curve_cfg, dom.u_range, step), dom.v_range,
                             label=cfg.get("label", "cylinder"))
    if kind == "slice":
        return make_slice(config_number(cfg.get("t0", 0.0), "t0"),
                          config_number(cfg.get("radius"), "radius"),
                          label=cfg.get("label", "slice"))
    if kind == "graph":
        fcfg = cfg.get("f")
        if not isinstance(fcfg, dict):
            raise ConfigError("graph needs an 'f' object")
        fkind = fcfg.get("kind")
        if fkind == "bilinear":
            height = bilinear_height(config_number(fcfg.get("coef"), "f.coef"))
        elif fkind == "linear":
            height = linear_height(config_number(fcfg.get("a"), "f.a"))
        elif fkind == "zero":
            height = zero_height()
        else:
            raise ConfigError(f"unknown height kind {fkind!r}")
        return make_graph(height, _domain_from_config(domain, (-1.0, 1.0), (-1.0, 1.0)),
                          label=cfg.get("label", "graph"))
    if kind == "perturbed":
        base_cfg = cfg.get("base")
        if not isinstance(base_cfg, dict):
            raise ConfigError("perturbed surface needs a 'base' object")
        eps = config_number(cfg.get("eps"), "eps")
        base = from_config(base_cfg)
        bump_cfg = cfg.get("bump")
        bump = None
        if bump_cfg is not None:
            if not isinstance(bump_cfg, dict):
                raise ConfigError("'bump' must be an object")
            center = bump_cfg.get("center", list(base.domain.center))
            if not isinstance(center, (list, tuple)) or len(center) != 2:
                raise ConfigError("bump center must be [u, v]")
            width = bump_cfg.get("width", 0.25 * min(base.domain.widths))
            bump = gaussian_bump((config_number(center[0], "bump.center"),
                                  config_number(center[1], "bump.center")),
                                 config_number(width, "bump.width"))
        return perturb(base, eps, bump, label=cfg.get("label", f"perturbed({base.label})"))
    raise ConfigError(f"unknown surface kind {kind!r}")


def generating_curve_of_config(cfg: dict) -> H2Curve | None:
    """``from_config(cfg).curve``: the generating curve of a cylinder
    config, None for other kinds.  Kept only for the benchmark's compare
    workload (``benchmarks/workloads.py``), which reads it by this name."""
    return from_config(cfg).curve


# -- preset corpus ---------------------------------------------------------------------

COTH1 = math.cosh(1.0) / math.sinh(1.0)

CORPUS_CONFIGS: dict[str, dict] = {
    "cylinder_geodesic": {"kind": "cylinder", "label": "cylinder_geodesic",
                          "curve": {"kind": "constant", "value": 0.0},
                          "domain": {"u": [-1.5, 1.5]}},
    "cylinder_circle": {"kind": "cylinder", "label": "cylinder_circle",
                        "curve": {"kind": "constant", "value": COTH1},
                        "domain": {"u": [0.0, 2.0 * math.pi * math.sinh(1.0)]}},
    "cylinder_horocycle": {"kind": "cylinder", "label": "cylinder_horocycle",
                           "curve": {"kind": "constant", "value": 1.0},
                           "domain": {"u": [0.0, 3.0]}},
    "cylinder_spline": {"kind": "cylinder", "label": "cylinder_spline",
                        "curve": {"kind": "spline",
                                  "knots_s": [0.0, 0.75, 1.5, 2.25, 3.0],
                                  "knots_k": [0.4, 1.1, -0.7, 0.9, 0.2]},
                        "domain": {"u": [0.0, 3.0]}},
    "cylinder_inflection": {"kind": "cylinder", "label": "cylinder_inflection",
                            "curve": {"kind": "linear", "slope": 1.0},
                            "domain": {"u": [-1.5, 1.5]}},
    "slice": {"kind": "slice", "label": "slice", "t0": 0.0, "radius": 2.0},
    "perturbed_cylinder": {"kind": "perturbed", "label": "perturbed_cylinder",
                           "eps": 1e-2,
                           "base": {"kind": "cylinder",
                                    "curve": {"kind": "constant", "value": COTH1},
                                    "domain": {"u": [0.0, 2.0 * math.pi * math.sinh(1.0)]}}},
    "perturbed_slice": {"kind": "perturbed", "label": "perturbed_slice",
                        "eps": 1e-2,
                        "base": {"kind": "slice", "t0": 0.0, "radius": 2.0}},
}

CYLINDER_PRESETS = ("cylinder_geodesic", "cylinder_circle", "cylinder_horocycle",
                    "cylinder_spline", "cylinder_inflection")


@lru_cache(maxsize=None)
def preset(name: str) -> Surface:
    """Corpus surface by name (cached; surfaces are immutable)."""
    if name not in CORPUS_CONFIGS:
        raise ConfigError(f"unknown preset {name!r}")
    return from_config(CORPUS_CONFIGS[name])
