"""The ambient product of the hyperbolic plane and the real line.

A point is a hyperboloid point plus a height; a tangent vector splits into a
horizontal part (tangent to the hyperbolic plane) and a vertical speed.  The
metric is the sum of the two factors, so geodesics are closed form: their
horizontal projection is a hyperbolic geodesic traversed at constant speed
and their height is affine in arclength.  The covariant derivative splits the
same way, which is what :func:`prod_geodesic_residual` checks numerically.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BaseMismatch, DivergenceNotReached, GeometryError,
                     InsufficientSamples, NonUnitTangent, NumericalError)
from .hyperbolic import H2Point, H2Tangent, _dist_raw, _exp_raw, h2_dist
from .minkowski import SpacetimeVec, Triple, _mcross, _mdot, _mscale
from .numerics import golden_min

UNIT_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class ProdPoint:
    """Point of the product space: hyperbolic footprint plus height."""

    h: H2Point
    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise NumericalError(f"non-finite height {self.t}")


class AmbientVec(NamedTuple):
    """Unchecked ambient coordinate vector (not necessarily tangent): a
    horizontal triple and a height component."""

    htup: Triple
    t: float


def _prod_inner(a: AmbientVec, b: AmbientVec):
    """Product-metric pairing of two ambient vectors, of floats or of arrays
    alike: Minkowski pairing of the horizontal parts plus the product of the
    heights."""
    return _mdot(a.htup, b.htup) + a.t * b.t


@dataclass(frozen=True, slots=True)
class ProdTangent:
    """Tangent vector at a product point."""

    base: ProdPoint
    vh: H2Tangent
    vt: float

    def __post_init__(self):
        if not math.isfinite(self.vt):
            raise NumericalError(f"non-finite vertical speed {self.vt}")
        dh = max(abs(a - b) for a, b in zip(self.vh.base.tup, self.base.h.tup))
        if dh > 1e-9:
            raise BaseMismatch("horizontal part lives at a different footprint")

    def norm(self) -> float:
        return math.sqrt(max(0.0, _mdot(self.vh.tup, self.vh.tup)) + self.vt * self.vt)


def prod_metric(u: ProdTangent, v: ProdTangent) -> float:
    """Product metric: horizontal Minkowski pairing plus vertical product."""
    du = max(abs(a - b) for a, b in zip(u.base.h.tup, v.base.h.tup))
    if du > 1e-9 or abs(u.base.t - v.base.t) > 1e-9:
        raise BaseMismatch("tangent vectors live at different points")
    return _mdot(u.vh.tup, v.vh.tup) + u.vt * v.vt


def prod_exp(p: ProdPoint, v: ProdTangent, s: float) -> ProdPoint:
    """Geodesic flow of the product space (closed form)."""
    foot, t = _prod_exp_raw(p.h.tup, p.t, v.vh.tup, v.vt, s)
    return ProdPoint(H2Point.of(foot), t)


def _prod_exp_raw(p: Triple, t: float, vh: Triple, vt: float, s):
    """Footprint and height at arclength s along the product geodesic from
    (p, t) with unit velocity (vh, vt); s a float, or an array, which gives
    triples of coordinate arrays (or p itself for a vertical geodesic)."""
    nh2 = max(0.0, _mdot(vh, vh))
    total = nh2 + vt * vt
    if abs(total - 1.0) > UNIT_TOL:
        raise NonUnitTangent(f"|v|^2 = {total}, expected a unit tangent")
    a_h = math.sqrt(nh2)
    if a_h < 1e-15:
        return p, t + s * vt
    return _exp_raw(p, _mscale(1.0 / a_h, vh), s * a_h), t + s * vt


def prod_dist(p: ProdPoint, q: ProdPoint) -> float:
    """Distance in the product: Pythagorean combination of the factors."""
    dh = h2_dist(p.h, q.h)
    dt = p.t - q.t
    return math.hypot(dh, dt)


@dataclass(frozen=True, slots=True)
class ProdGeodesic:
    """Normalized description of a product geodesic.

    ``a_v`` is the constant vertical slope and ``p0.t`` the height intercept;
    ``a_h`` is the constant horizontal speed.  The direction sign is carried
    by the tangent so that a_h >= 0.
    """

    p0: ProdPoint
    v0: ProdTangent
    a_h: float
    a_v: float

    def __post_init__(self):
        if abs(self.a_h * self.a_h + self.a_v * self.a_v - 1.0) > 1e-12:
            raise NonUnitTangent("speed components must satisfy a_h^2 + a_v^2 = 1")
        if self.a_h < 0.0:
            raise NumericalError("horizontal speed must be nonnegative")

    @classmethod
    def from_tangent(cls, v: ProdTangent) -> "ProdGeodesic":
        n = v.norm()
        if n <= 0.0:
            raise NonUnitTangent("zero tangent cannot direct a geodesic")
        vh = _mscale(1.0 / n, v.vh.tup)
        vt = v.vt / n
        unit = ProdTangent(v.base, H2Tangent(v.base.h, SpacetimeVec.of(vh)), vt)
        a_h = math.sqrt(max(0.0, _mdot(vh, vh)))
        return cls(v.base, unit, a_h, vt)

    def point(self, s: float) -> ProdPoint:
        return prod_exp(self.p0, self.v0, s)


def prod_geodesic_residual(path: Sequence[ProdPoint], spacing: float | None = None) -> float:
    """Max covariant-acceleration norm of a uniformly sampled path.

    The horizontal velocity comes from centered differences of the footprint
    coordinates; its covariant derivative is the tangential projection of its
    centered difference.  The vertical part is the plain second difference of
    the height.  Exact geodesics give residuals at roundoff level.
    """
    n = len(path)
    if n < 5:
        raise InsufficientSamples("need at least five samples")
    pts = np.array([p.h.tup for p in path])
    ts = np.array([p.t for p in path])
    if spacing is None:
        gaps = np.array([prod_dist(path[i], path[i + 1]) for i in range(n - 1)])
        h = float(gaps.mean())
        if h <= 0.0 or (gaps.max() - gaps.min()) > 0.02 * h:
            raise NumericalError("path samples are not near-uniformly spaced")
    else:
        h = float(spacing)

    vel = (pts[2:] - pts[:-2]) / (2.0 * h)          # rows 1..n-2
    acc = (vel[2:] - vel[:-2]) / (2.0 * h)          # rows 2..n-3
    base = pts[2:-2]
    c = -(acc[:, 0] * base[:, 0]) + acc[:, 1] * base[:, 1] + acc[:, 2] * base[:, 2]
    tang = acc + c[:, None] * base
    hn2 = -(tang[:, 0] ** 2) + tang[:, 1] ** 2 + tang[:, 2] ** 2
    tpp = (ts[3:-1] - 2.0 * ts[2:-2] + ts[1:-3]) / (h * h)
    res = np.sqrt(np.maximum(0.0, hn2) + tpp ** 2)
    return float(res.max())


# -- divergence of hyperbolic geodesics -----------------------------------------

@dataclass(frozen=True, slots=True)
class H2Geodesic:
    """Complete hyperbolic geodesic given by a point and a unit direction."""

    p: H2Point
    v: H2Tangent

    def __post_init__(self):
        q = _mdot(self.v.tup, self.v.tup)
        if abs(q - 1.0) > UNIT_TOL:
            raise NonUnitTangent("geodesic direction must be unit")

    def point(self, s: float) -> H2Point:
        return H2Point.of(_exp_raw(self.p.tup, self.v.tup, s))

    def plane_normal(self) -> Triple:
        """Unit spacelike normal of the plane spanning the geodesic."""
        return _mcross(self.p.tup, self.v.tup)

    def same_geodesic(self, other: "H2Geodesic", tol: float = 1e-9) -> bool:
        n1 = self.plane_normal()
        n2 = other.plane_normal()
        d_plus = max(abs(a + b) for a, b in zip(n1, n2))
        d_minus = max(abs(a - b) for a, b in zip(n1, n2))
        return min(d_plus, d_minus) < tol


@dataclass(frozen=True, slots=True)
class DivergenceReport:
    """Witness that two geodesics move apart by at least ``target``."""

    s_star: float
    achieved_distance: float
    target: float

    def __post_init__(self):
        if self.achieved_distance < self.target:
            raise NumericalError("divergence report must meet its target")


def _dist_point_to_geodesic(q: Triple, g: H2Geodesic, s_max: float) -> float:
    """Distance from a point to a geodesic arc (convex, golden-section)."""

    def f(t: float) -> float:
        return _dist_raw(q, _exp_raw(g.p.tup, g.v.tup, t))

    _, d = golden_min(f, -s_max, s_max, tol=1e-10)
    return d


def verify_geodesic_divergence(g1: H2Geodesic, g2: H2Geodesic, target: float,
                               s_max: float, scan_step: float = 0.25) -> DivergenceReport:
    """Search along g1 for a point at distance >= target from g2.

    Scans arclength parameters of increasing magnitude (positive direction
    first) and reports the first grid parameter whose distance to the arc
    g2([-s_max, s_max]) reaches the target.  Distinct geodesics always
    diverge in at least one direction.
    """
    if target <= 0.0:
        raise NumericalError("target must be positive")
    if g1.same_geodesic(g2):
        raise GeometryError("geodesics must be distinct")
    n_steps = int(math.ceil(s_max / scan_step))
    for sign in (1.0, -1.0):
        for i in range(n_steps + 1):
            s = sign * min(i * scan_step, s_max)
            d = _dist_point_to_geodesic(g1.point(s).tup, g2, s_max)
            if d >= target:
                return DivergenceReport(s, d, target)
    raise DivergenceNotReached(
        f"no point of g1 within |s| <= {s_max} is {target} away from g2")
