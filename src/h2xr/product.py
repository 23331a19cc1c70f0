"""The ambient product of the hyperbolic plane and the real line.

A point is a footprint triple on the hyperboloid plus a height; a tangent
vector splits into a horizontal triple (tangent to the hyperbolic plane) and
a vertical speed.  The metric is the sum of the two factors, so geodesics
are closed form: their horizontal projection is a hyperbolic geodesic
traversed at constant speed and their height is affine in arclength.  The
covariant derivative splits the same way, which is what
:func:`prod_geodesic_residual` checks numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DivergenceNotReached, GeometryError, InsufficientSamples,
                     NonUnitTangent, NumericalError)
from .hyperbolic import UNIT_TOL, _exp_raw, check_point, check_tangent, check_unit, h2_dist
from .minkowski import Triple, _mcross, _mdot, _mscale
from .numerics import golden_min

SCAN_STEP = 0.25       # arclength spacing of the divergence search along g1


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


def _prod_exp_raw(p: Triple, t: float, vh: Triple, vt: float, s):
    """Footprint and height at arclength s along the product geodesic from
    (p, t) with unit velocity (vh, vt); s a float, or an array, which gives
    triples of coordinate arrays (or p itself for a vertical geodesic)."""
    q = _mdot(vh, vh)
    # a square below zero is roundoff; one that is not finite (max() would
    # take a NaN for 0.0) is no unit tangent, nor is a NaN total
    nh2 = max(0.0, q) if math.isfinite(q) else math.nan
    total = nh2 + vt * vt
    if not abs(total - 1.0) <= UNIT_TOL:
        raise NonUnitTangent(f"|v|^2 = {total}, expected a unit tangent")
    a_h = math.sqrt(nh2)
    if a_h < 1e-15:
        return p, t + s * vt
    return _exp_raw(p, _mscale(1.0 / a_h, vh), s * a_h), t + s * vt


def prod_dist(p: tuple[Triple, float], q: tuple[Triple, float]) -> float:
    """Distance in the product between two (footprint, height) points:
    Pythagorean combination of the factors."""
    return math.hypot(h2_dist(p[0], q[0]), p[1] - q[1])


class ProdGeodesic(NamedTuple):
    """Product geodesic through the point (p, t) with unit velocity (vh, vt).

    The horizontal speed |vh| and the vertical slope vt are constant along
    it, with |vh|^2 + vt^2 = 1.
    """

    p: Triple
    t: float
    vh: Triple
    vt: float

    @classmethod
    def from_tangent(cls, p: Triple, t: float, vh: Triple, vt: float) -> "ProdGeodesic":
        """The geodesic along the tangent (vh, vt) at (p, t), normalized.
        Checked here: p a point of the sheet, vh tangent there, t and vt
        finite."""
        check_point(p)
        check_tangent(p, vh)
        if not (math.isfinite(t) and math.isfinite(vt)):
            raise NumericalError(f"non-finite height {t} or vertical speed {vt}")
        n = math.sqrt(max(0.0, _mdot(vh, vh)) + vt * vt)
        if n <= 0.0:
            raise NonUnitTangent("zero tangent cannot direct a geodesic")
        return cls(p, t, _mscale(1.0 / n, vh), vt / n)

    def point(self, s):
        """Footprint and height at arclength s (see :func:`_prod_exp_raw`)."""
        return _prod_exp_raw(self.p, self.t, self.vh, self.vt, s)


def prod_geodesic_residual(feet, heights, spacing: float) -> float:
    """Max covariant-acceleration norm of a path sampled ``spacing`` apart,
    given by its footprints (rows of an (n, 3) array) and heights.

    The horizontal velocity comes from centered differences of the footprint
    coordinates; its covariant derivative is the tangential projection of its
    centered difference.  The vertical part is the plain second difference of
    the height.  Exact geodesics give residuals at roundoff level.
    """
    pts = np.asarray(feet, dtype=float)
    ts = np.asarray(heights, dtype=float)
    if len(pts) < 5:
        raise InsufficientSamples("need at least five samples")
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

class H2Geodesic(NamedTuple):
    """Complete hyperbolic geodesic given by a point and a unit direction."""

    p: Triple
    v: Triple

    def point(self, s: float) -> Triple:
        return _exp_raw(self.p, self.v, s)

    def plane_normal(self) -> Triple:
        """Unit spacelike normal of the plane spanning the geodesic."""
        return _mcross(self.p, self.v)

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
        return h2_dist(q, _exp_raw(g.p, g.v, t))

    _, d = golden_min(f, -s_max, s_max, tol=1e-10)
    return d


def verify_geodesic_divergence(g1: H2Geodesic, g2: H2Geodesic, target: float,
                               s_max: float) -> DivergenceReport:
    """Search along g1 for a point at distance >= target from g2.

    Scans arclength parameters of increasing magnitude, SCAN_STEP apart
    (positive direction first), and reports the first grid parameter whose distance to the arc
    g2([-s_max, s_max]) reaches the target.  Distinct geodesics always
    diverge in at least one direction.  Both geodesics are checked here: a
    point of the sheet and a unit tangent there.
    """
    for g in (g1, g2):
        check_point(g.p)
        check_tangent(g.p, g.v)
        check_unit(g.v, "geodesic direction")
    if target <= 0.0:
        raise NumericalError("target must be positive")
    if g1.same_geodesic(g2):
        raise GeometryError("geodesics must be distinct")
    n_steps = int(math.ceil(s_max / SCAN_STEP))
    for sign in (1.0, -1.0):
        for i in range(n_steps + 1):
            s = sign * min(i * SCAN_STEP, s_max)
            d = _dist_point_to_geodesic(g1.point(s), g2, s_max)
            if d >= target:
                return DivergenceReport(s, d, target)
    raise DivergenceNotReached(
        f"no point of g1 within |s| <= {s_max} is {target} away from g2")
