"""The hyperbolic plane as the upper hyperboloid sheet in R^{2,1}.

Points and tangent vectors are float triples.  Points satisfy <v, v> = -1,
v.x0 >= 1; tangent vectors at p satisfy <w, p> = 0 and are spacelike.  The
functions here assume so; ``check_point``, ``check_tangent`` and
``check_unit`` enforce it where points and directions enter the library.
Geodesics, distance and the tangential projection are closed form:

    exp_p(s v) = cosh(s) p + sinh(s) v          (v unit)
    d(p, q)    = arccosh(-<p, q>) = 2 arcsinh(|p - q| / 2)
    proj_p(w)  = w + <w, p> p

The covariant derivative along a curve is the tangential projection of the
coordinate derivative (Gauss formula for the hyperboloid; the position vector
is the unit normal).  Curves with prescribed geodesic curvature are produced
by integrating the ambient frame system

    alpha' = T,   T' = k_g n + alpha,   n' = -k_g T

with a classical fourth-order Runge-Kutta step and re-enforcement of the
quadratic constraints after every step.  The frame is right-handed:
n = alpha x T in the Minkowski cross product, so positive k_g turns the
curve toward n.

The build is sequential (each step starts from the last) and takes
thousands of steps per curve, so it runs on Python floats, where an array
call would cost more than the step: the step and the re-projection are
written out on unpacked coordinates, without triple helpers or tuples per
stage, and the curvature at a sample, stored with it, is the first stage
of the next step (three curvature calls per step).  A build of more than
``MAX_CURVE_STEPS`` steps is refused before it starts.  Stored frames are
handed out as Python floats, since numpy scalars make every later scalar
operation several times dearer.

Dense output between samples comes one arclength at a time, memoized, for
chart jets and traces (``H2Curve.frame_at``); for a whole array of
arclengths, for bulk chart jets and Hermite ``frame_at`` (``frames_at``:
the RK4 step and the Hermite formula on triples of coordinate arrays; a
cylinder block hands it one arclength per run of equal u); or
as positions alone, for the Hausdorff distance (``positions_at``: only the
stages the RK4 position reads, on stacked (3, M) coordinates, with the bits
and checks of ``frames_at``).  The rule is Hairer, Norsett and Wanner's
(*Solving Ordinary Differential Equations I*, on dense output).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadCurvatureFunction, ConfigError, InsufficientSamples,
                     NonUnitTangent, NumericalError, OutOfDomain)
from .minkowski import (Triple, _check_finite, _mcomb, _mcross, _mdot, _msub,
                        _normalize_point, _normalize_points, _normalize_spacelike,
                        _normalize_spacelikes, _project_tangent)
from .numerics import CubicSpline1D, _each, golden_min_batch

POINT_TOL = 1e-10      # |<v,v> + 1| for points
TANGENT_TOL = 1e-10    # |<w,p>| for tangency
UNIT_TOL = 1e-8        # |<w,w> - 1| for unit vectors
NEAREST_CHUNK = 128    # query rows per block of the query x sample inner products
MAX_CURVE_STEPS = 1_000_000  # per build: 110 B and 10 us each (2-core VM)

ORIGIN_T: Triple = (1.0, 0.0, 0.0)


# -- checks where points and vectors enter the library ----------------------------

def check_point(p: Triple) -> None:
    """Raise NumericalError unless p is a finite point of the upper sheet.

    The constraint residual is checked relative to the coordinate scale:
    at double precision the residual of <v, v> = -1 necessarily grows like
    the square of the coordinates, while distances stay relatively accurate.
    Near the origin the bound coincides with the absolute 1e-10 tolerance.
    """
    _check_finite(p)
    _check_on_sheet(p)


def _check_on_sheet(v: Triple) -> None:
    """:func:`check_point` on a triple already known to be finite."""
    v0, v1, v2 = v
    q = -v0 * v0 + v1 * v1 + v2 * v2
    if abs(q + 1.0) > POINT_TOL * (1.0 + v0 * v0):
        raise NumericalError(f"<v,v> = {q}, not on the hyperboloid")
    if v0 < 1.0 - POINT_TOL:
        raise NumericalError("point not on the upper sheet")


def _off_sheet(v) -> np.ndarray:
    """Mask of the points of a triple of coordinate arrays that
    :func:`_check_on_sheet` rejects."""
    q = _mdot(v, v)
    return (np.abs(q + 1.0) > POINT_TOL * (1.0 + v[0] * v[0])) | (v[0] < 1.0 - POINT_TOL)


def check_tangent(p: Triple, w: Triple) -> None:
    """Raise NumericalError unless w is a finite spacelike vector tangent to
    the sheet at the point p, at a tolerance relative to the scales of both."""
    _check_finite(w)
    scale = (1.0 + p[0] * p[0]) * (1.0 + max(abs(w[0]), abs(w[1]), abs(w[2])))
    c = _mdot(w, p)
    if abs(c) > TANGENT_TOL * 100.0 * scale:
        raise NumericalError(f"<w,p> = {c}, not tangent")
    if _mdot(w, w) < -1e-10 * scale:
        raise NumericalError("tangent vector is timelike")


def check_unit(w: Triple, what: str = "tangent") -> None:
    """Raise NonUnitTangent unless <w, w> = 1 within UNIT_TOL."""
    q = _mdot(w, w)
    if abs(q - 1.0) > UNIT_TOL:
        raise NonUnitTangent(f"{what} must be unit, <w,w> = {q}")


# -- closed forms -------------------------------------------------------------------

def _exp_raw(p: Triple, v: Triple, s: float) -> Triple:
    """exp_p(s v) for a unit tangent v at p, unchecked; given an array of
    arclengths (and triples of floats or of coordinate arrays), cosh and sinh
    are taken elementwise from math, so every element equals the float call."""
    if isinstance(s, np.ndarray):
        return _mcomb(_each(math.cosh, s), p, _each(math.sinh, s), v)
    return _mcomb(math.cosh(s), p, math.sinh(s), v)


DIST_NEAR = 2.0        # -<p,q> below which the chord form replaces arccosh


def h2_dist(p: Triple, q: Triple) -> float:
    """Geodesic distance between two points.

    arccosh(-<p, q>) loses half the digits near coincident points (an
    argument 1 + 1e-16 is already a distance of 1.5e-8), so below DIST_NEAR
    the distance comes from the Minkowski length of the chord p - q instead,
    which is accurate down to zero.
    """
    m = -_mdot(p, q)
    if m >= DIST_NEAR:
        return math.acosh(m)
    d = _msub(p, q)
    return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, _mdot(d, d))))


def _dists_raw(p, q):
    """:func:`h2_dist` on triples of coordinate arrays."""
    m = -_mdot(p, q)
    d = _msub(p, q)
    near = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(0.0, _mdot(d, d))))
    return np.where(m >= DIST_NEAR, np.arccosh(np.maximum(1.0, m)), near)


# -- curves -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class H2Curve:
    """Arclength-sampled curve, with dense evaluation between samples.

    ``interpolation`` selects the dense-output rule:

    * ``"rk4"`` - re-integrate the frame system from the nearest sample,
      whose stored ``kg`` is the first stage's curvature (available when
      the curve was built from a curvature function);
    * ``"hermite"`` - cubic Hermite on positions and tangents, re-projected
      onto the hyperboloid.

    ``normals`` and ``kg`` are optional per-sample diagnostics (Frenet normal
    and signed geodesic curvature); integrated and recovered curves carry
    them, hand-built sample curves need not.  ``kg_fn`` takes a float or a
    numpy array of arclengths.  Curves compare by identity so dense
    evaluations can be memoized.
    """

    s: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    interpolation: str
    normals: np.ndarray | None = None
    kg: np.ndarray | None = None
    kg_fn: Callable | None = field(default=None, repr=False)
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or len(s) < 2:
            raise InsufficientSamples("a curve needs at least two samples")
        if np.any(np.diff(s) <= 0.0):
            raise NumericalError("sample arclengths must be strictly increasing")
        tt = -self.tangents[:, 0] ** 2 + self.tangents[:, 1] ** 2 + self.tangents[:, 2] ** 2
        if np.max(np.abs(tt - 1.0)) > UNIT_TOL:
            raise NumericalError("curve samples are not unit speed")
        if self.interpolation not in ("rk4", "hermite"):
            raise NumericalError(f"unknown interpolation rule {self.interpolation!r}")
        if self.interpolation == "rk4" and (self.kg_fn is None or self.normals is None
                                            or self.kg is None):
            raise NumericalError("rk4 interpolation needs the curvature function, "
                                 "normals and curvatures")

    # construction --------------------------------------------------------

    @classmethod
    def from_samples(cls, s, points, tangents, normals=None, kg=None) -> "H2Curve":
        """A ``hermite`` curve through the given samples."""
        return cls(np.asarray(s, float), np.asarray(points, float),
                   np.asarray(tangents, float), "hermite",
                   None if normals is None else np.asarray(normals, float),
                   None if kg is None else np.asarray(kg, float))

    # geometry ------------------------------------------------------------

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    @property
    def step(self) -> float:
        return float(self.s[1] - self.s[0])

    def uniform_step(self) -> float:
        """Sample spacing, requiring near-uniformity (finite-difference
        stencils on the samples assume it)."""
        d = np.diff(self.s)
        if (d.max() - d.min()) > 0.01 * d.mean():
            raise NumericalError("curve samples are not uniformly spaced")
        return float(d.mean())

    def _locate(self, s: float) -> int:
        if s < self.s_min - 1e-9 or s > self.s_max + 1e-9:
            raise OutOfDomain(f"s = {s} outside [{self.s_min}, {self.s_max}]")
        i = int(np.searchsorted(self.s, s, side="right")) - 1
        return min(max(i, 0), len(self.s) - 2)

    def frame_at(self, s: float) -> tuple[Triple, Triple, Triple, float]:
        """Position, tangent, Frenet normal and curvature at arclength s.

        Memoized per parameter value but zero (-0.0 and 0.0 would share an
        entry, which a curvature function may tell apart); dense consumers
        (chart jets, tracers) hit the same arclength many times.  On
        ``hermite`` curves this is :meth:`frames_at` at a one-element array.
        """
        hit = self._frame_cache.get(s)
        if hit is not None:
            return hit
        i = self._locate(s)
        if self.interpolation == "rk4":
            s_i = float(self.s[i])
            ds = s - s_i
            # Python floats: the chart jets and forms built on a frame do
            # scalar arithmetic, which costs several times more on numpy floats
            a, t, n = (tuple(x[i].tolist()) for x in (self.points, self.tangents, self.normals))
            if ds != 0.0:  # kg[i] is the build's kg_fn(s_i)
                a, t, n = _frenet_rk4_step(a, t, n, self.kg[i].item(), s_i, ds, self.kg_fn)
                a, t, n = _reproject_frame(a, t, n)
        else:
            a, t, n = (tuple(c.item() for c in x) for x in self.frames_at(np.array([s])))
        out = (a, t, n, float(self.kg_at(s)))
        if s != 0.0 and len(self._frame_cache) < 65536:
            self._frame_cache[s] = out
        return out

    def kg_at(self, s):
        """Signed geodesic curvature at a float or an array of arclengths:
        the curvature function for ``rk4`` curves, else the samples
        interpolated linearly (NaN without them)."""
        if self.interpolation == "rk4":
            return self.kg_fn(s)
        if self.kg is None:
            return np.full(np.shape(s), math.nan)
        return np.interp(s, self.s, self.kg)

    def frames_at(self, s: np.ndarray):
        """Dense position, tangent and Frenet normal at an array of
        arclengths, each a triple of coordinate arrays.

        The rule of ``frame_at`` evaluated on whole arrays, with its checks
        (arclengths outside the curve, non-finite curvature, frames that
        leave the hyperboloid) and without its memo; a check that fails for
        one arclength raises for the whole array.  Where an arclength is a
        sample's own, the stored frame is returned, as ``frame_at`` does.
        For ``rk4`` curves the curvature function is called on arrays of
        arclengths.
        """
        s, i = self._segments(s)
        if self.interpolation == "hermite":
            pos, (h, t, t2, p0, m0, p1, m1) = self._hermite(s, i)
            vel = ((6 * t2 - 6 * t) * p0 + (3 * t2 - 4 * t + 1) * m0
                   + (-6 * t2 + 6 * t) * p1 + (3 * t2 - 2 * t) * m1) / h
            a = _normalize_points(tuple(pos))
            t = _normalize_spacelikes(_project_tangent(a, tuple(vel)))
            return a, t, _mcross(a, t)
        frame = [x[i].T for x in (self.points, self.tangents, self.normals)]
        ds = s - self.s[i]
        moved = np.flatnonzero(ds != 0.0)
        if moved.size:
            s_i = self.s[i[moved]]
            step = _frenet_rk4_step(*(tuple(x[:, moved]) for x in frame), self.kg[i[moved]],
                                    s_i, ds[moved], self.kg_fn)
            for out, new in zip(frame, _reproject_frame(*step, _normalize_points,
                                                        _normalize_spacelikes)):
                out[:, moved] = new
        return tuple(tuple(x) for x in frame)

    def positions_at(self, s: np.ndarray) -> np.ndarray:
        """Dense positions at an array of arclengths, shape (len(s), 3): those
        of :meth:`frames_at`, bit for bit and with its checks, computed alone
        on stacked (3, M) coordinates (:func:`_rk4_positions`, or the Hermite
        position)."""
        s, i = self._segments(s)
        if self.interpolation == "hermite":
            return np.stack(_normalize_points(self._hermite(s, i)[0]), axis=1)
        pos = self.points.T.take(i, axis=1)
        ds = s - self.s[i]
        moved = np.flatnonzero(ds != 0.0)
        if moved.size:
            j = i[moved]
            t, n = self.tangents.T.take(j, axis=1), self.normals.T.take(j, axis=1)
            pos[:, moved] = _normalize_points(_rk4_positions(
                pos[:, moved], t, n, self.kg[j], self.s[j], ds[moved], self.kg_fn))
        return pos.T

    def _segments(self, s):
        """The arclengths as floats, checked against the range, and their intervals."""
        s = np.asarray(s, dtype=float)
        outside = (s < self.s_min - 1e-9) | (s > self.s_max + 1e-9)
        if outside.any():
            raise OutOfDomain(f"s = {s[outside][0]} outside [{self.s_min}, {self.s_max}]")
        i = np.searchsorted(self.s, s, side="right") - 1
        return s, np.minimum(np.maximum(i, 0), len(self.s) - 2)

    def _hermite(self, s, i):
        """Cubic Hermite position over the intervals i, stacked (3, M), and
        the pieces the velocity of :meth:`frames_at` reuses."""
        s0 = self.s[i]
        h = self.s[i + 1] - s0
        t = (s - s0) / h
        p0, p1 = self.points.T.take(i, axis=1), self.points.T.take(i + 1, axis=1)
        m0, m1 = self.tangents.T.take(i, axis=1) * h, self.tangents.T.take(i + 1, axis=1) * h
        t2, t3 = t * t, t * t * t
        pos = ((2 * t3 - 3 * t2 + 1) * p0 + (t3 - 2 * t2 + t) * m0
               + (-2 * t3 + 3 * t2) * p1 + (t3 - t2) * m1)
        return pos, (h, t, t2, p0, m0, p1, m1)


# -- frame integration --------------------------------------------------------

def _frenet_rk4_step(a, t, n, k, s, h, kfn):
    """One RK4 step of the frame system from arclength s to s + h.

    ``k`` is kfn(s), which every caller already holds.  Floats, or arrays of
    arclengths and steps with triples of coordinate arrays.  Given the
    curvature, the system acts on each ambient coordinate alone, so the
    stages are written out per coordinate on unpacked numbers: the slopes
    of stage j in coordinate i are t<j><i> for alpha (t<i> in stage 1),
    f<j><i> for T and g<j><i> for n.
    """
    hh, c = 0.5 * h, h / 6.0
    km = kfn(s + hh)
    ke = kfn(s + h)
    nk, nkm, nke = -k, -km, -ke
    (a0, a1, a2), (t0, t1, t2), (n0, n1, n2) = a, t, n
    f10, f11, f12 = k * n0 + a0, k * n1 + a1, k * n2 + a2
    g10, g11, g12 = nk * t0, nk * t1, nk * t2
    t20, t21, t22 = t0 + hh * f10, t1 + hh * f11, t2 + hh * f12
    f20 = km * (n0 + hh * g10) + (a0 + hh * t0)
    f21 = km * (n1 + hh * g11) + (a1 + hh * t1)
    f22 = km * (n2 + hh * g12) + (a2 + hh * t2)
    g20, g21, g22 = nkm * t20, nkm * t21, nkm * t22
    t30, t31, t32 = t0 + hh * f20, t1 + hh * f21, t2 + hh * f22
    f30 = km * (n0 + hh * g20) + (a0 + hh * t20)
    f31 = km * (n1 + hh * g21) + (a1 + hh * t21)
    f32 = km * (n2 + hh * g22) + (a2 + hh * t22)
    g30, g31, g32 = nkm * t30, nkm * t31, nkm * t32
    t40, t41, t42 = t0 + h * f30, t1 + h * f31, t2 + h * f32
    f40 = ke * (n0 + h * g30) + (a0 + h * t30)
    f41 = ke * (n1 + h * g31) + (a1 + h * t31)
    f42 = ke * (n2 + h * g32) + (a2 + h * t32)
    return ((a0 + c * ((t0 + 2.0 * t20) + (2.0 * t30 + t40)),
             a1 + c * ((t1 + 2.0 * t21) + (2.0 * t31 + t41)),
             a2 + c * ((t2 + 2.0 * t22) + (2.0 * t32 + t42))),
            (t0 + c * ((f10 + 2.0 * f20) + (2.0 * f30 + f40)),
             t1 + c * ((f11 + 2.0 * f21) + (2.0 * f31 + f41)),
             t2 + c * ((f12 + 2.0 * f22) + (2.0 * f32 + f42))),
            (n0 + c * ((g10 + 2.0 * g20) + (2.0 * g30 + nke * t40)),
             n1 + c * ((g11 + 2.0 * g21) + (2.0 * g31 + nke * t41)),
             n2 + c * ((g12 + 2.0 * g22) + (2.0 * g32 + nke * t42))))


def _rk4_positions(a, t, n, k, s, h, kfn):
    """The position of :func:`_frenet_rk4_step` alone, on stacked (3, M)
    coordinates, in its order; kfn(s + h) is called for its check only."""
    hh, c = 0.5 * h, h / 6.0
    km = kfn(s + hh)
    kfn(s + h)
    t2 = t + hh * (k * n + a)
    t3 = t + hh * (km * (n + hh * (-k * t)) + (a + hh * t))
    t4 = t + h * (km * (n + hh * (-km * t2)) + (a + hh * t2))
    return a + c * ((t + 2.0 * t2) + (2.0 * t3 + t4))


def _reproject_frame(a: Triple, t: Triple, n: Triple,
                     point=_normalize_point, spacelike=_normalize_spacelike):
    """Restore the frame constraints: a on the sheet, t the unit tangent
    projection, n the unit projection orthogonal to t.  The array
    normalizations re-project triples of coordinate arrays."""
    a = a0, a1, a2 = point(a)
    c = -t[0] * a0 + t[1] * a1 + t[2] * a2
    t = t0, t1, t2 = spacelike((t[0] + c * a0, t[1] + c * a1, t[2] + c * a2))
    c = -n[0] * a0 + n[1] * a1 + n[2] * a2
    n0, n1, n2 = n[0] + c * a0, n[1] + c * a1, n[2] + c * a2
    c = -n0 * t0 + n1 * t1 + n2 * t2
    return a, t, spacelike((n0 - c * t0, n1 - c * t1, n2 - c * t2))


def curve_from_curvature(k_g: Callable[[float], float], s_range: tuple[float, float],
                         step: float, start: Triple | None = None,
                         direction: Triple | None = None) -> H2Curve:
    """Unit-speed curve with prescribed signed geodesic curvature.

    The curve starts at the hyperboloid point ``start`` (origin by default)
    heading along the unit tangent ``direction`` (by default the projection
    of the x1 axis, normalized); both are checked here.  k_g is signed with
    respect to the right-handed Frenet normal.  Samples land on a uniform
    grid covering s_range.  The build calls k_g with floats; ``frames_at``
    and ``positions_at``, and so bulk chart jets and the Hausdorff distance,
    call it with numpy arrays of arclengths, which the curvature factories
    of this module accept.
    """
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not (math.isfinite(s0) and math.isfinite(s1)) or s1 <= s0:
        raise OutOfDomain(f"bad arclength range {s_range}")
    if step <= 0.0:
        raise NumericalError("step must be positive")
    if not (s1 - s0) / step <= MAX_CURVE_STEPS:
        raise ConfigError(f"a curve of length {s1 - s0:g} at step {step:g} takes more "
                          f"than MAX_CURVE_STEPS = {MAX_CURVE_STEPS} steps")
    a = ORIGIN_T if start is None else tuple(map(float, start))
    check_point(a)
    if direction is None:
        t = (0.0, 1.0, 0.0) if start is None else _normalize_spacelike(
            _project_tangent(a, (0.0, 1.0, 0.0)))
    else:
        t = tuple(map(float, direction))
        check_tangent(a, t)
        check_unit(t, "curve direction")
    n = _mcross(a, t)

    def kfn(s, ndarray=np.ndarray):  # a local name keeps the scalar calls of the build fast
        k = k_g(s)
        if type(k) is ndarray and k.ndim:  # arclength arrays, from frames_at or positions_at
            bad = ~np.isfinite(k)
            if bad.any():
                raise BadCurvatureFunction(
                    f"k_g({np.broadcast_to(s, k.shape)[bad][0]}) = {k[bad][0]}")
            return k
        if not math.isfinite(k):
            raise BadCurvatureFunction(f"k_g({s}) = {k}")
        return float(k)

    n_steps = max(1, math.ceil((s1 - s0) / step - 1e-12))
    h = (s1 - s0) / n_steps
    svals = np.empty(n_steps + 1)
    pts = np.empty((n_steps + 1, 3))
    tts = np.empty((n_steps + 1, 3))
    nns = np.empty((n_steps + 1, 3))
    kgs = np.empty(n_steps + 1)
    s, k = s0, kfn(s0)
    svals[0], pts[0], tts[0], nns[0], kgs[0] = s, a, t, n, k
    for i in range(1, n_steps + 1):
        a, t, n = _reproject_frame(*_frenet_rk4_step(a, t, n, k, s, h, kfn))
        s = s0 + i * h
        k = kfn(s)  # the next step's first stage, too
        svals[i], pts[i], tts[i], nns[i], kgs[i] = s, a, t, n, k
    return H2Curve(svals, pts, tts, "rk4", nns, kgs, kfn)


def curvature_profile(curve: H2Curve) -> tuple[np.ndarray, np.ndarray]:
    """Signed geodesic curvature at every interior sample (vectorized).

    Returns (s values, curvature values) for samples 2..N-3, using the
    five-point stencil on the sampled tangent field.
    """
    t = curve.tangents
    p = curve.points
    n = len(curve.s)
    if n < 5:
        raise InsufficientSamples("need at least five samples")
    h = curve.uniform_step()
    d = (t[:-4] - 8.0 * t[1:-3] + 8.0 * t[3:-1] - t[4:]) / (12.0 * h)
    pc = p[2:-2]
    tc = t[2:-2]
    c = -(d[:, 0] * pc[:, 0]) + d[:, 1] * pc[:, 1] + d[:, 2] * pc[:, 2]
    acc = d + c[:, None] * pc
    nrm = np.empty_like(tc)
    nrm[:, 0] = -(pc[:, 1] * tc[:, 2] - pc[:, 2] * tc[:, 1])
    nrm[:, 1] = pc[:, 2] * tc[:, 0] - pc[:, 0] * tc[:, 2]
    nrm[:, 2] = pc[:, 0] * tc[:, 1] - pc[:, 1] * tc[:, 0]
    kg = -(acc[:, 0] * nrm[:, 0]) + acc[:, 1] * nrm[:, 1] + acc[:, 2] * nrm[:, 2]
    return curve.s[2:-2].copy(), kg


# -- comparison helpers ---------------------------------------------------------

def points_to_curve_dist(q: np.ndarray, curve: H2Curve) -> np.ndarray:
    """Distance from each point (row of the (m, 3) array q) to the curve,
    continuous in the curve parameter, not just over its samples.

    Each point's nearest sample brackets a golden-section search over the
    two sample intervals around it.  The nearest samples come from the
    query x sample inner products, NEAREST_CHUNK query rows at a time, so
    memory stays bounded for long curves; the searches run in lockstep, so
    each iteration calls ``curve.positions_at`` once on an array of arclengths.
    """
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    pts, s = curve.points, curve.s
    nearest = np.empty(len(q), dtype=np.intp)
    for k in range(0, len(q), NEAREST_CHUNK):
        blk = q[k:k + NEAREST_CHUNK]
        inner = -(pts[:, 0] * blk[:, 0:1]) + pts[:, 1] * blk[:, 1:2] \
            + pts[:, 2] * blk[:, 2:3]
        nearest[k:k + len(blk)] = np.argmax(inner, axis=1)  # -<p,q> smallest -> nearest
    lo = s[np.maximum(nearest - 1, 0)]
    hi = s[np.minimum(nearest + 1, len(s) - 1)]
    qc = np.ascontiguousarray(q.T)
    held = [None, None]  # the last index array and its query columns

    def dist(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        if idx is not held[0]:
            held[:] = idx, qc[:, idx]
        return _dists_raw(held[1], curve.positions_at(x).T)

    _, d = golden_min_batch(dist, lo, hi, tol=1e-12)
    return d


def curve_distances(a: H2Curve, b: H2Curve) -> tuple[float, float]:
    """The two one-sided distances between two curves (hyperbolic metric):
    the farthest sample of ``a`` from the dense ``b``, and of ``b`` from
    the dense ``a``.

    Every sample of each curve is measured against the dense other curve by
    :func:`points_to_curve_dist`: two lockstep golden-section searches in
    all, whose cost is about 50 dense position evaluations of each curve at
    arrays of as many arclengths as the other curve has samples.
    """
    return (float(np.max(points_to_curve_dist(a.points, b))),
            float(np.max(points_to_curve_dist(b.points, a))))


def curve_hausdorff(a: H2Curve, b: H2Curve) -> float:
    """Symmetric Hausdorff distance between two curves, the larger of
    :func:`curve_distances`."""
    return max(curve_distances(a, b))


# -- curvature profile factories -----------------------------------------------

def constant_curvature(value: float) -> Callable[[float], float]:
    def k(_s: float) -> float:
        return value
    return k


def linear_curvature(slope: float, intercept: float = 0.0) -> Callable[[float], float]:
    def k(s: float) -> float:
        return slope * s + intercept
    return k


def spline_curvature(knots_s, knots_k) -> Callable[[float], float]:
    return CubicSpline1D(knots_s, knots_k)
