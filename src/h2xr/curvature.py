"""Pointwise extrinsic and intrinsic geometry of chart surfaces.

The first form comes from the product metric on the jet's first derivatives.
The unit normal is solved in an orthonormal frame of the ambient tangent
space (two horizontal directions plus the vertical one), so orthogonality
and unit length are exact by construction.  The second form pairs the
normal with covariant second derivatives, i.e. the tangential projection of
the horizontal part of each coordinate second derivative plus the plain
second derivative of the height.

Intrinsic curvature is computed twice, on purpose:

* ``Kint_gauss`` - from the shape operator via K = k1 k2 - nu^2, where nu is
  the vertical component of the unit normal;
* ``Kint_brioschi`` - from the first-form coefficients alone, by the
  Brioschi determinant formula with finite differences on a 5x5 stencil.

The two must agree on every surface; the second never sees the normal, which
makes it an independent check of the first.

Sign conventions: the normal is ``S.orientation`` times the normalized
Xu x Xv, one sign for the whole chart, so nu, k1, k2 and H vary
continuously along any immersed chart.  Cylinders take -1, which makes the
nonzero principal curvature equal the signed geodesic curvature of the
generating curve; slices and graphs take +1 (nu > 0); a rescaled chart
multiplies the sign by that of the scale factors' product, so its normal is
the base's.  Principal curvatures are ordered by absolute value,
|k1| <= |k2|, so d1 is the asymptotic direction at parabolic points.

Bulk evaluation: where the chart points are known up front (the cells of
``curvature_grid``, the transverse connection samples of a trace),
``shape_block`` takes a block of jets (``Surface.jets``; ``point_block``
chains the two) to normals, forms and principal curvatures by the scalar
formulas in the same order, so every value keeps the scalar bits.  A
Brioschi grid takes a cell's centre jet from the middle of its 5x5 stencil
(u + 0.0 h is u) and calls the shape kernel once per block of
``block_size(S, 1)`` cells; the stencils go to ``S.jets`` in sub-blocks of
at most ``POINT_BLOCK`` evaluations of the innermost chart (``S.cost`` per
jet: 9 per level of finite differences, 81 for a perturbed perturbed
chart, at most ``surfaces.MAX_CHART_COST``, so a stencil always fits),
which bounds the memory held.  At 2808 a 10x10 grid is one block
of cells, and its finite-difference stencils run in sub-blocks of 12
cells, so a call's fixed cost no longer dominates.  A flagged cell, or
each cell of a sub-block that raises, is evaluated again alone, so its
status is the scalar exception's.  ``brioschi_curvatures`` sums each
derivative explicitly in a fixed order, so a stacked stencil has the bits
of ``brioschi_curvature``.
Traces run on the scalar chain (each RK4 step needs the last), which works
on unpacked floats and never reads a jet's height ``X.t`` (vertical
translations are isometries): where a trace's jets differ only in that, its
steps are a straight line in the chart, and it evaluates their points in
blocks of ``S.jets`` (``flows``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GeometryError, NotImmersed, NumericalError, OutOfDomain
from .minkowski import _mdot, _project_tangent
from .numerics import _sq
from .product import AmbientVec, _prod_inner
from .surfaces import POINT_BLOCK, JetBlock, Surface, SurfaceJet, unit_normal, unit_normals

PLANAR = "PLANAR"
PARABOLIC = "PARABOLIC"
GENERIC = "GENERIC"

DEFAULT_CLASS_TOL = 1e-7
STENCIL_H = 1e-3       # spacing of the 5x5 Brioschi stencil (shrunk near the boundary)

GRID_HEADER = "u,v,k1,k2,H,Kext,Kint_gauss,Kint_brioschi,nu,class,status"

MAX_GRID_CELLS = 250_000  # 0.8 KB (row, CSV line) and 0.2 ms each (2-core VM)


class FundamentalForms(namedtuple("FundamentalForms", "E F G L M2 N2 normal nu")):
    """First and second fundamental forms plus the oriented unit normal,
    checked where they are computed (:func:`forms_from_jet`)."""

    __slots__ = ()

    def flipped(self) -> "FundamentalForms":
        """Same point with the opposite normal orientation."""
        n = self.normal.htup
        neg = AmbientVec((-n[0], -n[1], -n[2]), -self.normal.t)
        return FundamentalForms(self.E, self.F, self.G,
                                -self.L, -self.M2, -self.N2, neg, -self.nu)


@dataclass(frozen=True, slots=True)
class ShapeData:
    """Principal curvatures/directions and the derived curvature scalars."""

    k1: float
    k2: float
    d1: tuple[float, float]
    d2: tuple[float, float]
    H: float
    Kext: float
    Kint_gauss: float
    Kint_brioschi: float


@dataclass(frozen=True, slots=True)
class PointClass:
    tag: str
    tol: float


def fundamental_forms(S: Surface, u: float, v: float) -> FundamentalForms:
    """Evaluate both fundamental forms of the surface at a chart point."""
    return forms_from_jet(S.jet(u, v), S.orientation)


def forms_from_jet(jet: SurfaceJet, orientation: float) -> FundamentalForms:
    """Both fundamental forms of a jet, the normal oriented by
    ``orientation`` (see :func:`unit_normal`), checked: NotImmersed unless
    the first form is positive definite, NumericalError unless the normal
    is a unit vector with |nu| <= 1."""
    (p0, p1, p2), _ = jet.X
    (u0, u1, u2), ut = jet.Xu
    (v0, v1, v2), vt = jet.Xv
    E = -u0 * u0 + u1 * u1 + u2 * u2 + ut * ut
    F = -u0 * v0 + u1 * v1 + u2 * v2 + ut * vt
    G = -v0 * v0 + v1 * v1 + v2 * v2 + vt * vt
    if E * G - F * F <= 1e-12:
        raise NotImmersed("degenerate jet")
    normal = (n0, n1, n2), nt = unit_normal(jet, orientation)
    # each row pairs the normal with w + c p, the tangential part of w
    (w0, w1, w2), wt = jet.Xuu
    c = -w0 * p0 + w1 * p1 + w2 * p2
    L = -(w0 + c * p0) * n0 + (w1 + c * p1) * n1 + (w2 + c * p2) * n2 + wt * nt
    (w0, w1, w2), wt = jet.Xuv
    c = -w0 * p0 + w1 * p1 + w2 * p2
    M2 = -(w0 + c * p0) * n0 + (w1 + c * p1) * n1 + (w2 + c * p2) * n2 + wt * nt
    (w0, w1, w2), wt = jet.Xvv
    c = -w0 * p0 + w1 * p1 + w2 * p2
    N2 = -(w0 + c * p0) * n0 + (w1 + c * p1) * n1 + (w2 + c * p2) * n2 + wt * nt
    if not (E > 0.0 and G > 0.0 and E * G - F ** 2 > 0.0):
        raise NotImmersed("first form is not positive definite")
    nn = -n0 * n0 + n1 * n1 + n2 * n2 + nt ** 2
    if abs(nn - 1.0) > 1e-9:
        raise NumericalError(f"normal norm^2 = {nn}")
    if abs(nt) > 1.0 + 1e-12:
        raise NumericalError(f"|nu| = {abs(nt)} exceeds 1")
    return FundamentalForms(E, F, G, L, M2, N2, normal, nt)


class FormsBlock(namedtuple("FormsBlock", (*FundamentalForms._fields[:-1], "bad"))):
    """``FundamentalForms`` of a block of jets, as arrays, but for ``nu``,
    which is ``normal.t``; plus the points where the jets or the scalar forms
    raise."""

    __slots__ = ()


def forms_from_jets(jets: JetBlock, orientation: float) -> FormsBlock:
    """:func:`forms_from_jet` on a block of jets, with its checks as a
    mask."""
    E = _prod_inner(jets.Xu, jets.Xu)
    F = _prod_inner(jets.Xu, jets.Xv)
    G = _prod_inner(jets.Xv, jets.Xv)
    normal, bad = unit_normals(jets, orientation)
    p = jets.X.htup

    def second(w: AmbientVec) -> np.ndarray:
        cov_h = _project_tangent(p, w.htup)
        return _mdot(cov_h, normal.htup) + w.t * normal.t

    n2 = _mdot(normal.htup, normal.htup) + _sq(normal.t)
    bad |= (jets.bad | (E * G - F * F <= 1e-12)
            | ~((E > 0.0) & (G > 0.0) & (E * G - _sq(F) > 0.0))
            | (np.abs(n2 - 1.0) > 1e-9) | (np.abs(normal.t) > 1.0 + 1e-12))
    return FormsBlock(E, F, G, second(jets.Xuu), second(jets.Xuv), second(jets.Xvv),
                      normal, bad)


# -- shape operator ---------------------------------------------------------------

def principal_curvatures(forms: FundamentalForms) -> tuple[float, float,
                                                           tuple[float, float],
                                                           tuple[float, float]]:
    """Eigenvalues and first-form-orthonormal eigenvectors of the shape operator.

    Ordered by absolute value, |k1| <= |k2|.  At umbilic points the
    directions fall back to a canonical orthonormal pair.
    """
    E, F, G = forms.E, forms.F, forms.G
    L, M2, N2 = forms.L, forms.M2, forms.N2
    A = E * G - F * F
    B = -(E * N2 - 2.0 * F * M2 + G * L)
    C = L * N2 - M2 * M2
    sq = math.sqrt(max(0.0, B * B - 4.0 * A * C))
    q = -0.5 * (B + sq) if B >= 0.0 else -0.5 * (B - sq)
    if q == 0.0:
        ka = kb = 0.0
    else:
        ka, kb = q / A, C / q
    k1, k2 = (ka, kb) if abs(ka) <= abs(kb) else (kb, ka)
    # d1 spans the kernel of the rows (a, b), (b, c) of II - k1 I, read from
    # the longer row; then made first-form unit, with x > 0 (or x = 0, y > 0)
    a, b, c = L - k1 * E, M2 - k1 * F, N2 - k1 * G
    n1, n2 = a ** 2 + b ** 2, b ** 2 + c ** 2
    x, y = (1.0, 0.0) if max(n1, n2) < 1e-28 else (-b, a) if n1 >= n2 else (-c, b)
    n = math.sqrt(E * x ** 2 + 2.0 * F * x * y + G * y ** 2)
    x, y = x / n, y / n
    if x < 0.0 or (x == 0.0 and y < 0.0):
        x, y = -x, -y
    # d2 likewise at k2, or first-form orthogonal to d1 where that kernel is
    # lost or the curvatures coincide; then Gram-Schmidt against d1 for
    # robustness near umbilics
    a, b, c = L - k2 * E, M2 - k2 * F, N2 - k2 * G
    n1, n2 = a ** 2 + b ** 2, b ** 2 + c ** 2
    if max(n1, n2) < 1e-28 or abs(k2 - k1) < 1e-14 * (1.0 + abs(k1)):
        w, z = -F * x - G * y, E * x + F * y
    else:
        w, z = (-b, a) if n1 >= n2 else (-c, b)
    g12 = (E * x * w + F * (x * z + y * w) + G * y * z)
    w, z = w - g12 * x, z - g12 * y
    n = math.sqrt(E * w ** 2 + 2.0 * F * w * z + G * z ** 2)
    w, z = w / n, z / n
    if w < 0.0 or (w == 0.0 and z < 0.0):
        w, z = -w, -z
    return k1, k2, (x, y), (w, z)


def principal_curvature_arrays(forms: FormsBlock):
    """:func:`principal_curvatures` on a block of forms: arrays k1, k2,
    directions d1, d2 (pairs of arrays), and the mask of the points where a
    value is not finite (where the scalar version raises or returns NaN)."""
    E, F, G = forms.E, forms.F, forms.G
    L, M2, N2 = forms.L, forms.M2, forms.N2
    det1 = E * G - F * F
    A = det1
    B = -(E * N2 - 2.0 * F * M2 + G * L)
    C = L * N2 - M2 * M2
    sq = np.sqrt(np.maximum(0.0, B * B - 4.0 * A * C))
    q = np.where(B >= 0.0, -0.5 * (B + sq), -0.5 * (B - sq))
    zero = q == 0.0
    ka = np.where(zero, 0.0, q / A)
    kb = np.where(zero, 0.0, C / q)
    first = np.abs(ka) <= np.abs(kb)
    k1, k2 = np.where(first, ka, kb), np.where(first, kb, ka)

    def direction(k):
        r1 = (L - k * E, M2 - k * F)
        r2 = (M2 - k * F, N2 - k * G)
        n1 = _sq(r1[0]) + _sq(r1[1])
        n2 = _sq(r2[0]) + _sq(r2[1])
        use1 = n1 >= n2
        row = (np.where(use1, r1[0], r2[0]), np.where(use1, r1[1], r2[1]))
        return (-row[1], row[0]), np.maximum(n1, n2) < 1e-28

    def unit_in_form(d):
        n = np.sqrt(E * _sq(d[0]) + 2.0 * F * d[0] * d[1] + G * _sq(d[1]))
        d = (d[0] / n, d[1] / n)
        flip = (d[0] < 0.0) | ((d[0] == 0.0) & (d[1] < 0.0))
        return np.where(flip, -d[0], d[0]), np.where(flip, -d[1], d[1])

    d1, none1 = direction(k1)
    d1 = unit_in_form((np.where(none1, 1.0, d1[0]), np.where(none1, 0.0, d1[1])))
    d2, none2 = direction(k2)
    perp = none2 | (np.abs(k2 - k1) < 1e-14 * (1.0 + np.abs(k1)))
    d2 = (np.where(perp, -F * d1[0] - G * d1[1], d2[0]),
          np.where(perp, E * d1[0] + F * d1[1], d2[1]))
    g12 = (E * d1[0] * d2[0] + F * (d1[0] * d2[1] + d1[1] * d2[0]) + G * d1[1] * d2[1])
    d2 = (d2[0] - g12 * d1[0], d2[1] - g12 * d1[1])
    d2 = unit_in_form(d2)
    bad = ~(np.isfinite(k1) & np.isfinite(k2) & np.isfinite(d1[0]) & np.isfinite(d1[1])
            & np.isfinite(d2[0]) & np.isfinite(d2[1]))
    return k1, k2, d1, d2, bad


class PointBlock(NamedTuple):
    """Jets, forms and principal data of a block of chart points; ``bad``
    marks the points to evaluate again on the scalar path."""

    jets: JetBlock
    forms: FormsBlock
    k1: np.ndarray
    k2: np.ndarray
    d1: tuple[np.ndarray, np.ndarray]
    d2: tuple[np.ndarray, np.ndarray]
    bad: np.ndarray


def shape_block(jets: JetBlock, orientation: float) -> PointBlock:
    """The scalar ``forms_from_jet`` -> ``principal_curvatures`` chain for a
    block of jets at once."""
    with np.errstate(all="ignore"):
        forms = forms_from_jets(jets, orientation)
        k1, k2, d1, d2, bad = principal_curvature_arrays(forms)
    return PointBlock(jets, forms, k1, k2, d1, d2, bad | forms.bad)


def point_block(S: Surface, us, vs) -> PointBlock:
    """:func:`shape_block` of the jets ``S.jets(us, vs)``."""
    with np.errstate(all="ignore"):
        return shape_block(S.jets(us, vs), S.orientation)


def block_size(S: Surface, points_per_item: int) -> int:
    """Items per block of at most POINT_BLOCK evaluations of the innermost
    chart (``S.cost`` per jet), for items of ``points_per_item`` chart
    points each; at least one item."""
    return max(1, POINT_BLOCK // (points_per_item * S.cost))


@dataclass(frozen=True, slots=True)
class MetricStencil:
    """First-form coefficients sampled on a 5x5 chart stencil."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    h: float


def sample_metric_stencil(S: Surface, u: float, v: float) -> MetricStencil:
    """Sample E, F, G around (u, v) at spacing STENCIL_H, shrunk near the
    boundary."""
    (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
    h_eff = min(STENCIL_H, 0.5 * (u - u0), 0.5 * (u1 - u), 0.5 * (v - v0), 0.5 * (v1 - v))
    if h_eff <= 1e-8:
        raise OutOfDomain("metric stencil leaves the chart domain")
    E, F, G = np.empty((5, 5)), np.empty((5, 5)), np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            jet = S.jet(u + (i - 2) * h_eff, v + (j - 2) * h_eff)
            E[i, j] = _prod_inner(jet.Xu, jet.Xu)
            F[i, j] = _prod_inner(jet.Xu, jet.Xv)
            G[i, j] = _prod_inner(jet.Xv, jet.Xv)
    return MetricStencil(E, F, G, h_eff)


# 12 h times the first and 12 h^2 times the second derivative at the middle
# of 5 samples at spacing h along the last axis
def _d1(a: np.ndarray) -> np.ndarray:
    return (a[..., 0] - a[..., 4]) + 8.0 * (a[..., 3] - a[..., 1])


def _d2(a: np.ndarray) -> np.ndarray:
    return 16.0 * (a[..., 1] + a[..., 3]) - (a[..., 0] + a[..., 4]) - 30.0 * a[..., 2]


@np.errstate(all="ignore")  # an overflow yields a non-finite value, failed by the callers
def brioschi_curvatures(E: np.ndarray, F: np.ndarray, G: np.ndarray,
                        h: np.ndarray) -> np.ndarray:
    """Intrinsic curvature from E, F, G alone (Brioschi determinant formula)
    for a stack of stencils: E, F, G of shape (n, 5, 5), axis 1 u and axis 2
    v, at the steps h of shape (n,).

    Derivatives use fourth-order central weights, each an explicit sum with
    integer weights in one fixed order, so a value has the same bits at any
    stack size and memory layout.
    """
    h12, hh12 = 12.0 * h, 12.0 * h * h
    e, f, g = E[:, 2, 2], F[:, 2, 2], G[:, 2, 2]
    eu, ev = _d1(E[:, :, 2]) / h12, _d1(E[:, 2, :]) / h12
    fu, fv = _d1(F[:, :, 2]) / h12, _d1(F[:, 2, :]) / h12
    gu, gv = _d1(G[:, :, 2]) / h12, _d1(G[:, 2, :]) / h12
    evv, guu, fuv = _d2(E[:, 2, :]) / hh12, _d2(G[:, :, 2]) / hh12, _d1(_d1(F)) / (h12 * h12)
    m1 = np.stack([-0.5 * evv + fuv - 0.5 * guu, 0.5 * eu, fu - 0.5 * ev,
                   fv - 0.5 * gu, e, f,
                   0.5 * gv, f, g], axis=-1).reshape(-1, 3, 3)
    m2 = np.stack([np.zeros_like(e), 0.5 * ev, 0.5 * gu,
                   0.5 * ev, e, f,
                   0.5 * gu, f, g], axis=-1).reshape(-1, 3, 3)
    det1 = e * g - f * f
    return (np.linalg.det(m1) - np.linalg.det(m2)) / (det1 * det1)


def brioschi_curvature(st: MetricStencil) -> float:
    """:func:`brioschi_curvatures` of one stencil."""
    return float(brioschi_curvatures(st.E[None], st.F[None], st.G[None],
                                     np.array([st.h]))[0])


def shape_data(forms: FundamentalForms, stencil: MetricStencil | None = None) -> ShapeData:
    """Shape operator eigendata plus both intrinsic-curvature computations.

    Without a stencil the Brioschi value is NaN (the Gauss-relation value is
    always available).
    """
    k1, k2, d1, d2 = principal_curvatures(forms)
    kb = brioschi_curvature(stencil) if stencil is not None else math.nan
    return ShapeData(k1=k1, k2=k2, d1=d1, d2=d2,
                     H=0.5 * (k1 + k2), Kext=k1 * k2,
                     Kint_gauss=k1 * k2 - forms.nu ** 2,
                     Kint_brioschi=kb)


def shape_at(S: Surface, u: float, v: float,
             with_brioschi: bool = True) -> tuple[FundamentalForms, ShapeData]:
    forms = fundamental_forms(S, u, v)
    st = sample_metric_stencil(S, u, v) if with_brioschi else None
    return forms, shape_data(forms, st)


def classify_point(sd: ShapeData, tol: float) -> PointClass:
    """Planar, parabolic or generic, at an absolute curvature tolerance."""
    return PointClass(_class_tag(sd.k1, sd.k2, tol), tol)


def _class_tag(k1: float, k2: float, tol: float) -> str:
    if tol <= 0.0:
        raise ConfigError("classification tolerance must be positive")
    lo, hi = abs(k1), abs(k2)
    if hi < tol:
        return PLANAR
    if lo < tol:
        return PARABOLIC
    return GENERIC


# -- batch evaluation --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GridRow:
    u: float
    v: float
    k1: float
    k2: float
    H: float
    Kext: float
    Kint_gauss: float
    Kint_brioschi: float
    nu: float
    cls: str
    status: str


@dataclass(frozen=True)
class CurvatureGrid:
    rows: list[GridRow]
    nu_: int
    nv_: int

    def valid_rows(self) -> list[GridRow]:
        return [r for r in self.rows if r.status == "ok"]

    def to_csv(self) -> str:
        """Rows as CSV; every number is written as a plain float (rows hold
        numpy floats where a chart computes in them)."""
        lines = [GRID_HEADER]
        for r in self.rows:
            lines.append(",".join([
                *(repr(float(x)) for x in (r.u, r.v, r.k1, r.k2, r.H, r.Kext,
                                           r.Kint_gauss, r.Kint_brioschi, r.nu)),
                r.cls, r.status,
            ]))
        return "\n".join(lines) + "\n"


def grid_points(S: Surface, nu_: int, nv_: int) -> list[tuple[float, float]]:
    """Cell centers of a uniform nu_ x nv_ partition of the chart domain."""
    (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
    du, dv = (u1 - u0) / nu_, (v1 - v0) / nv_
    return [(u0 + (i + 0.5) * du, v0 + (j + 0.5) * dv)
            for i in range(nu_) for j in range(nv_)]


def curvature_grid(S: Surface, nu_: int, nv_: int,
                   tol: float = DEFAULT_CLASS_TOL,
                   brioschi: bool = True) -> CurvatureGrid:
    """Curvature table over grid cell centers, row-major in (u, v).

    Failures at isolated points (including non-finite curvatures, nu or
    Brioschi value: NUMERICAL_FAILURE) are recorded in the row's status
    column and do not abort the scan.  With ``brioschi=False`` the 5x5
    stencil (25 more jets per cell) is skipped and ``Kint_brioschi`` is NaN
    in every row.

    One shape kernel call per block of ``block_size(S, 1)`` cells (module
    docstring); a flagged cell, or each cell of a block or stencil sub-block
    that raises, is evaluated alone, as one scalar row.  Under 2 cells per
    axis, over MAX_GRID_CELLS cells or a tolerance <= 0 raise ConfigError.
    """
    if nu_ < 2 or nv_ < 2:
        raise ConfigError("grid needs at least 2 cells per axis")
    if nu_ * nv_ > MAX_GRID_CELLS:
        raise ConfigError(f"a {nu_} x {nv_} grid has more than MAX_GRID_CELLS = "
                          f"{MAX_GRID_CELLS} cells")
    if not tol > 0.0:
        raise ConfigError("classification tolerance must be positive")

    def one(uv: tuple[float, float]) -> GridRow:
        u, v = uv
        try:
            forms, sd = shape_at(S, u, v, brioschi)
        except (GeometryError, ArithmeticError) as exc:
            return _failed_row(u, v, getattr(exc, "code", NumericalError.code))
        return _grid_row(u, v, sd.k1, sd.k2, forms.nu, sd.Kint_brioschi, tol, brioschi)

    points = grid_points(S, nu_, nv_)
    size = block_size(S, 1)
    rows: list[GridRow] = []
    for k in range(0, len(points), size):
        cells = points[k:k + size]
        try:
            rows += _grid_block(S, cells, tol, brioschi, one)
        except (GeometryError, ArithmeticError, ValueError):
            rows += [one(p) for p in cells]
    return CurvatureGrid(rows, nu_, nv_)


def _failed_row(u: float, v: float, code: str) -> GridRow:
    return GridRow(u, v, *[math.nan] * 7, "", code)


def _grid_row(u: float, v: float, k1: float, k2: float, nu: float, kb: float,
              tol: float, brioschi: bool) -> GridRow:
    """A cell's row, or a NUMERICAL_FAILURE row where k1, k2 (k1 k2 is finite
    only where both are), nu or a computed Brioschi value is not finite."""
    if not (math.isfinite(k1 * k2) and math.isfinite(nu)
            and (not brioschi or math.isfinite(kb))):
        return _failed_row(u, v, NumericalError.code)
    return GridRow(u, v, k1, k2, 0.5 * (k1 + k2), k1 * k2, k1 * k2 - nu ** 2,
                   kb, nu, _class_tag(k1, k2, tol), "ok")


def _grid_block(S: Surface, cells: list[tuple[float, float]], tol: float,
                brioschi: bool, one) -> list[GridRow]:
    """Grid rows of a block of cells from one shape kernel call on their
    centres; flagged cells go to the scalar ``one``."""
    us, vs = (np.array(x) for x in zip(*cells))
    pb, kb = (_brioschi_block(S, us, vs) if brioschi
              else (point_block(S, us, vs), [math.nan] * len(cells)))
    k1s, k2s, nus = pb.k1.tolist(), pb.k2.tolist(), pb.forms.normal.t.tolist()
    return [one((u, v)) if pb.bad[i]
            else _grid_row(u, v, k1s[i], k2s[i], nus[i], kb[i], tol, brioschi)
            for i, (u, v) in enumerate(cells)]


def _brioschi_block(S: Surface, us: np.ndarray, vs: np.ndarray) -> tuple[PointBlock, list]:
    """The shape block of cells' centre jets, copied from the middles of
    their 5x5 stencils so that no stencil outlives its sub-block, and their
    Brioschi values; a stencil that does not fit or fails flags its cell."""
    (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
    h = np.minimum.reduce([np.full(us.shape, STENCIL_H), 0.5 * (us - u0),
                           0.5 * (u1 - us), 0.5 * (vs - v0), 0.5 * (v1 - vs)])
    pu, pv = (x[:, None] + h[:, None] * np.arange(-2.0, 3.0) for x in (us, vs))
    centre, kb = np.full((24, len(us)), math.nan), np.full(len(us), math.nan)
    bad, size = ~(h > 1e-8), block_size(S, 25)
    for k in range(0, len(us), size):
        s = slice(k, k + size)
        su, sv = np.broadcast_arrays(pu[s, :, None], pv[s, None, :])
        try:
            with np.errstate(all="ignore"):
                jets = S.jets(su.ravel(), sv.ravel())
                E, F, G = (_prod_inner(a, b).reshape(-1, 5, 5) for a, b in (
                    (jets.Xu, jets.Xu), (jets.Xu, jets.Xv), (jets.Xv, jets.Xv)))
            kb[s] = brioschi_curvatures(E, F, G, h[s])
            centre[:, s] = [c[12::25] for w in jets[:6] for c in (*w.htup, w.t)]
            bad[s] |= jets.bad.reshape(-1, 25).any(axis=1)
        except (GeometryError, ArithmeticError, ValueError):
            bad[s] = True
    return shape_block(JetBlock(*(AmbientVec(tuple(centre[k:k + 3]), centre[k + 3])
                                  for k in range(0, 24, 4)), bad), S.orientation), kb.tolist()
