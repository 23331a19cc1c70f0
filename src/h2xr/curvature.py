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

Sign conventions: the normal points so that nu > 0 where the normal is far
from horizontal (|nu| > 0.1); otherwise its horizontal part aligns with the
conormal of the u-direction (footprint x u-direction in the Minkowski cross
product).  On cylinders this makes the nonzero principal curvature equal the
signed geodesic curvature of the generating curve.  Principal curvatures are
ordered by absolute value, |k1| <= |k2|, so d1 is the asymptotic direction
at parabolic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, NotImmersed, NumericalError, OutOfDomain
from .minkowski import _mdot, _project_tangent
from .product import AmbientVec
from .surfaces import Surface, SurfaceJet, unit_normal

PLANAR = "PLANAR"
PARABOLIC = "PARABOLIC"
GENERIC = "GENERIC"

DEFAULT_CLASS_TOL = 1e-7
DEFAULT_STENCIL_H = 1e-3

GRID_HEADER = "u,v,k1,k2,H,Kext,Kint_gauss,Kint_brioschi,nu,class,status"


@dataclass(frozen=True, slots=True)
class FundamentalForms:
    """First and second fundamental forms plus the oriented unit normal."""

    E: float
    F: float
    G: float
    L: float
    M2: float
    N2: float
    normal: AmbientVec
    nu: float

    def __post_init__(self):
        if not (self.E > 0.0 and self.G > 0.0 and self.E * self.G - self.F ** 2 > 0.0):
            raise NotImmersed("first form is not positive definite")
        n2 = _mdot(self.normal.htup, self.normal.htup) + self.normal.t ** 2
        if abs(n2 - 1.0) > 1e-9:
            raise NumericalError(f"normal norm^2 = {n2}")
        if abs(self.nu) > 1.0 + 1e-12:
            raise NumericalError(f"|nu| = {abs(self.nu)} exceeds 1")

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


def _prod_inner(a: AmbientVec, b: AmbientVec) -> float:
    return _mdot(a.htup, b.htup) + a.t * b.t


def fundamental_forms(S: Surface, u: float, v: float) -> FundamentalForms:
    """Evaluate both fundamental forms of the surface at a chart point."""
    jet = S.jet(u, v)
    return forms_from_jet(jet)


def forms_from_jet(jet: SurfaceJet) -> FundamentalForms:
    E = _prod_inner(jet.Xu, jet.Xu)
    F = _prod_inner(jet.Xu, jet.Xv)
    G = _prod_inner(jet.Xv, jet.Xv)
    if E * G - F * F <= 1e-12:
        raise NotImmersed("degenerate jet")
    normal = unit_normal(jet)
    p = jet.X.htup

    def second(w: AmbientVec) -> float:
        cov_h = _project_tangent(p, w.htup)
        return _mdot(cov_h, normal.htup) + w.t * normal.t

    return FundamentalForms(E, F, G, second(jet.Xuu), second(jet.Xuv),
                            second(jet.Xvv), normal, normal.t)


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
    det1 = E * G - F * F
    A = det1
    B = -(E * N2 - 2.0 * F * M2 + G * L)
    C = L * N2 - M2 * M2
    disc = max(0.0, B * B - 4.0 * A * C)
    sq = math.sqrt(disc)
    if B >= 0.0:
        q = -0.5 * (B + sq)
    else:
        q = -0.5 * (B - sq)
    if q == 0.0:
        ka = kb = 0.0
    else:
        ka = q / A
        kb = C / q
    if abs(ka) <= abs(kb):
        k1, k2 = ka, kb
    else:
        k1, k2 = kb, ka

    def direction(k: float) -> tuple[float, float] | None:
        r1 = (L - k * E, M2 - k * F)
        r2 = (M2 - k * F, N2 - k * G)
        n1 = r1[0] ** 2 + r1[1] ** 2
        n2 = r2[0] ** 2 + r2[1] ** 2
        row = r1 if n1 >= n2 else r2
        if max(n1, n2) < 1e-28:
            return None
        return (-row[1], row[0])

    def unit_in_form(d: tuple[float, float]) -> tuple[float, float]:
        n = math.sqrt(E * d[0] ** 2 + 2.0 * F * d[0] * d[1] + G * d[1] ** 2)
        d = (d[0] / n, d[1] / n)
        if d[0] < 0.0 or (d[0] == 0.0 and d[1] < 0.0):
            d = (-d[0], -d[1])
        return d

    d1 = direction(k1)
    if d1 is None:
        d1 = (1.0, 0.0)
    d1 = unit_in_form(d1)
    d2 = direction(k2)
    if d2 is None or abs(k2 - k1) < 1e-14 * (1.0 + abs(k1)):
        d2 = (-F * d1[0] - G * d1[1], E * d1[0] + F * d1[1])
    # first-form Gram-Schmidt against d1 for robustness near umbilics
    g12 = (E * d1[0] * d2[0] + F * (d1[0] * d2[1] + d1[1] * d2[0]) + G * d1[1] * d2[1])
    d2 = (d2[0] - g12 * d1[0], d2[1] - g12 * d1[1])
    d2 = unit_in_form(d2)
    return k1, k2, d1, d2


@dataclass(frozen=True, slots=True)
class MetricStencil:
    """First-form coefficients sampled on a 5x5 chart stencil."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    h: float


def sample_metric_stencil(S: Surface, u: float, v: float,
                          h: float = DEFAULT_STENCIL_H) -> MetricStencil:
    """Sample E, F, G around (u, v), shrinking the spacing near the boundary."""
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    h_eff = min(h, 0.5 * (u - u0), 0.5 * (u1 - u), 0.5 * (v - v0), 0.5 * (v1 - v))
    if h_eff <= 1e-8:
        raise OutOfDomain("metric stencil leaves the chart domain")
    E = np.empty((5, 5))
    F = np.empty((5, 5))
    G = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            jet = S.jet(u + (i - 2) * h_eff, v + (j - 2) * h_eff)
            E[i, j] = _prod_inner(jet.Xu, jet.Xu)
            F[i, j] = _prod_inner(jet.Xu, jet.Xv)
            G[i, j] = _prod_inner(jet.Xv, jet.Xv)
    return MetricStencil(E, F, G, h_eff)


_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def brioschi_curvature(st: MetricStencil) -> float:
    """Intrinsic curvature from E, F, G alone (Brioschi determinant formula).

    Axis 0 of the stencil arrays is u, axis 1 is v; derivatives use
    fourth-order central weights.
    """
    h = st.h
    E, F, G = st.E, st.F, st.G

    def du(a):
        return float(_W1 @ a[:, 2]) / h

    def dv(a):
        return float(_W1 @ a[2, :]) / h

    def duu(a):
        return float(_W2 @ a[:, 2]) / (h * h)

    def dvv(a):
        return float(_W2 @ a[2, :]) / (h * h)

    def duv(a):
        return float(_W1 @ a @ _W1) / (h * h)

    e, f, g = E[2, 2], F[2, 2], G[2, 2]
    eu, ev = du(E), dv(E)
    fu, fv = du(F), dv(F)
    gu, gv = du(G), dv(G)
    evv, guu, fuv = dvv(E), duu(G), duv(F)

    m1 = np.array([
        [-0.5 * evv + fuv - 0.5 * guu, 0.5 * eu, fu - 0.5 * ev],
        [fv - 0.5 * gu, e, f],
        [0.5 * gv, f, g],
    ])
    m2 = np.array([
        [0.0, 0.5 * ev, 0.5 * gu],
        [0.5 * ev, e, f],
        [0.5 * gu, f, g],
    ])
    det1 = e * g - f * f
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det1 * det1))


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
             stencil_h: float = DEFAULT_STENCIL_H,
             with_brioschi: bool = True) -> tuple[FundamentalForms, ShapeData]:
    forms = fundamental_forms(S, u, v)
    st = sample_metric_stencil(S, u, v, stencil_h) if with_brioschi else None
    return forms, shape_data(forms, st)


def classify_point(sd: ShapeData, tol: float) -> PointClass:
    """Planar, parabolic or generic, at an absolute curvature tolerance."""
    if tol <= 0.0:
        raise ConfigError("classification tolerance must be positive")
    lo, hi = abs(sd.k1), abs(sd.k2)
    if hi < tol:
        return PointClass(PLANAR, tol)
    if lo < tol:
        return PointClass(PARABOLIC, tol)
    return PointClass(GENERIC, tol)


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
        lines = [GRID_HEADER]
        for r in self.rows:
            lines.append(",".join([
                repr(r.u), repr(r.v), repr(r.k1), repr(r.k2), repr(r.H),
                repr(r.Kext), repr(r.Kint_gauss), repr(r.Kint_brioschi),
                repr(r.nu), r.cls, r.status,
            ]))
        return "\n".join(lines) + "\n"


def grid_points(S: Surface, nu_: int, nv_: int) -> list[tuple[float, float]]:
    """Cell centers of a uniform nu_ x nv_ partition of the chart domain."""
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    du = (u1 - u0) / nu_
    dv = (v1 - v0) / nv_
    return [(u0 + (i + 0.5) * du, v0 + (j + 0.5) * dv)
            for i in range(nu_) for j in range(nv_)]


def curvature_grid(S: Surface, nu_: int, nv_: int,
                   tol: float = DEFAULT_CLASS_TOL,
                   stencil_h: float = DEFAULT_STENCIL_H,
                   brioschi: bool = True) -> CurvatureGrid:
    """Curvature table over grid cell centers, row-major in (u, v).

    Failures at isolated points are recorded in the row's status column and
    do not abort the scan.  With ``brioschi=False`` the 5x5 stencil (25 more
    jets per cell) is skipped and ``Kint_brioschi`` is NaN in every row.
    """
    if nu_ < 2 or nv_ < 2:
        raise ConfigError("grid needs at least 2 cells per axis")

    def one(uv: tuple[float, float]) -> GridRow:
        u, v = uv
        try:
            forms, sd = shape_at(S, u, v, stencil_h, brioschi)
            cls = classify_point(sd, tol)
            return GridRow(u, v, sd.k1, sd.k2, sd.H, sd.Kext, sd.Kint_gauss,
                           sd.Kint_brioschi, forms.nu, cls.tag, "ok")
        except GeometryError as exc:
            nan = math.nan
            return GridRow(u, v, nan, nan, nan, nan, nan, nan, nan, "", exc.code)

    return CurvatureGrid([one(p) for p in grid_points(S, nu_, nv_)], nu_, nv_)
