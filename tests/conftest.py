"""Shared fixtures: preset surfaces, curves and the verification report.

Everything heavy is session-scoped; surfaces are immutable and safe to
share.
"""

import dataclasses
import math

import pytest
from hypothesis import strategies as st

from h2xr.curvature import grid_points
from h2xr.errors import NotImmersed
from h2xr.hyperbolic import H2Point, H2Tangent, curve_from_curvature
from h2xr.minkowski import SpacetimeVec, _normalize_spacelike, _project_tangent
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
