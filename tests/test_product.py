"""Product-space metric, geodesics, residual oracle, and divergence search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.errors import (DivergenceNotReached, GeometryError, InsufficientSamples,
                         NonUnitTangent, NumericalError)
from h2xr.hyperbolic import ORIGIN_T, _exp_raw
from h2xr.minkowski import _mdot, _mscale
from h2xr.product import (AmbientVec, DivergenceReport, H2Geodesic, ProdGeodesic,
                          _prod_exp_raw, _prod_inner, prod_dist, prod_geodesic_residual,
                          verify_geodesic_divergence)

from conftest import COTH1, h2_unit_tangents

ORIGIN = ORIGIN_T
O_PROD = (ORIGIN, 0.0)
R2 = math.sqrt(0.5)

VERTICAL = AmbientVec((0.0, 0.0, 0.0), 1.0)
HORIZONTAL = AmbientVec((0.0, 1.0, 0.0), 0.0)
TILTED = AmbientVec((0.0, R2, 0.0), R2)


class TestMetric:
    def test_unit_vertical(self):
        assert _prod_inner(VERTICAL, VERTICAL) == 1.0

    def test_product_orthogonality(self):
        assert _prod_inner(HORIZONTAL, VERTICAL) == 0.0

    def test_mixed_norm(self):
        assert _prod_inner(TILTED, TILTED) == pytest.approx(1.0, abs=1e-15)


class TestExp:
    def test_vertical_line(self):
        foot, t = _prod_exp_raw(ORIGIN, 0.0, *VERTICAL, 3.0)
        assert foot == ORIGIN
        assert t == 3.0

    def test_horizontal_reduces_to_plane_geodesic(self):
        foot, t = _prod_exp_raw(ORIGIN, 0.0, *HORIZONTAL, 1.0)
        assert foot == _exp_raw(ORIGIN, (0.0, 1.0, 0.0), 1.0)
        assert t == 0.0

    def test_tilted_closed_form(self):
        foot, t = _prod_exp_raw(ORIGIN, 0.0, *TILTED, math.sqrt(2.0))
        assert foot == pytest.approx((math.cosh(1.0), math.sinh(1.0), 0.0), abs=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitTangent):
            _prod_exp_raw(ORIGIN, 0.0, (0.0, 1.0, 0.0), 1.0, 1.0)

    @pytest.mark.parametrize("s", [2.0, np.array([0.0, 2.0])], ids=["float", "array"])
    @pytest.mark.parametrize("vh, vt", [
        ((math.inf, math.inf, 0.0), 1.0),
        ((math.inf, 0.0, 0.0), 1.0),
        ((math.nan, 0.0, 0.0), 1.0),
        ((0.0, 0.0, 0.0), math.nan),
    ], ids=["inf_inf", "inf", "nan", "nan_vertical"])
    def test_non_finite_velocity_rejected(self, vh, vt, s):
        # max(0.0, nan) is 0.0: an inf or NaN horizontal part would
        # otherwise pass for a vertical velocity, and a NaN total for a unit
        with pytest.raises(NonUnitTangent):
            ProdGeodesic((1.0, 0.0, 0.0), 0.0, vh, vt).point(s)

    @settings(max_examples=60, deadline=None)
    @given(pv=h2_unit_tangents(), t=st.floats(-5.0, 5.0), tilt=st.floats(0.0, 1.0),
           s=st.floats(-3.0, 3.0))
    def test_finite_velocity_keeps_its_bits(self, pv, t, tilt, s):
        """The closed form as it read before non-finite squares were refused."""
        p, w = pv
        vh, vt = tuple(math.sqrt(1.0 - tilt * tilt) * c for c in w), tilt
        nh2 = max(0.0, _mdot(vh, vh))
        assert abs(nh2 + vt * vt - 1.0) <= 1e-9
        a_h = math.sqrt(nh2)
        want = (p, t + s * vt) if a_h < 1e-15 else (
            _exp_raw(p, _mscale(1.0 / a_h, vh), s * a_h), t + s * vt)
        assert repr(ProdGeodesic(p, t, vh, vt).point(s)) == repr(want)

    def test_unit_speed_locally(self):
        geo = ProdGeodesic.from_tangent(ORIGIN, 0.0, *TILTED)
        for s in (0.0, 0.5, 1.7):
            a = geo.point(s)
            b = geo.point(s + 1e-3)
            assert prod_dist(a, b) == pytest.approx(1e-3, abs=1e-8)

    def test_splitting_law(self):
        geo = ProdGeodesic.from_tangent(ORIGIN, 0.0, *TILTED)
        a_h = math.sqrt(_mdot(geo.vh, geo.vh))
        assert a_h == pytest.approx(R2, abs=1e-15)
        assert geo.vt == pytest.approx(R2, abs=1e-15)
        for s in (0.3, 1.1, 2.4):
            foot, t = geo.point(s)
            assert t == pytest.approx(geo.vt * s, abs=1e-12)
            q = _exp_raw(ORIGIN, (0.0, 1.0, 0.0), a_h * s)
            assert foot == pytest.approx(q, abs=1e-12)

    def test_from_tangent_normalizes(self):
        geo = ProdGeodesic.from_tangent(ORIGIN, 0.5, (0.0, 3.0, 0.0), 4.0)
        assert geo.vh == pytest.approx((0.0, 0.6, 0.0), abs=1e-15)
        assert geo.vt == pytest.approx(0.8, abs=1e-15)
        with pytest.raises(NonUnitTangent):
            ProdGeodesic.from_tangent(ORIGIN, 0.0, (0.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("args", [
        ((1.0, 1.0, 0.0), 0.0, (0.0, 1.0, 0.0), 0.0),
        (ORIGIN, 0.0, (1.0, 1.0, 0.0), 0.0),
        (ORIGIN, 0.0, (math.inf, math.inf, 0.0), 1.0),
        (ORIGIN, math.nan, (0.0, 1.0, 0.0), 0.0),
    ], ids=["off_sheet", "not_tangent", "non_finite_tangent", "nan_height"])
    def test_from_tangent_checks_its_arguments(self, args):
        # a non-finite horizontal part would otherwise pass for a vertical one
        with pytest.raises(NumericalError):
            ProdGeodesic.from_tangent(*args)


class TestDist:
    def test_coincident(self):
        assert prod_dist(O_PROD, O_PROD) == 0.0

    def test_vertical_segment(self):
        assert prod_dist(O_PROD, (ORIGIN, 2.0)) == 2.0

    def test_pythagorean(self):
        q = (_exp_raw(ORIGIN, (0.0, 1.0, 0.0), 3.0), 4.0)
        assert prod_dist(O_PROD, q) == pytest.approx(5.0, abs=1e-12)


class TestGeodesicResidual:
    def test_exact_geodesic(self):
        geo = ProdGeodesic.from_tangent(ORIGIN, 0.0, *TILTED)
        pts = [geo.point(i * 1e-3) for i in range(2001)]
        assert prod_geodesic_residual(*zip(*pts), spacing=1e-3) < 1e-6

    def test_vertical_line_parallel_field(self):
        # binary step: heights are exactly representable, so the second
        # difference of t is exactly zero and the residual is pure zero
        h = 2.0 ** -10
        heights = [i * h for i in range(2001)]
        assert prod_geodesic_residual([ORIGIN] * 2001, heights, spacing=h) < 1e-12

    def test_horizontal_circle_measures_its_curvature(self, circle_curve):
        res = prod_geodesic_residual(circle_curve.points[:2001], np.zeros(2001),
                                     spacing=circle_curve.step)
        assert res == pytest.approx(COTH1, abs=1e-4)

    def test_second_order_convergence_on_curved_path(self, circle_curve):
        # the operator's truncation error is visible only on paths with
        # nonzero residual; exact geodesics sit at the roundoff floor
        pts1 = circle_curve.points[0:2001:2]
        pts2 = circle_curve.points[0:2001]
        err1 = abs(prod_geodesic_residual(pts1, np.zeros(len(pts1)),
                                          spacing=2 * circle_curve.step) - COTH1)
        err2 = abs(prod_geodesic_residual(pts2, np.zeros(len(pts2)),
                                          spacing=circle_curve.step) - COTH1)
        assert err2 <= err1 / 3.0

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            prod_geodesic_residual([ORIGIN] * 4, [0.0, 1.0, 2.0, 3.0], spacing=1.0)


G_X = H2Geodesic(ORIGIN, (0.0, 1.0, 0.0))
G_Y = H2Geodesic(ORIGIN, (0.0, 0.0, 1.0))
Q1 = (math.cosh(1.0), 0.0, math.sinh(1.0))


class TestDivergence:
    def test_orthogonal_through_same_point(self):
        rep = verify_geodesic_divergence(G_X, G_Y, target=5.0, s_max=20.0)
        assert rep.s_star <= 6.0
        assert rep.achieved_distance >= 5.0

    def test_same_geodesic_rejected(self):
        with pytest.raises(GeometryError):
            verify_geodesic_divergence(G_X, G_X, target=5.0, s_max=20.0)
        reversed_g = H2Geodesic(ORIGIN, (0.0, -1.0, 0.0))
        with pytest.raises(GeometryError):
            verify_geodesic_divergence(G_X, reversed_g, target=5.0, s_max=20.0)

    def test_ultraparallel_distance_one(self):
        g2 = H2Geodesic(Q1, (0.0, 1.0, 0.0))
        rep = verify_geodesic_divergence(G_X, g2, target=10.0, s_max=20.0)
        assert rep.achieved_distance >= 10.0

    def test_not_reached_raises(self):
        g2 = H2Geodesic(Q1, (0.0, 1.0, 0.0))
        with pytest.raises(DivergenceNotReached):
            verify_geodesic_divergence(G_X, g2, target=10.0, s_max=2.0)

    @pytest.mark.parametrize("g, error", [
        (H2Geodesic((1.0, 1.0, 0.0), (0.0, 1.0, 0.0)), NumericalError),
        (H2Geodesic(ORIGIN, (1.0, 1.0, 0.0)), NumericalError),
        (H2Geodesic(ORIGIN, (0.0, 2.0, 0.0)), NonUnitTangent),
    ], ids=["off_sheet", "not_tangent", "not_unit"])
    def test_arguments_checked(self, g, error):
        for a, b in ((g, G_Y), (G_Y, g)):
            with pytest.raises(error):
                verify_geodesic_divergence(a, b, target=5.0, s_max=20.0)

    def test_report_invariant(self):
        with pytest.raises(NumericalError):
            DivergenceReport(s_star=1.0, achieved_distance=3.0, target=5.0)

    @given(h2_unit_tangents(max_coord=2.0), h2_unit_tangents(max_coord=2.0),
           st.floats(1.0, 20.0))
    @settings(max_examples=15, deadline=None)
    def test_any_distinct_pair_diverges(self, v1, v2, target):
        g1 = H2Geodesic(*v1)
        g2 = H2Geodesic(*v2)
        if g1.same_geodesic(g2, tol=1e-6):
            return
        rep = verify_geodesic_divergence(g1, g2, target=target, s_max=target + 25.0)
        assert rep.achieved_distance >= target
