"""Minkowski algebra, hyperboloid geometry, and prescribed-curvature curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.classifier import recover_generating_curve
from h2xr.errors import (BadCurvatureFunction, NonUnitTangent, NumericalError,
                         OutOfDomain)
from h2xr.hyperbolic import (ORIGIN_T, H2Curve, _dists_raw, _exp_raw, check_point,
                             check_tangent, check_unit, curvature_profile, curve_distances,
                             curve_from_curvature, curve_hausdorff, h2_dist,
                             linear_curvature, points_to_curve_dist, spline_curvature)
from h2xr.minkowski import (_mdot, _normalize_point, _normalize_points,
                            _normalize_spacelike, _normalize_spacelikes, _project_tangent)
from h2xr.surfaces import CORPUS_CONFIGS, CYLINDER_PRESETS, from_config

from conftest import (COTH1, h2_covariant_deriv, h2_points, h2_unit_tangents,
                      measure_geodesic_curvature, reference_points_to_curve_dist,
                      scalar_golden_min, tangent_norm)

ORIGIN = ORIGIN_T
E1 = (0.0, 1.0, 0.0)
E2 = (0.0, 0.0, 1.0)


class TestMinkowskiInner:
    def test_timelike_unit(self):
        assert _mdot((1, 0, 0), (1, 0, 0)) == -1.0

    def test_orthogonal_spacelike_axes(self):
        assert _mdot((0, 1, 0), (0, 0, 1)) == 0.0

    def test_hand_arithmetic(self):
        # -2*1 + 1*1 + 1*0
        assert _mdot((2, 1, 1), (1, 1, 0)) == -1.0

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_symmetric(self, xs):
        a, b = xs[:3], xs[3:]
        assert _mdot(a, b) == _mdot(b, a)


class TestBoundaryChecks:
    """The checks run where points and tangents enter the library."""

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(NumericalError, match="non-finite coordinates"):
            check_point((math.nan, 0.0, 0.0))
        with pytest.raises(NumericalError, match="non-finite coordinates"):
            check_tangent(ORIGIN, (0.0, math.inf, 0.0))

    @given(h2_points(1e6))
    def test_sheet_points_accepted(self, p):
        check_point(p)

    @pytest.mark.parametrize("p", [(1.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
    def test_off_sheet_rejected(self, p):
        with pytest.raises(NumericalError):
            check_point(p)

    @given(h2_unit_tangents())
    def test_unit_tangents_accepted(self, v):
        p, w = v
        check_tangent(p, w)
        check_unit(w)

    def test_not_tangent_rejected(self):
        with pytest.raises(NumericalError, match="not tangent"):
            check_tangent(ORIGIN, (1.0, 1.0, 0.0))

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitTangent):
            check_unit((0.0, 0.5, 0.0))

    def test_curve_start_and_direction_checked(self):
        with pytest.raises(NumericalError):
            curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 0.1, start=(1.0, 1.0, 0.0))
        with pytest.raises(NumericalError, match="not tangent"):
            curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 0.1, direction=(1.0, 1.0, 0.0))
        with pytest.raises(NonUnitTangent):
            curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 0.1, direction=(0.0, 0.5, 0.0))


class TestProjectTangent:
    def test_already_tangent(self):
        assert _project_tangent(ORIGIN, (0, 1, 0)) == (0.0, 1.0, 0.0)

    def test_normal_direction_maps_to_zero(self):
        assert _project_tangent(ORIGIN, (1, 0, 0)) == (0.0, 0.0, 0.0)

    def test_mixed_vector(self):
        # <w, p> = -3, so w + (-3) p = (0, 2, 0)
        assert _project_tangent(ORIGIN, (3, 2, 0)) == (0.0, 2.0, 0.0)

    @given(h2_points(), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_result_is_tangent(self, p, w0, w1, w2):
        t = _project_tangent(p, (w0, w1, w2))
        assert abs(_mdot(t, p)) < 1e-9 * (1 + p[0] ** 2)


class TestExp:
    def test_zero_arclength(self):
        assert _exp_raw(ORIGIN, E1, 0.0) == (1.0, 0.0, 0.0)

    def test_unit_arclength(self):
        q = _exp_raw(ORIGIN, E1, 1.0)
        assert q == pytest.approx((1.5430806348, 1.1752011936, 0.0), abs=1e-9)

    def test_negative_arclength_other_axis(self):
        q = _exp_raw(ORIGIN, E2, -1.0)
        assert q == pytest.approx((1.5430806348, 0.0, -1.1752011936), abs=1e-9)

    @given(h2_unit_tangents(), st.floats(-10, 10))
    @settings(max_examples=150)
    def test_stays_on_sheet_and_distance(self, v, s):
        p, w = v
        q = _exp_raw(p, w, s)
        assert abs(_mdot(q, q) + 1.0) < 1e-9 * (1 + q[0] ** 2)
        # arccosh near 1 cannot resolve distances below sqrt(eps) * scale;
        # away from the model origin that floor scales with the coordinates
        floor = 1e-7 * p[0]
        assert h2_dist(p, q) == pytest.approx(
            abs(s), abs=1e-9 * (1 + abs(s)) + floor)


class TestDist:
    def test_coincident(self):
        assert h2_dist(ORIGIN, ORIGIN) == 0.0

    def test_inverts_exp(self):
        q = (math.cosh(1.0), math.sinh(1.0), 0.0)
        assert h2_dist(ORIGIN, q) == pytest.approx(1.0, abs=1e-12)

    def test_through_origin(self):
        p = (math.cosh(1.0), math.sinh(1.0), 0.0)
        q = (math.cosh(1.0), -math.sinh(1.0), 0.0)
        assert h2_dist(p, q) == pytest.approx(2.0, abs=1e-12)

    @given(h2_points(), h2_points())
    def test_symmetric(self, p, q):
        assert h2_dist(p, q) == h2_dist(q, p)

    @given(h2_points(), h2_points(), h2_points())
    @settings(max_examples=150)
    def test_triangle_inequality(self, p, q, r):
        assert h2_dist(p, r) <= h2_dist(p, q) + h2_dist(q, r) + 1e-9

    @pytest.mark.parametrize("d", [1e-12, 1e-9, 6e-8, 1e-4, 1.0, 1.3, 1.4, 5.0])
    def test_accurate_near_and_far(self, d):
        # arccosh(-<p,q>) alone would give 0 for 1e-12 and ~5.6e-8 for 6e-8
        p = (math.sqrt(1.0 + 0.125 ** 2), 0.0, 0.125)
        q = _exp_raw(p, (0.0, 1.0, 0.0), d)
        assert h2_dist(p, q) == pytest.approx(d, rel=1e-12)
        assert h2_dist(q, p) == h2_dist(p, q)

    @given(h2_points(), h2_points())
    def test_array_twin_matches_scalar(self, p, q):
        batch = _dists_raw(tuple(np.array([x]) for x in p),
                           tuple(np.array([x]) for x in q))
        assert float(batch[0]) == pytest.approx(h2_dist(p, q), rel=1e-14, abs=1e-15)


class TestCovariantDeriv:
    def test_geodesic_velocity_is_parallel(self):
        c = curve_from_curvature(lambda s: 0.0, (0.0, 2.0), 1e-3)
        for s in (0.3, 1.0, 1.7):
            acc = h2_covariant_deriv(c, c.tangents, s)
            assert tangent_norm(acc) < 1e-6

    def test_constant_field_along_geodesic(self):
        c = curve_from_curvature(lambda s: 0.0, (-1.0, 1.0), 1e-3)
        field = np.tile([0.0, 0.0, 1.0], (len(c.s), 1))
        acc = h2_covariant_deriv(c, field, 0.0)
        assert tangent_norm(acc) < 1e-6

    def test_circle_velocity_norm_is_geodesic_curvature(self, circle_curve):
        for s in (0.5, 2.0, 5.0):
            acc = h2_covariant_deriv(circle_curve, circle_curve.tangents, s)
            assert tangent_norm(acc) == pytest.approx(COTH1, abs=1e-8)

    def test_out_of_range(self):
        c = curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 1e-3)
        with pytest.raises(OutOfDomain):
            h2_covariant_deriv(c, c.tangents, 2.0)


class TestCurveFromCurvature:
    def test_zero_curvature_is_geodesic(self):
        # coordinatewise against the closed form: sharper than h2_dist,
        # whose arccosh floor is ~3e-8 for coincident points
        c = curve_from_curvature(lambda s: 0.0, (0.0, 2.0), 1e-3)
        exact = np.array([_exp_raw(ORIGIN, E1, float(s)) for s in c.s])
        assert np.max(np.abs(c.points - exact)) < 1e-8

    def test_circle_closes(self, circle_curve):
        end = tuple(circle_curve.points[-1])
        start = tuple(circle_curve.points[0])
        assert h2_dist(start, end) < 1e-5
        # cross-check at halved step
        c2 = curve_from_curvature(lambda s: COTH1,
                                  (0.0, 2.0 * math.pi * math.sinh(1.0)), 5e-4)
        assert h2_dist(tuple(c2.points[0]), tuple(c2.points[-1])) < 1e-5

    def test_inflection_at_zero(self):
        c = curve_from_curvature(lambda s: s, (-1.0, 1.0), 1e-3)
        assert abs(measure_geodesic_curvature(c, 0.0)) < 1e-6

    @pytest.mark.parametrize("k", [0.5, -1.0, 3.0, 5.0])
    def test_measured_curvature_identity_constant(self, k):
        c = curve_from_curvature(lambda s: k, (0.0, 1.0), 1e-3)
        _, kg = curvature_profile(c)
        assert np.max(np.abs(kg - k)) < 1e-5

    def test_measured_curvature_identity_linear(self):
        c = curve_from_curvature(lambda s: 2.0 * s - 1.0, (0.0, 2.0), 1e-3)
        svals, kg = curvature_profile(c)
        assert np.max(np.abs(kg - (2.0 * svals - 1.0))) < 1e-5

    def test_constraint_drift(self, circle_curve):
        p, t = circle_curve.points, circle_curve.tangents
        pp = -p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2
        tt = -t[:, 0] ** 2 + t[:, 1] ** 2 + t[:, 2] ** 2
        tp = -t[:, 0] * p[:, 0] + t[:, 1] * p[:, 1] + t[:, 2] * p[:, 2]
        assert np.max(np.abs(pp + 1.0)) < 1e-9
        assert np.max(np.abs(tt - 1.0)) < 1e-9
        assert np.max(np.abs(tp)) < 1e-9

    def test_non_finite_curvature_rejected(self):
        with pytest.raises(BadCurvatureFunction):
            curve_from_curvature(lambda s: math.nan, (0.0, 1.0), 1e-2)

    def test_unit_speed_required_for_samples(self):
        c = curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 1e-2)
        with pytest.raises(NumericalError):
            H2Curve.from_samples(c.s, c.points, 1.1 * c.tangents)

    def test_dense_eval_matches_nodes(self, circle_curve):
        s = float(circle_curve.s[100]) + 0.5 * circle_curve.step
        p, t, _, _ = circle_curve.frame_at(s)
        assert abs(_mdot(p, p) + 1.0) < 1e-12
        assert abs(_mdot(t, t) - 1.0) < 1e-12
        assert h2_dist(tuple(circle_curve.points[100]), p) == \
            pytest.approx(0.5 * circle_curve.step, abs=1e-8)


def hyperbolic_circle(r: float, step: float) -> H2Curve:
    """The circle of radius r about the model origin, once around."""
    return curve_from_curvature(lambda s: math.cosh(r) / math.sinh(r),
                                (0.0, 2.0 * math.pi * math.sinh(r)), step,
                                (math.cosh(r), math.sinh(r), 0.0), (0.0, 0.0, 1.0))


def hermite_copy(c: H2Curve) -> H2Curve:
    return H2Curve.from_samples(c.s, c.points, c.tangents, c.normals, c.kg)


DENSE_CURVES = {
    "constant": curve_from_curvature(lambda s: COTH1, (0.0, 3.0), 0.05),
    "linear": curve_from_curvature(linear_curvature(2.0, -1.0), (0.0, 2.0), 0.05),
    "spline": curve_from_curvature(spline_curvature([0.0, 0.8, 1.7, 2.5], [0.3, -1.2, 0.9, 2.0]),
                                   (0.0, 2.5), 0.05),
}
DENSE_CURVES["hermite"] = hermite_copy(DENSE_CURVES["spline"])


def reference_point_to_curve_dist(p, curve: H2Curve) -> float:
    """One scalar golden-section search over frame_at, per point."""
    inner = -(curve.points[:, 0] * p[0]) + curve.points[:, 1] * p[1] + curve.points[:, 2] * p[2]
    i = int(np.argmax(inner))
    lo = float(curve.s[max(0, i - 1)])
    hi = float(curve.s[min(len(curve.s) - 1, i + 1)])
    return scalar_golden_min(lambda s: h2_dist(tuple(p), curve.frame_at(s)[0]), lo, hi)[1]


class TestDenseBatch:
    @pytest.mark.parametrize("a, b", [(0.5, 0.8), (1.2, 0.7)])
    @pytest.mark.parametrize("hermite", [False, True])
    def test_concentric_circles_hausdorff(self, a, b, hermite):
        ca, cb = hyperbolic_circle(a, 0.01), hyperbolic_circle(b, 0.01)
        if hermite:
            ca, cb = hermite_copy(ca), hermite_copy(cb)
        assert curve_hausdorff(ca, cb) == pytest.approx(abs(a - b), abs=1e-9)

    @given(st.sampled_from(sorted(DENSE_CURVES)),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_positions_equal_frame_at(self, name, fracs, on_samples):
        c = DENSE_CURVES[name]
        if on_samples:  # dense output returns the stored samples there
            s = c.s[np.round(np.array(fracs) * (len(c.s) - 1)).astype(int)]
        else:
            s = c.s_min + np.array(fracs) * (c.s_max - c.s_min)
        scalar = np.array([c.frame_at(float(x))[0] for x in s])
        assert np.max(np.abs(c.positions_at(s) - scalar)) <= 1e-14

    @given(st.sampled_from(sorted(DENSE_CURVES)),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_frames_equal_frame_at_bitwise(self, name, fracs, on_samples):
        c = DENSE_CURVES[name]
        if on_samples:
            s = c.s[np.round(np.array(fracs) * (len(c.s) - 1)).astype(int)]
        else:
            s = c.s_min + np.array(fracs) * (c.s_max - c.s_min)
        frames = c.frames_at(s)
        kg = np.broadcast_to(c.kg_at(s), s.shape)
        for k, x in enumerate(s.tolist()):
            a, t, n, kgk = c.frame_at(x)
            assert tuple(float(v[k]) for w in frames for v in w) == (*a, *t, *n)
            assert float(kg[k]) == kgk
        assert np.array_equal(c.positions_at(s), np.stack(frames[0], axis=1))

    def test_frames_at_samples_are_stored(self):
        c = DENSE_CURVES["spline"]
        a, t, n = c.frames_at(c.s[3:9])
        for got, stored in ((a, c.points), (t, c.tangents), (n, c.normals)):
            assert np.array_equal(np.stack(got, axis=1), stored[3:9])

    def test_out_of_domain_in_batch(self):
        c = DENSE_CURVES["linear"]
        with pytest.raises(OutOfDomain):
            c.positions_at(np.array([0.5, c.s_max + 1e-6, 1.0]))

    def test_non_finite_curvature_in_batch(self):
        # finite on the scalar calls that build the curve, NaN on arrays
        c = curve_from_curvature(lambda s: np.full(np.shape(s), math.nan) if np.ndim(s) else 1.0,
                                 (0.0, 1.0), 0.1)
        with pytest.raises(BadCurvatureFunction):
            c.positions_at(np.array([0.25, 0.55]))

    @given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_array_normalizations_match_scalar(self, v):
        x0 = math.sqrt(1.0 + v[1] ** 2 + v[2] ** 2) + abs(v[0])
        for scalar, array, vec in ((_normalize_point, _normalize_points, (x0, v[1], v[2])),
                                   (_normalize_point, _normalize_points, (-x0, v[1], v[2])),
                                   (_normalize_spacelike, _normalize_spacelikes,
                                    (v[0], x0, v[2]))):
            batch = array(tuple(np.array([x]) for x in vec))
            assert tuple(float(x[0]) for x in batch) == scalar(vec)

    def test_array_normalizations_reject(self):
        with pytest.raises(NumericalError):
            _normalize_points((np.array([2.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0])))
        with pytest.raises(NumericalError):
            _normalize_spacelikes((np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                   np.array([0.0, 0.0])))

    @given(st.sampled_from(sorted(DENSE_CURVES)), st.sampled_from(sorted(DENSE_CURVES)),
           st.booleans(), st.booleans(), st.lists(h2_points(2.0), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_search_equals_frames_search_bitwise(self, name_a, name_b, herm_a, herm_b, extra):
        """The searches over positions_at keep the bits of the searches over
        the positions of frames_at, on rk4 and hermite curves both ways."""
        a, b = DENSE_CURVES[name_a], DENSE_CURVES[name_b]
        a, b = hermite_copy(a) if herm_a else a, hermite_copy(b) if herm_b else b
        off = np.array(extra).reshape(-1, 3)
        for x, y in ((a, b), (b, a)):
            q = np.concatenate([x.points, off])
            assert np.array_equal(points_to_curve_dist(q, y),
                                  reference_points_to_curve_dist(q, y))

    @pytest.mark.parametrize("t0", [-1.3, 0.7])
    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    def test_search_equals_frames_search_on_recovered_curves(self, name, t0):
        """The pair of a compare benchmark item: a recovered curve of 201
        samples and the generating curve at curve_step 0.02."""
        cfg = CORPUS_CONFIGS[name]
        a = recover_generating_curve(from_config(cfg), t0, 201)
        b = from_config(dict(cfg, curve_step=0.02)).curve
        for x, y in ((a, b), (b, a)):
            assert np.array_equal(points_to_curve_dist(x.points, y),
                                  reference_points_to_curve_dist(x.points, y))

    def test_curvature_checked_at_the_end_of_the_step(self):
        """The position does not read the curvature at the end of an RK4
        step, but a curvature that is not finite there still raises, with
        the message of frames_at."""
        c = curve_from_curvature(
            lambda s: np.where(np.asarray(s) > 0.56, math.nan, 1.0) if np.ndim(s) else 1.0,
            (0.0, 1.0), 0.1)
        s = np.array([0.59])  # from the sample at 0.5: midpoint 0.545, end 0.59
        with pytest.raises(BadCurvatureFunction) as want:
            c.frames_at(s)
        with pytest.raises(BadCurvatureFunction) as got:
            c.positions_at(s)
        assert str(got.value) == str(want.value)
        # the searches from the samples at 0.5 and 0.6 first evaluate 0.4764
        # and 0.5764, whose midpoints lie below 0.56
        b = H2Curve.from_samples(c.s[5:7], c.points[5:7], c.tangents[5:7])
        with pytest.raises(BadCurvatureFunction) as want:
            reference_points_to_curve_dist(b.points, c)
        with pytest.raises(BadCurvatureFunction) as got:
            curve_distances(b, c)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["constant", "spline"])
    def test_hausdorff_equals_scalar_searches(self, name):
        a = DENSE_CURVES[name]
        b = hermite_copy(curve_from_curvature(a.kg_fn, (0.0, 2.5), 0.03))
        ref = (max(reference_point_to_curve_dist(p, b) for p in a.points),
               max(reference_point_to_curve_dist(p, a) for p in b.points))
        assert curve_distances(a, b) == pytest.approx(ref, abs=1e-15)
        assert curve_hausdorff(a, b) == max(curve_distances(a, b))
