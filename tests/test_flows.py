"""Asymptotic traces: geodesy, the affine 1/H law, frame ODE residuals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr import flows
from h2xr.classifier import _ruling_verticality
from h2xr.errors import (DegenerateDirection, GeometryError, InsufficientSamples,
                         NotParabolic, NumericalError, PlanarSample)
from h2xr.flows import (DOMAIN_EDGE, MAX_LENGTH, PLANAR_HIT, STEP_FAILURE,
                        TRACE_CSV_HEADER, TraceRecord, _vec, fit_inverse_H,
                        frame_ode_residuals, geodesic_deviation, trace_asymptotic)
from h2xr.hyperbolic import H2Point
from h2xr.product import AmbientVec, _prod_inner
from h2xr.surfaces import finite_difference_surface, preset

from conftest import loop_cov_norm, loop_geodesic_deviation, reference_trace, turned_chart

# both deviations and ODE residuals on cylinder traces sit at the metric /
# roundoff floor at every step size; step-halving assertions compare against
# max(value / 3, floor) to stay meaningful there
FLOOR = 1e-6


def control_record(s, uv, h, t, step, k2=None, H=None, tol=1e-7):
    n = len(s)
    nan = np.full(n, np.nan)
    nan4 = np.full((n, 4), np.nan)
    return TraceRecord(np.asarray(s, float), np.asarray(uv, float),
                       np.asarray(h, float), np.asarray(t, float),
                       nan if k2 is None else np.asarray(k2, float),
                       nan if H is None else np.asarray(H, float),
                       nan, nan4, nan4, MAX_LENGTH, step, tol)


class TestTraceAsymptotic:
    def test_circle_trace_is_vertical(self, circle_trace):
        assert np.max(np.abs(circle_trace.uv[:, 0] - 1.0)) < 1e-8
        assert circle_trace.stop_reason == MAX_LENGTH
        assert len(circle_trace) == 5001

    def test_inflection_trace_never_hits_planar_set(self, inflection_cylinder):
        tr = trace_asymptotic(inflection_cylinder, 1.0, 0.0, 5.0, 1e-3)
        assert tr.stop_reason in (MAX_LENGTH, DOMAIN_EDGE)
        assert tr.stop_reason != PLANAR_HIT

    def test_slice_not_parabolic(self, slice_surface):
        with pytest.raises(NotParabolic):
            trace_asymptotic(slice_surface, 1.0, 3.0, 1.0, 1e-3)

    def test_near_umbilic_seed_refused(self, inflection_cylinder):
        # |k2| barely above the planar tolerance: direction ill-conditioned
        with pytest.raises(DegenerateDirection):
            trace_asymptotic(inflection_cylinder, 5e-7, 0.0, 1.0, 1e-3, tol=1e-7)

    @pytest.mark.parametrize("length, step", [(1.0, 1e-3), (5.0, 1e-4)])
    def test_point_evaluations_counted(self, circle_cylinder, monkeypatch, length, step):
        # The asymptotic direction of a cylinder is exactly vertical, so in
        # every step the second and third stages, and the fourth stage and
        # the next sample, are the same chart point: two new points per step
        # plus the seed.  The long trace evaluates 100,001 points; a memo of
        # all points, capped at 65,536 entries, evaluated 151,698.
        calls = []

        def counted(S, u, v, inner=flows._principal_at):
            calls.append((u, v))
            return inner(S, u, v)

        monkeypatch.setattr(flows, "_principal_at", counted)
        tr = trace_asymptotic(circle_cylinder, 1.0, 0.0, length, step, with_connection=False)
        steps = len(tr) - 1
        assert steps == round(length / step)
        assert len(calls) == 2 * steps + 1

    @pytest.mark.parametrize("scale", [1e300, 1.5e308], ids=["overflow", "nan"])
    def test_non_finite_shape_data_ends_the_leg(self, circle_cylinder, scale):
        """Above v = 0.25 the chart's Xuu is scaled up until the shape
        operator overflows (a float power raises) or turns NaN: the forward
        leg stops there with STEP_FAILURE and keeps only finite samples."""
        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            if v <= 0.25:
                return jet
            (a0, a1, a2), at = jet.Xuu
            return dataclasses.replace(jet, Xuu=AmbientVec((scale * a0, scale * a1,
                                                            scale * a2), at))

        S = dataclasses.replace(circle_cylinder, chart=chart)
        tr = trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3)
        assert tr.stop_reason == STEP_FAILURE
        assert np.isfinite(tr.k2).all() and tr.uv[:, 1].max() < 0.25
        with pytest.raises(NumericalError):
            trace_asymptotic(S, 1.0, 0.5, 1.0, 1e-3)

    def test_two_h_equals_k2_along_trace(self, circle_trace):
        assert np.max(np.abs(2.0 * circle_trace.H - circle_trace.k2)) < 1e-10

    def test_csv_round_trip(self, circle_trace):
        csv = circle_trace.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == len(circle_trace) + 1


def _outcome(trace, S, u, v, length, step, with_connection):
    try:
        return trace(S, u, v, length, step, with_connection=with_connection)
    except (GeometryError, ArithmeticError) as exc:
        return type(exc), str(exc)


TRACED = ("cylinder_circle", "cylinder_horocycle", "cylinder_spline", "cylinder_inflection",
          "cylinder_spline(fd)", "cylinder_inflection+bent", "cylinder_inflection+turned")


@pytest.fixture(scope="module")
def traced_surfaces(bent_cylinder):
    out = {name: preset(name) for name in TRACED[:4]}
    for S in (finite_difference_surface(preset("cylinder_spline")), bent_cylinder,
              turned_chart(preset("cylinder_inflection"))):
        out[S.label] = S
    return out


class TestReferenceTrace:
    """trace_asymptotic against the object-tuple loop it replaced (conftest),
    bit for bit, on charts whose RK4 stages coincide (cylinders) and on two
    whose stages are all distinct: the bent chart, and the turned chart,
    along whose traces e2's sign must be carried across a flip of d2."""

    def test_bent_chart_trace_is_a_ruling(self, bent_cylinder, monkeypatch):
        calls = []

        def counted(S, u, v, inner=flows._principal_at):
            calls.append((u, v))
            return inner(S, u, v)

        monkeypatch.setattr(flows, "_principal_at", counted)
        tr = trace_asymptotic(bent_cylinder, 1.0, 0.0, 1.0, 1e-3, with_connection=False)
        assert tr.stop_reason == MAX_LENGTH and len(tr) == 1001
        assert len(calls) > 2.9 * (len(tr) - 1)
        assert np.ptp(tr.uv[:, 0]) > 0.01  # the line bends in the chart
        assert _ruling_verticality(tr) < 1e-12  # but not in H2xR
        assert geodesic_deviation(tr).max_dev < 1e-10

    def test_e2_keeps_its_sign_where_d2_flips(self, traced_surfaces):
        """On the turned chart the chart direction d2 changes its sign
        convention once along the trace; e2 carries on without a jump."""
        S = traced_surfaces["cylinder_inflection+turned"]
        tr = trace_asymptotic(S, 0.4, 0.2, 1.0, 1e-3, with_connection=False)
        d2 = [flows._principal_at(S, *tr.uv[i])[5] for i in (0, -1)]
        assert d2[0][1] * d2[1][1] < 0.0
        assert (_prod_inner(_vec(tr.e2[1:]), _vec(tr.e2[:-1])) > 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(TRACED), fu=st.floats(0.0, 1.0), fv=st.floats(0.0, 1.0),
           length=st.sampled_from([0.05, 0.3]), step=st.sampled_from([1e-3, 7e-4]),
           with_connection=st.booleans())
    def test_matches_reference_bit_for_bit(self, traced_surfaces, name, fu, fv, length,
                                           step, with_connection):
        S = traced_surfaces[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        args = (S, u0 + fu * (u1 - u0), v0 + fv * (v1 - v0), length, step, with_connection)
        got, ref = _outcome(trace_asymptotic, *args), _outcome(reference_trace, *args)
        if isinstance(ref, tuple):
            assert got == ref
            return
        for field in dataclasses.fields(TraceRecord):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                    field.name
            else:
                assert a == b, field.name


class TestGeodesicDeviation:
    def test_circle_trace_is_geodesic(self, circle_trace):
        dev = geodesic_deviation(circle_trace)
        assert dev.max_dev < 1e-6

    def test_inflection_trace_is_geodesic(self, inflection_trace):
        assert geodesic_deviation(inflection_trace).max_dev < 1e-5

    def test_step_refinement(self, circle_cylinder, circle_trace):
        tr_half = trace_asymptotic(circle_cylinder, 1.0, 0.0, 5.0, 5e-4,
                                   with_connection=False)
        dev = geodesic_deviation(circle_trace).max_dev
        dev_half = geodesic_deviation(tr_half).max_dev
        assert dev_half <= max(dev / 3.0, FLOOR)

    def test_misseeded_horizontal_circle_control(self, circle_curve):
        """A horizontal circle is not a geodesic; the deviation oracle must
        measure exactly the closed-form gap to the tangent geodesic."""
        n = 1001  # arclength 0..1 at the curve's own step
        pts = circle_curve.points[:n]
        s = circle_curve.s[:n].copy()
        uv = np.stack([s, np.zeros(n)], axis=1)
        tr = control_record(s, uv, pts, np.zeros(n), circle_curve.step)
        dev = geodesic_deviation(tr)

        # independent oracle: hyperbolic circle of radius 1 through the
        # origin versus its tangent geodesic, both by arclength
        c1, s1 = math.cosh(1.0), math.sinh(1.0)

        def oracle(sv: float) -> float:
            th = sv / s1
            a0 = c1 * c1 - s1 * s1 * math.cos(th)
            a1 = s1 * math.sin(th)
            x = a0 * math.cosh(sv) - a1 * math.sinh(sv)
            return math.acosh(max(1.0, x))

        oracle_max = max(oracle(float(v)) for v in s)
        assert dev.max_dev == pytest.approx(oracle_max, abs=2e-3)
        assert 0.5 < dev.max_dev < 0.8

    def test_too_few_samples(self):
        p = H2Point.of((1.0, 0.0, 0.0))
        tr = control_record([0.0, 1.0], [[0, 0], [0, 1]],
                            [p.tup, p.tup], [0.0, 1.0], 1.0)
        with pytest.raises(InsufficientSamples):
            geodesic_deviation(tr)


class TestFrameOdeResiduals:
    def test_circle_trace_residuals_vanish(self, circle_trace):
        res = frame_ode_residuals(circle_trace)
        assert res.lambda_ode < 1e-6
        assert res.k2_ode < 1e-6
        assert res.de2 < 1e-6
        assert res.de3 < 1e-6

    def test_inflection_trace_residuals(self, inflection_trace):
        res = frame_ode_residuals(inflection_trace)
        assert max(res.lambda_ode, res.k2_ode, res.de2, res.de3) < 1e-4

    def test_step_refinement(self, circle_cylinder, circle_trace):
        tr_half = trace_asymptotic(circle_cylinder, 1.0, 0.0, 5.0, 5e-4)
        r1 = frame_ode_residuals(circle_trace)
        r2 = frame_ode_residuals(tr_half)
        for a, b in zip((r1.lambda_ode, r1.k2_ode, r1.de2, r1.de3),
                        (r2.lambda_ode, r2.k2_ode, r2.de2, r2.de3)):
            assert b <= max(a / 3.0, FLOOR)


def _slanted_record(circle_curve, rng):
    """Control record off every geodesic: a horizontal circle climbing at
    slope 0.7 plus noise, with noisy frame rows, so every branch of the
    vectorised diagnostics sees non-trivial values."""
    n = 801
    s = circle_curve.s[:n].copy()
    t = 0.7 * s + 1e-6 * rng.standard_normal(n)
    rec = control_record(s, np.stack([s, t], axis=1), circle_curve.points[:n], t,
                         circle_curve.step)
    frames = rng.standard_normal((2, n, 4))
    return TraceRecord(rec.s, rec.uv, rec.h, rec.t, np.ones(n), np.full(n, 0.5),
                       np.cumsum(rng.standard_normal(n)) * 1e-3, frames[0], frames[1],
                       MAX_LENGTH, rec.step, rec.tol)


class TestVectorisedDiagnostics:
    """geodesic_deviation and frame_ode_residuals on arrays against the
    per-sample loops they replaced (conftest)."""

    def _records(self, circle_trace, inflection_trace, circle_curve):
        return [circle_trace, inflection_trace,
                _slanted_record(circle_curve, np.random.default_rng(7))]

    def test_deviation_matches_loop(self, circle_trace, inflection_trace, circle_curve):
        for tr in self._records(circle_trace, inflection_trace, circle_curve):
            got, ref = geodesic_deviation(tr), loop_geodesic_deviation(tr)
            assert abs(got.max_dev - ref.max_dev) <= 1e-15
            assert got.at_s == ref.at_s

    def test_residuals_match_loop(self, circle_trace, inflection_trace, circle_curve):
        for tr in self._records(circle_trace, inflection_trace, circle_curve):
            res = frame_ode_residuals(tr)
            assert abs(res.de2 - loop_cov_norm(tr, tr.e2)) <= 1e-15
            assert abs(res.de3 - loop_cov_norm(tr, tr.e3)) <= 1e-15

    def test_nan_entries_are_treated_like_the_loop(self, circle_curve):
        tr = _slanted_record(circle_curve, np.random.default_rng(3))
        tr.e2[10:20] = np.nan             # skipped
        tr.e2[40:50, :3] = np.nan         # horizontal part dropped, height kept
        tr.e2[40:50, 3] = np.arange(10) * 1e3
        assert frame_ode_residuals(tr).de2 == loop_cov_norm(tr, tr.e2)

    def test_zero_deviation_reports_the_first_sample(self):
        # a vertical product geodesic sampled exactly: every distance is 0.0
        p = H2Point.of((1.0, 0.0, 0.0))
        s = np.arange(9) * 0.25
        tr = control_record(s, np.zeros((9, 2)), [p.tup] * 9, s, 0.25)
        dev, ref = geodesic_deviation(tr), loop_geodesic_deviation(tr)
        assert (dev.max_dev, dev.at_s) == (ref.max_dev, ref.at_s) == (0.0, 0.0)


class TestFitInverseH:
    def test_circle_constant_mean_curvature(self, circle_trace):
        fit = fit_inverse_H(circle_trace)
        assert abs(fit.a) < 1e-8
        assert fit.b == pytest.approx(2.0 * math.tanh(1.0), abs=1e-6)
        assert fit.rms_residual < 1e-8

    def test_inflection_vertical_ruling(self, inflection_trace):
        fit = fit_inverse_H(inflection_trace)
        assert abs(fit.a) < 1e-6
        assert fit.b == pytest.approx(2.0, abs=1e-6)  # k2 = k_g(1) = 1

    def test_reversal_covariance(self, circle_trace):
        tr = circle_trace
        rev = TraceRecord(-tr.s[::-1], tr.uv[::-1].copy(), tr.h[::-1].copy(),
                          tr.t[::-1].copy(), tr.k2[::-1].copy(),
                          tr.H[::-1].copy(), tr.lam[::-1].copy(),
                          tr.e2[::-1].copy(), tr.e3[::-1].copy(),
                          tr.stop_reason, tr.step, tr.tol)
        f1 = fit_inverse_H(tr)
        f2 = fit_inverse_H(rev)
        assert f2.a == pytest.approx(-f1.a, abs=1e-12)
        assert f2.b == pytest.approx(f1.b, abs=1e-12)
        assert f2.rms_residual == pytest.approx(f1.rms_residual, abs=1e-12)

    def test_planar_sample_rejected(self):
        p = H2Point.of((1.0, 0.0, 0.0))
        n = 5
        s = np.arange(n, dtype=float)
        tr = control_record(s, np.zeros((n, 2)), [p.tup] * n, s, 1.0,
                            k2=[1.0, 1.0, 0.0, 1.0, 1.0],
                            H=[0.5, 0.5, 0.0, 0.5, 0.5])
        with pytest.raises(PlanarSample):
            fit_inverse_H(tr)


class TestTraceRecordValidation:
    def test_nonuniform_spacing_rejected(self):
        p = H2Point.of((1.0, 0.0, 0.0))
        with pytest.raises(NumericalError):
            control_record([0.0, 1.0, 3.0], np.zeros((3, 2)),
                           [p.tup] * 3, [0.0, 1.0, 3.0], 1.0)

    def test_mean_curvature_consistency_enforced(self):
        p = H2Point.of((1.0, 0.0, 0.0))
        with pytest.raises(NumericalError):
            control_record([0.0, 1.0, 2.0], np.zeros((3, 2)), [p.tup] * 3,
                           [0.0, 1.0, 2.0], 1.0,
                           k2=[1.0, 1.0, 1.0], H=[0.5, 0.7, 0.5])
