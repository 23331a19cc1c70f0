"""Asymptotic traces: geodesy, the affine 1/H law, frame ODE residuals."""

import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr import flows
from h2xr.classifier import _ruling_verticality, recover_generating_curve
from h2xr.errors import (DegenerateDirection, GeometryError, InsufficientSamples,
                         NotParabolic, NumericalError, OutOfDomain, PlanarSample)
from h2xr.flows import (DOMAIN_EDGE, MAX_LENGTH, PLANAR_HIT, STEP_FAILURE,
                        TRACE_CSV_HEADER, TraceRecord, _vec, fit_inverse_H,
                        frame_ode_residuals, geodesic_deviation, trace_asymptotic)
from h2xr.hyperbolic import ORIGIN_T, H2Curve
from h2xr.product import AmbientVec, _prod_inner
from h2xr.surfaces import (CYLINDER_PRESETS, Surface, SurfaceJet, finite_difference_surface,
                           from_config, preset)

from conftest import (kinked, lifted, loop_cov_norm, loop_geodesic_deviation,
                      reference_principal_at, reference_trace, reference_trace_csv,
                      scalar_leg_trace, turned_chart)

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

    @pytest.mark.parametrize("length, step, blocks", [
        (1.0, 1e-3, [998]),
        (5.0, 1e-4, [1872] * 26 + [1326]),
    ])
    def test_point_evaluations_counted(self, circle_cylinder, monkeypatch, length, step,
                                       blocks):
        # The asymptotic direction of a cylinder is exactly vertical, so in
        # every step the second and third stages, and the fourth stage and
        # the next sample, are the same chart point: two new points per
        # step.  The seed and the first step of each leg are scalar (5
        # points); that step settles the leg, whose other steps go to
        # Surface.jets in blocks of at most block_size(S, 3) = 936 steps,
        # two points each.  The long trace evaluates 100,001 points, as
        # when every step was scalar; a memo of all points, capped at
        # 65,536 entries, evaluated 151,698.  Only the scalar points compute
        # shape data.
        calls, forms = (_counting(monkeypatch, name) for name in (
            "_principal_at", "forms_from_jet"))
        sizes = _block_sizes(monkeypatch)
        tr = trace_asymptotic(circle_cylinder, 1.0, 0.0, length, step, with_connection=False)
        steps = len(tr) - 1
        assert steps == round(length / step)
        assert len(calls) == len(forms) == 5 and sizes == 2 * blocks
        assert len(calls) + sum(sizes) == 2 * steps + 1

    def test_frames_evaluated_once_per_run_of_equal_arclengths(self, circle_cylinder,
                                                                monkeypatch):
        """A cylinder's array evaluator hands each run of equal arclengths
        to ``frames_at`` once: a straight leg block lies on the seed's
        ruling (one arclength), a connection block on the two rulings
        beside it (two).  Recovery blocks have no repeats, so every
        arclength goes through."""
        sizes, handed = _block_sizes(monkeypatch), _frames_handed(monkeypatch)
        trace_asymptotic(circle_cylinder, 1.0, 0.0, 1.0, 1e-3)
        assert sizes == [998, 998, 2002]
        assert [s.tolist() for s in handed[:2]] == [[1.0], [1.0]]
        assert len(handed) == 3 and len(handed[2]) == 2
        assert (handed[2] < 1.0).tolist() == [False, True]  # the u + h side first
        sizes.clear()
        handed.clear()
        recover_generating_curve(circle_cylinder, 0.5, 201)
        assert [len(s) for s in handed] == sizes and len(sizes) > 1
        assert all((np.diff(s) != 0.0).all() for s in handed)

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
            return jet._replace(Xuu=AmbientVec((scale * a0, scale * a1, scale * a2), at))

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

    def test_csv_matches_the_loop_writer(self, circle_trace, inflection_cylinder):
        """The same text as repr(float(x)) field by field, also for NaN, signed
        zeros, subnormals, infinities and the extremes of the float range, and
        for columns of one value (lam without connection, u and h on a ruling)."""
        bare = trace_asymptotic(inflection_cylinder, 1.0, 0.0, 0.3, 1e-3, with_connection=False)
        assert np.isnan(bare.lam).all()
        n = len(circle_trace)
        specials = np.resize([-0.0, 5e-324, -1e-300, 1.7976931348623157e308, -math.inf,
                              math.nan, 0.1, -3.0], n)
        # columns written once only where all their bit patterns agree: not a
        # single -0.0 among zeros, nor NaNs of differing payloads
        one_negative_zero = np.where(np.arange(n) == n // 3, -0.0, 0.0)
        nans = np.resize(np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                                   0x7FF0000000000001], dtype=np.uint64).view(np.float64), n)
        for tr in (circle_trace, bare, dataclasses.replace(circle_trace, lam=specials),
                   dataclasses.replace(circle_trace, lam=one_negative_zero,
                                       t=np.full(n, -0.0)),
                   dataclasses.replace(circle_trace, lam=nans)):
            # lines, whose first difference pytest reports without diffing the texts
            assert tr.to_csv().split("\n") == reference_trace_csv(tr).split("\n")

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, 7), min_size=9, max_size=9),
           n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_csv_of_repeated_columns(self, picks, n, seed):
        """Every row as a naive join of the reprs, where columns repeat
        another's bits (a column's strings are reused), are a signed zero
        beside the other, constant, or NaN."""
        vals = np.random.default_rng(seed).normal(size=n)
        pool = [vals, vals.copy(), np.where(vals > 0.0, 0.0, -0.0), np.where(vals > 0.0, -0.0, 0.0),
                np.full(n, 0.0), np.full(n, -0.0), np.full(n, math.nan),
                np.where(vals > 0.0, math.nan, vals)]
        uv0, uv1, h0, h1, h2, t, k2, H, lam = (pool[k] for k in picks)
        tr = control_record(np.arange(n) * 1e-3, np.column_stack([uv0, uv1]),
                            np.column_stack([h0, h1, h2]), t, 1e-3, tol=math.inf)
        tr = dataclasses.replace(tr, k2=k2, H=H, lam=lam)
        rows = np.column_stack([tr.s, tr.uv, tr.h, tr.t, tr.k2, tr.H, tr.lam]).tolist()
        assert tr.to_csv().split("\n") == [TRACE_CSV_HEADER,
                                           *(",".join(map(repr, row)) for row in rows), ""]

    def test_seed_that_cannot_step_either_way_raises(self, bent_cylinder):
        """At the corner (u1, v1) of the bent chart both legs leave the domain
        at their first stage: a domain error that names the seed and the
        stop, not a record of the seed alone."""
        u1, v1 = bent_cylinder.domain.u_range[1], bent_cylinder.domain.v_range[1]
        with pytest.raises(OutOfDomain, match=rf"seed \({u1}, {v1}\) .* \(DOMAIN_EDGE\)"):
            trace_asymptotic(bent_cylinder, u1, v1, 1.0, 1e-3)

    def test_seed_whose_neighbours_all_fail_raises(self, circle_cylinder):
        """Every point but the seed has a NaN shape operator: both legs stop
        with STEP_FAILURE at their first step, a numerical error."""
        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            if (u, v) == (1.0, 0.0):
                return jet
            (a0, a1, a2), at = jet.Xuu
            return jet._replace(Xuu=AmbientVec((1.5e308 * a0, 1.5e308 * a1, 1.5e308 * a2), at))

        S = dataclasses.replace(circle_cylinder, chart=chart)
        with pytest.raises(NumericalError, match=r"seed \(1.0, 0.0\) .* \(STEP_FAILURE\)"):
            trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3)


def _block_sizes(monkeypatch):
    """Points of every Surface.jets call from here on, into a list."""
    sizes = []

    def counted(S, us, vs, inner=Surface.jets):
        sizes.append(len(us))
        return inner(S, us, vs)

    monkeypatch.setattr(Surface, "jets", counted)
    return sizes


def _frames_handed(monkeypatch):
    """The arclengths of every H2Curve.frames_at call from here on, into a list."""
    handed = []

    def counted(curve, s, inner=H2Curve.frames_at):
        handed.append(np.array(s, dtype=float))
        return inner(curve, s)

    monkeypatch.setattr(H2Curve, "frames_at", counted)
    return handed


def _counting(monkeypatch, name):
    """Calls of flows.<name> from here on, into a list of their arguments."""
    calls = []

    def counted(*args, inner=getattr(flows, name)):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(flows, name, counted)
    return calls


class TestPrincipalAt:
    """_principal_at runs the whole chain at every point: Surface.jet, forms,
    principal curvatures."""

    def test_orientation_twin_gets_the_opposite_shape(self, circle_cylinder):
        """The same jet on a surface of the other orientation has the
        opposite normal, nu and k2."""
        flipped = dataclasses.replace(circle_cylinder, orientation=-circle_cylinder.orientation)
        jet, forms, _, k2, _, _ = flows._principal_at(circle_cylinder, 1.0, 0.5)
        jet_f, forms_f, _, k2_f, _, _ = flows._principal_at(flipped, 1.0, 0.5)
        assert jet_f == jet and forms_f.nu == -forms.nu and k2_f == -k2 != 0.0
        assert forms_f.normal.htup == tuple(-x for x in forms.normal.htup)
        assert forms_f.normal.t == -forms.normal.t

    @pytest.mark.parametrize("scale", [1e300, 1.5e308], ids=["overflow", "nan"])
    def test_a_point_whose_shape_fails_raises_naming_it(self, circle_cylinder, scale):
        def chart(u, v, base=circle_cylinder.chart):  # the charts of the leg test above
            jet = base(u, v)
            if v <= 0.25:
                return jet
            (a0, a1, a2), at = jet.Xuu
            return jet._replace(Xuu=AmbientVec((scale * a0, scale * a1, scale * a2), at))

        S = dataclasses.replace(circle_cylinder, chart=chart)
        with pytest.raises(NumericalError, match=r"at \(1.0, 0.5\)"):
            flows._principal_at(S, 1.0, 0.5)

    @pytest.mark.parametrize("spoil", [
        lambda jet: jet._replace(X=AmbientVec(jet.X.htup, math.nan)),
        lambda jet: jet._replace(X=AmbientVec(jet.X.htup, math.inf)),
        lambda jet: jet._replace(X=AmbientVec(jet.X.htup, -math.inf)),
        lambda jet: jet._replace(Xu=AmbientVec(jet.Xu.htup, 1e200)),
        lambda jet: jet._replace(Xu=AmbientVec(tuple(a + p for a, p in zip(jet.Xu.htup,
                                                                           jet.X.htup)),
                                               jet.Xu.t)),
    ], ids=["nan-height", "inf-height", "minus-inf-height", "overflow", "not-tangent"])
    def test_a_jet_that_fails_its_check_raises_as_surface_jet(self, circle_cylinder, spoil):
        """Above v = 0.25 the chart's jet is spoiled: in its height alone, in
        a height derivative whose square overflows, or in a first derivative
        off the tangent plane.  _principal_at raises there what Surface.jet
        raises."""
        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            return jet if v <= 0.25 else spoil(jet)

        S = dataclasses.replace(circle_cylinder, chart=chart)
        with pytest.raises(NumericalError) as want:
            S.jet(1.0, 0.5)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            flows._principal_at(S, 1.0, 0.5)

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_an_earlier_jets_objects_with_a_non_finite_height_raise_as_surface_jet(
            self, circle_cylinder, monkeypatch, height):
        """Above v = 0.25 the chart returns the very objects of the jet at
        v = 0 with a height that is not finite: _principal_at raises what
        Surface.jet raises, every time.  With a finite height the same
        objects get the whole chain again, and the reference's numbers."""
        good = []

        def chart(u, v, base=circle_cylinder.chart):
            if v <= 0.25:
                return base(u, v)
            jet = good[0][0]
            return SurfaceJet(AmbientVec(jet.X.htup, height), *jet[1:])

        S = dataclasses.replace(circle_cylinder, chart=chart)
        good.append(flows._principal_at(S, 1.0, 0.0))
        with pytest.raises(NumericalError) as want:
            S.jet(1.0, 0.5)
        for _ in range(2):
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                flows._principal_at(S, 1.0, 0.5)
        forms = _counting(monkeypatch, "forms_from_jet")
        height = 0.75  # the chart reads it from here
        got = flows._principal_at(S, 1.0, 0.5)
        assert got[0].X.t == 0.75 and got[0].Xu is good[0][0].Xu and len(forms) == 1
        monkeypatch.undo()
        assert repr(got) == repr(reference_principal_at(S, 1.0, 0.5))

    @pytest.mark.parametrize("field, new", [
        ("X", lambda jet, S: AmbientVec(S.jet(1.0 + 1e-9, 0.0).X.htup, jet.X.t)),
        ("Xu", lambda jet, S: AmbientVec(jet.Xu.htup, 1e-3)),
        ("Xv", lambda jet, S: AmbientVec(jet.Xv.htup, 2.0)),
        ("Xuu", lambda jet, S: AmbientVec(jet.Xuu.htup, 0.5)),
        ("Xuv", lambda jet, S: AmbientVec(jet.Xuv.htup, 0.5)),
        ("Xvv", lambda jet, S: AmbientVec(jet.Xvv.htup, 0.5)),
    ])
    def test_a_jet_new_in_one_object_gets_its_own_shape(self, circle_cylinder, monkeypatch,
                                                        field, new):
        """Above v = 0.25 the chart's jet differs from the one below in one
        object, replaced by another valid vector: that point gets the shape
        data of its own jet."""
        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            return jet if v <= 0.25 else jet._replace(**{field: new(jet, circle_cylinder)})

        S = dataclasses.replace(circle_cylinder, chart=chart)
        first = flows._principal_at(S, 1.0, 0.0)
        forms = _counting(monkeypatch, "forms_from_jet")
        got = flows._principal_at(S, 1.0, 0.5)
        assert len(forms) == 1 and getattr(got[0], field) != getattr(first[0], field)
        monkeypatch.undo()
        assert repr(got) == repr(reference_principal_at(S, 1.0, 0.5))

    def test_negative_zero_is_another_jet(self, circle_cylinder, monkeypatch):
        """A chart whose Xuv has -0.0 where the circle's has 0.0 gets the
        reference's shape data at each point, bit for bit."""
        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            (a0, a1, a2), at = jet.Xuv
            return jet._replace(Xuv=AmbientVec((a0, -a1, a2), at))

        negated = dataclasses.replace(circle_cylinder, chart=chart)
        assert repr(circle_cylinder.jet(1.0, 0.0).Xuv.htup[1]) == "0.0"
        assert repr(negated.jet(1.0, 0.0).Xuv.htup[1]) == "-0.0"
        forms = _counting(monkeypatch, "forms_from_jet")
        points = [(circle_cylinder, 0.0), (circle_cylinder, 0.5), (negated, 0.5),
                  (negated, 0.0), (circle_cylinder, 0.0)]
        got = [repr(flows._principal_at(S, 1.0, v)) for S, v in points]
        assert len(forms) == len(points)
        monkeypatch.undo()
        assert got == [repr(reference_principal_at(S, 1.0, v)) for S, v in points]

    def test_reversed_twin_sharing_the_chart_gets_its_own_shape(self, circle_cylinder,
                                                                 monkeypatch):
        """A twin of the other orientation calls the same chart: at points
        taken in turn, each surface gets its own shape data, never the
        other's."""
        flipped = dataclasses.replace(circle_cylinder,
                                      orientation=-circle_cylinder.orientation)
        assert flipped.chart is circle_cylinder.chart
        forms = _counting(monkeypatch, "forms_from_jet")
        got = []
        for k, v in enumerate((0.0, 0.5, 0.6, 0.7, 0.8)):
            S = flipped if k % 2 else circle_cylinder
            got.append(flows._principal_at(S, 1.0, v))
            assert len(forms) == k + 1
        for a, b in zip(got, got[1:]):
            assert b[1].nu == -a[1].nu and b[3] == -a[3] != 0.0
        monkeypatch.undo()
        for k, (v, out) in enumerate(zip((0.0, 0.5, 0.6, 0.7, 0.8), got)):
            S = flipped if k % 2 else circle_cylinder
            assert repr(out) == repr(reference_principal_at(S, 1.0, v))

    def test_threads_never_mix_up_their_points(self):
        """Six threads walking rulings of four cylinders, with a short switch
        interval, each get the shape data of their own points; two of the
        cylinders have a second thread at another u, which shares the
        first's chart.  What threads on one chart still share is its
        generating curve's ``_frame_cache`` of ``frame_at`` results, one
        dict entry per arclength, each set and read in one statement."""
        walks = [(preset(name), u) for name, u in (("cylinder_circle", 1.0),
                                                   ("cylinder_spline", 2.0),
                                                   ("cylinder_inflection", 1.0),
                                                   ("cylinder_horocycle", 0.5),
                                                   ("cylinder_spline", 0.7),
                                                   ("cylinder_circle", 2.5))]
        assert walks[1][0] is walks[4][0] and walks[0][0] is walks[5][0]
        vs = np.linspace(-1.0, 1.0, 300).tolist()
        want = [[repr(reference_principal_at(S, u, v)) for v in vs] for S, u in walks]
        got = [[] for _ in walks]
        start = threading.Barrier(len(walks))

        def walk(k):
            S, u = walks[k]
            start.wait(timeout=60.0)  # no thread finishes before the last starts
            got[k] += [repr(flows._principal_at(S, u, v)) for v in vs]

        threads = [threading.Thread(target=walk, args=(k,)) for k in range(len(walks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


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
        sizes = _block_sizes(monkeypatch)
        tr = trace_asymptotic(bent_cylinder, 1.0, 0.0, 1.0, 1e-3, with_connection=False)
        assert tr.stop_reason == MAX_LENGTH and len(tr) == 1001
        # no block: the chart has no array evaluator, and no step is straight
        assert len(calls) > 2.9 * (len(tr) - 1) and sizes == []
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
        _assert_same(_outcome(trace_asymptotic, *args), _outcome(reference_trace, *args))


def _assert_same(got, ref):
    """Two outcomes of a trace: the same exception, or records equal bit for
    bit in every field."""
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


KINKS = (2.0, 1e300, 1.5e308)  # another ruling above v = 0.25; an overflow; a NaN
BLOCKED = (*(name for name in CYLINDER_PRESETS if name != "cylinder_geodesic"),
           *(f"cylinder_circle+kinked(0.25,{scale})" for scale in KINKS),
           "cylinder_spline(fd)")


@pytest.fixture(scope="module")
def blocked_surfaces():
    out = {name: preset(name) for name in BLOCKED[:4]}
    for S in (*(kinked(preset("cylinder_circle"), 0.25, scale) for scale in KINKS),
              finite_difference_surface(preset("cylinder_spline"))):
        out[S.label] = S
    assert tuple(out) == BLOCKED
    return out


class TestStraightBlocks:
    """Straight leg steps predicted in Surface.jets blocks against the
    scalar leg they replace (conftest.reference_leg), bit for bit: on every
    curved cylinder preset, on a finite-difference cylinder (whose jets
    repeat on some stretches of a ruling only) and on a circle cylinder
    whose jet changes above v = 0.25, so that a block certifies only a
    prefix and the scalar loop takes over."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(BLOCKED), fu=st.floats(0.0, 1.0),
           fv=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.03), st.floats(0.97, 1.0)),
           length=st.sampled_from([0.3, 1.0, 2.0]), step=st.sampled_from([1e-3, 7e-4]),
           with_connection=st.booleans())
    def test_matches_scalar_leg_bit_for_bit(self, blocked_surfaces, name, fu, fv, length,
                                            step, with_connection):
        """Seeds within 3% of the v range of its edges put the domain edge
        inside a block."""
        S = blocked_surfaces[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        args = (S, u0 + fu * (u1 - u0), v0 + fv * (v1 - v0), length, step, with_connection)
        _assert_same(_outcome(trace_asymptotic, *args), _outcome(scalar_leg_trace, *args))

    def test_domain_edge_inside_a_block(self, circle_cylinder, monkeypatch):
        """From v = 2.8 the forward leg's block of 499 steps certifies the
        199 inside the domain (v <= 3 + DOMAIN_SLACK); the scalar step after
        them leaves the domain at its second stage.  Scalar points: the
        seed, each leg's first step (two) and that stage."""
        calls = _counting(monkeypatch, "_principal_at")
        sizes = _block_sizes(monkeypatch)
        tr = trace_asymptotic(circle_cylinder, 1.0, 2.8, 1.0, 1e-3, with_connection=False)
        assert tr.stop_reason == DOMAIN_EDGE and tr.uv[-1, 1] == 2.999999999999978
        assert (len(tr), len(calls), sizes) == (701, 6, [998, 998])
        monkeypatch.undo()
        _assert_same(tr, scalar_leg_trace(circle_cylinder, 1.0, 2.8, 1.0, 1e-3,
                                          with_connection=False))

    @pytest.mark.parametrize("v0", [1.7e308, 1.79e308])
    def test_sums_past_the_largest_float_end_at_the_domain_edge(self, v0):
        """On a cylinder reaching to the largest float the block's running
        sums overflow to inf, as the scalar sums do, without a warning; the
        leg stops at the domain edge with the scalar leg's samples."""
        S = from_config({"kind": "cylinder", "curve": {"kind": "constant", "value": 1.0},
                         "domain": {"u": [0.0, 3.0], "v": [-1e308, sys.float_info.max]}})
        args = (S, 1.0, v0, 2e307, 1e303)
        tr = trace_asymptotic(*args, with_connection=False)
        assert tr.stop_reason == DOMAIN_EDGE and sys.float_info.max - tr.uv[-1, 1] < 1e303
        _assert_same(tr, scalar_leg_trace(*args, with_connection=False))

    def test_a_sample_that_does_not_move_is_left_to_the_scalar_chain(self, monkeypatch):
        """At v = 1e20 a step of 1e-3 moves no coordinate: every stage and
        sample of the scalar chain is the seed's point, reusing its result.
        A block certifies no step whose sample stays where it was (its
        height would come from a point the scalar chain never evaluates), so
        each leg makes one block, certifies nothing and walks on scalar."""
        S = from_config({"kind": "cylinder", "curve": {"kind": "constant", "value": 1.0},
                         "domain": {"u": [0.0, 3.0], "v": [-1e21, 1e21]}})
        calls = _counting(monkeypatch, "_principal_at")
        sizes = _block_sizes(monkeypatch)
        blocks = []

        def kept(*args, inner=flows._straight_block):
            out = inner(*args)
            blocks.append(len(out[0]))
            return out

        monkeypatch.setattr(flows, "_straight_block", kept)
        tr = trace_asymptotic(S, 1.0, 1e20, 1.0, 1e-3, with_connection=False)
        assert (tr.uv == (1.0, 1e20)).all() and len(tr) == 1001
        assert (len(calls), sizes, blocks) == (1, [998, 998], [0, 0])
        monkeypatch.undo()
        _assert_same(tr, scalar_leg_trace(S, 1.0, 1e20, 1.0, 1e-3, with_connection=False))

    def test_a_malformed_block_leaves_the_leg_scalar(self, circle_cylinder, monkeypatch):
        """An array evaluator whose block does not fit its points (a bad
        mask one short) makes Surface.jets raise ValueError: each leg's
        block certifies nothing and the leg walks on scalar, two points a
        step."""
        def chart(u, v, base=circle_cylinder.chart):
            return base(u, v)

        def jets(us, vs, base=circle_cylinder.chart.jets):
            blk = base(us, vs)
            return blk._replace(bad=blk.bad[:-1])

        chart.jets = jets
        S = dataclasses.replace(circle_cylinder, chart=chart)
        with pytest.raises(ValueError):
            S.jets([1.0] * 3, [0.0, 0.5, 1.0])
        calls = _counting(monkeypatch, "_principal_at")
        tr = trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False)
        assert len(tr) == 1001 and len(calls) == 2001
        monkeypatch.undo()
        _assert_same(tr, scalar_leg_trace(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False))

    def test_a_signed_zero_costs_one_block(self, circle_cylinder, monkeypatch):
        """At each leg's first sample, |v| = 1e-3, the chart's Xuv has -0.0
        where it has 0.0 elsewhere.  That step's jets equal the seed's by
        value, so the leg makes a block; the block certifies by bits against
        that sample's jet, so it certifies no step, and the leg walks on
        scalar, two points a step."""
        def flipped(v):
            return (0.0009 < abs(v)) & (abs(v) < 0.0011)

        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            (a0, a1, a2), at = jet.Xuv
            return jet._replace(Xuv=AmbientVec((a0, -a1 if flipped(v) else a1, a2), at))

        def jets(us, vs, base=circle_cylinder.chart.jets):
            blk = base(us, vs)
            (a0, a1, a2), at = blk.Xuv
            return blk._replace(Xuv=AmbientVec((a0, np.where(flipped(vs), -a1, a1), a2), at))

        chart.jets = jets
        S = dataclasses.replace(circle_cylinder, chart=chart)
        assert repr(S.jet(1.0, -1e-3).Xuv.htup[1]) == "-0.0"
        assert repr(S.jets([1.0], [1e-3]).Xuv.htup[1].item()) == "-0.0"
        calls = _counting(monkeypatch, "_principal_at")
        sizes = _block_sizes(monkeypatch)
        tr = trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False)
        assert len(tr) == 1001 and (len(calls), sizes) == (2001, [998, 998])
        monkeypatch.undo()
        _assert_same(tr, scalar_leg_trace(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False))

    def test_block_certifies_a_prefix_and_the_scalar_loop_resumes(self, blocked_surfaces,
                                                                   monkeypatch):
        """Above v = 0.25 the kinked chart's jet differs: the leg that
        crosses it certifies its block up to there and walks the rest
        scalar, two points a step, making no further block though its jets
        repeat again; both legs settle at their first step."""
        S = blocked_surfaces["cylinder_circle+kinked(0.25,2.0)"]
        calls = _counting(monkeypatch, "_principal_at")
        forms = _counting(monkeypatch, "forms_from_jet")
        sizes = _block_sizes(monkeypatch)
        tr = trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False)
        assert tr.stop_reason == MAX_LENGTH and len(tr) == 1001
        assert (len(calls), len(forms), sizes) == (507, 507, [998, 998])
        above = tr.uv[:, 1] > 0.25
        assert above.sum() == 251 and (tr.k2[above] == 2.0 * tr.k2[0]).all()
        monkeypatch.undo()
        _assert_same(tr, scalar_leg_trace(S, 1.0, 0.0, 1.0, 1e-3, with_connection=False))


class TestVerticalTranslation:
    @pytest.mark.parametrize("name, u, v", [("cylinder_circle", 1.0, 0.0),
                                            ("cylinder_spline", 2.0, -1.0),
                                            ("cylinder_inflection+bent", 1.0, 0.0),
                                            ("cylinder_inflection+turned", 0.4, 0.2)])
    @pytest.mark.parametrize("c", [-2.5, 1e-3, 7e5])
    def test_lifted_chart_traces_the_lifted_line(self, traced_surfaces, name, u, v, c):
        """A trace on the chart lifted by c is the trace on the chart, bit
        for bit in every field, but for its heights, each lifted by c."""
        S = traced_surfaces[name]
        tr, up = (trace_asymptotic(X, u, v, 1.0, 1e-3) for X in (S, lifted(S, c)))
        assert up.t.tobytes() == (tr.t + c).tobytes()
        assert up.stop_reason == tr.stop_reason
        for field in dataclasses.fields(TraceRecord):
            a, b = getattr(up, field.name), getattr(tr, field.name)
            if field.name != "t":
                assert a.tobytes() == b.tobytes() if isinstance(b, np.ndarray) else a == b, \
                    field.name


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
        tr = control_record([0.0, 1.0], [[0, 0], [0, 1]],
                            [ORIGIN_T, ORIGIN_T], [0.0, 1.0], 1.0)
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

    def test_no_sample_to_measure_gives_nan(self, circle_curve):
        """All four residuals follow one rule: a residual with no sample
        that is not NaN is NaN (de2 and de3 once gave 0.0)."""
        tr = _slanted_record(circle_curve, np.random.default_rng(3))
        tr.lam[:] = np.nan
        tr.e2[:] = np.nan
        res = frame_ode_residuals(tr)
        assert [math.isnan(x) for x in (res.lambda_ode, res.k2_ode, res.de2, res.de3)] \
            == [True, True, True, False]
        assert math.isnan(loop_cov_norm(tr, tr.e2))
        assert res.de3 == loop_cov_norm(tr, tr.e3)

    def test_zero_deviation_reports_the_first_sample(self):
        # a vertical product geodesic sampled exactly: every distance is 0.0
        s = np.arange(9) * 0.25
        tr = control_record(s, np.zeros((9, 2)), [ORIGIN_T] * 9, s, 0.25)
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
        n = 5
        s = np.arange(n, dtype=float)
        tr = control_record(s, np.zeros((n, 2)), [ORIGIN_T] * n, s, 1.0,
                            k2=[1.0, 1.0, 0.0, 1.0, 1.0],
                            H=[0.5, 0.5, 0.0, 0.5, 0.5])
        with pytest.raises(PlanarSample):
            fit_inverse_H(tr)


class TestTraceRecordValidation:
    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(NumericalError):
            control_record([0.0, 1.0, 3.0], np.zeros((3, 2)),
                           [ORIGIN_T] * 3, [0.0, 1.0, 3.0], 1.0)

    def test_mean_curvature_consistency_enforced(self):
        with pytest.raises(NumericalError):
            control_record([0.0, 1.0, 2.0], np.zeros((3, 2)), [ORIGIN_T] * 3,
                           [0.0, 1.0, 2.0], 1.0,
                           k2=[1.0, 1.0, 1.0], H=[0.5, 0.7, 0.5])
