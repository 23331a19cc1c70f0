"""Chart presets: jets, consistency between derivative modes, perturbation,
and the JSON config constructor."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.curvature import (curvature_grid, fundamental_forms, grid_points,
                            shape_at)
from h2xr.errors import (ConfigError, GeometryError, NonUnitCurve, NotImmersed,
                         NumericalError, OutOfDomain)
from h2xr.hyperbolic import (H2Curve, constant_curvature, curve_from_curvature,
                             linear_curvature, spline_curvature)
from h2xr.minkowski import _mdot
from h2xr.product import AmbientVec
from h2xr.surfaces import (COTH1, CORPUS_CONFIGS, CYLINDER_PRESETS, ChartDomain,
                           Surface, SurfaceJet, bilinear_height, check_jet,
                           finite_difference_surface, from_config, gaussian_bump,
                           linear_height, make_cylinder, make_graph, make_slice, perturb,
                           preset, rescale_chart, zero_height)

# A valid jet at the origin of the hyperboloid, height 0: horizontal u-line,
# vertical v-line.  The check tests below spoil one entry at a time.
GOOD_JET = {
    "X": AmbientVec((1.0, 0.0, 0.0), 0.0),
    "Xu": AmbientVec((0.0, 1.0, 0.0), 0.0),
    "Xv": AmbientVec((0.0, 0.0, 0.0), 1.0),
    "Xuu": AmbientVec((1.0, 0.0, 0.0), 0.0),
    "Xuv": AmbientVec((0.0, 0.0, 0.0), 0.0),
    "Xvv": AmbientVec((0.0, 0.0, 0.0), 0.0),
}
JET_FIELDS = tuple(GOOD_JET)


def spoiled(**entries):
    return {**GOOD_JET, **entries}


# (field, entry, error): GOOD_JET with one entry spoiled, each case caught by
# one check of check_jet
SPOILED_JETS = [
    *((f, AmbientVec((0.0, math.nan, 0.0), 0.0), "NumericalError") for f in JET_FIELDS),
    ("X", AmbientVec((2.0, 0.0, 0.0), 0.0), "NumericalError"),
    ("Xvv", AmbientVec((0.0, 0.0, 0.0), math.inf), "NumericalError"),
    ("Xu", AmbientVec((0.5, 1.0, 0.0), 0.0), "NumericalError"),
    ("Xv", GOOD_JET["Xu"], "NotImmersed"),
    ("X", AmbientVec((-1.0, 0.0, 0.0), 0.0), "NumericalError"),
]


def probe_points(surface, n=4, inset=0.05):
    (u0, u1) = surface.domain.u_range
    (v0, v1) = surface.domain.v_range
    us = np.linspace(u0 + inset * (u1 - u0), u1 - inset * (u1 - u0), n)
    vs = np.linspace(v0 + inset * (v1 - v0), v1 - inset * (v1 - v0), n)
    return [(float(u), float(v)) for u in us for v in vs]


class TestChartDomain:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ChartDomain((1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            ChartDomain((0.0, math.inf), (0.0, 1.0))

    def test_contains(self):
        d = ChartDomain((0.0, 1.0), (-1.0, 1.0))
        assert d.contains(0.5, 0.0)
        assert not d.contains(1.5, 0.0)


class TestCylinder:
    def test_vertical_derivatives_vanish_exactly(self, circle_cylinder):
        for (u, v) in probe_points(circle_cylinder):
            jet = circle_cylinder.jet(u, v)
            assert jet.Xuv.htup == (0.0, 0.0, 0.0) and jet.Xuv.t == 0.0
            assert jet.Xvv.htup == (0.0, 0.0, 0.0) and jet.Xvv.t == 0.0
            assert _mdot(jet.Xv.htup, jet.Xv.htup) + jet.Xv.t ** 2 == 1.0

    def test_non_unit_curve_rejected(self):
        c = curve_from_curvature(lambda s: 0.0, (0.0, 1.0), 1e-2)
        c.tangents[:] *= 1.1  # doctor the samples behind the type's back
        with pytest.raises(NonUnitCurve):
            make_cylinder(c)

    def test_out_of_domain(self, circle_cylinder):
        with pytest.raises(OutOfDomain):
            circle_cylinder.jet(100.0, 0.0)


def _numbers(jet):
    return [repr(x) for w in jet for x in (*w.htup, w.t)]


class TestCylinderChartReuse:
    """A scalar cylinder jet built on a frame from ``frame_at``'s memo is the
    one a fresh chart builds."""

    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    @pytest.mark.parametrize("first, then", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0),
                                             (-0.0, -0.0)],
                             ids=["0,0", "0,-0", "-0,0", "-0,-0"])
    def test_reused_jet_is_a_fresh_jet(self, name, first, then):
        """u = +-0.0, a domain end of the circle, horocycle and spline
        charts and the middle of the others: the frame memo keys -0.0 and
        0.0 alike, so the second jet is built on the first's frame."""
        cfg = CORPUS_CONFIGS[name]
        S = from_config(cfg)
        one = S.chart(first, 0.5)
        two = S.chart(then, -1.25)
        fresh = from_config(cfg).chart(then, -1.25)
        assert _numbers(two) == _numbers(fresh)
        assert _numbers(S.chart(first, 0.5)) == _numbers(one)

    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    def test_full_frame_memo_builds_every_jet(self, name):
        """Past the frame memo's limit every ``frame_at`` call returns a new
        frame, with the same numbers."""
        S = from_config(CORPUS_CONFIGS[name])
        alpha = S.curve
        u = 0.5 * (alpha.s_min + alpha.s_max)
        for k in range(65536 - len(alpha._frame_cache)):
            alpha._frame_cache[float(10 + k)] = None
        assert len(alpha._frame_cache) == 65536
        S.chart(u, 0.5)
        two = S.chart(u, -1.25)
        assert u not in alpha._frame_cache
        fresh = from_config(CORPUS_CONFIGS[name]).chart(u, -1.25)
        assert _numbers(two) == _numbers(fresh)


class TestCarriedCurve:
    """A cylinder carries the generating curve its chart evaluates; no
    other surface carries one."""

    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    def test_chart_evaluates_the_carried_curve(self, name):
        S = from_config(CORPUS_CONFIGS[name])
        c = S.curve
        s = c.s[::97]
        for u in s.tolist():
            jet = S.chart(u, 0.7)
            assert u in c._frame_cache  # the chart filled this curve's memo
            a, t, n, kg = c.frame_at(u)
            assert (jet.X.htup, jet.Xu.htup) == (a, t)
            assert jet.Xuu.htup == (kg * n[0] + a[0], kg * n[1] + a[1], kg * n[2] + a[2])
        block = S.jets(s, np.full(s.shape, 0.7))
        pts, tans, _ = c.frames_at(s)
        assert not block.bad.any()
        assert all(np.array_equal(x, y) for x, y in zip(block.X.htup, pts))
        assert all(np.array_equal(x, y) for x, y in zip(block.Xu.htup, tans))

    @pytest.mark.parametrize("name, kg, u_range", [
        ("cylinder_circle", constant_curvature(COTH1), (0.0, 2.0 * math.pi * math.sinh(1.0))),
        ("cylinder_inflection", linear_curvature(1.0, 0.0), (-1.5, 1.5)),
        ("cylinder_spline", spline_curvature([0.0, 0.75, 1.5, 2.25, 3.0],
                                             [0.4, 1.1, -0.7, 0.9, 0.2]), (0.0, 3.0)),
    ])
    @pytest.mark.parametrize("step", [None, 0.02])
    def test_curve_is_a_direct_build(self, name, kg, u_range, step):
        cfg = CORPUS_CONFIGS[name] if step is None else dict(CORPUS_CONFIGS[name],
                                                             curve_step=step)
        carried = from_config(cfg).curve
        direct = curve_from_curvature(kg, u_range, step or 1e-3)
        assert carried.interpolation == direct.interpolation == "rk4"
        for field in ("s", "points", "tangents", "normals", "kg"):
            assert getattr(carried, field).tobytes() == getattr(direct, field).tobytes()

    def test_curve_without_kg_is_carried_with_interpolated_kg(self, circle_curve):
        assert make_cylinder(circle_curve).curve is circle_curve
        bare = H2Curve.from_samples(circle_curve.s, circle_curve.points, circle_curve.tangents)
        carried = make_cylinder(bare).curve
        assert bare.kg is None and carried.points is bare.points
        assert np.max(np.abs(carried.kg - COTH1)) < 1e-6

    @pytest.mark.parametrize("make", [
        lambda: from_config(CORPUS_CONFIGS["slice"]),
        lambda: from_config({"kind": "graph", "f": {"kind": "bilinear", "coef": 0.3}}),
        lambda: from_config(CORPUS_CONFIGS["perturbed_cylinder"]),
        lambda: finite_difference_surface(preset("cylinder_circle")),
        lambda: rescale_chart(preset("cylinder_circle"), 2.0, 1.0),
    ], ids=["slice", "graph", "perturbed", "fd", "rescaled"])
    def test_other_surfaces_carry_none(self, make):
        assert make().curve is None


class TestSlice:
    def test_intrinsic_curvature_minus_one(self, slice_surface):
        for (u, v) in probe_points(slice_surface):
            _, sd = shape_at(slice_surface, u, v, with_brioschi=False)
            assert sd.Kint_gauss == pytest.approx(-1.0, abs=1e-12)

    def test_totally_geodesic(self, slice_surface):
        for (u, v) in probe_points(slice_surface):
            _, sd = shape_at(slice_surface, u, v, with_brioschi=False)
            assert sd.Kext == 0.0

    def test_height_invariance(self):
        lo = make_slice(0.0, 2.0)
        hi = make_slice(5.0, 2.0)
        for (u, v) in probe_points(lo):
            _, sd0 = shape_at(lo, u, v, with_brioschi=False)
            _, sd5 = shape_at(hi, u, v, with_brioschi=False)
            assert sd0.k1 == sd5.k1 and sd0.k2 == sd5.k2
            assert sd0.Kint_gauss == sd5.Kint_gauss


class TestGraph:
    def test_zero_height_reproduces_slice_curvatures(self):
        g = make_graph(zero_height())
        for (u, v) in probe_points(g):
            _, sd = shape_at(g, u, v, with_brioschi=False)
            assert sd.Kint_gauss == pytest.approx(-1.0, abs=1e-12)
            assert sd.Kext == pytest.approx(0.0, abs=1e-12)

    def test_linear_height_flat_along_axis(self):
        g = make_graph(linear_height(0.5))
        for u in (-0.8, -0.2, 0.3, 0.9):
            _, sd = shape_at(g, u, 0.0, with_brioschi=False)
            assert abs(sd.Kext) < 1e-12

    def test_bilinear_has_generic_points(self):
        g = make_graph(bilinear_height(0.3))
        forms, sd = shape_at(g, 0.4, -0.3, with_brioschi=False)
        assert 0.0 < abs(forms.nu) < 1.0
        assert abs(sd.Kext) > 1e-3


class TestPerturb:
    def test_eps_zero_is_identity(self, circle_cylinder):
        assert perturb(circle_cylinder, 0.0) is circle_cylinder

    def test_cylinder_bump_not_flat(self, perturbed_cylinder):
        grid = curvature_grid(perturbed_cylinder, 20, 20)
        worst = max(abs(r.Kint_gauss) for r in grid.valid_rows())
        assert worst > 1e-5

    def test_slice_bump_stays_curved(self):
        p = preset("perturbed_slice")
        uc, vc = p.domain.center
        _, sd = shape_at(p, uc, vc, with_brioschi=False)
        assert sd.Kint_gauss == pytest.approx(-1.0, abs=0.2)

    def test_negative_eps_rejected(self, circle_cylinder):
        with pytest.raises(ConfigError):
            perturb(circle_cylinder, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(centre=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           width=st.floats(0.05, 3.0),
           points=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                           min_size=1, max_size=30))
    def test_bump_array_twin_has_the_float_bits(self, centre, width, points):
        """The bump height a perturbed chart's array evaluator reads."""
        f = gaussian_bump(centre, width).f
        us, vs = np.array(points).T
        assert f.arrays(us, vs).tobytes() == np.array([f(u, v) for u, v in points]).tobytes()


class TestFiniteDifferenceJets:
    @pytest.mark.parametrize("name", ["slice", "cylinder_circle"])
    def test_agree_with_analytic(self, name):
        analytic = preset(name)
        fd = finite_difference_surface(analytic)
        for (u, v) in probe_points(analytic, n=3):
            ja = analytic.jet(u, v)
            jf = fd.jet(u, v)
            for attr in ("Xu", "Xv"):
                a, f = getattr(ja, attr), getattr(jf, attr)
                assert np.allclose(a.htup, f.htup, atol=1e-6)
                assert abs(a.t - f.t) < 1e-6
            for attr in ("Xuu", "Xuv", "Xvv"):
                a, f = getattr(ja, attr), getattr(jf, attr)
                assert np.allclose(a.htup, f.htup, atol=1e-4)
                assert abs(a.t - f.t) < 1e-4

    @pytest.mark.parametrize("offset", [4e-232, 1e-300])
    def test_stencil_step_that_underflows_is_out_of_domain(self, offset):
        """So close to the u edge the stencil step's square is 0: the single
        jet is a domain error, not a ZeroDivisionError, and a block flags
        the same point."""
        fd = finite_difference_surface(preset("cylinder_spline"))
        u, v = fd.domain.u_range[0] + offset, fd.domain.center[1]
        with pytest.raises(OutOfDomain, match="stencil does not fit"):
            fd.jet(u, v)
        assert fd.jets([u, 1.0], [v, v]).bad.tolist() == [True, False]

    def test_graph_mode(self):
        g = make_graph(bilinear_height(0.3))
        fd = finite_difference_surface(g)
        assert fd.derivative_mode == "finite-difference"
        ja = g.jet(0.3, 0.2)
        jf = fd.jet(0.3, 0.2)
        assert np.allclose(ja.Xuv.htup, jf.Xuv.htup, atol=1e-4)
        assert abs(ja.Xuv.t - jf.Xuv.t) < 1e-4


class TestImmersionInvariant:
    @pytest.mark.parametrize("name", ["cylinder_geodesic", "cylinder_circle",
                                      "cylinder_inflection", "slice",
                                      "perturbed_cylinder"])
    def test_gram_determinant_positive(self, name):
        s = preset(name)
        for (u, v) in probe_points(s, n=3):
            forms = fundamental_forms(s, u, v)
            assert forms.E * forms.G - forms.F ** 2 > 1e-12

    def test_degenerate_jet_rejected(self):
        with pytest.raises(NotImmersed):
            check_jet(SurfaceJet(**spoiled(Xv=GOOD_JET["Xu"])))


class TestJetChecks:
    """check_jet is the one scalar jet check; each case below is caught by
    exactly one of its checks."""

    def test_valid_jet_accepted(self):
        jet = SurfaceJet(**GOOD_JET)
        assert check_jet(jet) is jet
        assert jet.X == ((1.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("field", JET_FIELDS)
    def test_nan_coordinate_rejected(self, field):
        h, t = GOOD_JET[field]
        with pytest.raises(NumericalError, match="non-finite coordinates"):
            check_jet(SurfaceJet(**spoiled(**{field: AmbientVec((h[0], math.nan, h[2]), t)})))

    @pytest.mark.parametrize("footprint", [(2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)],
                             ids=["off_sheet", "lower_sheet"])
    def test_footprint_off_upper_sheet_rejected(self, footprint):
        with pytest.raises(NumericalError):
            check_jet(SurfaceJet(**spoiled(X=AmbientVec(footprint, 0.0))))

    @pytest.mark.parametrize("height", [math.nan, math.inf])
    def test_non_finite_height_rejected(self, height):
        with pytest.raises(NumericalError, match="non-finite height"):
            check_jet(SurfaceJet(**spoiled(X=AmbientVec((1.0, 0.0, 0.0), height))))

    @pytest.mark.parametrize("field", JET_FIELDS)
    def test_non_finite_derivative_height_rejected(self, field):
        h, _ = GOOD_JET[field]
        with pytest.raises(NumericalError, match="non-finite height"):
            check_jet(SurfaceJet(**spoiled(**{field: AmbientVec(h, math.nan)})))

    def test_non_tangent_first_derivative_rejected(self):
        # <Xu, p> = -0.5 while the Gram determinant stays 0.75
        with pytest.raises(NumericalError, match="not tangent"):
            check_jet(SurfaceJet(**spoiled(Xu=AmbientVec((0.5, 1.0, 0.0), 0.0))))

    @pytest.mark.parametrize("field", ["X", "Xuu"])
    def test_grid_records_rejected_jet_as_numerical_failure(self, circle_cylinder,
                                                            field):
        bad_uv = grid_points(circle_cylinder, 4, 4)[5]

        def chart(u, v, base=circle_cylinder.chart):
            jet = base(u, v)
            if (u, v) != bad_uv:
                return jet
            h, t = getattr(jet, field)
            return jet._replace(**{field: AmbientVec((h[0], math.nan, h[2]), t)})

        S = dataclasses.replace(circle_cylinder, chart=chart)
        rows = curvature_grid(S, 4, 4, brioschi=False).rows
        assert [r.status for r in rows] == ["ok"] * 5 + ["NUMERICAL_FAILURE"] + ["ok"] * 10


class TestCheckAtTheBoundary:
    """A chart's jets are checked where they enter the library.  The wrapper
    chart below has no array evaluator and returns one spoiled jet, as a
    user chart might, at BAD_UV: the surface and the finite-difference,
    perturbed and rescaled surfaces over it raise there what check_jet
    raises, and their blocks flag exactly that point."""

    BAD_UV = (1.0, 0.5)

    @pytest.mark.parametrize("field, entry, error", SPOILED_JETS)
    def test_spoiled_jet_raised_and_flagged(self, circle_cylinder, field, entry, error):
        jet = SurfaceJet(**spoiled(**{field: entry}))
        with pytest.raises(GeometryError) as direct:
            check_jet(jet)
        want = (type(direct.value).__name__, str(direct.value))
        assert want[0] == error

        def chart(u, v, base=circle_cylinder.chart):
            return jet if (u, v) == self.BAD_UV else base(u, v)

        S = dataclasses.replace(circle_cylinder, chart=chart)
        (u, v), us = self.BAD_UV, np.array([0.5, 1.0, 1.5])
        # the rescaled chart reaches BAD_UV at (0.5, -1.0) and the points
        # us at us / 2, exactly
        for D, a, b in ((S, 1.0, 1.0), (finite_difference_surface(S), 1.0, 1.0),
                        (perturb(S, 1e-2), 1.0, 1.0), (rescale_chart(S, 2.0, -0.5), 2.0, -0.5)):
            with pytest.raises(GeometryError) as got:
                D.jet(u / a, v / b)
            assert (type(got.value).__name__, str(got.value)) == want, D.label
            assert D.jets(us / a, np.full(3, v / b)).bad.tolist() == [False, True, False]


class TestRescale:
    def test_domain_and_points_correspond(self, circle_cylinder):
        r = rescale_chart(circle_cylinder, 2.0, 3.0)
        j0 = circle_cylinder.jet(1.0, 0.75)
        j1 = r.jet(0.5, 0.25)
        assert j0.X.htup == j1.X.htup
        assert j0.X.t == j1.X.t


class TestOrientation:
    def test_presets_and_derived_charts(self, circle_cylinder, slice_surface):
        graph = make_graph(zero_height())
        assert (circle_cylinder.orientation, slice_surface.orientation,
                graph.orientation) == (-1.0, 1.0, 1.0)
        for S in (circle_cylinder, slice_surface, graph):
            assert finite_difference_surface(S).orientation == S.orientation
            assert perturb(S, 1e-3).orientation == S.orientation
            for a, b, sign in ((2.0, 3.0, 1.0), (-2.0, 3.0, -1.0), (2.0, -3.0, -1.0),
                               (-2.0, -3.0, 1.0)):
                assert rescale_chart(S, a, b).orientation == sign * S.orientation

    @pytest.mark.parametrize("orientation", [0.0, 0.5, 2.0, -1.5, math.nan, math.inf])
    def test_other_than_plus_minus_one_refused(self, circle_cylinder, orientation):
        with pytest.raises(ConfigError, match="orientation"):
            Surface(circle_cylinder.chart, circle_cylinder.domain, "analytic", "cylinder",
                    orientation)
        with pytest.raises(ConfigError, match="orientation"):
            dataclasses.replace(circle_cylinder, orientation=orientation)


class TestFromConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            from_config({"kind": "sphere"})

    def test_bad_domain(self):
        with pytest.raises(ConfigError):
            from_config({"kind": "cylinder", "curve": {"kind": "constant", "value": 0.0},
                         "domain": {"u": [2.0, 1.0]}})

    def test_bad_spline(self):
        with pytest.raises(ConfigError):
            from_config({"kind": "cylinder",
                         "curve": {"kind": "spline", "knots_s": [0, 1], "knots_k": [1]}})

    def test_slice_requires_positive_radius(self):
        with pytest.raises(ConfigError):
            from_config({"kind": "slice", "t0": 0.0, "radius": -2.0})

    def test_cylinder_roundtrip(self):
        s = from_config({"kind": "cylinder", "curve": {"kind": "constant", "value": 1.0},
                         "domain": {"u": [0.0, 2.0], "v": [-1.0, 1.0]}})
        assert s.domain.u_range == (0.0, 2.0)
        assert s.domain.v_range == (-1.0, 1.0)
        _, sd = shape_at(s, 1.0, 0.0, with_brioschi=False)
        assert sd.k2 == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_config(self):
        s = from_config({"kind": "perturbed", "eps": 1e-2,
                         "base": {"kind": "slice", "t0": 0.0, "radius": 2.0},
                         "bump": {"center": [1.0, 3.0], "width": 0.5}})
        assert "bump" in s.label or "perturbed" in s.label
