"""Fundamental forms, shape operator, the two intrinsic-curvature routes,
point classification and the grid scanner."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr import curvature
from h2xr.classifier import CYLINDER, NOT_FLAT, ClassifierConfig, classify_surface
from h2xr.curvature import (GENERIC, GRID_HEADER, PARABOLIC, PLANAR, MetricStencil,
                            brioschi_curvature, brioschi_curvatures, classify_point,
                            curvature_grid, forms_from_jet, fundamental_forms,
                            sample_metric_stencil, shape_at, shape_data)
from h2xr.errors import ConfigError, GeometryError, OutOfDomain
from h2xr.product import AmbientVec
from h2xr.surfaces import (HeightFunction, SurfaceJet, bilinear_height,
                           finite_difference_surface, make_graph, perturb, preset,
                           rescale_chart)

from conftest import COTH1


class TestFundamentalForms:
    def test_geodesic_cylinder_totally_geodesic(self, geodesic_cylinder):
        f = fundamental_forms(geodesic_cylinder, 0.3, 0.7)
        assert (f.L, f.M2, f.N2) == (0.0, 0.0, 0.0)
        assert f.nu == 0.0

    def test_slice_vertical_normal(self, slice_surface):
        f = fundamental_forms(slice_surface, 1.0, 2.0)
        assert (f.L, f.M2, f.N2) == (0.0, 0.0, 0.0)
        assert abs(f.nu) == 1.0

    def test_circle_cylinder_single_eigenvalue(self, circle_cylinder):
        f = fundamental_forms(circle_cylinder, 2.0, -0.5)
        sd = shape_data(f)
        assert f.nu == 0.0
        assert sd.k1 == 0.0
        assert sd.k2 == pytest.approx(COTH1, abs=1e-9)

    def test_normal_is_unit_and_orthogonal(self, circle_cylinder):
        from h2xr.minkowski import _mdot
        jet = circle_cylinder.jet(1.5, 0.5)
        f = fundamental_forms(circle_cylinder, 1.5, 0.5)
        n2 = _mdot(f.normal.htup, f.normal.htup) + f.normal.t ** 2
        assert abs(n2 - 1.0) < 1e-12
        for w in (jet.Xu, jet.Xv):
            inner = _mdot(f.normal.htup, w.htup) + f.normal.t * w.t
            assert abs(inner) < 1e-12

    # (spoiled entry of the jet at the origin below, or None, the normal
    # unit_normal is made to give, or None, error, message): a spoiled
    # first form or normal, each raised by forms_from_jet
    SPOILED_FORMS = [
        (("Xu", AmbientVec((0.0, 0.0, 0.0), 0.0)), None, "NotImmersed", "degenerate jet"),
        (("Xv", AmbientVec((0.0, 1.0, 0.0), 0.0)), None, "NotImmersed", "degenerate jet"),
        (("Xu", AmbientVec((0.0, 1.0, 0.0), math.nan)), AmbientVec((0.0, 0.0, 0.0), 1.0),
         "NotImmersed", "first form is not positive definite"),
        (("Xv", AmbientVec((0.0, 0.0, 0.0), math.nan)), AmbientVec((0.0, 0.0, 0.0), 1.0),
         "NotImmersed", "first form is not positive definite"),
        (None, AmbientVec((0.0, 0.0, 0.0), 2.0), "NumericalError", "normal norm^2 = 4.0"),
        (None, AmbientVec((1.25 ** 0.5, 0.0, 0.0), 1.5), "NumericalError", "|nu| = 1.5 exceeds 1"),
    ]

    @pytest.mark.parametrize("entry, normal, error, message", SPOILED_FORMS,
                             ids=["E_zero", "F_degenerate", "E_nan", "G_nan", "normal_norm",
                                  "nu_above_one"])
    def test_spoiled_forms_raise(self, monkeypatch, entry, normal, error, message):
        """forms_from_jet checks the forms it computes; a spoiled normal,
        which unit_normal never gives, is put in its place."""
        fields = {"X": AmbientVec((1.0, 0.0, 0.0), 0.0), "Xu": AmbientVec((0.0, 1.0, 0.0), 0.0),
                  "Xv": AmbientVec((0.0, 0.0, 1.0), 0.0), "Xuu": AmbientVec((1.0, 0.0, 0.0), 0.0),
                  "Xuv": AmbientVec((0.0, 0.0, 0.0), 0.0), "Xvv": AmbientVec((1.0, 0.0, 0.0), 0.0)}
        assert forms_from_jet(SurfaceJet(**fields), 1.0).nu == 1.0
        if entry is not None:
            fields[entry[0]] = entry[1]
        if normal is not None:
            monkeypatch.setattr(curvature, "unit_normal", lambda jet, orientation: normal)
        with pytest.raises(GeometryError) as got:
            forms_from_jet(SurfaceJet(**fields), 1.0)
        assert (type(got.value).__name__, str(got.value)) == (error, message)


class TestShapeData:
    def test_cylinder_flat_both_ways(self, circle_cylinder):
        _, sd = shape_at(circle_cylinder, 2.0, 0.5)
        assert abs(sd.Kint_gauss) < 1e-10
        assert abs(sd.Kint_brioschi) < 1e-5

    def test_slice_minus_one_both_ways(self, slice_surface):
        _, sd = shape_at(slice_surface, 1.0, 3.0)
        assert sd.Kint_gauss == pytest.approx(-1.0, abs=1e-10)
        assert sd.Kint_brioschi == pytest.approx(-1.0, abs=1e-4)

    def test_graph_cross_oracle(self):
        g = make_graph(bilinear_height(0.3))
        _, sd = shape_at(g, 0.4, -0.3)
        assert abs(sd.Kint_gauss - sd.Kint_brioschi) < 1e-4

    def test_consistency_invariants(self, circle_cylinder):
        _, sd = shape_at(circle_cylinder, 1.0, 0.0, with_brioschi=False)
        assert sd.Kext == sd.k1 * sd.k2
        assert sd.H == 0.5 * (sd.k1 + sd.k2)
        assert abs(sd.k1) <= abs(sd.k2)

    def test_directions_form_orthonormal(self):
        g = make_graph(bilinear_height(0.3))
        forms, sd = shape_at(g, 0.4, -0.3, with_brioschi=False)
        E, F, G = forms.E, forms.F, forms.G

        def form_inner(a, b):
            return E * a[0] * b[0] + F * (a[0] * b[1] + a[1] * b[0]) + G * a[1] * b[1]

        assert form_inner(sd.d1, sd.d1) == pytest.approx(1.0, abs=1e-8)
        assert form_inner(sd.d2, sd.d2) == pytest.approx(1.0, abs=1e-8)
        assert form_inner(sd.d1, sd.d2) == pytest.approx(0.0, abs=1e-8)

    def test_stencil_out_of_domain(self, slice_surface):
        with pytest.raises(OutOfDomain):
            sample_metric_stencil(slice_surface, slice_surface.domain.u_range[0], 3.0)


STENCIL_SURFACES = {"graph": make_graph(bilinear_height(0.3)), "slice": preset("slice"),
                    "cylinder": preset("cylinder_inflection")}


def _layouts(a: np.ndarray):
    """C-ordered, Fortran-ordered and strided copies of a stack of stencils."""
    big = np.full((a.shape[0], 11, 13), np.nan)
    big[:, 1::2, ::3] = a
    return np.ascontiguousarray(a), np.asfortranarray(a), big[:, 1::2, ::3]


class TestBrioschiKernel:
    """The stacked Brioschi kernel gives each stencil the bits of its
    one-stencil value, at any stack size and memory layout."""

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.sampled_from(sorted(STENCIL_SURFACES)),
                                     st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
                           min_size=1, max_size=6))
    def test_stack_and_layout_keep_the_bits(self, points):
        stencils = []
        for name, fu, fv in points:
            S = STENCIL_SURFACES[name]
            (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
            stencils.append(sample_metric_stencil(S, u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)))
        single = np.array([brioschi_curvature(s) for s in stencils])
        assert np.isfinite(single).all()
        h = np.array([s.h for s in stencils])
        stacks = [_layouts(np.stack([getattr(s, k) for s in stencils])) for k in "EFG"]
        for E, F, G in zip(*stacks):
            assert brioschi_curvatures(E, F, G, h).tobytes() == single.tobytes()
            for i, s in enumerate(stencils):
                one = MetricStencil(E[i], F[i], G[i], s.h)
                assert brioschi_curvature(one) == single[i]


class TestClassifyPoint:
    def test_planar(self, geodesic_cylinder):
        _, sd = shape_at(geodesic_cylinder, 0.0, 0.0, with_brioschi=False)
        assert classify_point(sd, 1e-7).tag == PLANAR

    def test_parabolic(self, circle_cylinder):
        _, sd = shape_at(circle_cylinder, 1.0, 0.0, with_brioschi=False)
        assert classify_point(sd, 1e-7).tag == PARABOLIC

    def test_generic(self):
        g = make_graph(bilinear_height(0.3))
        _, sd = shape_at(g, 0.4, -0.3, with_brioschi=False)
        assert min(abs(sd.k1), abs(sd.k2)) >= 1e-7
        assert classify_point(sd, 1e-7).tag == GENERIC

    def test_tolerance_must_be_positive(self, circle_cylinder):
        _, sd = shape_at(circle_cylinder, 1.0, 0.0, with_brioschi=False)
        with pytest.raises(ConfigError):
            classify_point(sd, 0.0)


class TestCurvatureGrid:
    @pytest.mark.parametrize("nu, nv, tol", [
        (1, 5, 1e-7), (5, 1, 1e-7), (501, 500, 1e-7), (10**9, 20, 1e-7),
        (5, 5, 0.0), (5, 5, -1e-7), (5, 5, math.nan),
    ], ids=["nu_1", "nv_1", "over_max_cells", "nu_1e9", "tol_zero", "tol_negative",
            "tol_nan"])
    def test_bad_arguments_raise(self, slice_surface, nu, nv, tol):
        # refused up front: a nonpositive tolerance used to give BAD_CONFIG rows
        with pytest.raises(ConfigError):
            curvature_grid(slice_surface, nu, nv, tol=tol)

    def test_circle_cylinder_grid(self, circle_cylinder):
        grid = curvature_grid(circle_cylinder, 20, 20)
        rows = grid.valid_rows()
        assert len(rows) == 400
        assert max(abs(r.Kint_gauss) for r in rows) < 1e-8
        assert max(abs(r.Kext) for r in rows) < 1e-12
        assert all(r.cls == PARABOLIC for r in rows)

    def test_slice_grid(self, slice_surface):
        grid = curvature_grid(slice_surface, 20, 20)
        rows = grid.valid_rows()
        assert len(rows) == 400
        assert all(abs(r.Kint_gauss + 1.0) < 1e-9 for r in rows)

    def test_perturbed_cylinder_grid(self, perturbed_cylinder):
        grid = curvature_grid(perturbed_cylinder, 20, 20)
        assert max(abs(r.Kint_gauss) for r in grid.valid_rows()) > 1e-5

    def test_csv_header_and_shape(self, slice_surface):
        grid = curvature_grid(slice_surface, 4, 5)
        csv = grid.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == GRID_HEADER
        assert lines[0] == "u,v,k1,k2,H,Kext,Kint_gauss,Kint_brioschi,nu,class,status"
        assert len(lines) == 1 + 20

    def test_grid_size_validation(self, slice_surface):
        with pytest.raises(ConfigError):
            curvature_grid(slice_surface, 1, 5)

    def test_brioschi_opt_out_changes_only_its_column(self, perturbed_cylinder):
        full = curvature_grid(perturbed_cylinder, 8, 8)
        lean = curvature_grid(perturbed_cylinder, 8, 8, brioschi=False)
        assert all(math.isnan(r.Kint_brioschi) for r in lean.rows)
        assert [dataclasses.replace(r, Kint_brioschi=0.0) for r in full.rows] == \
            [dataclasses.replace(r, Kint_brioschi=0.0) for r in lean.rows]


class TestGaussEquationConsistency:
    @pytest.mark.parametrize("name", ["cylinder_circle", "cylinder_inflection",
                                      "slice"])
    def test_presets(self, name):
        s = preset(name)
        (u0, u1) = s.domain.u_range
        (v0, v1) = s.domain.v_range
        for fu in (0.25, 0.5, 0.75):
            for fv in (0.3, 0.7):
                u = u0 + fu * (u1 - u0)
                v = v0 + fv * (v1 - v0)
                _, sd = shape_at(s, u, v)
                # Kint_gauss is k1 k2 - nu^2 by construction
                assert abs(sd.Kint_brioschi - sd.Kint_gauss) < 1e-4


class TestFrameIndependence:
    def test_rescaled_chart_same_curvatures(self, circle_cylinder):
        r = rescale_chart(circle_cylinder, 2.0, 3.0)
        _, sd0 = shape_at(circle_cylinder, 1.0, 0.75, with_brioschi=False)
        _, sd1 = shape_at(r, 0.5, 0.25, with_brioschi=False)
        assert sd1.k1 == pytest.approx(sd0.k1, abs=1e-8)
        assert sd1.k2 == pytest.approx(sd0.k2, abs=1e-8)
        assert sd1.H == pytest.approx(sd0.H, abs=1e-8)
        assert sd1.Kext == pytest.approx(sd0.Kext, abs=1e-8)
        assert sd1.Kint_gauss == pytest.approx(sd0.Kint_gauss, abs=1e-8)

    @pytest.mark.parametrize("name", ["cylinder_circle", "slice"])
    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, -1.0)])
    def test_reversed_axis_keeps_the_normal(self, name, a, b):
        """A chart run backwards along one axis takes the other orientation,
        so the normal and every signed curvature stay the base's."""
        S = preset(name)
        r = rescale_chart(S, a, b)
        assert r.orientation == -S.orientation
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        for fu in (0.15, 0.5, 0.85):
            for fv in (0.1, 0.45, 0.8):
                u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
                f0, sd0 = shape_at(S, u, v, with_brioschi=False)
                f1, sd1 = shape_at(r, u / a, v / b, with_brioschi=False)
                pairs = [*zip((*f0.normal.htup, f0.normal.t), (*f1.normal.htup, f1.normal.t)),
                         (sd0.k1, sd1.k1), (sd0.k2, sd1.k2), (sd0.H, sd1.H), (f0.nu, f1.nu)]
                for x, y in pairs:
                    assert abs(x - y) <= 1e-12, (u, v, x, y)


def _isometric(S, theta: float, beta: float, c: float):
    """S moved by an isometry of H^2 x R: a rotation by theta about the
    origin, then a boost of rapidity beta along x1 (together orientation
    and time-orientation preserving), and a vertical translation by c."""
    ct, st = math.cos(theta), math.sin(theta)
    cb, sb = math.cosh(beta), math.sinh(beta)
    rows = ((cb, sb * ct, -sb * st), (sb, cb * ct, -cb * st), (0.0, st, ct))

    def move(w: AmbientVec, dt: float = 0.0) -> AmbientVec:
        h = w.htup
        return AmbientVec(tuple(r[0] * h[0] + r[1] * h[1] + r[2] * h[2] for r in rows),
                          w.t + dt)

    def chart(u, v, base=S.chart):
        j = base(u, v)
        return SurfaceJet(move(j.X, c), move(j.Xu), move(j.Xv), move(j.Xuu), move(j.Xuv),
                          move(j.Xvv))

    return dataclasses.replace(S, chart=chart, label=f"{S.label}+isometry")


ISOMETRIES = [(0.7, 0.4, 1.5), (-2.0, -0.8, -0.3), (math.pi, 1.1, 0.0)]


class TestIsometryInvariance:
    """Isometries of H^2 x R applied to a whole chart leave the curvatures
    and the verdict unchanged: a check of the normal and the forms that
    does not go through their reference implementations."""

    @pytest.mark.parametrize("name", ["cylinder_circle", "slice", "graph_bilinear",
                                      "perturbed_cylinder"])
    @pytest.mark.parametrize("iso", ISOMETRIES)
    def test_curvatures_unchanged(self, name, iso):
        S = make_graph(bilinear_height(0.3)) if name == "graph_bilinear" else preset(name)
        moved = _isometric(S, *iso)
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        for fu in (0.13, 0.4, 0.62, 0.91):
            for fv in (0.08, 0.35, 0.57, 0.86):
                u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
                f0, sd0 = shape_at(S, u, v, with_brioschi=False)
                f1, sd1 = shape_at(moved, u, v, with_brioschi=False)
                for a, b in ((sd0.k1, sd1.k1), (sd0.k2, sd1.k2), (sd0.H, sd1.H),
                             (sd0.Kint_gauss, sd1.Kint_gauss), (f0.nu, f1.nu)):
                    assert abs(a - b) <= 1e-9, (name, iso, u, v)

    @pytest.mark.parametrize("name, verdict", [("cylinder_circle", CYLINDER),
                                               ("slice", NOT_FLAT)])
    def test_verdict_unchanged(self, name, verdict):
        config = ClassifierConfig(grid_n=9, trace_length=0.5, recovery_samples=101)
        S = preset(name)
        assert classify_surface(S, config).verdict == verdict
        assert classify_surface(_isometric(S, *ISOMETRIES[0]), config).verdict == verdict


class TestNormalFlip:
    def test_flip_negates_odd_quantities(self):
        g = make_graph(bilinear_height(0.3))
        forms = fundamental_forms(g, 0.4, -0.3)
        sd = shape_data(forms)
        sdf = shape_data(forms.flipped())
        assert sdf.k1 == pytest.approx(-sd.k1, abs=1e-13)
        assert sdf.k2 == pytest.approx(-sd.k2, abs=1e-13)
        assert sdf.H == pytest.approx(-sd.H, abs=1e-13)
        assert forms.flipped().nu == -forms.nu
        assert sdf.Kext == pytest.approx(sd.Kext, abs=1e-13)
        assert sdf.Kint_gauss == pytest.approx(sd.Kint_gauss, abs=1e-13)


class TestOrientationSwitch:
    """On the graph f = 6 v^2, nu = 1 / sqrt(1 + 144 v^2) crosses 0.1 at
    v = sqrt(99) / 12, where an earlier ``unit_normal`` switched from one
    orientation rule to another, flipping nu, k1, k2 and H.  With one
    orientation per chart the signed quantities are continuous there, as are
    those that do not see the orientation."""

    GRAPH = make_graph(HeightFunction(lambda u, v: 6.0 * v * v, lambda u, v: 0.0,
                                      lambda u, v: 12.0 * v, lambda u, v: 0.0,
                                      lambda u, v: 0.0, lambda u, v: 12.0))

    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_even_quantities_continuous(self, delta):
        v = math.sqrt(99.0) / 12.0
        f0, a = shape_at(self.GRAPH, 0.2, v - delta, with_brioschi=False)
        f1, b = shape_at(self.GRAPH, 0.2, v + delta, with_brioschi=False)
        assert abs(f0.nu) > 0.1 > abs(f1.nu)
        for x, y in ((a.Kext, b.Kext), (a.Kint_gauss, b.Kint_gauss), (abs(a.k1), abs(b.k1)),
                     (abs(a.k2), abs(b.k2)), (abs(a.H), abs(b.H))):
            assert abs(x - y) < 2.0 * delta, (x, y)

    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_signed_quantities_continuous(self, delta):
        v = math.sqrt(99.0) / 12.0
        f0, a = shape_at(self.GRAPH, 0.2, v - delta, with_brioschi=False)
        f1, b = shape_at(self.GRAPH, 0.2, v + delta, with_brioschi=False)
        assert f0.nu > 0.1 > f1.nu > 0.0 and a.k2 > 0.6 and b.k2 > 0.6
        for x, y in ((a.k1, b.k1), (a.k2, b.k2), (a.H, b.H), (f0.nu, f1.nu)):
            assert abs(x - y) < 2.0 * delta, (x, y)


class TestWeingartenOracle:
    """Second-form coefficients re-derived from derivatives of the normal.

    Differentiating <N, Xu> = 0 gives <DN/du, Xu> = -L and so on, which
    touches no coordinate second derivatives at all: an independent route
    to L, M2, N2 including their signs.
    """

    @pytest.mark.parametrize("name,uv", [
        ("graph", (0.4, -0.3)),
        ("circle", (2.0, 0.5)),
    ])
    def test_normal_derivative_reproduces_second_form(self, name, uv,
                                                      circle_cylinder):
        from h2xr.minkowski import _mdot, _project_tangent
        from h2xr.surfaces import unit_normal
        surface = make_graph(bilinear_height(0.3)) if name == "graph" \
            else circle_cylinder
        u, v = uv
        h = 1e-6
        forms = fundamental_forms(surface, u, v)
        jet = surface.jet(u, v)
        base = jet.X.htup

        def n_at(uu, vv):
            n = unit_normal(surface.jet(uu, vv), surface.orientation)
            return n.htup, n.t

        def cov_diff(pa, ta, pb, tb):
            dh = tuple((a - b) / (2.0 * h) for a, b in zip(pa, pb))
            return _project_tangent(base, dh), (ta - tb) / (2.0 * h)

        wu = cov_diff(*n_at(u + h, v), *n_at(u - h, v))
        wv = cov_diff(*n_at(u, v + h), *n_at(u, v - h))

        def pair(w, x):
            return _mdot(w[0], x.htup) + w[1] * x.t

        assert -pair(wu, jet.Xu) == pytest.approx(forms.L, abs=1e-6)
        assert -pair(wu, jet.Xv) == pytest.approx(forms.M2, abs=1e-6)
        assert -pair(wv, jet.Xu) == pytest.approx(forms.M2, abs=1e-6)
        assert -pair(wv, jet.Xv) == pytest.approx(forms.N2, abs=1e-6)


class TestCylinderPrincipalMatchesCurve:
    @pytest.mark.parametrize("name,kg_of_u", [
        ("cylinder_circle", lambda u: COTH1),
        ("cylinder_inflection", lambda u: u),
        ("cylinder_horocycle", lambda u: 1.0),
    ])
    def test_k2_equals_generating_curvature(self, name, kg_of_u):
        s = preset(name)
        grid = curvature_grid(s, 10, 10)
        for r in grid.valid_rows():
            assert abs(r.nu) < 1e-10
            assert abs(r.k1) < 1e-10
            assert r.k2 == pytest.approx(kg_of_u(r.u), abs=1e-6)

    @pytest.mark.parametrize("twin", ["fd", "perturbed"])
    def test_twins_keep_the_sign_of_kg(self, twin):
        """The finite-difference and perturbed twins of a cylinder keep its
        orientation: sign(k2) = sign(kg) where the curve bends, kg = u on
        the inflection cylinder."""
        base = preset("cylinder_inflection")
        S = finite_difference_surface(base) if twin == "fd" else perturb(base, 1e-3)
        assert S.orientation == base.orientation
        rows = [r for r in curvature_grid(S, 10, 4, brioschi=False).valid_rows()
                if abs(r.u) > 0.1]
        assert len(rows) == 40
        assert all(math.copysign(1.0, r.k2) == math.copysign(1.0, r.u) for r in rows)
