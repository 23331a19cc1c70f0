"""Bulk evaluation on arrays: point blocks, blocked curvature grids and the
bulk connection samples of traces, each against its point-by-point
reference (same bits, same statuses, same exceptions)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import faulty_at_cell_centres, scalar_grid, scalar_lambdas
from h2xr import curvature, flows
from h2xr.classifier import INCONSISTENT, ClassifierConfig, classify_surface
from h2xr.curvature import (POINT_BLOCK, curvature_grid, forms_from_jet,
                            point_block, principal_curvatures)
from h2xr.errors import NumericalError
from h2xr.flows import trace_asymptotic
from h2xr.hyperbolic import (H2Curve, curve_from_curvature, linear_curvature,
                             spline_curvature)
from h2xr.surfaces import (ChartDomain, HeightFunction, bilinear_height,
                           finite_difference_surface, gaussian_bump, linear_height,
                           make_cylinder, make_graph, preset, zero_height)

STEEP = 10.0  # slope of a linear graph whose |nu| crosses 0.1 near v = +-0.1


def _surfaces():
    out = {name: preset(name) for name in ("cylinder_circle", "cylinder_inflection",
                                           "cylinder_spline", "slice",
                                           "perturbed_cylinder", "perturbed_slice")}
    c = curve_from_curvature(spline_curvature([0.0, 1.0, 2.0], [0.5, -0.4, 0.8]),
                             (0.0, 2.0), 0.05)
    out["cylinder_hermite"] = make_cylinder(H2Curve.from_samples(c.s, c.points, c.tangents))
    out["graph_zero"] = make_graph(zero_height())
    out["graph_linear"] = make_graph(linear_height(0.7))
    out["graph_steep"] = make_graph(linear_height(STEEP))
    out["graph_bilinear"] = make_graph(bilinear_height(0.3))
    out["graph_bump"] = make_graph(gaussian_bump((0.2, -0.1), 0.4))
    out["fd_graph"] = finite_difference_surface(make_graph(bilinear_height(0.3)))
    out["fd_cylinder"] = finite_difference_surface(
        make_cylinder(curve_from_curvature(linear_curvature(1.0), (-1.0, 1.0), 1e-3)))
    return out


SURFACES = _surfaces()


def _same(a, b) -> bool:
    """Equal floats, NaN equal to NaN, and the sign of zero kept."""
    return repr(float(a)) == repr(float(b))


def _block_equals_scalar(S, us, vs):
    pb = point_block(S, us, vs)
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        try:
            jet = S.jet(u, v)
            forms = forms_from_jet(jet)
            k1, k2, d1, d2 = principal_curvatures(forms)
        except NumericalError:
            assert pb.bad[k]
            continue
        assert not pb.bad[k], (u, v)
        for name in ("X", "Xu", "Xv", "Xuu", "Xuv", "Xvv"):
            w, W = getattr(jet, name), getattr(pb.jets, name)
            assert all(_same(a, b[k]) for a, b in zip((*w.htup, w.t), (*W.htup, W.t))), name
        n, N = forms.normal, pb.forms.normal
        assert all(_same(a, b[k]) for a, b in zip((*n.htup, n.t), (*N.htup, N.t)))
        for name in ("E", "F", "G", "L", "M2", "N2"):
            assert _same(getattr(forms, name), getattr(pb.forms, name)[k]), name
        got = (pb.k1[k], pb.k2[k], pb.d1[0][k], pb.d1[1][k], pb.d2[0][k], pb.d2[1][k])
        assert all(_same(a, b) for a, b in zip((k1, k2, *d1, *d2), got)), (u, v)
    return pb


class TestPointBlock:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SURFACES)),
           fu=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=12),
           fv=st.floats(0.02, 0.98))
    def test_block_equals_scalar_bitwise(self, name, fu, fv):
        S = SURFACES[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        us = np.array([u0 + f * (u1 - u0) for f in fu])
        vs = np.array([v0 + ((fv + 0.37 * k) % 0.96 + 0.02) * (v1 - v0)
                       for k in range(len(fu))])
        _block_equals_scalar(S, us, vs)

    def test_orientation_switch_both_sides(self):
        # |nu| = 1 / sqrt(1 + STEEP^2 / cosh^2 v) crosses 0.1 at |v| ~ 0.1
        S = SURFACES["graph_steep"]
        vs = np.linspace(-0.3, 0.3, 61)
        pb = _block_equals_scalar(S, np.full(vs.shape, 0.25), vs)
        nu = np.abs(pb.forms.normal.t)
        assert (nu < 0.1).sum() >= 5 and (nu > 0.1).sum() >= 5

    @pytest.mark.parametrize("name", ["cylinder_circle", "graph_linear"])
    def test_bad_points_flagged_not_raised(self, name):
        # the graph's chart evaluates anywhere, so only the domain check
        # flags its outside point
        S = SURFACES[name]
        u1 = S.domain.u_range[1]
        us = np.array([0.5, u1 + 1.0, math.nan, 0.75])
        pb = point_block(S, us, np.zeros(4))
        assert pb.bad.tolist() == [False, True, True, False]

    def test_chart_without_array_evaluator_is_stacked(self, circle_cylinder):
        plain = dataclasses.replace(circle_cylinder, chart=lambda u, v, c=circle_cylinder.chart: c(u, v))
        us, vs = np.linspace(0.5, 5.0, 7), np.linspace(-2.0, 2.0, 7)
        a, b = point_block(circle_cylinder, us, vs), point_block(plain, us, vs)
        assert np.array_equal(a.k2, b.k2) and np.array_equal(a.forms.normal.t, b.forms.normal.t)


def _nan_fuu_graph():
    nan_above = lambda u, v: math.nan if u > 0.5 else 0.0
    zero = lambda u, v: 0.0
    return make_graph(HeightFunction(zero, zero, zero, nan_above, zero, zero))


class TestBlockedGrid:
    def _check(self, S, n, m, **kw):
        grid = curvature_grid(S, n, m, **kw)
        assert grid.to_csv() == scalar_grid(S, n, m, **kw).to_csv()
        return grid

    @pytest.mark.parametrize("name", sorted(SURFACES))
    def test_grid_equals_scalar(self, name):
        self._check(SURFACES[name], 5, 4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("brioschi", [True, False])
    def test_overflowing_cells_fail(self, brioschi):
        """A height slope of 1.3e154 overflows the first form away from v = 0:
        such cells fail with NUMERICAL_FAILURE on both paths, and no row
        passes as ok with a value that is not finite."""
        S = make_graph(linear_height(1.3e154), ChartDomain((-1.0, 1.0), (-3.0, 3.0)))
        grid = self._check(S, 4, 5, brioschi=brioschi)
        assert any(r.status == "NUMERICAL_FAILURE" for r in grid.rows)
        for r in grid.valid_rows():
            assert all(math.isfinite(x) for x in (r.k1, r.k2, r.H, r.Kext, r.Kint_gauss, r.nu))

    def test_injected_faults(self, circle_cylinder):
        S = faulty_at_cell_centres(circle_cylinder, 9, 0.5)
        g = self._check(S, 9, 9, brioschi=False)
        assert {r.status for r in g.rows} == {"ok", "NOT_IMMERSED"}
        self._check(S, 9, 9)

    def test_nan_heights(self):
        g = self._check(_nan_fuu_graph(), 8, 8, brioschi=False)
        assert sum(r.status == "NUMERICAL_FAILURE" for r in g.rows) == 16
        assert all(math.isfinite(r.k1) for r in g.rows if r.status == "ok")
        self._check(_nan_fuu_graph(), 8, 8)

    def test_nan_heights_make_scan_inconsistent(self):
        v = classify_surface(_nan_fuu_graph(), ClassifierConfig(grid_n=8))
        assert v.verdict == INCONSISTENT
        assert "flatness scan: 16 cells failed with NUMERICAL_FAILURE" in v.evidence.notes

    @pytest.mark.parametrize("width", [3e-7, 2e-8])
    def test_stencils_at_the_chart_edge(self, width):
        # cells whose Brioschi and finite-difference stencils shrink (3e-7) or
        # no longer fit (2e-8)
        S = make_graph(bilinear_height(0.3), ChartDomain((-1.0, 1.0), (0.0, width)))
        self._check(S, 3, 2)
        self._check(finite_difference_surface(S), 3, 2)

    def test_non_immersed_chart(self, slice_surface):
        # polar coordinates degenerate at r = 0: the Gram determinant ~ r^2
        S = dataclasses.replace(slice_surface, domain=ChartDomain((0.0, 4e-6), (0.0, 6.0)))
        g = self._check(S, 4, 3, brioschi=False)
        assert {r.status for r in g.rows} == {"ok", "NOT_IMMERSED"}

    @pytest.mark.parametrize("name,n,m,brioschi", [
        ("cylinder_spline", 37, 29, False),      # 1073 cells: 936 + 137
        ("perturbed_slice", 11, 10, False),      # 104 + 6 per block of 936 / 9
        ("graph_bilinear", 7, 6, True),          # 36 + 6 per block of 936 / 26
    ])
    def test_counts_not_a_multiple_of_the_block(self, name, n, m, brioschi):
        assert (n * m) % POINT_BLOCK
        self._check(SURFACES[name], n, m, brioschi=brioschi)

    def test_tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(curvature, "POINT_BLOCK", 7)
        self._check(SURFACES["perturbed_cylinder"], 3, 5)
        self._check(SURFACES["graph_bump"], 5, 3)

    def test_chart_without_array_evaluator(self):
        S = SURFACES["perturbed_slice"]
        plain = dataclasses.replace(S, chart=lambda u, v, c=S.chart: c(u, v))
        assert curvature_grid(plain, 4, 4).to_csv() == curvature_grid(S, 4, 4).to_csv()

    def test_failing_block_runs_scalar(self, monkeypatch, perturbed_cylinder):
        def boom(*_):
            raise OverflowError("injected")

        monkeypatch.setattr(curvature, "point_block", boom)
        self._check(perturbed_cylinder, 4, 3)

    def test_finite_difference_cylinders_stay_exactly_flat(self):
        g = curvature_grid(finite_difference_surface(preset("cylinder_circle")), 21, 21)
        assert max(abs(r.Kext) for r in g.rows) == 0.0
        assert max(abs(r.Kint_gauss) for r in g.rows) == 0.0


class TestBulkConnection:
    @pytest.mark.parametrize("name,seed", [
        ("cylinder_circle", (1.0, 0.0)), ("cylinder_inflection", (1.0, 0.0)),
        ("cylinder_spline", (0.4, 0.5)),
    ])
    def test_equals_scalar_reference(self, name, seed):
        S = preset(name)
        tr = trace_asymptotic(S, *seed, 0.4, 1e-3)
        ref = scalar_lambdas(S, tr)
        assert all(_same(a, b) for a, b in zip(tr.lam, ref))

    def test_finite_difference_surface(self):
        S = finite_difference_surface(preset("cylinder_inflection"))
        tr = trace_asymptotic(S, 1.0, 0.0, 0.1, 1e-3)
        assert all(_same(a, b) for a, b in zip(tr.lam, scalar_lambdas(S, tr)))

    def test_flagged_points_rerun_scalar(self, monkeypatch, circle_cylinder):
        ref = trace_asymptotic(circle_cylinder, 1.0, 0.0, 0.2, 1e-3).lam
        real = flows.point_block

        def flag_some(S, us, vs):
            pb = real(S, us, vs)
            return pb._replace(bad=pb.bad | (np.arange(len(us)) % 3 == 0))

        monkeypatch.setattr(flows, "point_block", flag_some)
        assert np.array_equal(trace_asymptotic(circle_cylinder, 1.0, 0.0, 0.2, 1e-3).lam,
                              ref)

    @pytest.mark.parametrize("array_evaluator", [False, True])
    def test_faulty_transverse_point_raises(self, circle_cylinder, array_evaluator):
        # the trace from u = 1 stays on u = 1 exactly; every transverse point
        # leaves it
        base = circle_cylinder.chart

        def chart(u, v):
            if u != 1.0:
                raise NumericalError("injected off the ruling")
            return base(u, v)

        if array_evaluator:
            def bulk(us, vs):
                block = base.jets(us, vs)
                return block._replace(bad=block.bad | (us != 1.0))

            chart.jets = bulk
        S = dataclasses.replace(circle_cylinder, chart=chart)
        trace_asymptotic(S, 1.0, 0.0, 0.2, 1e-3, with_connection=False)
        with pytest.raises(NumericalError, match="injected off the ruling"):
            trace_asymptotic(S, 1.0, 0.0, 0.2, 1e-3)
