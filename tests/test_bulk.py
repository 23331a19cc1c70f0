"""Bulk evaluation on arrays: point blocks, blocked curvature grids and the
bulk connection samples of traces, each against its point-by-point
reference (same bits, same statuses, same exceptions)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import faulty_at_cell_centres, kinked, scalar_grid, scalar_lambdas
from h2xr import curvature, flows, surfaces
from h2xr.classifier import (INCONSISTENT, ClassifierConfig, classify_surface,
                             recover_generating_curve)
from h2xr.curvature import (POINT_BLOCK, curvature_grid, forms_from_jet,
                            point_block, principal_curvatures, shape_block)
from h2xr.errors import NumericalError
from h2xr.flows import trace_asymptotic
from h2xr.hyperbolic import (H2Curve, curve_from_curvature, linear_curvature,
                             spline_curvature)
from h2xr.surfaces import (CORPUS_CONFIGS, ChartDomain, HeightFunction, Surface,
                           bilinear_height, finite_difference_surface, from_config,
                           gaussian_bump, linear_height, make_cylinder, make_graph,
                           preset, zero_height)

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
            forms = forms_from_jet(jet, S.orientation)
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
        # |nu| = 1 / sqrt(1 + STEEP^2 / cosh^2 v) crosses 0.1 at |v| ~ 0.1,
        # where an earlier rule switched the normal's side; the signed nu
        # keeps its sign across
        S = SURFACES["graph_steep"]
        vs = np.linspace(-0.3, 0.3, 61)
        pb = _block_equals_scalar(S, np.full(vs.shape, 0.25), vs)
        nu = pb.forms.normal.t
        assert (np.abs(nu) < 0.1).sum() >= 5 and (np.abs(nu) > 0.1).sum() >= 5
        assert (nu > 0.0).all()

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


def _bits(pb) -> list[bytes]:
    """Bytes of every array of a PointBlock, jets, forms and masks included."""
    vecs = (*pb.jets[:6], pb.forms.normal)
    return [np.asarray(a).tobytes() for a in (
        *(c for w in vecs for c in (*w.htup, w.t)), pb.jets.bad, *pb.forms[:6],
        pb.forms.bad, pb.k1, pb.k2, *pb.d1, *pb.d2, pb.bad)]


_RUN_SURFACES = ("cylinder_circle", "cylinder_hermite")
_ODD_HEIGHTS = (math.nan, math.inf, -math.inf, 7.5)  # 7.5: above every cylinder's domain


class TestRuns:
    """A cylinder's block of jets names its runs of equal u, and the shape
    kernel computes each run once: bit for bit the kernel on every point."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(_RUN_SURFACES),
           runs=st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])),
                                   st.integers(1, 5)), min_size=1, max_size=8),
           data=st.data())
    def test_runs_equal_every_point(self, name, runs, data):
        S = SURFACES[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        us = np.array([u0 + f * (u1 - u0) if f else f for f, n in runs for _ in range(n)])
        vs = np.array(data.draw(st.lists(
            st.one_of(st.floats(v0, v1), st.sampled_from(_ODD_HEIGHTS)),
            min_size=len(us), max_size=len(us))))
        jets = S.jets(us, vs)
        repeats = (us[1:].view(np.int64) == us[:-1].view(np.int64)).any()
        assert (jets.run is not None) == bool(repeats)
        assert _bits(shape_block(jets, S.orientation)) \
            == _bits(shape_block(jets._replace(run=None), S.orientation))

    @pytest.mark.parametrize("name", _RUN_SURFACES)
    def test_signed_zeros_and_bad_heights_inside_runs(self, name):
        S = SURFACES[name]
        us = np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.5, 0.5, 0.5, 0.5])
        vs = np.array([math.nan, 0.1, 0.2, math.inf, 0.3, 0.4, 7.5, -0.5, -math.inf, 0.5])
        jets = S.jets(us, vs)
        assert jets.run.tolist() == [0, 0, 1, 1, 1, 2, 3, 3, 3, 3]
        pb = shape_block(jets, S.orientation)
        assert pb.bad.tolist() == [True, False, False, True, False, False, True, False, True,
                                   False]
        assert _bits(pb) == _bits(shape_block(jets._replace(run=None), S.orientation))

    def test_an_edited_block_drops_its_runs(self):
        """A chart whose array evaluator edits a cylinder's block (Xuu
        scaled above v = 0.25) gets a block without runs, so each point
        keeps its own shape data."""
        S = kinked(SURFACES["cylinder_circle"], 0.25, 2.0)
        us, vs = np.full(6, 1.0), np.linspace(0.0, 0.5, 6)
        assert S.chart.jets(us, vs).run is None
        pb = _block_equals_scalar(S, us, vs)
        assert pb.k2[0] != pb.k2[-1]

    def test_connection_block_runs_the_kernel_once_per_run(self, monkeypatch, circle_cylinder):
        """A ruling trace's transverse points lie on two rulings: the kernel
        sees 2 points, not 2,002, and the record keeps every bit."""
        sizes, real_forms, real_jets = [], curvature.forms_from_jets, Surface.jets

        def forms_from_jets(jets, orientation):
            sizes.append(len(jets.bad))
            return real_forms(jets, orientation)

        monkeypatch.setattr(curvature, "forms_from_jets", forms_from_jets)
        tr = trace_asymptotic(circle_cylinder, 1.0, 0.0, 1.0, 1e-3)
        assert len(tr) == 1001 and sizes == [2]
        sizes.clear()
        monkeypatch.setattr(Surface, "jets",
                            lambda S, us, vs: real_jets(S, us, vs)._replace(run=None))
        plain = trace_asymptotic(circle_cylinder, 1.0, 0.0, 1.0, 1e-3)
        assert sizes == [2002]
        assert tr.lam.tobytes() == plain.lam.tobytes() and tr.to_csv() == plain.to_csv()


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

    @pytest.mark.parametrize("name,points,brioschi", [
        ("cylinder_spline", 1, False),      # a block of POINT_BLOCK cells and a part
        ("perturbed_slice", 1, False),      # a block of POINT_BLOCK // 9 cells and a part
        ("graph_bilinear", 25, True),       # one block; a stencil sub-block and a part
        ("perturbed_cylinder", 1, True),    # a block and a part, which ends mid-sub-block
    ])
    def test_counts_not_a_multiple_of_the_block(self, name, points, brioschi):
        S = SURFACES[name]
        size = curvature.block_size(S, points)
        n, m = 7, size // 7 + 2  # 8 to 14 cells more than one block
        assert size < n * m < 2 * size
        assert not brioschi or (n * m) % curvature.block_size(S, 25)
        self._check(S, n, m, brioschi=brioschi)

    def test_tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(curvature, "POINT_BLOCK", 7)
        self._check(SURFACES["perturbed_cylinder"], 3, 5)
        self._check(SURFACES["graph_bump"], 5, 3)

    def test_chart_without_array_evaluator(self):
        S = SURFACES["perturbed_slice"]
        plain = dataclasses.replace(S, chart=lambda u, v, c=S.chart: c(u, v))
        assert curvature_grid(plain, 4, 4).to_csv() == curvature_grid(S, 4, 4).to_csv()

    def test_failing_block_runs_scalar(self, monkeypatch, perturbed_cylinder):
        # the failure hits what both grid paths call: the shape kernel, and
        # the jets of the cell centres or of the Brioschi stencils
        calls = []

        def boom(*_):
            calls.append(1)
            raise OverflowError("injected")

        for owner, name in ((curvature, "shape_block"), (Surface, "jets")):
            for brioschi in (True, False):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(owner, name, boom)
                    self._check(perturbed_cylinder, 4, 3, brioschi=brioschi)
                assert calls, (name, brioschi)

    def test_failing_stencil_sub_block_runs_its_cells_scalar(self, monkeypatch,
                                                              perturbed_cylinder):
        # three stencil sub-blocks of cells of a finite-difference chart, the
        # second of which raises; only its cells are evaluated alone
        size = curvature.block_size(perturbed_cylinder, 25)
        real_jets, real_shape_at, calls, alone = Surface.jets, curvature.shape_at, [], []

        def jets(S, us, vs):
            if S is perturbed_cylinder:  # not its base's blocks
                calls.append(len(us))
                if len(calls) == 2:
                    raise OverflowError("injected")
            return real_jets(S, us, vs)

        def shape_at(S, u, v, with_brioschi=True):
            alone.append((u, v))
            return real_shape_at(S, u, v, with_brioschi)

        monkeypatch.setattr(Surface, "jets", jets)
        monkeypatch.setattr(curvature, "shape_at", shape_at)
        self._check(perturbed_cylinder, 3, size)
        assert calls == [25 * size] * 3
        assert alone == curvature.grid_points(perturbed_cylinder, 3, size)[size:2 * size]

    @pytest.mark.parametrize("fd", [False, True])
    def test_each_point_evaluated_once(self, monkeypatch, fd):
        # a 10 x 10 Brioschi grid asks for the 25 stencil points of each cell,
        # the centre among them, and runs the shape kernel once: 100 cells fit
        # one block of POINT_BLOCK (analytic) or POINT_BLOCK // 9
        # (finite-difference) cells
        S = finite_difference_surface(preset("cylinder_circle")) if fd else SURFACES["slice"]
        real_jets, real_shape_block, points, kernel = Surface.jets, curvature.shape_block, [], []

        def jets(surface, us, vs):
            if surface is S:  # not its base's blocks
                points.append(len(us))
            return real_jets(surface, us, vs)

        def shape_block(jets, orientation):
            kernel.append(len(jets.bad))
            return real_shape_block(jets, orientation)

        monkeypatch.setattr(Surface, "jets", jets)
        monkeypatch.setattr(curvature, "shape_block", shape_block)
        curvature_grid(S, 10, 10)
        assert sum(points) == 2500 and max(points) * (9 if fd else 1) <= POINT_BLOCK
        assert kernel == [100]

    def test_nested_finite_differences_stay_within_the_block(self, monkeypatch):
        # a perturbed perturbed slice, as a config builds it: a jet costs
        # 9 x 9 evaluations of the slice chart, and no call of S.jets makes
        # more than POINT_BLOCK of them
        real_slice, inner = surfaces.make_slice, []

        def make_slice(*args, **kw):
            base = real_slice(*args, **kw)

            def chart(u, v):
                inner[-1] += 1
                return base.chart(u, v)

            def jets(us, vs):
                inner[-1] += len(us)
                return base.chart.jets(us, vs)

            chart.jets = jets
            return dataclasses.replace(base, chart=chart)

        real_jets = Surface.jets

        def top_jets(S, us, vs):
            inner.append(0)
            return real_jets(S, us, vs)

        monkeypatch.setattr(surfaces, "make_slice", make_slice)
        S = from_config({"kind": "perturbed", "eps": 1e-2,
                         "base": CORPUS_CONFIGS["perturbed_slice"]})
        monkeypatch.setattr(Surface, "jets", top_jets)
        grid = curvature_grid(S, 6, 6)
        assert {r.status for r in grid.rows} == {"ok"}
        assert sum(inner) == 36 * 25 * 81 and max(inner) <= POINT_BLOCK
        assert S.cost == 81

    def test_finite_difference_cylinders_stay_exactly_flat(self):
        g = curvature_grid(finite_difference_surface(preset("cylinder_circle")), 21, 21)
        assert max(abs(r.Kext) for r in g.rows) == 0.0
        assert max(abs(r.Kint_gauss) for r in g.rows) == 0.0


class TestBulkConnection:
    # SMALL_BLOCK makes blocks of 63 samples (analytic) and 7 (finite
    # differences), so each trace below crosses block boundaries and ends
    # mid-block whatever POINT_BLOCK is
    SMALL_BLOCK = 126

    @pytest.mark.parametrize("block", [None, SMALL_BLOCK])
    @pytest.mark.parametrize("name,seed", [
        ("cylinder_circle", (1.0, 0.0)), ("cylinder_inflection", (1.0, 0.0)),
        ("cylinder_spline", (0.4, 0.5)),
    ])
    def test_equals_scalar_reference(self, monkeypatch, name, seed, block):
        S = preset(name)
        monkeypatch.setattr(curvature, "POINT_BLOCK", block or POINT_BLOCK)
        tr = trace_asymptotic(S, *seed, 0.4, 1e-3)
        assert len(tr.lam) % curvature.block_size(S, 2)
        ref = scalar_lambdas(S, tr)
        assert all(_same(a, b) for a, b in zip(tr.lam, ref))

    @pytest.mark.parametrize("block", [None, SMALL_BLOCK])
    def test_finite_difference_surface(self, monkeypatch, block):
        S = finite_difference_surface(preset("cylinder_inflection"))
        monkeypatch.setattr(curvature, "POINT_BLOCK", block or POINT_BLOCK)
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


def test_outputs_do_not_depend_on_the_block(monkeypatch):
    """A Brioschi grid on a finite-difference chart, a recovered generating
    curve and a trace's connection coefficients have the same bytes at any
    POINT_BLOCK: at 7 every block is cut small, at 936 each of the three
    spans more than one block, and at 2808 the grid does."""
    fd, cylinder = SURFACES["perturbed_cylinder"], preset("cylinder_spline")

    def outputs():
        return (curvature_grid(fd, 19, 17).to_csv(),
                recover_generating_curve(cylinder, 0.2, 1201).points.tobytes(),
                trace_asymptotic(cylinder, 0.4, 0.5, 0.4, 1e-3).lam.tobytes())

    runs = []
    for block in (7, 936, POINT_BLOCK):
        monkeypatch.setattr(curvature, "POINT_BLOCK", block)
        runs.append(outputs())
    assert runs[0] == runs[1] == runs[2]
