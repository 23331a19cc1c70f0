"""Cylinder detection pipeline: flatness, planar mapping, rulings, recovery."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.classifier import (CYLINDER, INCONSISTENT, NOT_FLAT, ClassifierConfig,
                             classify_surface, extract_rulings, flatness_scan,
                             planar_set_map, recover_generating_curve, verdict_to_json)
from h2xr.curvature import PARABOLIC, curvature_grid
from h2xr.errors import EmptyIntersection, NotParabolic
from h2xr.hyperbolic import ORIGIN_T, curvature_profile, curve_hausdorff, h2_dist
from h2xr.product import ProdGeodesic
from h2xr.surfaces import (CORPUS_CONFIGS, CYLINDER_PRESETS, ChartDomain,
                           finite_difference_surface, from_config, perturb, preset)
from h2xr.verification import parabolic_seeds

from conftest import (COTH1, bent_chart, faulty_at_cell_centres, h2_covariant_deriv, lifted,
                      measure_geodesic_curvature, reparametrised, tangent_norm)


class TestFlatnessScan:
    def test_circle_cylinder_passes(self, circle_cylinder):
        rep = flatness_scan(circle_cylinder, 20, 1e-6)
        assert rep.passed
        assert rep.max_abs_Kint < 1e-8
        assert rep.max_abs_Kext < 1e-10

    def test_slice_fails_with_unit_curvature(self, slice_surface):
        rep = flatness_scan(slice_surface, 20, 1e-6)
        assert not rep.passed
        assert rep.max_abs_Kint == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_cylinder_fails(self, perturbed_cylinder):
        assert not flatness_scan(perturbed_cylinder, 20, 1e-6).passed


class TestPlanarSetMap:
    def test_inflection_vertical_strip(self, inflection_cylinder):
        grid = curvature_grid(inflection_cylinder, 21, 21, brioschi=False)
        pmap = planar_set_map(inflection_cylinder, grid)
        assert len(pmap.components) == 1
        comp = pmap.components[0]
        du = 3.0 / 21.0
        assert comp.u_range[0] <= 0.0 <= comp.u_range[1]
        assert comp.u_range[1] - comp.u_range[0] <= 2.0 * du + 1e-9
        # the strip runs the full height of the chart
        assert comp.v_range[0] == pytest.approx(-3.0, abs=1e-12)
        assert comp.v_range[1] == pytest.approx(3.0, abs=1e-12)

    def test_circle_has_no_planar_cells(self, circle_cylinder):
        grid = curvature_grid(circle_cylinder, 21, 21, brioschi=False)
        pmap = planar_set_map(circle_cylinder, grid)
        assert pmap.components == []

    def test_geodesic_cylinder_fully_planar(self, geodesic_cylinder):
        grid = curvature_grid(geodesic_cylinder, 21, 21, brioschi=False)
        pmap = planar_set_map(geodesic_cylinder, grid)
        assert len(pmap.components) == 1
        assert len(pmap.components[0].cells) == 21 * 21


class TestExtractRulings:
    def test_circle_rulings_are_vertical(self, circle_cylinder):
        seeds = parabolic_seeds(circle_cylinder, 10)
        rulings = extract_rulings(circle_cylinder, seeds, 5.0, 1e-3, 1e-7)
        assert len(rulings) == 10
        assert max(r.verticality for r in rulings) < 1e-7

    def test_tilted_control_detected(self):
        """A tilted geodesic sampled as a fake ruling drifts by a_h * s."""
        from h2xr.classifier import _ruling_verticality
        from test_flows import control_record
        r2 = math.sqrt(0.5)
        geo = ProdGeodesic.from_tangent(ORIGIN_T, 0.0, (0.0, r2, 0.0), r2)
        s = np.arange(0.0, 1.0 + 5e-4, 1e-3)
        feet, heights = zip(*(geo.point(float(v)) for v in s))
        tr = control_record(s, np.zeros((len(s), 2)), feet, heights, 1e-3)
        drift = _ruling_verticality(tr)
        assert drift == pytest.approx(r2, abs=1e-9)

    def test_geodesic_cylinder_has_no_parabolic_seeds(self, geodesic_cylinder):
        with pytest.raises(NotParabolic):
            extract_rulings(geodesic_cylinder, [(0.0, 0.0)], 5.0, 1e-3, 1e-7)


class TestRecovery:
    def test_circle_curvature_recovered(self, circle_cylinder):
        rec = recover_generating_curve(circle_cylinder, 0.0, 1201)
        # measured through the covariant-derivative oracle on the samples
        for s in np.linspace(rec.s_min + 0.2, rec.s_max - 0.2, 7):
            acc = h2_covariant_deriv(rec, rec.tangents, float(s))
            assert tangent_norm(acc) == pytest.approx(COTH1, abs=1e-5)

    def test_inflection_profile_recovered_at_height_two(self, inflection_cylinder):
        rec = recover_generating_curve(inflection_cylinder, 2.0, 1201)
        u0 = inflection_cylinder.domain.u_range[0]
        for k in range(100, 1101, 200):  # node positions; the oracle measures there
            s = float(rec.s[k])
            measured = measure_geodesic_curvature(rec, s)
            assert measured == pytest.approx(u0 + s, abs=1e-4)

    def test_slice_misses_offset_height(self, slice_surface):
        with pytest.raises(EmptyIntersection):
            recover_generating_curve(slice_surface, 1.0, 301)


class TestClassifySurface:
    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    def test_rulings_exactly_vertical(self, name):
        # ruling footprints coincide with the seed's, so the accurate
        # distance reads zero drift, far below the classifier tolerance
        v = classify_surface(preset(name))
        assert v.verdict == CYLINDER
        assert v.ruling_verticality < 1e-12

    def test_circle_cylinder(self, circle_cylinder):
        v = classify_surface(circle_cylinder)
        assert v.verdict == CYLINDER
        assert v.ruling_verticality < 1e-7
        assert v.generating_curve is not None

    def test_slice_not_flat(self, slice_surface):
        v = classify_surface(slice_surface)
        assert v.verdict == NOT_FLAT
        assert v.evidence.flatness.max_abs_Kint == pytest.approx(1.0, abs=1e-9)

    def test_inflection_mixed_sets(self, inflection_cylinder):
        v = classify_surface(inflection_cylinder)
        assert v.verdict == CYLINDER
        assert v.evidence.planar_map is not None
        assert len(v.evidence.planar_map.components) == 1  # the planar strip
        assert len(v.evidence.rulings) >= 5

    def test_ruling_seeds_are_python_floats(self, inflection_cylinder):
        # numpy scalars would carry numpy arithmetic through every RK4 step
        rulings = classify_surface(inflection_cylinder).evidence.rulings
        assert rulings and all(type(x) is float for r in rulings for x in r.seed)

    def test_geodesic_cylinder_planar_branch(self, geodesic_cylinder):
        v = classify_surface(geodesic_cylinder)
        assert v.verdict == CYLINDER
        assert v.evidence.rulings == []
        assert v.evidence.notes == [
            "totally geodesic chart; rulings degenerate to the vertical field"]
        assert v.generating_curve is not None
        _, kg = curvature_profile(v.generating_curve)
        assert np.max(np.abs(kg)) < 1e-6

    @pytest.mark.parametrize("v_min, failed", [(2.8, 21), (2.0, 63)])
    def test_failed_cells_make_the_scan_inconclusive(self, circle_cylinder, v_min, failed):
        # the maxima over the cells that did evaluate are flat, so without
        # the failure count this chart would pass as a cylinder
        v = classify_surface(faulty_at_cell_centres(circle_cylinder, 21, v_min))
        assert v.verdict == INCONSISTENT
        assert v.evidence.notes == [f"flatness scan: {failed} cells failed with NOT_IMMERSED"]
        assert verdict_to_json(v)["notes"] == v.evidence.notes

    def test_recovered_curve_hausdorff(self, circle_cylinder, circle_curve):
        v = classify_surface(circle_cylinder)
        assert curve_hausdorff(v.generating_curve, circle_curve) < 1e-5

    def test_t0_independence(self, circle_cylinder):
        a = recover_generating_curve(circle_cylinder, -1.0, 801)
        b = recover_generating_curve(circle_cylinder, 1.5, 801)
        worst = max(h2_dist(tuple(a.points[i]), tuple(b.points[i]))
                    for i in range(0, len(a.s), 40))
        assert worst < 1e-6


# Theorem 1 beyond the corpus: spline cylinders with the knots of
# cylinder_spline and random curvatures there, at reduced sizes (about 0.25 s
# a classification on a 2-core VM; 1-2 s on a finite-difference twin or on a
# reparametrised chart, which has no array evaluator)
SMALL = ClassifierConfig(grid_n=11, trace_length=1.0, recovery_samples=301)
KNOT_CURVATURES = st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5)
CURVATURE = st.floats(-1.5, 1.5)


def _spline_cylinder_config(knots_k):
    return dict(CORPUS_CONFIGS["cylinder_spline"], label="random_spline",
                curve=dict(CORPUS_CONFIGS["cylinder_spline"]["curve"], knots_k=knots_k))


class TestTheorem1Properties:
    @settings(max_examples=4, deadline=None)
    @given(knots_k=KNOT_CURVATURES, c=st.floats(-5.0, 5.0))
    def test_random_spline_cylinder_is_recovered(self, knots_k, c):
        """A flat vertical surface is a cylinder, and the classifier finds
        its generating curve; a vertical translation changes neither."""
        cfg = _spline_cylinder_config(knots_k)
        S = from_config(cfg)
        for D in (S, lifted(S, c)):
            v = classify_surface(D, SMALL)
            assert v.verdict == CYLINDER, (D.label, knots_k, v.evidence.notes)
            assert curve_hausdorff(v.generating_curve, S.curve) < 1e-5, (D.label, knots_k)

    @settings(max_examples=2, deadline=None)
    @given(knots_k=KNOT_CURVATURES)
    def test_chart_changes_keep_the_cylinder(self, knots_k):
        """The verdict and the curve belong to the surface, not to its chart:
        the finite-difference twin and the orientation-preserving
        reparametrisation ``bent_chart`` (whose u range shrinks, so its curve
        is the start of the true one) are cylinders over the same curve."""
        cfg = _spline_cylinder_config(knots_k)
        S = from_config(cfg)
        for D in (finite_difference_surface(S), bent_chart(S)):
            v = classify_surface(D, SMALL)
            assert v.verdict == CYLINDER, (D.label, knots_k, v.evidence.notes)
            true_curve = from_config(dict(cfg, domain={"u": D.domain.u_range})).curve
            assert curve_hausdorff(v.generating_curve, true_curve) < 1e-5, (D.label, knots_k)

    @settings(max_examples=4, deadline=None)
    @given(k=CURVATURE)
    def test_random_constant_cylinder_is_recovered(self, k):
        """Geodesic, hypercycle, horocycle and circle cylinders alike."""
        self._check_recovered({"kind": "constant", "value": k})

    @settings(max_examples=4, deadline=None)
    @given(k0=CURVATURE, k1=CURVATURE)
    def test_random_linear_cylinder_is_recovered(self, k0, k1):
        """Curvature k0 at one end of the chart and k1 at the other, so the
        planar set may be a strip anywhere in the chart, or the whole of it."""
        self._check_recovered({"kind": "linear", "slope": (k1 - k0) / 3.0,
                               "intercept": 0.5 * (k0 + k1)})

    def test_weakly_curved_cylinder_is_recovered(self):
        """Cells parabolic at planar_tol but too weakly curved to trace a
        ruling from (|k2| - |k1| < 10 planar_tol) seed none: the chart takes
        the planar branch, whose recovered curve is a geodesic to 100
        planar_tol, and whose note says why it traced nothing."""
        v = self._check_recovered({"kind": "constant", "value": 5e-7})
        assert any(r.cls == PARABOLIC for r in v.evidence.flatness.grid.rows)
        assert (v.ruling_verticality, v.evidence.rulings) == (0.0, [])
        assert v.evidence.notes == ["chart too weakly curved to trace: no parabolic cell "
                                    "separates its principal curvatures by 10 planar_tol"]

    def test_geodesic_cylinder_on_a_chart_off_arclength_is_recovered(self):
        """On the chart u -> u + 0.3 u^3 of the geodesic cylinder the
        recovered curve's samples are not uniform in arclength; the planar
        branch reads their geodesic curvatures, so the verdict holds, over
        the geodesic segment from u = -1.3 to 1.3 of the preset's chart."""
        S = preset("cylinder_geodesic")

        def phi(u, v):
            return ((u + 0.3 * u ** 3, v), ((1.0 + 0.9 * u * u, 0.0), (0.0, 1.0)),
                    ((1.8 * u, 0.0, 0.0), (0.0, 0.0, 0.0)))

        D = reparametrised(S, phi, ChartDomain((-1.0, 1.0), S.domain.v_range), "cubic")
        v = classify_surface(D, SMALL)
        assert v.verdict == CYLINDER, v.evidence.notes
        c = v.generating_curve
        ends = [S.jet(u, 0.0).X.htup for u in (-1.3, 1.3)]
        assert c.s[-1] - c.s[0] == pytest.approx(2.6, abs=1e-6)
        assert h2_dist(*ends) == pytest.approx(2.6, abs=1e-12)
        assert max(h2_dist(tuple(c.points[i]), p) for i, p in ((0, ends[0]), (-1, ends[1]))) \
            < 1e-7

    @staticmethod
    def _check_recovered(curve):
        cfg = {"kind": "cylinder", "label": "random", "curve": curve,
               "domain": {"u": [-1.5, 1.5]}}
        S = from_config(cfg)
        v = classify_surface(S, SMALL)
        assert v.verdict == CYLINDER, (curve, v.evidence.notes)
        assert curve_hausdorff(v.generating_curve, S.curve) < 1e-5, curve
        return v

    @settings(max_examples=5, deadline=None)
    @given(knots_k=KNOT_CURVATURES)
    def test_bumped_spline_cylinder_is_not_flat(self, knots_k):
        S = from_config(_spline_cylinder_config(knots_k))
        assert classify_surface(perturb(S, 1e-2), SMALL).verdict == NOT_FLAT, knots_k


class TestVerdictJson:
    def test_schema_keys(self, circle_cylinder):
        v = classify_surface(circle_cylinder)
        d = verdict_to_json(v)
        for key in ("verdict", "ruling_verticality", "flatness",
                    "planar_components", "generating_curve"):
            assert key in d
        assert d["verdict"] == CYLINDER
        assert isinstance(d["generating_curve"], list)
        assert len(d["generating_curve"][0]) == 3
        json.dumps(d)  # must be serializable (no NaN)

    def test_not_flat_serialization(self, slice_surface):
        d = verdict_to_json(classify_surface(slice_surface))
        assert d["verdict"] == NOT_FLAT
        assert d["generating_curve"] is None
        json.dumps(d)
