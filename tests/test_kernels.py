"""The plain-float kernels of the sequential paths (Frenet curve build, jet
checks, unit normal, forms, principal curvatures) against the helper-based
references kept in conftest: same bits, same exceptions, same messages."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (h2_points, h2_unit_tangents, lifted, reference_curve, reference_forms,
                      reference_frames_at, reference_hermite_frame, reference_jet_checks,
                      reference_principal_curvatures, reference_unit_normal)
import h2xr
from h2xr.classifier import recover_generating_curve
from h2xr.curvature import FundamentalForms, forms_from_jet, principal_curvatures
from h2xr.errors import BadCurvatureFunction, GeometryError
from h2xr.hyperbolic import (_frenet_rk4_step, _rk4_positions, constant_curvature,
                             curve_from_curvature, linear_curvature, spline_curvature)
from h2xr.minkowski import _project_tangent
from h2xr.product import AmbientVec
from h2xr.surfaces import (CORPUS_CONFIGS, CYLINDER_PRESETS, SurfaceJet, check_jet,
                           from_config, preset, rescale_chart, unit_normal)
from test_bulk import SURFACES

FIELDS = ("X", "Xu", "Xv", "Xuu", "Xuv", "Xvv")

CURVATURES = {
    "constant": constant_curvature,
    "linear": lambda r: linear_curvature(r, 0.3),
    "spline": lambda r: spline_curvature([-2.0, -0.5, 1.0, 2.5], [0.4, r, -0.7, 0.9]),
    "lambda": lambda r: (lambda s: np.sin(r * s) + 0.2),
}


def _bits(x) -> list[str]:
    """Every number of nested tuples and arrays, with its sign of zero and
    NaN kept."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (tuple, list)):
        return [b for y in x for b in _bits(y)]
    return [] if x is None else [repr(float(x))]


def _outcome(fn, *args):
    """What fn(*args) gives: ('ok', the bits of its value) or the class and
    message of the GeometryError it raises."""
    try:
        out = fn(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)
    return "ok", _bits(out)


def _check(*fields) -> None:
    check_jet(SurfaceJet(*fields))


def _forms_bits(forms):
    return [forms.E, forms.F, forms.G, forms.L, forms.M2, forms.N2, forms.normal, forms.nu]


def _chain_matches_reference(fields):
    """Jet checks, then unit normal, forms and principal curvatures
    at both orientations: each stage agrees with its reference, exceptions
    included, and orientation -1 gives the flipped forms of +1.  Returns
    the forms at +1 (None where they raise)."""
    want = _outcome(reference_jet_checks, *fields)
    got = _outcome(_check, *fields)
    assert got[0] == want[0] and (got[0] == "ok" or got == want)
    if got[0] != "ok":
        return None
    jet = SurfaceJet(*fields)
    out = []
    for o in (1.0, -1.0):
        assert _outcome(unit_normal, jet, o) == _outcome(reference_unit_normal, jet, o)
        assert _outcome(lambda j: _forms_bits(forms_from_jet(j, o)), jet) \
            == _outcome(lambda j: _forms_bits(reference_forms(j, o)), jet)
        try:
            forms = forms_from_jet(jet, o)
        except GeometryError:
            return None
        assert _bits(principal_curvatures(forms)) \
            == _bits(reference_principal_curvatures(forms))
        out.append(forms)
    assert out[1] == out[0].flipped()  # equal values; a sum of zeros may lose its sign
    return out[0]


def _fields(jet):
    return tuple(getattr(jet, name) for name in FIELDS)


def _hand_built(P, w):
    """Jet fields at the footprint P from 21 numbers: tangent first
    derivatives, free second derivatives, any heights."""
    xu = AmbientVec(_project_tangent(P, tuple(w[0:3])), w[3])
    xv = AmbientVec(_project_tangent(P, tuple(w[4:7])), w[7])
    second = [AmbientVec(tuple(w[k:k + 3]), w[k + 3]) for k in (8, 12, 16)]
    return (AmbientVec(P, w[20]), xu, xv, *second)


class TestCurveBuild:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(CURVATURES)), r=st.floats(-1.5, 1.5),
           s0=st.floats(-2.0, 0.5), length=st.floats(0.01, 1.5),
           step=st.floats(0.002, 0.1), frame=st.one_of(st.none(), h2_unit_tangents(2.0)),
           with_direction=st.booleans(),
           fr=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_build_and_dense_frames_match_reference(self, kind, r, s0, length, step, frame,
                                                    with_direction, fr):
        k_g = CURVATURES[kind](r)
        start = None if frame is None else frame[0]
        direction = frame[1] if frame is not None and with_direction else None
        c = curve_from_curvature(k_g, (s0, s0 + length), step, start, direction)
        want = reference_curve(k_g, (s0, s0 + length), step, start, direction)
        for got, ref in zip((c.s, c.points, c.tangents, c.normals, c.kg), want):
            assert got.tobytes() == ref.tobytes()
        s = np.minimum(s0 + np.array(fr) * length, c.s_max)
        got, ref = c.frames_at(s), reference_frames_at(c, s)
        assert _bits(got) == _bits(ref)
        for k, x in enumerate(s.tolist()):
            a, t, n, _ = c.frame_at(x)
            assert _bits((a, t, n)) == _bits(tuple(tuple(y[k] for y in v) for v in ref))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(CURVATURES)), r=st.floats(-1.5, 1.5),
           rows=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
                         min_size=1, max_size=20))
    def test_position_stages_match_the_full_step(self, kind, r, rows):
        """The position-only RK4 stages on stacked coordinates give the bits
        of the full step's position, frame by frame."""
        x = np.array(rows).T
        k_g = CURVATURES[kind](r)
        a, t, n, (k, s, h) = x[0:3], x[3:6], x[6:9], x[9:12]
        full = _frenet_rk4_step(tuple(a), tuple(t), tuple(n), k, s, h, k_g)
        assert _bits(_rk4_positions(a, t, n, k, s, h, k_g)) == _bits(full[0])

    @pytest.mark.parametrize("name", CYLINDER_PRESETS)
    def test_dense_frames_take_the_first_stage_from_the_samples(self, name):
        """frames_at and frame_at read the first RK4 stage's curvature from
        the stored kg, the build's own kg_fn value at the sample: the frames
        keep the bits of the old expression (kg_fn called there), with two
        curvature calls per array evaluation and three per frame_at (the
        third is kg_at)."""
        base = from_config(CORPUS_CONFIGS[name]).curve
        assert base.interpolation == "rk4"
        assert base.kg.tobytes() == np.broadcast_to(base.kg_fn(base.s), base.s.shape).tobytes()
        calls = []

        def kg_fn(s):
            calls.append(s)
            return base.kg_fn(s)

        c = dataclasses.replace(base, kg_fn=kg_fn)
        s = np.linspace(c.s_min, c.s_max, 2001)
        ref = reference_frames_at(base, s)
        assert _bits(c.frames_at(s)) == _bits(ref)
        assert len(calls) == 2
        mids = 0.5 * (c.s[:-1] + c.s[1:])
        ref = reference_frames_at(base, mids)
        for k, x in enumerate(mids[::37].tolist()):
            calls.clear()
            assert _bits(c.frame_at(x)[:3]) == _bits(
                tuple(tuple(y[37 * k] for y in v) for v in ref))
            assert len(calls) == 3

    def test_hermite_frame_at_matches_scalar_reference(self):
        """frame_at on a recovered curve reads frames_at at one arclength: the
        bits of the scalar Hermite formula at 5,000 arclengths and at every
        one of the 50 samples."""
        c = recover_generating_curve(preset("cylinder_spline"), 0.3, 50)
        for s in np.concatenate([np.linspace(c.s_min, c.s_max, 5000), c.s]).tolist():
            assert _bits(c.frame_at(s)[:3]) == _bits(reference_hermite_frame(c, s))

    @settings(max_examples=30, deadline=None)
    @given(fr=st.floats(-0.05, 0.95), step=st.floats(0.005, 0.1))
    def test_nan_curvature_names_first_bad_arclength(self, fr, step):
        s_bad = -1.0 + 2.0 * fr

        def k_g(s):
            return math.nan if s > s_bad else 0.5

        with pytest.raises(BadCurvatureFunction) as got:
            curve_from_curvature(k_g, (-1.0, 1.0), step)
        with pytest.raises(BadCurvatureFunction) as want:
            reference_curve(k_g, (-1.0, 1.0), step)
        assert str(got.value) == str(want.value)


POINT_SURFACES = dict(SURFACES, rescaled_circle=rescale_chart(preset("cylinder_circle"),
                                                              2.0, -0.5))


class TestPointChain:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(POINT_SURFACES)), fu=st.floats(0.02, 0.98),
           fv=st.floats(0.02, 0.98))
    def test_chart_jets_match_reference(self, name, fu, fv):
        S = POINT_SURFACES[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        jet = S.jet(u0 + fu * (u1 - u0), v0 + fv * (v1 - v0))
        assert _chain_matches_reference(_fields(jet)) is not None

    def test_orientation_switch_both_sides(self):
        # |nu| = 1 / sqrt(1 + STEEP^2 / cosh^2 v) crosses 0.1 at |v| ~ 0.1,
        # where an earlier rule switched the normal's side; the signed nu
        # keeps its sign across
        S = SURFACES["graph_steep"]
        nus = [_chain_matches_reference(_fields(S.jet(0.25, v))).nu
               for v in np.linspace(-0.3, 0.3, 61).tolist()]
        assert sum(abs(nu) < 0.1 for nu in nus) >= 5 and sum(abs(nu) > 0.1 for nu in nus) >= 5
        assert all(nu > 0.0 for nu in nus)

    @settings(max_examples=200, deadline=None)
    @given(p=h2_points(3.0), w=st.lists(st.floats(-3.0, 3.0), min_size=21, max_size=21))
    def test_random_jets_match_reference(self, p, w):
        # footprints include x1 = +-0.0
        _chain_matches_reference(_hand_built(p, w))

    def test_many_generic_jets_match_reference(self):
        # generic floats, where a float power and a product round apart on
        # about one square in a thousand
        rng = np.random.default_rng(5)
        for x1, x2, *w in rng.uniform(-3.0, 3.0, (3000, 23)).tolist():
            _chain_matches_reference(_hand_built((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2), w))

    @settings(max_examples=200, deadline=None)
    @given(efg=st.tuples(*[st.integers(-3, 3)] * 6))
    def test_integer_forms_match_reference(self, efg):
        # small integers make rows of II - k I vanish exactly, and umbilics
        E, F, G, L, M2, N2 = (float(x) for x in efg)
        if not (E > 0.0 and G > 0.0 and E * G - F * F > 0.0):
            return
        forms = FundamentalForms(E, F, G, L, M2, N2, AmbientVec((0.0, 0.0, 0.0), 1.0), 1.0)
        assert _bits(principal_curvatures(forms)) == _bits(reference_principal_curvatures(forms))

    def test_float_powers_kept(self):
        # at the origin the normal's unnormalized coordinates are (0, -a, b),
        # and for these a, b the float powers and the products give norms a
        # bit apart
        a, b = 1.739337546345596, 1.6145411344076464
        assert math.sqrt(a ** 2 + b ** 2) != math.sqrt(a * a + b * b)
        xu, xv = AmbientVec((0.0, 1.0, 0.0), 0.0), AmbientVec((0.0, 0.0, b), a)
        _chain_matches_reference((AmbientVec((1.0, 0.0, 0.0), 0.0), xu, xv, xu, xv, xu))

    def test_zero_x1_footprints(self):
        for x1 in (0.0, -0.0):
            P = (1.0, x1, 0.0)
            xu = AmbientVec((0.0, 1.0, 0.0), 0.05)
            xv = AmbientVec((0.0, -0.0, 1.0), -0.02)
            _chain_matches_reference((AmbientVec(P, 0.0), xu, xv, xu, xv, xu))


LIFTED_SURFACES = dict({name: preset(name) for name in CORPUS_CONFIGS},
                       graph_bump=SURFACES["graph_bump"], fd_graph=SURFACES["fd_graph"])


class TestVerticalTranslation:
    """Vertical translations are isometries of H2xR: the forms and the
    shape operator never read a jet's height, which flows._principal_at's
    memo of shape data relies on."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(LIFTED_SURFACES)), fu=st.floats(0.02, 0.98),
           fv=st.floats(0.02, 0.98), c=st.floats(-1e300, 1e300))
    def test_shape_data_ignore_the_height(self, name, fu, fv, c):
        S = LIFTED_SURFACES[name]
        (u0, u1), (v0, v1) = S.domain.u_range, S.domain.v_range
        u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
        jet, up = S.jet(u, v), lifted(S, c).jet(u, v)
        assert up.X.t == jet.X.t + c and up[1:] == jet[1:]
        o = S.orientation
        assert _outcome(forms_from_jet, up, o) == _outcome(forms_from_jet, jet, o)
        assert _outcome(lambda j: principal_curvatures(forms_from_jet(j, o)), up) \
            == _outcome(lambda j: principal_curvatures(forms_from_jet(j, o)), jet)


def _good_fields():
    return _fields(preset("cylinder_circle").jet(1.0, 0.5))


def _spoil(fields, name, w):
    out = list(fields)
    out[FIELDS.index(name)] = w
    return tuple(out)


class TestExceptionParity:
    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("where", [0, 1, 2, "t"])
    def test_nan_in_each_field(self, name, where):
        fields = _good_fields()
        h, t = fields[FIELDS.index(name)]
        if where == "t":
            w = AmbientVec(h, math.nan)
        else:
            w = AmbientVec(tuple(math.nan if k == where else x for k, x in enumerate(h)), t)
        spoiled = _spoil(fields, name, w)
        want = _outcome(reference_jet_checks, *spoiled)
        assert want[0] == "NumericalError"
        assert _outcome(_check, *spoiled) == want

    @pytest.mark.parametrize("case", ["off_sheet", "lower_sheet", "non_tangent_xu",
                                      "non_tangent_xv_huge_height", "degenerate_gram"])
    def test_rejected_jets(self, case):
        fields = _good_fields()
        (p, pt), (hu, ut) = fields[0], fields[1]
        if case == "off_sheet":
            spoiled = _spoil(fields, "X", AmbientVec(tuple(1.01 * x for x in p), pt))
        elif case == "lower_sheet":
            spoiled = _spoil(fields, "X", AmbientVec(tuple(-x for x in p), pt))
        elif case == "non_tangent_xu":
            spoiled = _spoil(fields, "Xu", AmbientVec(tuple(a + 0.5 * b for a, b in zip(hu, p)), ut))
        elif case == "non_tangent_xv_huge_height":
            # the square of Xu's height overflows, which the tangency check
            # of Xv must precede, as in the reference
            (hv, vt) = fields[2]
            spoiled = _spoil(_spoil(fields, "Xu", AmbientVec(hu, 1e200)), "Xv",
                             AmbientVec(tuple(a + 0.5 * b for a, b in zip(hv, p)), vt))
        else:
            spoiled = _spoil(fields, "Xv", fields[1])
        want = _outcome(reference_jet_checks, *spoiled)
        assert want[0] in ("NumericalError", "NotImmersed")
        assert _outcome(_check, *spoiled) == want

    def test_parallel_derivatives(self):
        fields = dict(zip(FIELDS, _good_fields()))
        hu, ut = fields["Xu"]
        # check_jet would reject it; the normal and the forms are reached
        # unchecked
        jet = SurfaceJet(**dict(fields, Xv=AmbientVec(tuple(2.0 * x for x in hu), 2.0 * ut)))
        for o in (1.0, -1.0):
            want = _outcome(reference_unit_normal, jet, o)
            assert want == ("NotImmersed", "first derivatives are parallel")
            assert _outcome(unit_normal, jet, o) == want
            assert _outcome(forms_from_jet, jet, o) == _outcome(reference_forms, jet, o) \
                == ("NotImmersed", "degenerate jet")


def test_no_library_function_rebinds_outer_state():
    """No ``global`` or ``nonlocal`` statement in the library: no function
    rebinds a module's or an enclosing function's variable, through which
    one call could hand its result to another (another thread's, or one on
    a surface of the other orientation)."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(h2xr.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert found == []
