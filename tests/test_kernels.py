"""The plain-float kernels of the sequential paths (Frenet curve build, jet
checks, unit normal, forms, principal curvatures) against the helper-based
references kept in conftest: same bits, same exceptions, same messages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (h2_points, h2_unit_tangents, reference_curve, reference_forms,
                      reference_frames_at, reference_hermite_frame, reference_jet_checks,
                      reference_principal_curvatures, reference_unit_normal)
from h2xr.classifier import recover_generating_curve
from h2xr.curvature import FundamentalForms, forms_from_jet, principal_curvatures
from h2xr.errors import BadCurvatureFunction, GeometryError
from h2xr.hyperbolic import (constant_curvature, curve_from_curvature, linear_curvature,
                             spline_curvature)
from h2xr.minkowski import _project_tangent
from h2xr.product import AmbientVec
from h2xr.surfaces import SurfaceJet, preset, rescale_chart, unit_normal
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
    SurfaceJet(*fields)


def _forms_bits(forms):
    return [forms.E, forms.F, forms.G, forms.L, forms.M2, forms.N2, forms.normal, forms.nu]


def _chain_matches_reference(fields):
    """SurfaceJet checks, then unit normal, forms and principal curvatures:
    each stage agrees with its reference, exceptions included."""
    want = _outcome(reference_jet_checks, *fields)
    got = _outcome(_check, *fields)
    assert got[0] == want[0] and (got[0] == "ok" or got == want)
    if got[0] != "ok":
        return None
    jet = SurfaceJet(*fields)
    assert _outcome(unit_normal, jet) == _outcome(reference_unit_normal, jet)
    assert _outcome(lambda j: _forms_bits(forms_from_jet(j)), jet) \
        == _outcome(lambda j: _forms_bits(reference_forms(j)), jet)
    try:
        forms = forms_from_jet(jet)
    except GeometryError:
        return None
    assert _bits(principal_curvatures(forms)) == _bits(reference_principal_curvatures(forms))
    return forms


def _fields(jet):
    return tuple(getattr(jet, name) for name in FIELDS)


def _hand_built(P, w):
    """Jet fields at the footprint P from 21 numbers: tangent first
    derivatives, free second derivatives, any heights."""
    xu = AmbientVec(_project_tangent(P, tuple(w[0:3])), w[3])
    xv = AmbientVec(_project_tangent(P, tuple(w[4:7])), w[7])
    second = [AmbientVec(tuple(w[k:k + 3]), w[k + 3]) for k in (8, 12, 16)]
    return (AmbientVec(P, w[20]), xu, xv, *second)


def _unchecked(**fields) -> SurfaceJet:
    """A SurfaceJet that skipped its checks, to reach those of the normal
    and the forms."""
    jet = object.__new__(SurfaceJet)
    for name, w in fields.items():
        object.__setattr__(jet, name, w)
    return jet


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
        start = None if frame is None else frame.base
        direction = frame if frame is not None and with_direction else None
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
        # |nu| = 1 / sqrt(1 + STEEP^2 / cosh^2 v) crosses 0.1 at |v| ~ 0.1
        S = SURFACES["graph_steep"]
        nus = [_chain_matches_reference(_fields(S.jet(0.25, v))).nu
               for v in np.linspace(-0.3, 0.3, 61).tolist()]
        assert sum(abs(nu) < 0.1 for nu in nus) >= 5 and sum(abs(nu) > 0.1 for nu in nus) >= 5

    @settings(max_examples=200, deadline=None)
    @given(p=h2_points(3.0), w=st.lists(st.floats(-3.0, 3.0), min_size=21, max_size=21))
    def test_random_jets_match_reference(self, p, w):
        # footprints include x1 = +-0.0
        _chain_matches_reference(_hand_built(p.tup, w))

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
        jet = _unchecked(**dict(fields, Xv=AmbientVec(tuple(2.0 * x for x in hu), 2.0 * ut)))
        want = _outcome(reference_unit_normal, jet)
        assert want == ("NotImmersed", "first derivatives are parallel")
        assert _outcome(unit_normal, jet) == want
        assert _outcome(forms_from_jet, jet) == _outcome(reference_forms, jet) \
            == ("NotImmersed", "degenerate jet")
