"""Generating-curve recovery on the array path: the bits of the
sample-by-sample loop (``conftest.scalar_recover_generating_curve``), and
the same first failure, class and message, on faulty charts."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr import classifier, curvature
from h2xr.classifier import recover_generating_curve
from h2xr.errors import EmptyIntersection, NotImmersed, NumericalError
from h2xr.product import AmbientVec
from h2xr.surfaces import (CYLINDER_PRESETS, Surface, SurfaceJet, _jet_block,
                           finite_difference_surface, preset)

from conftest import bent_chart, reference_slice_hits, scalar_recover_generating_curve


def outcome(recover, S, t0, n):
    """The recovered curve's arrays as bytes, or the class and message of
    what the recovery raised."""
    try:
        c = recover(S, t0, n)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return type(exc), str(exc)
    return [a.tobytes() for a in (c.s, c.points, c.tangents, c.normals, c.kg)]


def same_as_loop(S, t0, n):
    got = outcome(recover_generating_curve, S, t0, n)
    assert got == outcome(scalar_recover_generating_curve, S, t0, n)
    return got


def resliced(S: Surface, phi, label: str) -> Surface:
    """The cylinder S (chart (u, v) -> (alpha(u), v)) with its height v
    replaced by ``phi(u, v)``: the same surface, sliced along other chart
    curves.  ``phi`` returns the height and its partials t, tu, tv, tuu, tuv,
    tvv with arithmetic and ``np.sqrt`` only, so float and array values
    have the same bits; the chart keeps S's array evaluator."""

    def jet(j, u, v, make):
        return make(*(AmbientVec(w.htup, c) for w, c in zip(j[:6], phi(u, v))))

    def chart(u: float, v: float) -> SurfaceJet:
        return jet(S.chart(u, v), u, v, SurfaceJet)

    def jets(us, vs):
        j = S.chart.jets(us, vs)
        return jet(j, us, vs, lambda *ws: _jet_block(*ws, bad=j.bad))

    chart.jets = jets
    return dataclasses.replace(S, chart=chart, label=label)


def quadratic(u, v):
    """v + v^2 / 8: at the slice t = 1.1 every root search of the chain ends
    on the midpoint of its last bracket, so a hit is a chart point the
    chain never evaluated."""
    return v + v * v / 8.0, 0.0 * u, 1.0 + v / 4.0, 0.0, 0.0, 0.25


def stepped(c: float, k: float, a: float = 1.5):
    """v + a s(u) with s a smooth step of slope k / 4 at u = c: across the
    step the slice jumps by a, more than a root bracket's width."""

    def phi(u, v):
        x = k * (u - c)
        r = np.sqrt(1.0 + x * x)
        return (v + a * (0.5 + 0.5 * x / r), a * 0.5 * k / (r * r * r), 1.0,
                a * -1.5 * k * k * x / (r * r * r * r * r), 0.0, 0.0)

    return phi


def faulty(S: Surface, points=(), columns=(), tilted=()) -> Surface:
    """S whose chart raises NotImmersed at the chart points ``points`` and
    in the columns u in ``columns``, and whose Xv is horizontal (the slice
    is not transversal there, the chart still immersed) in the columns
    ``tilted``; its array evaluator flags and changes the same points."""

    def raises(u, v):
        return (u, v) in points or u in columns

    def chart(u: float, v: float) -> SurfaceJet:
        if raises(u, v):
            raise NotImmersed(f"injected fault at ({u}, {v})")
        j = S.chart(u, v)
        if u in tilted:
            return j._replace(Xu=AmbientVec(j.Xu.htup, j.Xv.t), Xv=AmbientVec(j.Xu.htup, 0.0))
        return j

    def jets(us, vs):
        j = S.chart.jets(us, vs)
        bad = j.bad | np.array([raises(u, v) for u, v in zip(us.tolist(), vs.tolist())],
                               dtype=bool)
        t = np.isin(us, list(tilted))
        Xu = AmbientVec(j.Xu.htup, np.where(t, j.Xv.t, j.Xu.t))
        Xv = AmbientVec(tuple(np.where(t, a, b) for a, b in zip(j.Xu.htup, j.Xv.htup)),
                        np.where(t, 0.0, j.Xv.t))
        return _jet_block(j.X, Xu, Xv, j.Xuu, j.Xuv, j.Xvv, bad=bad)

    chart.jets = jets
    return dataclasses.replace(S, chart=chart, label=f"{S.label}+fault")


QUADRATIC = resliced(preset("cylinder_inflection"), quadratic, "inflection+quadratic")
T0, N = 1.1, 61


class TestBitParity:
    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(CYLINDER_PRESETS), t0=st.floats(-2.9, 2.9),
           n=st.integers(9, 400))
    def test_presets(self, name, t0, n):
        assert isinstance(same_as_loop(preset(name), t0, n), list)

    @settings(max_examples=6, deadline=None)
    @given(kind=st.sampled_from(["fd", "perturbed", "bent", "quadratic"]),
           name=st.sampled_from(CYLINDER_PRESETS), t0=st.floats(-1.5, 2.0),
           n=st.integers(9, 90))
    def test_other_charts(self, kind, name, t0, n):
        """A finite-difference twin, the perturbed preset (finite
        differences of a bumped chart), a reparametrised chart with no
        array evaluator, and a resliced one with one."""
        S = {"fd": lambda: finite_difference_surface(preset(name)),
             "perturbed": lambda: preset("perturbed_cylinder"),
             "bent": lambda: bent_chart(preset(name)),
             "quadratic": lambda: resliced(preset(name), quadratic, "quadratic")}[kind]()
        assert isinstance(same_as_loop(S, t0, n), list)

    @pytest.mark.parametrize("name, fd", [("cylinder_inflection", False),
                                          ("cylinder_spline", True)])
    def test_counts_not_a_multiple_of_the_block(self, name, fd):
        S = finite_difference_surface(preset(name)) if fd else preset(name)
        with mock.patch.object(curvature, "POINT_BLOCK", 7 * (9 if fd else 1)):
            assert curvature.block_size(S, 1) == 7
            assert isinstance(same_as_loop(S, 0.3, 60), list)  # 60 hits, 59 midpoints

    @pytest.mark.parametrize("block", [None, 7])
    def test_midpoint_without_sign_change_is_solved_alone(self, block):
        """Across a steep step the slice jumps by more than a bracket: the
        chain's own bracket misses, and so does the midpoint's, which the
        scalar search then solves from its probes."""
        base = preset("cylinder_inflection")
        n = 41
        us = np.linspace(-1.5 + 3e-9, 1.5 - 3e-9, n)
        h = us[1] - us[0]
        S = resliced(base, stepped(float(us[12] + 0.25 * h), 100.0 / h), "stepped")
        hits, _ = reference_slice_hits(S, 0.5, n)
        (u12, v12), (u13, v13) = hits[12], hits[13]
        g, w = 0.5 * (v12 + v13), 0.3
        um = 0.5 * (u12 + u13)
        lo, hi = (S.jet(um, x).X.t - 0.5 for x in (g - w, g + w))
        assert lo * hi > 0.0  # no sign change in the midpoint's bracket
        with mock.patch.object(curvature, "POINT_BLOCK", block or curvature.POINT_BLOCK):
            assert isinstance(same_as_loop(S, 0.5, n), list)

    def test_only_the_chain_is_scalar(self):
        """Of the chain of hits only the first is solved on ``Surface.jet``:
        on a cylinder slice one lockstep round certifies every later hit,
        so after the first hit every evaluation runs through
        ``Surface.jets``, and no call exceeds POINT_BLOCK chart points."""
        S, t0, n = preset("cylinder_spline"), 0.2, 1201
        hits, solve_v = reference_slice_hits(S, t0, n)
        first_hit = scalar_calls(lambda: solve_v(hits[0][0], None))
        scalar, sizes, rounds = counted_recovery(S, t0, n)
        assert len(hits) == n and scalar == first_hit
        assert [m for m, _ in rounds] == [n - 1, n - 1]  # the chain's round, the midpoints'
        assert max(sizes) <= curvature.POINT_BLOCK
        assert sum(sizes) >= n + 7 * (n - 1)  # Frenet; chain and midpoint solves, midpoints


def scalar_calls(run) -> list:
    """The points of the ``Surface.jet`` calls that ``run()`` makes."""
    jet, points = Surface.jet, []

    def counted_jet(self, u, v):
        points.append((u, v))
        return jet(self, u, v)

    with mock.patch.object(Surface, "jet", counted_jet):
        run()
    return points


def counted_recovery(S, t0, n):
    """recover_generating_curve(S, t0, n) with its jets recorded: the
    points of its ``Surface.jet`` calls, the sizes of its
    ``Surface.jets`` calls, and for each lockstep round (the chain's, then
    the midpoints') its number of samples and of ``Surface.jets`` calls."""
    jets, lockstep = Surface.jets, classifier._lockstep_roots
    sizes, rounds = [], []

    def sized_jets(self, us, vs):
        sizes.append(len(us))
        return jets(self, us, vs)

    def counted_round(*args):
        before = len(sizes)
        out = lockstep(*args)
        rounds.append((len(args[2]), len(sizes) - before))
        return out

    with mock.patch.object(Surface, "jets", sized_jets), \
            mock.patch.object(classifier, "_lockstep_roots", counted_round):
        scalar = scalar_calls(lambda: recover_generating_curve(S, t0, n))
    return scalar, sizes, rounds


def moving(q: float, a: float):
    """v + q v^2 + a u: the slice moves with u, so no hit after the second
    has its bracket centred on the first hit's v."""

    def phi(u, v):
        return v + q * v * v + a * u, a, 1.0 + 2.0 * q * v, 0.0, 0.0, 2.0 * q

    return phi


MOVING = resliced(preset("cylinder_spline"), moving(0.05, 0.2), "spline+moving")
STEP_US = np.linspace(-1.5 + 3e-9, 1.5 - 3e-9, 41)  # u samples of cylinder_inflection, n = 41


def stepped_at_20(a: float) -> Surface:
    """cylinder_inflection resliced by a steep step of height a between the
    u samples 20 and 21 of a 41-sample recovery."""
    h = STEP_US[1] - STEP_US[0]
    return resliced(preset("cylinder_inflection"),
                    stepped(float(STEP_US[20] + 0.25 * h), 100.0 / h, a), "stepped")


class TestChainFallback:
    """Chains a round cannot certify whole: the rest runs on the scalar
    chain from the last certified hit, with the chain's bits, breaks and
    errors."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("t0", [-0.4, 0.3, 1.2])
    def test_moving_slice(self, t0, block):
        with mock.patch.object(curvature, "POINT_BLOCK", block or curvature.POINT_BLOCK):
            assert isinstance(same_as_loop(MOVING, t0, 121), list)

    def test_moving_slice_wastes_at_most_one_round(self):
        """The one round certifies the sample after the first hit, whose
        guess is the first hit's v.  From there the scalar path evaluates
        what the scalar chain does, and the other ``Surface.jets`` calls
        are the hits' and midpoints' Frenet blocks and the midpoints'
        round: the chain's round is the only work beyond the scalar
        chain's."""
        t0, n = 0.3, 301
        hits, solve_v = reference_slice_hits(MOVING, t0, n)
        want = scalar_calls(lambda: [solve_v(hits[0][0], None)] + [
            solve_v(u, hits[i - 1][1]) for i, (u, _) in enumerate(hits) if i > 1])
        scalar, sizes, rounds = counted_recovery(MOVING, t0, n)
        assert len(hits) == n and scalar == want
        assert [m for m, _ in rounds] == [n - 1, n - 1]
        assert len(sizes) == rounds[0][1] + rounds[1][1] + 2

    def test_a_second_round_is_centred_on_the_first_rounds_roots(self):
        """A slice that starts to move at u = 2 of [0, 3]: the first round
        certifies the still part and the first moving hit k, more than half
        of the chain, so a second round runs.  Centred on the first round's
        roots, whose searches ended on the chain's bits, it certifies the
        rest; no scalar jet follows the first hit."""

        def phi(u, v):
            p = 0.5 * ((u - 2.0) + abs(u - 2.0))  # max(u - 2, 0) with exact zeros
            return v + 0.3 * p * p * p, 0.9 * p * p, 1.0, 1.8 * p, 0.0, 0.0

        S, t0, n = resliced(preset("cylinder_spline"), phi, "late+moving"), 0.3, 301
        hits, solve_v = reference_slice_hits(S, t0, n)
        k = next(i for i, (_, v) in enumerate(hits) if v != hits[0][1])
        assert len(hits) == n and 2 * k > n and hits[k + 1][1] != hits[k][1]
        scalar, _, rounds = counted_recovery(S, t0, n)
        assert [m for m, _ in rounds] == [n - 1, n - 1 - k, n - 1]
        assert scalar == scalar_calls(lambda: solve_v(hits[0][0], None))
        assert isinstance(same_as_loop(S, t0, n), list)

    @pytest.mark.parametrize("where", [0, 2])
    def test_fault_in_the_chain(self, where):
        """A fault that the chain's root search of hit 30 meets, at the low
        end of its bracket or at its first secant point, raises there, as
        in the scalar chain."""
        hits, solve_v = reference_slice_hits(QUADRATIC, T0, N)
        point = scalar_calls(lambda: solve_v(hits[30][0], hits[29][1]))[where]
        got = same_as_loop(faulty(QUADRATIC, points={point}), T0, N)
        assert got[0] is NotImmersed and got[1].startswith(at(*point)), got

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("t0, a, hit_us", [
        (0.5, 1.5, STEP_US),        # the chain's bracket misses; its probes find the slice
        (0.5, 4.0, STEP_US[:21]),   # the slice leaves the chart: the chain breaks
        (3.2, 1.5, STEP_US[21:]),   # the slice enters the chart: the chain starts late
        (0.5, -3.0, STEP_US[:21]),
    ])
    def test_stepped_chart(self, t0, a, hit_us, block):
        S = stepped_at_20(a)
        hits, _ = reference_slice_hits(S, t0, len(STEP_US))
        assert [u for u, _ in hits] == hit_us.tolist()
        with mock.patch.object(curvature, "POINT_BLOCK", block or curvature.POINT_BLOCK):
            assert isinstance(same_as_loop(S, t0, len(STEP_US)), list)

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(CYLINDER_PRESETS), t0=st.floats(-2.9, 2.9),
           motion=st.one_of(st.just((0.0, 0.0)),
                            st.tuples(st.floats(0.0, 0.1), st.floats(-0.3, 0.3))),
           n=st.integers(9, 200))
    def test_presets_and_moving_slices(self, name, t0, motion, n):
        """Bit and failure parity on cylinder presets sliced at height v,
        which one round certifies whole, and at heights that move with u."""
        S = preset(name) if motion == (0.0, 0.0) else \
            resliced(preset(name), moving(*motion), f"{name}+moving")
        got = same_as_loop(S, t0, n)
        if motion == (0.0, 0.0) and isinstance(got, list):
            rounds = counted_recovery(S, t0, n)[2]
            assert len(rounds) == 2 and rounds[0][0] == n - 1  # one round for the chain


def _chart_points():
    hits, _ = reference_slice_hits(QUADRATIC, T0, N)
    mids = [0.5 * (a[0] + b[0]) for a, b in zip(hits, hits[1:])]
    return hits, mids


HITS, MIDS = _chart_points()
TRANSVERSAL = "slice is not transversal to the chart"


def at(u, v=None):
    """The start of the message of a fault injected at (u, v), or anywhere
    in the column u."""
    return f"injected fault at ({u}, {v})" if v is not None else f"injected fault at ({u}, "


FAULTS = {
    # name: (faulty chart arguments, class raised, start of its message)
    "one hit": (dict(points={HITS[40]}), NotImmersed, at(*HITS[40])),
    "one midpoint solve": (dict(columns={MIDS[20]}), NotImmersed, at(MIDS[20])),
    "one midpoint Frenet": (dict(tilted={MIDS[20]}), NumericalError, TRANSVERSAL),
    "a hit not transversal": (dict(tilted={HITS[30][0]}), NumericalError, TRANSVERSAL),
    "hits before midpoints": (dict(points={HITS[50]}, columns={MIDS[3]}), NotImmersed,
                              at(*HITS[50])),
    "two hits in order": (dict(points={HITS[45], HITS[20]}), NotImmersed, at(*HITS[20])),
    "a Frenet before a later solve": (dict(tilted={MIDS[10]}, columns={MIDS[12]}),
                                      NumericalError, TRANSVERSAL),
    "a solve before a later Frenet": (dict(columns={MIDS[10]}, tilted={MIDS[12]}),
                                      NotImmersed, at(MIDS[10])),
    "two midpoint solves in order": (dict(columns={MIDS[40], MIDS[5]}), NotImmersed,
                                     at(MIDS[5])),
}


class TestFailureParity:
    @pytest.mark.parametrize("block", [None, 16])
    @pytest.mark.parametrize("case", list(FAULTS))
    def test_first_failure_of_the_loop(self, case, block):
        kwargs, cls, message = FAULTS[case]
        S = faulty(QUADRATIC, **kwargs)
        reference_slice_hits(S, T0, N)  # the chain of hits never meets a fault
        with mock.patch.object(curvature, "POINT_BLOCK", block or curvature.POINT_BLOCK):
            got = same_as_loop(S, T0, N)
        assert got[0] is cls and got[1].startswith(message), got

    def test_empty_intersection(self):
        got = same_as_loop(QUADRATIC, 10.0, N)
        assert got[0] is EmptyIntersection
