"""Golden-section search, one bracket and many in lockstep, and the spline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.errors import NumericalError
from h2xr.numerics import (CubicSpline1D, _array_pow, bracket_root, bracket_root_batch,
                           golden_min, golden_min_batch)
from h2xr.surfaces import (HeightFunction, _chart_jets, _stack_jets, check_jet,
                           make_graph)

from conftest import scalar_golden_min


def staircase(x):
    """Unimodal with flat steps, so the search meets exact ties (as distances
    quantized by arccosh near zero do)."""
    return math.floor(abs(x - 0.3) * 1e6) * 1e-6


class TestGoldenMin:
    @pytest.mark.parametrize("f, a, b, tol, max_iter", [
        (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-12, 200),
        (lambda x: math.cosh(x - 1.7), 3.0, -2.0, 1e-10, 200),  # reversed bracket
        (staircase, 0.0, 1.0, 1e-12, 200),
        (lambda x: abs(x), -1.0, 1.0, 1e-12, 7),                # stops at max_iter
        (lambda x: x * x, 0.5, 0.5 + 1e-13, 1e-12, 200),        # already within tol
    ])
    def test_equals_scalar_loop(self, f, a, b, tol, max_iter):
        assert golden_min(f, a, b, tol, max_iter) == scalar_golden_min(f, a, b, tol, max_iter)


class TestGoldenMinBatch:
    @given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-13, 3.0),
                              st.floats(-5.0, 5.0), st.booleans()),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_lockstep_equals_separate_searches(self, brackets):
        a = np.array([lo for lo, _, _, _ in brackets])
        b = np.array([lo + w for lo, w, _, _ in brackets])
        centre = np.array([c for _, _, c, _ in brackets])
        steps = np.array([s for _, _, _, s in brackets])

        def f(idx, x):  # parabolas, some quantized into steps
            y = (x - centre[idx]) ** 2
            return np.where(steps[idx], np.floor(y * 1e6), y)

        x, fx = golden_min_batch(f, a, b)
        for k in range(len(brackets)):
            xk, fk = golden_min_batch(lambda idx, t: f(idx + k, t), a[k:k + 1], b[k:k + 1])
            assert (x[k], fx[k]) == (xk[0], fk[0])

    def test_each_iteration_evaluates_only_open_brackets(self):
        widths = np.array([1e-13, 1e-3, 1.0])
        seen = []

        def f(idx, x):
            seen.append(idx.tolist())
            return x * x

        golden_min_batch(f, -0.5 * widths, 0.5 * widths)
        assert seen[0] == [0]                       # within tol: the midpoint only
        assert seen[1] == seen[2] == [1, 2]         # the two interior points
        assert [2] in seen and [1] not in seen[seen.index([2]):]


# functions with a root at r, written with arithmetic only, so a float and
# an array argument give the same bits: a line (whose secant lands on the
# root, an exact zero), a cubic, and a kink so steep on one side that the
# secant rounds onto the bracket's end and the midpoint is taken instead
ROOT_SHAPES = (lambda x, r: 0.5 * (x - r),
               lambda x, r: (x - r) * (x - r) * (x - r) + 0.1 * (x - r),
               lambda x, r: np.where(x < r, x - r, 1e20 * (x - r)))
BRACKETS = st.lists(st.tuples(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1e-3, 0.7, 2.0]),
                              st.floats(0.0, 3.0), st.integers(0, 2)),
                    min_size=1, max_size=12)


class TestBracketRootBatch:
    @given(BRACKETS, st.sampled_from([0, 1, 3, 200]))
    @settings(max_examples=80, deadline=None)
    def test_lockstep_equals_separate_searches(self, brackets, max_iter):
        """Each bracket [r - left, r + right] around a root r, an end of it
        the root itself where left or right is 0, and max_iter cutting some
        searches short."""
        r = np.array([c for c, _, _, _ in brackets])
        a = np.array([c - lo for c, lo, _, _ in brackets])
        b = np.array([c + hi for c, _, hi, _ in brackets])
        shape = [k for _, _, _, k in brackets]

        def f(idx, x):
            return np.array([float(ROOT_SHAPES[shape[k]](xk, r[k]))
                             for k, xk in zip(idx.tolist(), x.tolist())])

        all_k = np.arange(len(brackets))
        roots = bracket_root_batch(f, a, b, f(all_k, a), f(all_k, b), max_iter=max_iter)
        for k in all_k:
            fk = lambda x, k=k: float(ROOT_SHAPES[shape[k]](x, r[k]))  # noqa: E731
            assert roots[k] == bracket_root(fk, float(a[k]), float(b[k]), max_iter=max_iter)

    def test_midpoint_taken_where_the_secant_leaves_the_bracket(self):
        seen = []

        def f(idx, x):
            seen.append(x.tolist())
            return ROOT_SHAPES[2](x, 0.3)

        a, b = np.array([-0.5]), np.array([1.0])
        bracket_root_batch(f, a, b, f(None, a), f(None, b))
        assert seen[2] == [0.25]  # the midpoint, not the secant point -0.5

    def test_no_sign_change_names_the_first_bracket(self):
        fa, fb = np.array([-1.0, 1.0, 2.0]), np.array([1.0, 3.0, 4.0])
        with pytest.raises(NumericalError) as batch:
            bracket_root_batch(lambda idx, x: x, [0.0, 0.5, 1.5], [1.0, 0.7, 2.5], fa, fb)
        with pytest.raises(NumericalError) as alone:
            bracket_root(lambda x: x, 0.5, 0.7, 1.0, 3.0)
        assert str(batch.value) == str(alone.value)


class TestCubicSplineArrays:
    spline = CubicSpline1D([0.0, 0.7, 1.5, 2.0, 3.2], [0.0, 1.0, -0.5, 0.4, 2.0])

    @given(st.lists(st.floats(-0.5, 3.7), min_size=1, max_size=40))
    def test_array_equals_scalar_calls(self, ts):
        t = np.array(ts)
        scalar = np.array([self.spline(x) for x in ts])
        assert np.max(np.abs(self.spline(t) - scalar)) <= 1e-14 * (1.0 + np.max(np.abs(scalar)))


def _bits(x: float) -> int:
    """The float's bit pattern; one pattern for every NaN."""
    return -1 if math.isnan(x) else int(np.float64(x).view(np.int64))


# Every float, with the edges near which a square or a cube overflows
# (sqrt(max) = 1.34e154, cbrt(max) = 5.64e102) and the subnormals, zeros,
# infinities and NaN that st.floats draws.
POW_ARGS = st.one_of(
    st.floats(), st.floats(1.3e154, 1.4e154), st.floats(-1.4e154, -1.3e154),
    st.floats(5.6e102, 5.7e102), st.floats(-5.7e102, -5.6e102),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                     math.inf, -math.inf, math.nan]))


class TestArrayPow:
    """The array power takes every element through the C library's pow, so
    it is the float power ``math.pow(x, k)`` and ``x ** k`` bit for bit, and
    raises OverflowError as they do."""

    @given(st.lists(POW_ARGS, min_size=1, max_size=30), st.sampled_from([2, 3]))
    @settings(max_examples=300)
    def test_equals_the_float_power(self, xs, k):
        try:
            want = [math.pow(x, k) for x in xs]
        except OverflowError:
            with pytest.raises(OverflowError):
                _array_pow(np.array(xs), k)
            return
        got = _array_pow(np.array(xs), k).tolist()
        assert [_bits(g) for g in got] == [_bits(w) for w in want]
        assert [_bits(g) for g in got] == [_bits(x ** k) for x in xs]

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_floats_of_every_scale(self, k):
        # numpy's SIMD power loops round about 3% of these unlike the C library
        rng = np.random.default_rng(0)
        x = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-100.0, 100.0, 100_000)
        want = np.array([math.pow(v, k) for v in x.tolist()])
        assert np.array_equal(_array_pow(x, k).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("x, k", [(1.4e154, 2), (-1e200, 2), (5.7e102, 3),
                                      (-5.7e102, 3), (1e300, 3)])
    def test_finite_element_that_overflows_raises(self, x, k):
        with pytest.raises(OverflowError):
            math.pow(x, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                _array_pow(np.array([1.0, x, math.inf, math.nan]), k)
            # non-finite elements alone are no overflow
            got = _array_pow(np.array([math.inf, -math.inf, math.nan]), k)
            assert got.tolist()[:2] == [math.inf, (-math.inf) ** k] and math.isnan(got[2])

    def test_overflowing_block_falls_back_to_the_scalar_path(self):
        # one chart point's height derivative squares past the float range
        # in the array evaluator's Gram check, so the block is evaluated
        # point by point, where that point is bad
        zero = lambda u, v: 0.0
        slope = lambda u, v: 2e154 if u > 0.5 else 0.3 * u
        chart = make_graph(HeightFunction(zero, slope, zero, zero, zero, zero)).chart
        spy = _Spy(chart)
        us, vs = np.linspace(-0.9, 0.9, 7), np.linspace(0.2, -0.4, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _chart_jets(spy, us, vs)
        assert [type(e) for e in spy.raised] == [OverflowError]
        scalar = _stack_jets(lambda u, v: check_jet(chart(u, v)), us, vs)
        assert block.bad.tolist() == scalar.bad.tolist() == (us > 0.5).tolist()
        assert _block_bits(block) == _block_bits(scalar)
        # the points that stay good have the array evaluator's bits
        good = ~block.bad
        alone = _chart_jets(chart, us[good], vs[good])
        assert not alone.bad.any()
        assert _block_bits(alone) == [[b for b, g in zip(col, good) if g]
                                      for col in _block_bits(block)]


class _Spy:
    """A chart whose array evaluator records the arithmetic errors it raises."""

    def __init__(self, chart):
        self.chart, self.raised = chart, []

    def __call__(self, u, v):
        return self.chart(u, v)

    def jets(self, us, vs):
        try:
            return self.chart.jets(us, vs)
        except ArithmeticError as exc:
            self.raised.append(exc)
            raise


def _block_bits(block):
    return [[_bits(x) for x in c.tolist()] for w in block[:6] for c in (*w.htup, w.t)]
