"""Golden-section search, one bracket and many in lockstep, and the spline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.errors import NumericalError
from h2xr.numerics import (CubicSpline1D, bracket_root, bracket_root_batch, golden_min,
                           golden_min_batch)

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
        for fn in (self.spline, self.spline.deriv):
            scalar = np.array([fn(x) for x in ts])
            assert np.max(np.abs(fn(t) - scalar)) <= 1e-14 * (1.0 + np.max(np.abs(scalar)))
