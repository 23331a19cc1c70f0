"""Golden-section search, one bracket and many in lockstep, and the spline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2xr.numerics import CubicSpline1D, golden_min, golden_min_batch

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


class TestCubicSplineArrays:
    spline = CubicSpline1D([0.0, 0.7, 1.5, 2.0, 3.2], [0.0, 1.0, -0.5, 0.4, 2.0])

    @given(st.lists(st.floats(-0.5, 3.7), min_size=1, max_size=40))
    def test_array_equals_scalar_calls(self, ts):
        t = np.array(ts)
        for fn in (self.spline, self.spline.deriv):
            scalar = np.array([fn(x) for x in ts])
            assert np.max(np.abs(fn(t) - scalar)) <= 1e-14 * (1.0 + np.max(np.abs(scalar)))
