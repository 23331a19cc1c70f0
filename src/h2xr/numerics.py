"""Small numerical utilities: bracketed root finding and golden-section
minimization (each on one bracket or many in lockstep), natural cubic
splines, and a least-squares affine fit.

Nothing here knows about geometry; everything is deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from collections.abc import Callable, Sequence

import numpy as np

from .errors import NumericalError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def _each(fn, x, *consts) -> np.ndarray:
    """The scalar function ``fn`` on every element of the float array ``x``
    (and of the same-shape arrays or floats ``consts``), each element passed
    as a Python float.

    Array code that must reproduce a scalar computation bit for bit takes
    its transcendental functions from ``math`` this way: numpy's own cosh,
    sinh, exp and hypot round differently from the C library on some
    arguments, and its sin and cos may dispatch to SIMD loops on some CPUs.
    Powers need no such map (see :func:`_array_pow`).
    """
    x = np.asarray(x, dtype=float)
    args = [c.ravel().tolist() if isinstance(c, np.ndarray) else repeat(float(c))
            for c in consts]
    return np.fromiter(map(fn, x.ravel().tolist(), *args), float, x.size).reshape(x.shape)


def _array_pow(x: np.ndarray, k: float) -> np.ndarray:
    """Elementwise ``x ** k``, rounded as the float power.

    numpy's ``float_power`` has a single float64 loop, which calls the C
    library's ``pow`` on each element with no SIMD dispatch: the function
    behind ``math.pow`` and a float's ``x ** k``, which is not always
    ``x * x``.  Like ``math.pow``, this raises OverflowError where a finite
    element's power overflows, and it warns of nothing.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        y = np.float_power(x, float(k))
    over = ~np.isfinite(y) & np.isfinite(x)
    if over.any():
        _each(math.pow, x[over], float(k))  # raises math.pow's OverflowError
    return y


def _sq(x) -> np.ndarray:
    """Elementwise ``x ** 2``, rounded as the float power."""
    return _array_pow(x, 2)


def golden_min(f: Callable[[float], float], a: float, b: float,
               tol: float = 1e-12, max_iter: int = 200) -> tuple[float, float]:
    """Minimize a unimodal function on [a, b]: the one-bracket case of
    :func:`golden_min_batch`.

    Returns (argmin, min).  Tolerance is on the bracket width.
    """
    x, fx = golden_min_batch(lambda _idx, xs: np.array([f(float(xs[0]))]),
                             np.array([a], dtype=float), np.array([b], dtype=float),
                             tol, max_iter)
    return float(x[0]), float(fx[0])


def golden_min_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     a: np.ndarray, b: np.ndarray, tol: float = 1e-12,
                     max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section searches over the brackets [a[k], b[k]], in lockstep.

    ``f(idx, x)`` returns, for each k in the index array ``idx``, the value
    of the k-th unimodal function at ``x[k]``.  Every bracket keeps its own
    state and follows the same update rule until its width reaches ``tol``
    or it has been updated ``max_iter`` times, so each result equals a search
    of that bracket alone bit for bit; the lockstep only lets one call of
    ``f`` serve every bracket still open.  Returns (argmins, minima).
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = np.minimum(lo, hi), np.maximum(lo, hi)
    h = b - a
    x = 0.5 * (a + b)  # the answer where the bracket is already within tol
    fx = np.empty_like(x)
    short = h <= tol
    if short.any():
        fx[short] = f(np.flatnonzero(short), x[short])
    idx = np.flatnonzero(~short)
    if not idx.size:
        return x, fx
    a, b, h = a[idx], b[idx], h[idx]
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(idx, c), f(idx, d)
    for _ in range(max_iter):
        open_ = h > tol
        if not open_.all():
            shut = ~open_
            x[idx[shut]], fx[idx[shut]] = _golden_best(c[shut], d[shut], fc[shut], fd[shut])
            idx, a, b, c, d, fc, fd, h = (v[open_] for v in (idx, a, b, c, d, fc, fd, h))
            if not idx.size:
                return x, fx
        lt = fc < fd
        a, b = np.where(lt, a, c), np.where(lt, d, b)
        h = b - a
        y = a + np.where(lt, _INVPHI2, _INVPHI) * h
        fy = f(idx, y)
        c, d, fc, fd = (np.where(lt, y, d), np.where(lt, c, y),
                        np.where(lt, fy, fd), np.where(lt, fc, fy))
    x[idx], fx[idx] = _golden_best(c, d, fc, fd)
    return x, fx


def _golden_best(c, d, fc, fd):
    lt = fc < fd
    return np.where(lt, c, d), np.where(lt, fc, fd)


def bracket_root(f: Callable[[float], float], a: float, b: float,
                 fa: float | None = None, fb: float | None = None,
                 tol: float = 1e-14, max_iter: int = 200) -> float:
    """Root of a continuous function with a sign change on [a, b].

    Bisection with a secant acceleration step; always keeps the bracket, so
    convergence is unconditional.
    """
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NumericalError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        if abs(b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        # secant candidate, fall back to midpoint if it leaves the bracket
        denom = fb - fa
        x = 0.5 * (a + b)
        if denom != 0.0:
            xs = b - fb * (b - a) / denom
            if a < xs < b:
                x = xs
        fx = f(x)
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    return 0.5 * (a + b)


def bracket_root_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                       tol: float = 1e-14, max_iter: int = 200) -> np.ndarray:
    """Roots on the brackets [a[k], b[k]], with end values fa[k] and fb[k],
    in lockstep.

    ``f(idx, x)`` returns, for each k in the index array ``idx``, the value
    of the k-th function at the matching entry of ``x``.  Every bracket
    follows :func:`bracket_root`'s rule until it meets its tolerance, hits
    an exact zero or has been updated ``max_iter`` times, so each root
    equals a search of that bracket alone bit for bit; NumericalError names
    the first bracket without a sign change.
    """
    a, b, fa, fb = (np.array(z, dtype=float) for z in (a, b, fa, fb))
    same = np.flatnonzero(fa * fb > 0.0)
    if same.size:
        k = same[0]
        raise NumericalError(f"no sign change on [{float(a[k])}, {float(b[k])}]")
    root = np.where(fa == 0.0, a, b)
    idx = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    a, b, fa, fb = a[idx], b[idx], fa[idx], fb[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        for _ in range(max_iter):
            open_ = ~(np.abs(b - a) <= tol * (1.0 + np.abs(a) + np.abs(b)))
            if not open_.all():
                root[idx[~open_]] = 0.5 * (a[~open_] + b[~open_])
                idx, a, b, fa, fb = (v[open_] for v in (idx, a, b, fa, fb))
            if not idx.size:
                return root
            # secant candidate, fall back to midpoint if it leaves the bracket
            denom = fb - fa
            xs = b - fb * (b - a) / np.where(denom != 0.0, denom, 1.0)
            x = np.where((denom != 0.0) & (a < xs) & (xs < b), xs, 0.5 * (a + b))
            fx = f(idx, x)
            zero = fx == 0.0
            if zero.any():
                root[idx[zero]] = x[zero]
                keep = ~zero
                idx, a, b, fa, fb, x, fx = (v[keep] for v in (idx, a, b, fa, fb, x, fx))
            left = fa * fx < 0.0
            a, fa, b, fb = (np.where(left, a, x), np.where(left, fa, fx),
                            np.where(left, x, b), np.where(left, fx, fb))
        root[idx] = 0.5 * (a + b)
    return root


class CubicSpline1D:
    """Natural cubic spline through (x, y) knots.

    It evaluates at a float or elementwise at a numpy array of abscissae,
    with the same bits either way.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise NumericalError("spline needs two or more (x, y) knots")
        if np.any(np.diff(x) <= 0.0):
            raise NumericalError("spline knots must be strictly increasing")
        n = len(x)
        h = np.diff(x)
        m = np.zeros(n)
        if n > 2:
            # tridiagonal system for interior second derivatives, natural ends
            a = np.zeros((n - 2, n - 2))
            rhs = np.zeros(n - 2)
            for i in range(1, n - 1):
                k = i - 1
                a[k, k] = 2.0 * (h[i - 1] + h[i])
                if k > 0:
                    a[k, k - 1] = h[i - 1]
                if k < n - 3:
                    a[k, k + 1] = h[i]
                rhs[k] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
            m[1:-1] = np.linalg.solve(a, rhs)
        self.x, self.y, self.h, self.m = x, y, h, m
        # float lists for scalar calls, which sit on the curve-build and jet
        # paths: list indexing and float arithmetic are several times faster
        # than numpy scalars, and give the same IEEE results
        self._lists = (x.tolist(), y.tolist(), h.tolist(), m.tolist())

    def _segment(self, t):
        """Interval index of t, the knot data to index with it, and the power
        function (elementwise through the float power on arrays)."""
        if isinstance(t, np.ndarray):
            i = np.searchsorted(self.x, t, side="right") - 1
            return (np.minimum(np.maximum(i, 0), len(self.x) - 2), self.x, self.y, self.h,
                    self.m, _array_pow)
        x, y, h, m = self._lists
        i = bisect_right(x, t) - 1
        if i < 0:
            i = 0
        elif i > len(x) - 2:
            i = len(x) - 2
        return i, x, y, h, m, pow

    def __call__(self, t):
        i, x, y, h, m, pw = self._segment(t)
        dx = t - x[i]
        dx1 = x[i + 1] - t
        return (m[i] * pw(dx1, 3) + m[i + 1] * pw(dx, 3)) / (6.0 * h[i]) \
            + (y[i] / h[i] - m[i] * h[i] / 6.0) * dx1 \
            + (y[i + 1] / h[i] - m[i + 1] * h[i] / 6.0) * dx


def affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit y = a*x + b.  Returns (a, b, rms residual)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float(dx @ dx)
    if denom == 0.0:
        raise NumericalError("affine fit needs at least two distinct abscissae")
    a = float(dx @ (y - ym)) / denom
    b = ym - a * xm
    r = y - (a * x + b)
    rms = math.sqrt(float(r @ r) / len(x))
    return a, b, rms
