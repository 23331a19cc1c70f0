"""Minkowski linear algebra in R^{2,1}.

The bilinear form has signature (-, +, +):

    <a, b> = -a0*b0 + a1*b1 + a2*b2

Points of the hyperbolic plane live on the upper sheet of <x, x> = -1.
Points and vectors are plain float triples throughout the package; the
``_m*`` helpers operate on them and are what the integrators and chart
evaluators use in their inner loops.  The arithmetic helpers also take
triples of numpy arrays (one array per coordinate); the normalizations have
array twins ``_normalize_points`` and ``_normalize_spacelikes``, so the
scalar ones keep their plain-float branches.

Array kernels that must reproduce the scalar path bit for bit take their
transcendental functions elementwise from ``math`` (see ``numerics._each``)
and their powers from the C library's ``pow`` (``numerics._array_pow``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

Triple = tuple[float, float, float]


def _check_finite(v: Triple) -> None:
    if not (math.isfinite(v[0]) and math.isfinite(v[1]) and math.isfinite(v[2])):
        raise NumericalError(f"non-finite coordinates {v}")


def _mdot(a: Triple, b: Triple) -> float:
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _msub(a: Triple, b: Triple) -> Triple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _mscale(c: float, a: Triple) -> Triple:
    return (c * a[0], c * a[1], c * a[2])


def _mcomb(c1: float, a: Triple, c2: float, b: Triple) -> Triple:
    return (c1 * a[0] + c2 * b[0], c1 * a[1] + c2 * b[1], c1 * a[2] + c2 * b[2])


def _mcross(a: Triple, b: Triple) -> Triple:
    """Minkowski cross product: <a x b, c> equals det(a, b, c).

    The Euclidean cross product composed with the metric flip on the first
    coordinate.  For p on the hyperboloid and T a unit tangent at p,
    ``_mcross(p, T)`` is the unit tangent at p orthogonal to T, and (T, p x T)
    is the orientation every signed quantity in this package refers to.
    """
    cx = a[1] * b[2] - a[2] * b[1]
    cy = a[2] * b[0] - a[0] * b[2]
    cz = a[0] * b[1] - a[1] * b[0]
    return (-cx, cy, cz)


def _project_tangent(p: Triple, w: Triple) -> Triple:
    """Tangential projection w + <w, p> p at a hyperboloid point p."""
    c = _mdot(w, p)
    return (w[0] + c * p[0], w[1] + c * p[1], w[2] + c * p[2])


def _normalize_point(v: Triple) -> Triple:
    """Rescale onto the upper sheet <v, v> = -1."""
    v0, v1, v2 = v
    q = -(-v0 * v0 + v1 * v1 + v2 * v2)
    if q <= 0.0:
        raise NumericalError(f"cannot normalize non-timelike vector {v} to the hyperboloid")
    c = 1.0 / math.sqrt(q)
    if v0 < 0.0:
        c = -c
    return (c * v0, c * v1, c * v2)


def _normalize_spacelike(v: Triple) -> Triple:
    v0, v1, v2 = v
    q = -v0 * v0 + v1 * v1 + v2 * v2
    if q <= 0.0:
        raise NumericalError(f"cannot normalize non-spacelike vector {v}")
    c = 1.0 / math.sqrt(q)
    return (c * v0, c * v1, c * v2)


def _normalize_points(v):
    """``_normalize_point`` on a triple of coordinate arrays."""
    q = -_mdot(v, v)
    if np.any(q <= 0.0):
        raise NumericalError(f"cannot normalize non-timelike vectors to the hyperboloid "
                             f"(<v,v> = {-q[q <= 0.0][0]})")
    c = 1.0 / np.sqrt(q)
    c = np.where(v[0] < 0.0, -c, c)
    return (c * v[0], c * v[1], c * v[2])


def _normalize_spacelikes(v):
    """``_normalize_spacelike`` on a triple of coordinate arrays."""
    q = _mdot(v, v)
    if np.any(q <= 0.0):
        raise NumericalError(f"cannot normalize non-spacelike vectors (<v,v> = {q[q <= 0.0][0]})")
    c = 1.0 / np.sqrt(q)
    return (c * v[0], c * v[1], c * v[2])
