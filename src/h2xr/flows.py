"""Asymptotic lines through parabolic points, with their diagnostics.

A parabolic point has exactly one vanishing principal curvature; the
corresponding principal direction is the asymptotic direction and the
integral curve of that direction field is the unique asymptotic line.  The
tracer integrates the field in chart coordinates (so the curve stays on the
surface by construction) with a fourth-order Runge-Kutta step and
sign-continuity of the eigenvector choice.  Each leg is a plain loop over
Python floats (``_leg``) that keeps every accepted sample as one row of
numbers; the record's frames are then array expressions over those rows.
Every point the loop evaluates runs the whole chain (``_principal_at``):
checked jet, forms, principal curvatures.  Once a step's every stage had
the jet of its start in all but the height X.t (vertical translations are
isometries, and on a cylinder ruling only the height changes), the leg is
a straight line in the chart, every later step the same increment: its
next steps are predicted at once, their stage points evaluated by one
``Surface.jets`` call, and the steps whose jets all repeat the start's in
their bits become rows without a scalar step (``_straight_block``).

Per-sample diagnostics recorded along the trace:

* ``k2``, ``H`` - the nonzero principal curvature and the mean curvature;
* ``lam`` - the connection coefficient <D_{e2} e2, e1>, measured by a short
  transverse finite difference of the e2 field; the two transverse points of
  every sample are known once the trace is, so they are evaluated in bulk
  (``curvature.point_block``);
* ``e2``, ``e3`` - the transverse principal direction and the unit normal as
  ambient vectors.

On doubly flat surfaces the trace must be an ambient geodesic, 1/H must be
affine in arclength, lam' = lam^2 and k2' = lam k2 must hold, and e2, e3
must be covariantly constant; the checkers below measure all of that from
the samples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (PARABOLIC, _class_tag, block_size, forms_from_jet, point_block,
                        principal_curvatures)
from .errors import (ConfigError, DegenerateDirection, GeometryError,
                     InsufficientSamples, NotParabolic, NumericalError, OutOfDomain,
                     PlanarSample)
from .hyperbolic import _dists_raw
from .minkowski import Triple, _mcomb, _mdot, _project_tangent
from .numerics import _each, _sq, affine_fit
from .product import AmbientVec, ProdGeodesic, _prod_inner
from .surfaces import Surface, SurfaceJet

DOMAIN_EDGE = "DOMAIN_EDGE"
MAX_LENGTH = "MAX_LENGTH"
PLANAR_HIT = "PLANAR_HIT"
STEP_FAILURE = "STEP_FAILURE"

TRACE_CSV_HEADER = "s,u,v,h_x0,h_x1,h_x2,t,k2,H,lambda"

CONNECTION_STEP = 1e-5  # transverse step of the connection coefficient's difference
# per leg: 3 KB and 0.2 ms per step of both legs where all trace points
# differ, under 10 us in the blocks of a cylinder ruling (2-core VM)
MAX_TRACE_HALF_STEPS = 50_000


@dataclass(frozen=True)
class TraceRecord:
    """Arclength-sampled asymptotic line (or control path) with diagnostics."""

    s: np.ndarray
    uv: np.ndarray
    h: np.ndarray
    t: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    stop_reason: str
    step: float
    tol: float

    def __post_init__(self):
        d = np.diff(self.s)
        if len(self.s) < 2 or np.any(d <= 0.0):
            raise NumericalError("trace samples must be strictly increasing in s")
        if (d.max() - d.min()) > 0.01 * d.mean():
            raise NumericalError("trace samples must be uniformly spaced within 1%")
        parab = np.abs(self.k2) >= self.tol
        gap = np.abs(2.0 * self.H[parab] - self.k2[parab])
        if gap.size and gap.max() >= 1e-10:
            raise NumericalError("2H must equal k2 at parabolic samples")

    def __len__(self) -> int:
        return len(self.s)

    def point(self, i: int) -> tuple[Triple, float]:
        """Footprint and height of sample i, as Python floats."""
        return tuple(self.h[i].tolist()), float(self.t[i])

    def to_csv(self) -> str:
        cols, seen = [], {}
        for c in (self.s, *self.uv.T, *self.h.T, self.t, self.k2, self.H, self.lam):
            # strings once per distinct column (by bits, so -0.0 is not 0.0;
            # on a cylinder t repeats v) and once for a column of one value
            bits = c.view(np.int64)
            key = bits.tobytes()
            if key not in seen:
                seen[key] = ([repr(c[0].item())] * len(c) if (bits == bits[0]).all()
                             else list(map(repr, c.tolist())))
            cols.append(seen[key])
        return "\n".join([TRACE_CSV_HEADER, *map(",".join, zip(*cols))]) + "\n"


@dataclass(frozen=True, slots=True)
class AffineFit:
    """Least-squares line a*s + b with its root-mean-square residual."""

    a: float
    b: float
    rms_residual: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InsufficientSamples("affine fit needs at least three samples")
        if self.rms_residual < 0.0:
            raise NumericalError("rms residual cannot be negative")


@dataclass(frozen=True, slots=True)
class GeodesicDeviation:
    max_dev: float
    at_s: float

    def __post_init__(self):
        if self.max_dev < 0.0:
            raise NumericalError("deviation cannot be negative")


# -- tracing ----------------------------------------------------------------------

def _principal_at(S: Surface, u: float, v: float):
    """Jet, forms, k1, k2, d1, d2 at (u, v); NumericalError where the shape
    operator overflows or is not finite."""
    jet = S.jet(u, v)
    try:
        forms = forms_from_jet(jet, S.orientation)
        k1, k2, d1, d2 = principal_curvatures(forms)
    except ArithmeticError as exc:
        raise NumericalError(f"{type(exc).__name__} in the shape operator at ({u}, {v})") \
            from exc
    # one test for all six: a sum is finite only where every term is
    if not math.isfinite(k1 + k2 + d1[0] + d1[1] + d2[0] + d2[1]):
        raise NumericalError(f"non-finite principal curvatures or directions at ({u}, {v})")
    return jet, forms, k1, k2, d1, d2


def trace_half_steps(length: float, step: float) -> int:
    """RK4 steps per leg of a trace of ``length`` at ``step``; ConfigError
    beyond MAX_TRACE_HALF_STEPS, or where a leg would take no step at all."""
    half = 0.5 * length / step
    if not half <= MAX_TRACE_HALF_STEPS:
        raise ConfigError(f"a trace of length {length:g} at step {step:g} takes more than "
                          f"MAX_TRACE_HALF_STEPS = {MAX_TRACE_HALF_STEPS} steps per leg")
    steps = int(round(half))
    if steps < 1:
        raise ConfigError(f"a trace of length {length:g} at step {step:g} takes no step "
                          f"per leg")
    return steps


def _aligned(d: tuple[float, float], ref: tuple[float, float]) -> tuple[float, float]:
    if d[0] * ref[0] + d[1] * ref[1] < 0.0:
        return (-d[0], -d[1])
    return d


def _ambient_dir(xu: AmbientVec, xv: AmbientVec, d) -> AmbientVec:
    """Chart direction d as the ambient vector d0 Xu + d1 Xv (floats, or
    arrays for a block of points)."""
    return AmbientVec(_mcomb(d[0], xu.htup, d[1], xv.htup), d[0] * xu.t + d[1] * xv.t)


def _rows(w: AmbientVec) -> np.ndarray:
    """(n, 4) rows of a block of ambient vectors."""
    return np.stack([*w.htup, w.t], axis=1)


def _vec(rows: np.ndarray) -> AmbientVec:
    return AmbientVec(tuple(rows[:, :3].T), rows[:, 3])


def _connection(S: Surface, uv: np.ndarray, d2: np.ndarray, e2: np.ndarray,
                e1: np.ndarray, foot: np.ndarray) -> np.ndarray:
    """Transverse connection coefficient <D_{e2} e2, e1> at every sample.

    The e2 field is differenced centrally across the trace, along the chart
    direction d2, at a step of at most CONNECTION_STEP that keeps both
    points inside the chart (NaN where that step is below 1e-9).  All
    transverse points are evaluated in blocks of ``block_size(S, 2)``
    samples (1,404 on an analytic chart), at most POINT_BLOCK evaluations
    of the innermost chart; a sample whose pair the block flags has both
    points evaluated again on the scalar path, which raises what a scalar
    trace raises.  Rows of ``d2``, ``e2``, ``e1`` and ``foot`` are per
    sample.
    """
    (u0, u1) = S.domain.u_range
    (v0, v1) = S.domain.v_range
    u, v = uv[:, 0], uv[:, 1]
    room = np.minimum(np.minimum(u - u0, u1 - u), np.minimum(v - v0, v1 - v))
    hstep = np.minimum(CONNECTION_STEP, 0.25 * room / (
        1e-12 + np.maximum(np.abs(d2[:, 0]), np.abs(d2[:, 1]))))
    lam = np.full(len(u), math.nan)
    live = np.flatnonzero(~(hstep <= 1e-9))
    size = block_size(S, 2)
    for k0 in range(0, len(live), size):
        blk = live[k0:k0 + size]
        h = hstep[blk]
        up, vp = u[blk] + h * d2[blk, 0], v[blk] + h * d2[blk, 1]
        um, vm = u[blk] - h * d2[blk, 0], v[blk] - h * d2[blk, 1]
        try:  # e2 at every transverse point, before its sign is fixed
            pb = point_block(S, np.concatenate([up, um]), np.concatenate([vp, vm]))
            w = _rows(_ambient_dir(pb.jets.Xu, pb.jets.Xv, pb.d2))
            flagged = pb.bad.reshape(2, -1).any(axis=0)
        except (GeometryError, ArithmeticError, ValueError):
            w = np.empty((2 * len(blk), 4))
            flagged = np.ones(len(blk), dtype=bool)
        for k in np.flatnonzero(flagged):
            for row, uu, vv in ((k, up[k], vp[k]), (k + len(blk), um[k], vm[k])):
                jet, _, _, _, _, d2o = _principal_at(S, float(uu), float(vv))
                wk = _ambient_dir(jet.Xu, jet.Xv, d2o)
                w[row] = (*wk.htup, wk.t)
        ref = _vec(np.concatenate([e2[blk], e2[blk]]))
        w = np.where((_prod_inner(_vec(w), ref) < 0.0)[:, None], -w, w)
        der = (w[:len(blk)] - w[len(blk):]) / (2.0 * h[:, None])
        cov = AmbientVec(_project_tangent(tuple(foot[blk].T), tuple(der[:, :3].T)), der[:, 3])
        lam[blk] = _prod_inner(cov, _vec(e1[blk]))
    return lam


def _sample(u: float, v: float, point, d1) -> tuple:
    """A sample as one row of 24 floats: u, v; X, Xu, Xv and the unit normal,
    four each; k1, k2; d1 as walked; d2."""
    jet, forms, k1, k2, _, d2 = point
    return (u, v, *jet.X.htup, jet.X.t, *jet.Xu.htup, jet.Xu.t, *jet.Xv.htup, jet.Xv.t,
            *forms.normal.htup, forms.normal.t, k1, k2, *d1, *d2)


def _leg(S: Surface, u: float, v: float, here, ref, steps: int, step: float,
         tol: float) -> tuple[np.ndarray, str]:
    """Rows of the samples after (u, v), whose ``_principal_at`` result is
    ``here``, walking the d1 field aligned to ``ref``, as an (n, 24) array;
    and why the leg stopped.

    A point of a step equal to an earlier one of the same step reuses the
    result of the first such: on cylinders the third stage is the second,
    and the next sample the fourth stage.  A step whose every stage had the
    jet of its start in all numbers but X.t, compared by value, and walked
    ``ref`` is a straight line in the chart; the steps after it are
    predicted in blocks (``_straight_block``) on a chart with an array
    evaluator, and the scalar loop resumes at the first step a block cannot
    certify, where a leg makes no further blocks.
    """
    rows, parts = [], []
    # without an array evaluator Surface.jets would call the chart point by
    # point, each point checked: dearer than the scalar loop's repeats
    blocks, straight = getattr(S.chart, "jets", None) is not None, False
    reason, taken = MAX_LENGTH, 0
    while taken < steps:
        if straight:
            size = min(steps - taken, block_size(S, 3))
            block, u, v, here = _straight_block(S, u, v, here, ref, size, step)
            parts += [np.array(rows).reshape(-1, 24), block]
            rows, taken = [], taken + len(block)
            blocks = straight = len(block) == size
            continue
        start = here
        m1 = _aligned(here[4], ref)
        try:
            u2, v2 = u + 0.5 * step * m1[0], v + 0.5 * step * m1[1]
            r2 = here if u2 == u and v2 == v else _principal_at(S, u2, v2)
            m2 = _aligned(r2[4], m1)
            u3, v3 = u + 0.5 * step * m2[0], v + 0.5 * step * m2[1]
            r3 = (here if u3 == u and v3 == v else r2 if u3 == u2 and v3 == v2
                  else _principal_at(S, u3, v3))
            m3 = _aligned(r3[4], m1)
            u4, v4 = u + step * m3[0], v + step * m3[1]
            r4 = (here if u4 == u and v4 == v else r2 if u4 == u2 and v4 == v2
                  else r3 if u4 == u3 and v4 == v3 else _principal_at(S, u4, v4))
            m4 = _aligned(r4[4], m1)
            u5 = u + step * (m1[0] + 2.0 * m2[0] + 2.0 * m3[0] + m4[0]) / 6.0
            v5 = v + step * (m1[1] + 2.0 * m2[1] + 2.0 * m3[1] + m4[1]) / 6.0
            here = (here if u5 == u and v5 == v else r2 if u5 == u2 and v5 == v2
                    else r3 if u5 == u3 and v5 == v3 else r4 if u5 == u4 and v5 == v4
                    else _principal_at(S, u5, v5))
        except OutOfDomain:
            reason = DOMAIN_EDGE
            break
        except NumericalError:
            reason = STEP_FAILURE
            break
        u, v, ref = u5, v5, _aligned(here[4], m1)
        _, _, k1, k2, _, _ = here
        if abs(k2) < tol:
            reason = PLANAR_HIT
            break
        if abs(k2) - abs(k1) < 10.0 * tol:
            reason = STEP_FAILURE
            break
        rows.append(_sample(u, v, here, ref))
        taken += 1
        # every stage had the start's jet in all but X.t, so its shape data,
        # and all walked m1 == ref
        jet = start[0]
        straight = blocks and m1 == ref and all(
            r[0].X.htup == jet.X.htup and r[0][1:] == jet[1:] for r in (r2, r3, r4, here))
    parts.append(np.array(rows).reshape(-1, 24))
    return np.concatenate(parts), reason


def _straight_block(S: Surface, u: float, v: float, here, m, n: int, step: float):
    """The rows of the next steps, at most ``n``, from the sample (u, v),
    whose ``_principal_at`` result is ``here``, where every stage has
    ``here``'s shape data and so walks ``m``; the last certified sample
    with its result.

    Every such step adds the same increment, so the samples are running
    sums (``np.add.accumulate`` adds in order, as the scalar loop does) and
    the stage points are sums of a sample and a constant: the scalar loop's
    arithmetic, bit for bit.  All stage points go to one ``S.jets`` call.
    A step is certified where none of its points is bad, every point's jet
    has the bits of ``here``'s in all but X.t and the sample moved.  Such a
    jet passes ``check_jet`` as ``here``'s did (the check reads X.t only for
    finiteness, which ``bad`` covers) and gives ``_principal_at`` the bits
    of ``here``'s shape data, so the rows of the certified prefix are
    ``here``'s row with u, v and X.t filled in.
    """
    mu, mv = m
    # the fourth stage and the increment of the scalar step, m1 = ... = m4 = m
    bu, bv = step * mu, step * mv
    du = step * (mu + 2.0 * mu + 2.0 * mu + mu) / 6.0
    dv = step * (mv + 2.0 * mv + 2.0 * mv + mv) / 6.0
    us, vs = np.full(n + 1, du), np.full(n + 1, dv)
    us[0], vs[0] = u, v
    with np.errstate(over="ignore"):  # inf, as a float sum gives, is outside the domain
        np.add.accumulate(us, out=us)
        np.add.accumulate(vs, out=vs)
        u0, v0 = us[:-1], vs[:-1]
        pu = [u0 + 0.5 * step * mu, us[1:]]
        pv = [v0 + 0.5 * step * mv, vs[1:]]
        if not (bu == du and bv == dv):  # else the fourth stage is the next sample
            pu.insert(1, u0 + bu)
            pv.insert(1, v0 + bv)
    try:
        jets = S.jets(np.concatenate(pu), np.concatenate(pv))
    except (GeometryError, ArithmeticError, ValueError):
        return np.empty((0, 24)), u, v, here
    ok = ~jets.bad
    cols = [c for w in jets[:6] for c in (*w.htup, w.t)]
    want = np.array([c for w in here[0] for c in (*w.htup, w.t)]).view(np.int64)
    for k, col in enumerate(cols):
        if k != 3:  # X.t
            ok &= col.view(np.int64) == want[k]
    ok = ok.reshape(len(pu), n).all(axis=0) & ((u0 != us[1:]) | (v0 != vs[1:]))
    done = n if ok.all() else int(np.argmin(ok))
    if done == 0:
        return np.empty((0, 24)), u, v, here
    t = cols[3][-n:][:done]  # the samples' heights
    block = np.empty((done, 24))
    block[:] = _sample(u, v, here, m)
    block[:, 0], block[:, 1], block[:, 5] = us[1:done + 1], vs[1:done + 1], t
    jet = here[0]
    here = (SurfaceJet(AmbientVec(jet.X.htup, t[-1].item()), *jet[1:]), *here[1:])
    return block, us[done].item(), vs[done].item(), here


def trace_asymptotic(S: Surface, u0: float, v0: float, length: float,
                     step: float, tol: float = 1e-7,
                     with_connection: bool = True) -> TraceRecord:
    """Trace the asymptotic line through a parabolic point, both ways.

    The trace runs length/2 in each direction from the seed and stops early
    at the domain edge, at a planar point (|k2| < tol), or on numerical
    breakdown of the direction field (an evaluation that raises or is not
    finite).  ``with_connection=False`` skips the transverse measurement of
    the connection coefficient (NaN in the record), for when only the path is
    needed: about 60% of a 1.0-long cylinder trace at step 1e-3, whose
    legs walk all steps after their first in one block of straight steps
    each, and a third on a chart whose trace points all differ (2-core VM).
    Over MAX_TRACE_HALF_STEPS steps per leg, or none, raise ConfigError
    before the seed is evaluated.  Legs that both stop at their first step
    raise OutOfDomain (at the domain edge) or NumericalError, naming the
    seed and the stop reason.
    """
    if step <= 0.0 or length <= 0.0:
        raise NumericalError("length and step must be positive")
    steps = trace_half_steps(length, step)

    seed = _, _, k1, k2, d1, _ = _principal_at(S, u0, v0)
    tag = _class_tag(k1, k2, tol)
    if tag != PARABOLIC:
        raise NotParabolic(f"seed ({u0}, {v0}) classifies {tag}")
    if abs(k2) - abs(k1) < 10.0 * tol:
        raise DegenerateDirection("principal curvatures too close to separate directions")
    fwd, reason_f = _leg(S, u0, v0, seed, d1, steps, step, tol)
    bwd, reason_b = _leg(S, u0, v0, seed, (-d1[0], -d1[1]), steps, step, tol)
    priority = {PLANAR_HIT: 3, STEP_FAILURE: 2, DOMAIN_EDGE: 1, MAX_LENGTH: 0}
    stop = reason_f if priority[reason_f] >= priority[reason_b] else reason_b
    if not len(fwd) and not len(bwd):
        error = OutOfDomain if stop == DOMAIN_EDGE else NumericalError
        raise error(f"trace from seed ({u0}, {v0}) stops at its first step both ways "
                    f"({stop})")

    a = np.concatenate([bwd[::-1], [_sample(u0, v0, seed, d1)], fwd])
    n, n_b = len(a), len(bwd)
    uv, hpts, xu, xv = a[:, 0:2], a[:, 2:5], _vec(a[:, 6:10]), _vec(a[:, 10:14])
    # e1 points along increasing s: the backward leg walked against d1
    e1 = _rows(_ambient_dir(xu, xv, a[:, 20:22].T))
    e1[:n_b] = -e1[:n_b]
    # e2 keeps the sign of its predecessor
    e2 = _rows(_ambient_dir(xu, xv, a[:, 22:24].T))
    signs = [1.0]
    for p in _prod_inner(_vec(e2[1:]), _vec(e2[:-1])).tolist():
        signs.append(-1.0 if signs[-1] * p < 0.0 else 1.0)
    e2 *= np.array(signs)[:, None]
    lam = _connection(S, uv, a[:, 22:24], e2, e1, hpts) if with_connection \
        else np.full(n, math.nan)
    return TraceRecord((np.arange(n, dtype=float) - n_b) * step, uv, hpts, a[:, 5],
                       a[:, 19], 0.5 * (a[:, 18] + a[:, 19]), lam, e2, a[:, 14:18],
                       stop, step, tol)


# -- diagnostics -------------------------------------------------------------------

def geodesic_deviation(tr: TraceRecord) -> GeodesicDeviation:
    """Max distance from the trace to the exact geodesic it should be.

    The comparison geodesic is built from the first sample and a
    second-order one-sided estimate of the initial velocity, so it uses
    nothing but the sampled points.
    """
    if len(tr) < 3:
        raise InsufficientSamples("need at least three samples")
    h = tr.step
    vh = (-3.0 * tr.h[0] + 4.0 * tr.h[1] - tr.h[2]) / (2.0 * h)
    vt = float(-3.0 * tr.t[0] + 4.0 * tr.t[1] - tr.t[2]) / (2.0 * h)
    p, t = tr.point(0)
    vh = _project_tangent(p, tuple(vh))
    norm = math.sqrt(max(0.0, _mdot(vh, vh)) + vt * vt)
    if norm < 1e-12:
        raise NumericalError("trace samples do not define a direction")
    geo = ProdGeodesic.from_tangent(p, t, tuple(c / norm for c in vh), vt / norm)
    foot, height = geo.point(tr.s - tr.s[0])
    d = _each(math.hypot, _dists_raw(foot, tuple(tr.h.T)), height - tr.t)
    d = np.where(np.isnan(d), 0.0, d)  # a NaN distance never becomes the maximum
    i = int(np.argmax(d))  # the first sample at the maximum
    return GeodesicDeviation(float(d[i]), float(tr.s[i]))


@dataclass(frozen=True, slots=True)
class FrameOdeResiduals:
    """Max residuals of the structure equations along a trace."""

    lambda_ode: float
    k2_ode: float
    de2: float
    de3: float


def frame_ode_residuals(tr: TraceRecord) -> FrameOdeResiduals:
    """Residuals of lam' = lam^2, k2' = lam k2, and covariant constancy of e2,
    e3, each the largest over the samples that are not NaN (NaN if none)."""
    n = len(tr)
    if n < 5:
        raise InsufficientSamples("need at least five samples")
    h = tr.step
    lam_p = (tr.lam[2:] - tr.lam[:-2]) / (2.0 * h)
    k2_p = (tr.k2[2:] - tr.k2[:-2]) / (2.0 * h)
    lam_c = tr.lam[1:-1]
    k2_c = tr.k2[1:-1]

    def worst(r: np.ndarray) -> float:
        r = r[~np.isnan(r)]  # NaN: no data, as lam where no connection step fits
        return float(np.max(r)) if r.size else math.nan

    def cov_norm(rows: np.ndarray) -> float:
        der = (rows[2:] - rows[:-2]) / (2.0 * h)
        ch = _project_tangent(tuple(tr.h[1:-1].T), tuple(der[:, :3].T))
        return worst(np.sqrt(np.fmax(0.0, _mdot(ch, ch)) + _sq(der[:, 3])))

    return FrameOdeResiduals(worst(np.abs(lam_p - lam_c ** 2)),
                             worst(np.abs(k2_p - lam_c * k2_c)), cov_norm(tr.e2), cov_norm(tr.e3))


def fit_inverse_H(tr: TraceRecord) -> AffineFit:
    """Least-squares affine fit of 1/H against arclength."""
    if len(tr) < 3:
        raise InsufficientSamples("need at least three samples")
    if np.any(np.abs(tr.k2) < tr.tol) or np.any(~np.isfinite(tr.k2)):
        raise PlanarSample("trace contains planar samples; 1/H is not defined there")
    a, b, rms = affine_fit(tr.s, 1.0 / tr.H)
    return AffineFit(a, b, rms, len(tr))
