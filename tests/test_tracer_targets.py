"""The benchmark's per-layer tracer (benchmarks/tracer.py) finds the library
functions and methods it wraps by name; every one must still resolve, or
traced benchmark runs break while the rest of the suite stays green."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracer  # noqa: E402
from h2xr import flows, product  # noqa: E402
from h2xr.hyperbolic import ORIGIN_T  # noqa: E402
from h2xr.surfaces import preset  # noqa: E402


@pytest.mark.parametrize("name, owner, attr, hot", tracer.TARGETS,
                         ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, owner, attr, hot):
    assert callable(getattr(owner, attr, None)), name


def test_install_wraps_every_target_and_uninstall_restores():
    originals = [getattr(owner, attr) for _, owner, attr, _ in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        for (name, owner, attr, _), original in zip(tracer.TARGETS, originals):
            assert getattr(owner, attr) is not original, name
        geo = product.ProdGeodesic.from_tangent(ORIGIN_T, 0.0, (0.0, 1.0, 0.0), 0.0)
        assert product.prod_dist(geo.point(0.0), geo.point(1.0)) == pytest.approx(1.0)
    finally:
        t.uninstall()
    assert (t.calls["product.prod_dist"], t.calls["product.geodesic_point"]) == (1, 2)
    for (name, owner, attr, _), original in zip(tracer.TARGETS, originals):
        assert getattr(owner, attr) is original, name


def test_scalar_trace_points_are_seen_as_jets():
    """A cylinder trace evaluates five scalar points, each through
    Surface.jet: the seed and each leg's first step.  The blocks of the
    legs' other steps go to the array evaluator, which the tracer does not
    see."""
    S = preset("cylinder_circle")
    t = tracer.Tracer()
    t.install()
    try:
        flows.trace_asymptotic(S, 1.0, 0.0, 1.0, 1e-3)
    finally:
        t.uninstall()
    assert (t.calls["surfaces.jet"], t.counts["flows.trace.jets"]) == (5, 5)
