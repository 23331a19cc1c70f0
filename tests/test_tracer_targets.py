"""The benchmark reaches the library by name: its per-layer tracer
(benchmarks/tracer.py) finds the functions and methods it wraps, and its
workloads (benchmarks/workloads.py) read module attributes such as
``surfaces.generating_curve_of_config``.  Every one must still resolve, or
benchmark runs break while the rest of the suite stays green."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import tracer  # noqa: E402
from h2xr import flows, product  # noqa: E402
from h2xr.hyperbolic import ORIGIN_T  # noqa: E402
from h2xr.surfaces import preset  # noqa: E402


@pytest.mark.parametrize("name, owner, attr, hot", tracer.TARGETS,
                         ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, owner, attr, hot):
    assert callable(getattr(owner, attr, None)), name


WORKLOAD_MODULES = {"surfaces", "curvature", "flows", "classifier", "hyperbolic"}


def _workload_reads() -> list[tuple[str, str]]:
    """Every ``module.name`` read of a library module in workloads.py."""
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in WORKLOAD_MODULES})


WORKLOAD_READS = _workload_reads()


def test_workloads_read_the_library():
    assert ("surfaces", "from_config") in WORKLOAD_READS


@pytest.mark.parametrize("module, name", WORKLOAD_READS,
                         ids=[f"{m}.{n}" for m, n in WORKLOAD_READS])
def test_workload_read_resolves(module, name):
    assert hasattr(importlib.import_module(f"h2xr.{module}"), name), f"{module}.{name}"


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
