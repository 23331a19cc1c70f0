"""Per-layer tracing of h2xr from outside the library.

``Tracer.install`` wraps the public functions of each layer (module of
``h2xr``) in every h2xr module namespace that holds them, and patches
``Surface.jet``, ``H2Curve.frame_at`` and a few other methods on their
classes; ``uninstall`` restores the originals.  A span stack gives exclusive
("self") times: a call's self time is its duration minus the time of the
instrumented calls nested in it.  ``minkowski`` is not wrapped (its helpers
are too fine-grained), so its time counts as self time of its callers.

Hot inner calls (jets, ``frame_at``, forms, stencils, root and minimum
searches, product distances) are aggregated into counts and summed times;
every other call also records a span (name, parent span, item, start, end).
Everything stays in memory; the caller writes ``to_json()`` out at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from h2xr import classifier, curvature, flows, hyperbolic, numerics, product, surfaces

# (name, owner, attribute, hot): owner is a module for functions, a class for methods
TARGETS = (
    ("surfaces.jet", surfaces.Surface, "jet", True),
    ("hyperbolic.frame_at", hyperbolic.H2Curve, "frame_at", True),
    ("hyperbolic.curve_build", hyperbolic, "curve_from_curvature", False),
    ("hyperbolic.hausdorff", hyperbolic, "curve_hausdorff", False),
    ("numerics.golden_min", numerics, "golden_min", True),
    ("numerics.bracket_root", numerics, "bracket_root", True),
    ("curvature.forms_from_jet", curvature, "forms_from_jet", True),
    ("curvature.principal_curvatures", curvature, "principal_curvatures", True),
    ("curvature.sample_metric_stencil", curvature, "sample_metric_stencil", True),
    ("curvature.brioschi_curvature", curvature, "brioschi_curvature", True),
    ("curvature.grid", curvature, "curvature_grid", False),
    ("curvature.to_csv", curvature.CurvatureGrid, "to_csv", False),
    ("flows.trace", flows, "trace_asymptotic", False),
    ("flows.geodesic_deviation", flows, "geodesic_deviation", False),
    ("flows.frame_ode_residuals", flows, "frame_ode_residuals", False),
    ("flows.fit_inverse_H", flows, "fit_inverse_H", False),
    ("flows.to_csv", flows.TraceRecord, "to_csv", False),
    ("product.prod_dist", product, "prod_dist", True),
    ("product.geodesic_point", product.ProdGeodesic, "point", True),
    ("classifier.classify", classifier, "classify_surface", False),
    ("classifier.flatness_scan", classifier, "flatness_scan", False),
    ("classifier.planar_map", classifier, "planar_set_map", False),
    ("classifier.rulings", classifier, "extract_rulings", False),
    ("classifier.recover", classifier, "recover_generating_curve", False),
    ("classifier.verdict_to_json", classifier, "verdict_to_json", False),
)

# The exclusive-time metrics of BENCHMARK.json and the instrumented calls each
# one sums; every target above feeds exactly one of them.
SELF_TIMES = {
    "surfaces.jet.self_s": ("surfaces.jet",),
    "hyperbolic.frame_at.self_s": ("hyperbolic.frame_at",),
    "hyperbolic.hausdorff.self_s": ("hyperbolic.hausdorff",),
    "hyperbolic.curve_build.self_s": ("hyperbolic.curve_build",),
    "numerics.self_s": ("numerics.golden_min", "numerics.bracket_root"),
    "curvature.forms.self_s": ("curvature.forms_from_jet", "curvature.principal_curvatures"),
    "curvature.stencil.self_s": ("curvature.sample_metric_stencil",
                                 "curvature.brioschi_curvature"),
    "curvature.grid.self_s": ("curvature.grid", "curvature.to_csv"),
    "flows.trace.self_s": ("flows.trace",),
    "flows.diagnostics.self_s": ("flows.geodesic_deviation", "flows.frame_ode_residuals",
                                 "flows.fit_inverse_H", "flows.to_csv"),
    "classifier.classify.self_s": ("classifier.classify", "classifier.verdict_to_json"),
    "classifier.flatness_scan.self_s": ("classifier.flatness_scan",),
    "classifier.planar_map.self_s": ("classifier.planar_map",),
    "classifier.rulings.self_s": ("classifier.rulings",),
    "classifier.recover.self_s": ("classifier.recover",),
    "product.self_s": ("product.prod_dist", "product.geodesic_point"),
}


class Tracer:
    """Counts, exclusive times and spans of instrumented calls."""

    def __init__(self):
        self._clock = time.perf_counter
        self._frames = [0.0]       # child time accumulated by each open call
        self._open = [(-1, "")]    # (span id, name) of the open non-hot calls
        self._patches: list[tuple[object, str, object]] = []
        self.item = ""             # label of the benchmark item being run
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[dict] = []

    # -- wrappers ---------------------------------------------------------------

    def _hot(self, name: str, fn):
        frames, clock = self._frames, self._clock
        tracer = self

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                dt = clock() - t0
                child = frames.pop()
                frames[-1] += dt
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - child

        return wrapper

    def _span(self, name: str, fn):
        frames, clock = self._frames, self._clock
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = {"id": sid, "name": name, "parent": tracer._open[-1][0],
                    "item": tracer.item}
            tracer.spans.append(span)
            tracer._open.append((sid, name))
            frames.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                t1 = clock()
                child = frames.pop()
                frames[-1] += t1 - t0
                tracer._open.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += t1 - t0 - child
                span["start"], span["end"] = t0, t1
            tracer._observe(name, out)
            return out

        return wrapper

    def _jet(self, fn):
        """Surface.jet, additionally counting finite-difference jets and the
        jets evaluated inside asymptotic traces."""
        inner = self._hot("surfaces.jet", fn)
        counts, open_calls = self.counts, self._open

        def jet(surface, u, v):
            if surface.derivative_mode == "finite-difference":
                counts["surfaces.jet_fd"] += 1
            if open_calls[-1][1] == "flows.trace":
                counts["flows.trace.jets"] += 1
            return inner(surface, u, v)

        return jet

    def _frame_at(self, fn):
        """H2Curve.frame_at, additionally counting memo hits."""
        inner = self._hot("hyperbolic.frame_at", fn)
        counts = self.counts

        def frame_at(curve, s):
            if s in curve._frame_cache:
                counts["hyperbolic.frame_at.hits"] += 1
            return inner(curve, s)

        return frame_at

    def _observe(self, name: str, out) -> None:
        if name == "flows.trace":
            self.counts["flows.trace.samples"] += len(out)
            self.counts[f"flows.stop.{out.stop_reason}"] += 1
        elif name == "curvature.grid":
            self.counts["curvature.grid.cells"] += len(out.rows)
            self.counts["curvature.grid.failed_cells"] += sum(
                1 for r in out.rows if r.status != "ok")

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "h2xr" or n.startswith("h2xr."))]
        for name, owner, attr, hot in TARGETS:
            original = getattr(owner, attr)
            if name == "surfaces.jet":
                wrapper = self._jet(original)
            elif name == "hyperbolic.frame_at":
                wrapper = self._frame_at(original)
            else:
                wrapper = (self._hot if hot else self._span)(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def covered_s(self) -> float:
        """Summed self time of the calls behind the per-layer time metrics."""
        return float(sum(self.self_s[n] for names in SELF_TIMES.values() for n in names))

    def to_json(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "errors": dict(self.errors), "counts": dict(self.counts),
                "spans": self.spans}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of BENCHMARK.json from one traced pass."""
    calls, counts = t.calls, t.counts
    frame_calls = calls["hyperbolic.frame_at"]
    samples = counts["flows.trace.samples"]
    rulings = calls["classifier.rulings"]
    out = {
        "surfaces.jet.calls": calls["surfaces.jet"],
        "surfaces.jet_fd.calls": counts["surfaces.jet_fd"],
        "hyperbolic.frame_at.calls": frame_calls,
        "hyperbolic.frame_at.hit_ratio":
            counts["hyperbolic.frame_at.hits"] / frame_calls if frame_calls else 0.0,
        "numerics.golden_min.calls": calls["numerics.golden_min"],
        "numerics.bracket_root.calls": calls["numerics.bracket_root"],
        "curvature.forms.calls": calls["curvature.forms_from_jet"],
        "curvature.stencil.calls": calls["curvature.sample_metric_stencil"],
        "curvature.grid.cells": counts["curvature.grid.cells"],
        "curvature.grid.failed_cells": counts["curvature.grid.failed_cells"],
        "flows.trace.calls": calls["flows.trace"],
        "flows.trace.samples": samples,
        "flows.trace.jets_per_sample":
            counts["flows.trace.jets"] / samples if samples else 0.0,
        "flows.stop.MAX_LENGTH": counts["flows.stop.MAX_LENGTH"],
        "flows.stop.DOMAIN_EDGE": counts["flows.stop.DOMAIN_EDGE"],
        "flows.stop.PLANAR_HIT": counts["flows.stop.PLANAR_HIT"],
        "flows.stop.STEP_FAILURE": counts["flows.stop.STEP_FAILURE"],
        "classifier.seed_fail_ratio":
            t.errors["classifier.rulings"] / rulings if rulings else 0.0,
        "product.prod_dist.calls": calls["product.prod_dist"],
    }
    for metric, names in SELF_TIMES.items():
        out[metric] = float(sum(t.self_s[n] for n in names))
    return out
