#!/usr/bin/env python3
"""Benchmark of h2xr: one closed-loop client, jobs=1, one process.

Run from the repository root::

    python3 benchmarks/run.py --workload classify --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``classify``,
``curvature``, ``trace`` and ``compare``.  The seed fixes the inputs; the
library only ever sees the generated item specs.  A pass draws the specs
and rebuilds every surface from config (timed as set-up), then runs its
items one after another (timed as wall), checking each item's outputs
against the thresholds of verify-paper and against the digest of the first
pass.  Passes repeat until ``--seconds`` have elapsed.

Times of untraced passes and of the import are scaled to a reference host
speed by ``hostspeed.Stopwatch``, which samples the host's speed while the
timed code runs; the raw pass times are printed with the run's info.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics; the
untraced passes never have the tracer installed.  The last line of standard
output is the result object; the line before it holds the environment, the
per-pass times and the result fingerprint.  A traced run also writes its
spans and counters to ``benchmarks/results/``.
"""

from __future__ import annotations

import os

# Before numpy is imported: all load comes from this one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("classify", "curvature", "trace", "compare")
IMPORT_REPEATS = 5

clock = time.perf_counter


@dataclass
class PassRecord:
    inputs: str                # digest of the drawn item specs
    labels: list[str]
    draw_s: float              # draw, build, wall and item times are scaled
    build_s: float             # to the reference host speed (untraced passes)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    item_s: list[float] = field(default_factory=list)
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    fingerprint: dict[str, dict] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    coverage: float = 0.0


def load_library() -> float:
    """Import h2xr from this checkout's sources ``IMPORT_REPEATS`` times and
    return the median import time, scaled to the reference host speed.

    Every import compiles the package from source: bytecode is neither
    written nor read (the cache prefix names a directory that never exists),
    so the time does not depend on whether a ``__pycache__`` is present.
    numpy is imported first and not timed."""
    if not (SRC / "h2xr" / "__init__.py").is_file():
        raise ImportError(f"no h2xr sources under {SRC}")
    import numpy  # noqa: F401
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    times = []
    sys.pycache_prefix = str(HERE / "no-bytecode")
    try:
        for _ in range(IMPORT_REPEATS):
            for name in [n for n in sys.modules if n == "h2xr" or n.startswith("h2xr.")]:
                del sys.modules[name]
            with Stopwatch() as sw:
                h2xr = importlib.import_module("h2xr")
            times.append(sw.scaled_s)
    finally:
        sys.pycache_prefix = None
    if Path(h2xr.__file__).resolve().parent != (SRC / "h2xr").resolve():
        raise ImportError(f"imported h2xr from {h2xr.__file__}, not from {SRC}")
    return statistics.median(times)


def run_pass(workload: str, seed: int, sizes, edit_specs=None, tracer=None) -> PassRecord:
    """Draw the inputs and set up fresh surfaces, then run and check every
    item once.  The tracer, if any, is installed after the draw; a traced
    pass runs no host-speed probe and reports raw times."""
    import workloads
    probe = tracer is None
    with Stopwatch(probe) as sw:
        specs = workloads.draw_inputs(workload, seed, sizes)
    draw_s = sw.scaled_s
    if edit_specs is not None:
        specs = edit_specs(specs)
    inputs = workloads.digest(json.dumps(specs, sort_keys=True))
    if tracer is not None:
        tracer.install()
    try:
        with Stopwatch(probe) as sw:
            items = workloads.build_items(workload, specs, sizes)
        rec = PassRecord(inputs, [item.label for item in items], draw_s, sw.scaled_s)
        setup_covered = tracer.covered_s() if tracer is not None else 0.0
        for item in items:
            if tracer is not None:
                tracer.item = item.label
            with Stopwatch(probe) as sw:
                try:
                    out = item.run()
                    failures = out.failures()
                    rec.digests[item.label] = workloads.digest(out.output)
                    rec.fingerprint[item.label] = out.fingerprint
                except Exception as exc:  # a failed item is counted, never fatal
                    failures = [f"{type(exc).__name__}: {exc}"]
            rec.item_s.append(sw.scaled_s)
            rec.wall_s += sw.scaled_s
            rec.raw_wall_s += sw.raw_s
            if failures:
                rec.failures[item.label] = failures
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        from tracer import layer_metrics
        rec.layers = layer_metrics(tracer)
        rec.coverage = (tracer.covered_s() - setup_covered) / rec.wall_s
    return rec


def measure(workload: str, seed: int, sizes, seconds: float, traced: bool,
            edit_specs=None) -> tuple[list[PassRecord], list[PassRecord], list]:
    """Closed loop until ``seconds`` have elapsed (at least one pass).

    Returns the untraced passes, the traced passes and the tracers."""
    plain: list[PassRecord] = []
    with_trace: list[PassRecord] = []
    tracers = []
    if traced:
        from tracer import Tracer
    deadline = clock() + seconds
    while True:
        plain.append(run_pass(workload, seed, sizes, edit_specs))
        if traced:
            tracers.append(Tracer())
            with_trace.append(run_pass(workload, seed, sizes, edit_specs, tracers[-1]))
        if any(p.inputs != plain[0].inputs for p in (plain[-1], *with_trace[-1:])):
            raise RuntimeError(f"seed {seed} drew different inputs in two passes")
        if clock() >= deadline:
            return plain, with_trace, tracers


def count_failures(passes: list[PassRecord]) -> tuple[int, int, dict[str, list[str]]]:
    """Attempted and failed items; an output that differs from the first
    pass's fails its item."""
    reference = passes[0].digests
    attempted = failed = 0
    examples: dict[str, list[str]] = {}
    for p in passes:
        for label in reference.keys() | p.digests.keys() | p.failures.keys():
            attempted += 1
            reasons = list(p.failures.get(label, []))
            if label in p.digests and p.digests[label] != reference.get(label):
                reasons.append("output differs from the first pass")
            if reasons:
                failed += 1
                examples.setdefault(label, reasons)
    return attempted, failed, examples


def item_medians(passes: list[PassRecord]) -> dict[str, float]:
    """Each item's median time over the passes."""
    return {label: statistics.median(p.item_s[i] for p in passes)
            for i, label in enumerate(passes[0].labels)}


def end_to_end(plain: list[PassRecord], import_s: float) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(p.wall_s for p in plain),
        "setup_s": import_s + med(p.draw_s + p.build_s for p in plain),
        "slowest_item_s": max(item_medians(plain).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: list[PassRecord], traced: list[PassRecord]) -> dict[str, float]:
    med = statistics.median
    out = {name: med(p.layers[name] for p in traced) for name in traced[0].layers}
    out["trace_overhead_ratio"] = (med(p.raw_wall_s for p in traced)
                                   / med(p.raw_wall_s for p in plain))
    out["trace_coverage"] = med(p.coverage for p in traced)
    return out


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def execute(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
            sizes=None, edit_specs=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info).  h2xr must be importable.

    ``edit_specs`` may rewrite the drawn item specs (the smoke test injects a
    wrong expectation with it)."""
    import numpy
    import workloads
    sizes = sizes or workloads.Sizes()
    load_start = os.getloadavg()
    plain, traced, tracers = measure(workload, seed, sizes, seconds, trace, edit_specs)
    values = per_layer(plain, traced) if trace else end_to_end(plain, import_s)
    units = metric_units(trace)
    missing = units.keys() - values.keys()
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    attempted, failed, examples = count_failures(plain + traced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced),
        "items_per_pass": len(plain[0].labels),
        "failed_frac": failed / attempted, "failures": examples,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "import_s": import_s,
        "draw_s": [p.draw_s for p in plain], "build_s": [p.build_s for p in plain],
        "wall_s": [p.wall_s for p in plain],
        "raw_wall_s": [p.raw_wall_s for p in plain],
        "traced_wall_s": [p.raw_wall_s for p in traced],
        "item_s": item_medians(plain),
        "fingerprint": plain[0].fingerprint,
    }
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        path = RESULTS / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"info": info, "passes": [t.to_json() for t in tracers]})
                        + "\n", encoding="utf-8")
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_s = load_library()
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    result, info = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
