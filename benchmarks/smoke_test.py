"""Smoke test of the benchmark itself, on tiny inputs (about 15 seconds).

    python3 benchmarks/smoke_test.py        # or: python3 -m pytest benchmarks/smoke_test.py

Checks that every workload, untraced and traced, prints exactly the metrics
of BENCHMARK.json with their units; that an injected wrong expectation is
counted as a failed item instead of crashing the run; and that the
host-speed stopwatch probes while it times and then restores the timer.
"""

from __future__ import annotations

import json
import math

import run

IMPORT_S = run.load_library()

import workloads  # noqa: E402  (needs the library on the path)

TINY = workloads.Sizes(curvature_grid=3, classify_grid=9, ruling_length=0.02,
                       trace_length=0.02, seeds_per_preset=1, recovery_samples=41)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _check_result(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared(section)
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    json.loads(json.dumps(result))


def test_every_metric_is_printed():
    for workload in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, info = run.execute(workload, 1, 0.01, trace, IMPORT_S, TINY)
            _check_result(result, section)
            assert info["fingerprint"], workload


def test_wrong_expectation_is_counted():
    def expect_cylinder_slice(specs):
        for spec in specs:
            if spec["label"] == "slice":
                spec["expect"] = "CYLINDER"
        return specs

    result, info = run.execute("classify", 1, 0.01, False, IMPORT_S, TINY,
                               edit_specs=expect_cylinder_slice)
    assert result["correct"] is False
    assert result["failed"] == info["passes"]
    assert result["attempted"] == 3 * info["passes"]
    assert list(info["failures"]) == ["slice"]
    assert list(result["metrics"]) == list(_declared("end_to_end"))


def test_stopwatch_probes_and_restores_the_handler():
    import signal
    from hostspeed import PERIOD_S, Stopwatch

    before = signal.getsignal(signal.SIGALRM)
    t0 = run.clock()
    with Stopwatch() as sw:
        while run.clock() < t0 + 5 * PERIOD_S:
            pass
    elapsed = run.clock() - t0
    assert sw.samples and 0.0 < sw.raw_s < elapsed   # probe time is left out
    assert sw.scaled_s == sw.raw_s * sw.speed
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


if __name__ == "__main__":
    test_every_metric_is_printed()
    test_wrong_expectation_is_counted()
    test_stopwatch_probes_and_restores_the_handler()
    print("benchmark smoke test passed")
