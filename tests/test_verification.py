"""The report's ranking of sub-checks: relative margins, and the worst line
each check prints."""

import math

import pytest

from h2xr import surfaces, verification
from h2xr.surfaces import CYLINDER_PRESETS
from h2xr.verification import CheckResult, SubCheck, report_to_json, report_to_text


class TestMargin:
    @pytest.mark.parametrize("sub, margin", [
        (SubCheck("a", 1e-9, 1e-6, "<"), 1e-6 / 1e-9),
        (SubCheck("b", 12.0, 10.0, ">="), 1.2),
        (SubCheck("c", 2e-6, 1e-6, "<"), 0.5),
        (SubCheck("d", 0.0, 1e-10, "<"), math.inf),
    ])
    def test_ratio_above_one_passes(self, sub, margin):
        assert sub.margin == margin
        assert sub.passed == (margin > 1.0 if sub.op == "<" else margin >= 1.0)

    def test_nan_measurement(self):
        assert math.isnan(SubCheck("nan", math.nan, 1.0, "<").margin)

    def test_worst_is_the_least_relative_margin(self):
        # an absolute margin would pick the smallest threshold: 1e-12 - 1e-16
        tight = SubCheck("residual", 1.7e-9, 1e-6, "<")
        c = CheckResult("X", [SubCheck("rms", 1e-16, 1e-12, "<"), tight,
                              SubCheck("zero", 0.0, 1e-10, "<")])
        assert c.worst() is tight

    def test_failing_and_nan_come_first(self):
        fail = SubCheck("fail", 2.0, 1.0, "<")
        nan = SubCheck("nan", math.nan, 1e-3, "<")
        ok = SubCheck("ok", 0.999, 1.0, "<")
        assert CheckResult("X", [ok, fail]).worst() is fail
        assert CheckResult("X", [ok, fail, nan]).worst() is nan

    def test_first_of_equals(self):
        a, b = SubCheck("a", 1.0, 1.0, ">="), SubCheck("b", 1.0, 1.0, ">=")
        assert CheckResult("X", [a, b]).worst() is a


class TestReportWorstLines:
    """On the verification report the worst line names the tightest
    sub-check relative to its threshold, not the one of smallest
    threshold."""

    @pytest.mark.parametrize("check_id, name", [
        ("GEO_LEMMA", "horizontal geodesic residual"),
        ("PROP1", "graph cross-oracle |Kbrioschi - Kgauss| (100 probes)"),
        ("LEMMA2", "circle fit |b - 2 tanh 1|"),
    ])
    def test_worst_names(self, verification_report, check_id, name):
        check = next(c for c in verification_report.checks if c.check_id == check_id)
        assert check.worst().name == name
        line = next(x for x in report_to_text(verification_report).splitlines()
                    if x.split()[1:2] == [check_id])
        assert f"worst: {name} = " in line

    def test_json_details_carry_the_margin(self, verification_report):
        doc = report_to_json(verification_report)
        for check, c in zip(doc["checks"], verification_report.checks):
            for d, s in zip(check["details"], c.subs):
                assert d["margin"] == (s.margin if math.isfinite(s.margin) else None)


def test_theorem1_reports_recovered_to_true_next_to_the_hausdorff(verification_report):
    """The one-sided distance the end trim of recovery does not enter, a
    sub-check of its own that can never move the verdict or the worst line."""
    check = next(c for c in verification_report.checks if c.check_id == "THEOREM1")
    names = [s.name for s in check.subs]
    for name in CYLINDER_PRESETS:
        k = names.index(f"{name} recovered-curve Hausdorff")
        hausdorff, one_sided = check.subs[k], check.subs[k + 1]
        assert one_sided.name == f"{name} recovered -> true distance"
        assert one_sided.threshold == hausdorff.threshold == 1e-5
        assert one_sided.measured <= hausdorff.measured and one_sided.passed
    assert check.worst().name == "cylinder_geodesic verdict == CYLINDER"


def test_theorem1_compares_with_the_curve_each_cylinder_carries(monkeypatch):
    """One generating-curve build per cylinder config of the default corpus
    (five cylinders and the perturbed cylinder's base), and each recovered
    curve is compared with the very curve its cylinder was built on."""
    builds, compared = [], []

    def counted_build(*args, inner=surfaces.curve_from_curvature, **kwargs):
        builds.append(inner(*args, **kwargs))
        return builds[-1]

    def recorded(recovered, true, inner=verification.curve_distances):
        compared.append(true)
        return inner(recovered, true)

    monkeypatch.setattr(surfaces, "curve_from_curvature", counted_build)
    monkeypatch.setattr(verification, "curve_distances", recorded)
    assert verification.check_theorem1().passed
    assert len(builds) == 6
    assert [id(c) for c in compared] == [id(c) for c in builds[:5]]


def test_prop3_without_a_seed_fails(monkeypatch):
    """No parabolic seed means no trace, which is no evidence: the measured
    value is NaN and the check fails, where a count of 0 hits would pass."""
    monkeypatch.setattr(verification, "parabolic_seeds", lambda S, k: [])
    check = verification.check_prop3()
    (sub,) = check.subs
    assert sub.name == "planar hits among 0 traces"
    assert math.isnan(sub.measured) and not check.passed
