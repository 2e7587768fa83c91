from __future__ import annotations

import math

from qspread.reports import ResidualTracker


def tracked(*cases, tolerance=1e-9):
    tracker = ResidualTracker("check", tolerance)
    for witness, residual in cases:
        tracker.add(witness, residual)
    return tracker.report()


class TestResidualTracker:
    def test_nan_after_finite_fails(self):
        report = tracked((("a",), 0.0), (("b",), math.nan), (("c",), 0.0))
        assert report.status == "fail"
        assert report.witness == ["b"]
        assert math.isnan(report.max_residual)

    def test_first_nonfinite_case_is_the_witness(self):
        report = tracked((("a",), 0.0), (("b",), math.inf), (("c",), math.nan), (("d",), 2.0))
        assert report.status == "fail"
        assert report.witness == ["b"] and report.max_residual == math.inf

    def test_no_cases_fails(self):
        report = ResidualTracker("empty", 1e-9).report()
        assert report.status == "fail"
        assert report.witness == ["no cases examined"]
        assert report.max_residual == 0.0
