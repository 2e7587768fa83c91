from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

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


def strict_json(line: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


class TestStrictJson:
    SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "report.schema.json").read_text())

    def test_nonfinite_residuals_print_strict_json(self):
        for value, encoded in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
            report = tracked((("a",), 0.0), (("b", value), value))
            parsed = strict_json(report.to_json())
            jsonschema.validate(parsed, self.SCHEMA)
            assert parsed["status"] == "fail"
            assert parsed["max_residual"] == encoded
            assert parsed["witness"] == ["b", encoded]

    def test_nonfinite_witness_entry(self):
        report = tracked((("a", math.inf, [math.nan, 1.5]), 1.0))
        parsed = strict_json(report.to_json())
        jsonschema.validate(parsed, self.SCHEMA)
        assert parsed["max_residual"] == 1.0
        assert parsed["witness"] == ["a", "inf", ["nan", 1.5]]

    def test_finite_report_unchanged(self):
        report = tracked((("a",), 1e-12))
        parsed = strict_json(report.to_json())
        jsonschema.validate(parsed, self.SCHEMA)
        assert parsed["max_residual"] == 1e-12 and parsed["witness"] is None
