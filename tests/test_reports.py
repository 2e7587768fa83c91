from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema

from qspread.reports import EXACT_ZERO, ResidualTracker


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


def rolled(*inners, tolerance=0, cases=()):
    """A tracker of ``tolerance`` fed the plain ``cases``, then one
    add_report per inner report, numbered from 1."""
    tracker = ResidualTracker("outer", tolerance)
    for witness, residual in cases:
        tracker.add(witness, residual)
    for number, inner in enumerate(inners, 1):
        tracker.add_report(("inner", number), inner)
    return tracker.report()


class TestAddReport:
    PASS_EXACT = tracked((("a",), 0), tolerance=0)
    PASS_FLOAT = tracked((("a",), 1.8e-15), tolerance=1e-9)
    FAIL = tracked((("a",), 0.0), (("b",), 0.5), tolerance=1e-9)
    EMPTY = ResidualTracker("inner", 1e-9).report()

    def test_exact_zero_inners_keep_the_outer_exact_zero(self):
        assert self.PASS_EXACT.max_residual == EXACT_ZERO
        report = rolled(self.PASS_EXACT, self.PASS_EXACT)
        assert report.passed and report.max_residual == EXACT_ZERO

    def test_an_inner_passed_at_its_own_tolerance_never_fails_the_outer(self):
        report = rolled(self.PASS_EXACT, self.PASS_FLOAT, self.PASS_EXACT, tolerance=0)
        assert report.passed and report.witness is None
        assert report.max_residual == 1.8e-15

    def test_a_failed_inner_fails_the_outer_with_its_witness(self):
        report = rolled(self.PASS_FLOAT, self.FAIL, self.PASS_EXACT, tolerance=1.0)
        assert report.status == "fail"
        assert report.witness == ["inner", 2, ["b"]]
        assert report.max_residual == 0.5

    def test_an_inner_that_examined_nothing_fails_the_outer(self):
        report = rolled(self.PASS_EXACT, self.EMPTY)
        assert report.status == "fail"
        assert report.witness == ["inner", 2, ["no cases examined"]]

    def test_plain_cases_keep_their_tolerance_beside_a_passed_inner(self):
        report = rolled(self.PASS_FLOAT, cases=[(("plain",), 1e-16)])
        assert report.status == "fail" and report.witness == ["plain"]
        assert report.max_residual == 1.8e-15

    def test_one_add_per_inner_report(self, monkeypatch):
        seen = []
        add = ResidualTracker.add
        monkeypatch.setattr(ResidualTracker, "add",
                            lambda self, w, r: seen.append(w) or add(self, w, r))
        rolled(self.PASS_EXACT, self.PASS_FLOAT, self.FAIL, self.EMPTY)
        assert [w[1] for w in seen] == [1, 2, 3, 4]


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

    def test_params_and_witness_of_any_value_print_strict_json(self):
        class Shown:
            def __repr__(self):
                return "<shown>"

        tracker = ResidualTracker("check", 1e-9, params={"a": (1, Fraction(1, 3)),
                                                         "b": {"c": math.nan}})
        tracker.add(("w", (2, 3), Fraction(1, 2), -math.inf, Shown()), 1.0)
        parsed = strict_json(tracker.report().to_json())
        jsonschema.validate(parsed, self.SCHEMA)
        assert parsed["params"] == {"a": [1, "1/3"], "b": {"c": "nan"}, "tolerance": 1e-9}
        assert parsed["witness"] == ["w", [2, 3], "1/2", "-inf", "<shown>"]
