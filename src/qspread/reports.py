"""Structured outcomes of verification runs."""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

EXACT_ZERO = "exact-zero"
# The one definition of the config: defaults, types, bounds and work budgets.
SCHEMA = json.loads(Path(__file__).with_name("config.schema.json").read_text(encoding="utf-8"))


@dataclass
class CheckReport:
    """Outcome of one named check.

    ``max_residual`` is a float, or the string "exact-zero" when the check
    ran on the exact backend and every residual vanished identically.  A
    witness (the offending input, as a plain list) is present exactly when
    the check failed.
    """

    check_name: str
    params: dict
    status: str  # "pass" | "fail" | "error"
    max_residual: float | str | None  # None only on status="error"
    witness: list | None = None
    seed: int | None = None
    runtime_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def renamed(self, check_name: str, **params) -> CheckReport:
        """This report, under ``check_name`` and with ``params`` added."""
        self.check_name = check_name
        self.params.update(params)
        return self

    def to_json_dict(self) -> dict:
        """The report as plain JSON values, through ``_jsonable``."""
        return _jsonable(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)


def _jsonable(value):
    """``value`` in strict JSON, dicts and lists walked through: a NaN or
    infinite float as "nan", "inf" or "-inf", a Fraction as its string, and
    anything but None, bool, int, float and str as its repr."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value) if isinstance(value, Fraction) else repr(value)


class ResidualTracker:
    """Collects (witness, residual) pairs and turns them into a CheckReport.

    The report fails when no case was added, and when a residual was NaN or
    infinite: the first such case is then the witness, whatever came after.
    A case added with ``add_report`` is judged by its sub-check instead.
    """

    def __init__(self, check_name: str, tolerance, params: dict | None = None,
                 seed: int | None = None):
        self.check_name = check_name
        self.tolerance = tolerance
        self.params = dict(params or {})
        self.seed = seed
        self.worst = None
        self.worst_witness = None
        self.all_exact = True
        self.nonfinite = None  # (witness, residual) of the first NaN or inf
        self.failed = None  # witness of the first sub-check that failed
        self.excused = None  # largest residual above tolerance of a passed sub-check
        self._start = time.perf_counter()

    def add(self, witness, residual) -> None:
        if not isinstance(residual, (int, Fraction)):
            self.all_exact = False
            # a NaN compares false with everything, so the max below drops it
            if self.nonfinite is None and not math.isfinite(residual):
                self.nonfinite = (witness, residual)
        if self.worst is None or residual > self.worst:
            self.worst = residual
            self.worst_witness = witness

    def add_report(self, witness, inner: CheckReport) -> None:
        """One ``add`` for the report of a sub-check, at its max residual
        (exact-zero as 0).  The case fails exactly when ``inner`` failed, its
        witness then carrying the inner one.  An inner that passed at its own
        tolerance never fails this tracker: above this tolerance it is added
        at the tolerance, and its residual only raises the reported maximum."""
        residual = 0 if inner.max_residual == EXACT_ZERO else inner.max_residual
        if not inner.passed:
            witness = (*witness, inner.witness)
            self.failed = self.failed or witness
        elif residual > self.tolerance:
            self.excused = max(residual, self.excused or residual)
            residual = float(self.tolerance)
        self.add(witness, residual)

    def report(self, extra_params: dict | None = None) -> CheckReport:
        runtime_ms = int((time.perf_counter() - self._start) * 1000)
        worst, witness = (0 if self.worst is None else self.worst), self.worst_witness
        if self.nonfinite is not None:
            witness, worst = self.nonfinite
        elif self.worst is None:
            witness = ["no cases examined"]
        elif self.failed is not None and worst <= self.tolerance:
            witness = self.failed
        ok = (self.worst is not None and self.nonfinite is None and self.failed is None
              and worst <= self.tolerance)
        if ok and self.all_exact and worst == 0:
            residual_out: float | str = EXACT_ZERO
        else:
            residual_out = float(worst if self.excused is None else max(worst, self.excused))
        params = dict(self.params)
        params["tolerance"] = float(self.tolerance)
        if extra_params:
            params.update(extra_params)
        return CheckReport(
            check_name=self.check_name,
            params=params,
            status="pass" if ok else "fail",
            max_residual=residual_out,
            witness=None if ok else _jsonable(witness),
            seed=self.seed,
            runtime_ms=runtime_ms,
        )


def rollup(check_name: str, tolerance, params: dict, seed: int | None, cases) -> CheckReport:
    """One report for a sweep of sub-checks: an ``add_report`` for each
    (witness, inner report) of ``cases``, drawn in order after the tracker
    starts, so a lazy ``cases`` runs each inner check inside it."""
    tracker = ResidualTracker(check_name, tolerance, params=params, seed=seed)
    for witness, inner in cases:
        tracker.add_report(witness, inner)
    return tracker.report()


def budget(key: str) -> int:
    """The work budget of the dotted config key ``key``, its schema maximum,
    read at each call: a direct call and ``merge_config`` check one number."""
    node = SCHEMA
    for part in key.split("."):
        node = node["properties"][part]
    return node["maximum"]


def require_within(check: str, sizes: dict, caps: dict) -> None:
    """Raise ValueError naming the first of ``sizes`` above its cap in ``caps``
    (a work budget of ``check``)."""
    for key, cap in caps.items():
        if sizes[key] > cap:
            raise ValueError(f"{check} needs {key} <= {cap} (work budget), got {sizes[key]}")
