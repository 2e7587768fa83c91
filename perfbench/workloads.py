"""The two benchmark workloads: inputs from a seed, the timed call into
``qspread``, and the checks on what it returned.

Each workload has
  * ``setup(seed, workdir)``: builds every input from the seed (untimed);
  * ``run(state)``: the timed phase, calls into ``qspread`` only;
  * ``check(seed, state, outputs, cases)``: returns ``(attempted, failures)``,
    the number of outputs checked and one message per failed output.
``cases`` is the ``(check_name, cases)`` log of every ResidualTracker report
made during ``run``.  ``outputs_per_rep(seed)`` is what ``check`` attempts, so
a crashed or timed-out repetition can be counted as all failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_CONFIG = ROOT / "docs" / "examples" / "default.json"

# --seed 0 is the example config's own seed, 20260810.
SUITE_SEED_BASE = 20260810
ORACLE_SHAPE = (3, 2, 5)  # k_max, n_max, m_max of the criterion-9 sweep


def _load_golden(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _close(a, b) -> bool:
    """Equal, with floats compared to 1e-9 relative instead of bitwise."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _without_residual(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "max_residual"}


def _residual_ok(report: dict, tolerance) -> bool:
    value = report.get("max_residual")
    if value == "exact-zero":
        return True
    return (isinstance(value, float) and math.isfinite(value)
            and 0.0 <= value <= tolerance)


# --- suite_default -------------------------------------------------------

def suite_setup(seed: int, workdir: Path) -> dict:
    from qspread import cli  # noqa: F401  imported here, so suite_run times only the call

    config = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    config["seed"] = SUITE_SEED_BASE + seed
    path = workdir / "config.json"
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return {"config": config, "argv": ["suite", "all", "--config", str(path)]}


def suite_run(state: dict) -> dict:
    from qspread import cli

    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        rc = cli.main(state["argv"])
    return {"rc": rc, "lines": stream.getvalue().splitlines()}


def suite_normalized(outputs: dict) -> list[dict]:
    """The report stream without its runtime_ms fields."""
    reports = []
    for line in outputs["lines"]:
        report = json.loads(line)
        report.pop("runtime_ms", None)
        reports.append(report)
    return reports


def suite_outputs_per_rep(seed: int) -> int:
    return len(_load_golden("suite_default.json")["reports"]) + 2


def suite_check(seed: int, state, outputs: dict, cases) -> tuple[int, list[str]]:
    """Every report passes, exact checks stay exact-zero, float residuals stay
    within the recorded tolerance (the config's, whatever the report claims),
    and the per-tracker case counts are unchanged.
    At --seed 0 each report must also match the recorded stream in
    check_name, params, status, witness and seed (floats to 1e-9)."""
    golden = _load_golden("suite_default.json")
    expected = golden["reports"]
    failures = []
    if outputs["rc"] != 0:
        failures.append(f"suite exit code {outputs['rc']}")
    if [list(c) for c in cases] != golden["cases"]:
        failures.append("per-tracker case counts differ from the recorded run")
    try:
        reports = suite_normalized(outputs)
    except (ValueError, TypeError) as exc:
        failures.append(f"report stream is not JSON lines: {exc}")
        reports = []
    for i, want in enumerate(expected):
        got = reports[i] if i < len(reports) else None
        name = want["check_name"]
        if got is None:
            failures.append(f"{name}: report missing")
            continue
        problems = []
        if got.get("check_name") != name:
            problems.append(f"check_name {got.get('check_name')!r}")
        if got.get("status") != "pass" or got.get("witness") is not None:
            problems.append(f"status {got.get('status')!r}")
        residual = got.get("max_residual")
        if want["max_residual"] == "exact-zero" and residual != "exact-zero":
            problems.append(f"max_residual {residual!r} is not exact-zero")
        elif not _residual_ok(got, want["params"]["tolerance"]):
            problems.append(f"max_residual {residual!r} outside tolerance")
        if set(got.get("params", {})) != set(want["params"]):
            problems.append("params keys differ")
        if seed == 0 and not _close(_without_residual(got), _without_residual(want)):
            problems.append("differs from the recorded seed-0 stream")
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
    extra = len(reports) - len(expected)
    if extra > 0:
        failures.append(f"{extra} unexpected extra reports")
    return len(expected) + 2 + max(extra, 0), failures


# --- state_oracle ----------------------------------------------------------

def oracle_query_count(k_max: int, n_max: int, m_max: int) -> int:
    """Cases the criterion-9 sweep must examine: every in-band query, plus
    the off-band queries of its small-size zero pattern."""
    in_band = sum((k * n) ** m for k in range(1, k_max + 1)
                  for n in range(1, n_max + 1) for m in range(1, m_max + 1))
    off_band = sum(k ** m * (k * n) ** m - (k * n) ** m
                   for k in range(1, min(k_max, 3) + 1)
                   for n in range(1, min(n_max, 3) + 1)
                   for m in range(1, min(m_max, 2) + 1))
    return in_band + off_band


def oracle_setup(seed: int, workdir: Path) -> dict:
    # The sweep is exhaustive: the seed does not change its inputs.
    return {"shape": ORACLE_SHAPE}


def oracle_run(state: dict) -> dict:
    from qspread.partitions import MobiusCache
    from qspread.weingarten import oracle_equivalence_sweep

    return oracle_equivalence_sweep(*state["shape"], MobiusCache()).to_json_dict()


def oracle_outputs_per_rep(seed: int) -> int:
    return 2


def oracle_check(seed: int, state, report: dict, cases) -> tuple[int, list[str]]:
    k_max, n_max, m_max = ORACLE_SHAPE
    failures = []
    if not (report.get("check_name") == "state_oracle_equivalence"
            and report.get("status") == "pass"
            and report.get("max_residual") == "exact-zero"
            and report.get("witness") is None
            and {k: report.get("params", {}).get(k) for k in ("k_max", "n_max", "m_max")}
            == {"k_max": k_max, "n_max": n_max, "m_max": m_max}):
        failures.append(f"sweep report is not an exact-zero pass: {report!r}"[:300])
    counted = [n for name, n in cases if name == "state_oracle_equivalence"]
    want = oracle_query_count(k_max, n_max, m_max)
    if counted != [want]:
        failures.append(f"sweep examined {counted} cases, expected [{want}]")
    return 2, failures


WORKLOADS = {
    "suite_default": (suite_setup, suite_run, suite_check, suite_outputs_per_rep),
    "state_oracle": (oracle_setup, oracle_run, oracle_check, oracle_outputs_per_rep),
}
