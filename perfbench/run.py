"""qspread benchmark: time to verdict of two verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  suite_default      ``qspread suite all`` on docs/examples/default.json, with
                     config seed 20260810 + N
  state_oracle       the criterion-9 sweep, closed form vs freeness oracle,
                     k,n,m <= 3,2,5 (exhaustive: N does not change its inputs)

Every repetition is a fresh interpreter (``child.py``), run one at a time,
that imports ``qspread`` from this checkout's ``src/``.  The children keep
their bytecode in a cache private to the run, filled by one untimed warm-up
child first, so every measured repetition loads the same compiled modules
whatever ``__pycache__`` the checkout holds.  Repetitions are started while
the next one is expected to end within S seconds, and at least four run.
Each repetition's outputs are checked; ``attempted`` and ``failed`` count
checked outputs, and a crashed or timed-out repetition counts as all failed.

Each repetition cuts its timed phase into segments, one per case a
``ResidualTracker`` checks, which are the same work in every repetition of
a run.  A shared host's speed moves by tens of percent within seconds as
other tenants load it; a segment's fastest repetition is the one least
slowed.  So, with ``--trace 0``:
  wall_s       time to verdict: the wall time of the timed phase (the calls
               into qspread), summed over its segments, each segment at its
               fastest across the repetitions
  cpu_s        user+sys CPU time of the child over the timed phase, summed
               the same way
  setup_s      spawn to start of the timed phase: interpreter start,
               imports and input generation (median over the repetitions
               and set-up-only children, at least nine)
  peak_rss_mb  ru_maxrss of the child (median)
The median whole-repetition wall time is printed beside them.
With ``--trace 1`` the repetitions alternate untraced and traced (at least
two traced), and the metrics are per-layer spans and counters from the
traced ones (see tracing.py), plus trace.overhead_s (median traced minus
median untraced wall_s) and host.calib_s.  Counters must repeat exactly
between the traced repetitions, and named spans must cover at least 90% of
the traced wall_s, or the run is marked incorrect.

Lines before the last give provenance, each metric with its unit and
sample count, the fail ratio and the host calibration time.  The last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOAD_NAMES = ("suite_default", "state_oracle")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
HARD_LIMIT_S = 170.0  # the whole run, repetitions included, ends before this
COVERAGE_FLOOR = 0.9
CALIBRATION_LOOP = 1_000_000
SETUP_SAMPLES = 9
MIN_RUN_REPS = 4  # wall_s and cpu_s take each segment's fastest of these
SEGMENTED = {"wall_s": "wall_segments", "cpu_s": "cpu_segments"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; reported, never used to rescale."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i & 7
    return time.perf_counter() - start


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in (
        "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    return env


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qspread").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info = {"src_sha256": digest.hexdigest()[:16], "git_sha": None, "git_dirty": None,
            "nproc": len(os.sched_getaffinity(0)), "executable": Path(sys.executable).name}
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return info


def run_rep(workload: str, seed: int, mode: str, workdir: Path, timeout: float) -> dict:
    """Spawn one child in ``mode`` (run, trace, setup or warm) and wait for
    it; returns its result, or an ``error``."""
    calib = calibrate()
    cmd = [sys.executable, "-s", str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s", "calib_s": calib, "mode": mode}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ended = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {err.strip()[-500:]}", "calib_s": calib,
                "mode": mode}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unparsable child output: {lines[-1][:200]}", "calib_s": calib,
                "mode": mode}
    if "segments_file" in result:
        segments = array("d")
        path = Path(result.pop("segments_file"))
        with open(path, "rb") as f:
            segments.frombytes(f.read())
        path.unlink()
        half = len(segments) // 2
        result["wall_segments"], result["cpu_segments"] = segments[:half], segments[half:]
    result["setup_s"] = result.pop("start_monotonic") - spawned
    result["rep_s"] = ended - spawned
    result["calib_s"] = calib
    result["mode"] = mode
    return result


def run_reps(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list:
    """Repetitions while the next is expected to end within ``seconds``,
    after one warm-up child that fills the bytecode cache and is not measured.
    Traced runs alternate untraced and traced repetitions, at least two traced;
    untraced runs add set-up-only repetitions up to SETUP_SAMPLES."""
    start = time.monotonic()
    warm = run_rep(workload, seed, "warm", workdir, HARD_LIMIT_S)
    if "error" in warm:
        return [warm]
    reps: list = []
    minimum = 3 if trace else MIN_RUN_REPS
    while True:
        mode = "trace" if trace and len(reps) % 3 else "run"  # run, trace, trace, ...
        elapsed = time.monotonic() - start
        if any("error" in r for r in reps):
            return reps
        if len(reps) >= minimum and elapsed + reps[-1]["rep_s"] > seconds:
            break
        reps.append(run_rep(workload, seed, mode, workdir, HARD_LIMIT_S - elapsed))
    while not trace and len(reps) < SETUP_SAMPLES:
        reps.append(run_rep(workload, seed, "setup", workdir,
                            HARD_LIMIT_S - (time.monotonic() - start)))
    return reps


def fastest_segments(series: list) -> float:
    """The timed phase, segment by segment at its fastest: the sum over the
    segments of each one's least duration across the repetitions."""
    return sum(map(min, zip(*series)))


def summarize(workload: str, seed: int, trace: bool, reps: list) -> tuple[dict, dict]:
    """Check counts and metrics (value, unit, samples) from the repetitions."""
    from workloads import WORKLOADS

    per_rep = WORKLOADS[workload][3](seed)
    attempted = failed = 0
    failures: list[str] = []
    for r in reps:
        if "error" in r:
            attempted += per_rep
            failed += per_rep
            failures.append(r["error"])
        else:
            attempted += r["attempted"]
            failed += len(r["failures"])
            failures += r["failures"]
    good = [r for r in reps if "error" not in r]
    metrics: dict = {}
    if not trace:
        runs = [r for r in good if r["mode"] == "run"]
        attempted += 1  # the repetitions cut the timed phase alike
        counts = {len(r["wall_segments"]) for r in runs}
        if len(counts) > 1:
            failed += 1
            failures.append(f"repetitions cut the timed phase into {sorted(counts)} segments")
        for name, unit in END_TO_END:
            if name in SEGMENTED:
                if runs and len(counts) == 1:
                    series = [r[SEGMENTED[name]] for r in runs]
                    metrics[name] = (fastest_segments(series), unit, len(series))
                continue
            values = [r[name] for r in good if name == "setup_s" or r["mode"] == "run"]
            if values:
                metrics[name] = (statistics.median(values), unit, len(values))
    else:
        unsteady: list[str] = []
        traced = [r for r in good if r["mode"] == "trace"]
        untraced = [r for r in good if r["mode"] == "run"]
        for name in tracing.per_layer_names():
            unit = tracing.per_layer_unit(name)
            if name == "host.calib_s":
                values = [r["calib_s"] for r in reps]
            elif name == "trace.overhead_s":
                if not (traced and untraced):
                    continue
                values = [statistics.median(r["wall_s"] for r in traced)
                          - statistics.median(r["wall_s"] for r in untraced)]
            elif name == "trace.coverage":
                values = [r["coverage"] for r in traced]
            else:
                values = [r["layers"][name] for r in traced]
                if tracing.is_counter(name) and values:
                    if len(set(values)) > 1:
                        unsteady.append(f"{name} {values}")
                    values = values[:1]  # a counter: every traced repetition agrees
            if values:
                metrics[name] = (statistics.median(values), unit, len(values))
        attempted += 2  # counters repeat exactly; spans cover the wall time
        if unsteady:
            failed += 1
            failures.append("counters differ between traced repetitions: "
                            + "; ".join(unsteady))
        coverage = metrics.get("trace.coverage", (0.0,))[0]
        if coverage < COVERAGE_FLOOR:
            failed += 1
            failures.append(f"named spans cover {coverage:.1%} of wall_s, "
                            f"below {COVERAGE_FLOOR:.0%}")
    return {"attempted": attempted, "failed": failed, "failures": failures}, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qspread/__init__.py", "docs/examples/default.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through run_rep's cleanup so no child outlives this run.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks, metrics = summarize(args.workload, args.seed, bool(args.trace), reps)

    info = provenance()
    measured = next((r for r in reps if "python" in r), None)
    if measured:
        info.update(python=measured["python"], numpy=measured["numpy"],
                    qspread=measured["qspread_file"])
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        how = "segments at their fastest of" if name in SEGMENTED and not args.trace \
            else "median of"
        print(f"{name} = {value:.6g} {unit} ({how} {samples})")
    if not args.trace:
        whole = [r["wall_s"] for r in reps if r.get("mode") == "run" and "error" not in r]
        if whole:
            print(f"whole-repetition wall_s median = {statistics.median(whole):.6g} s "
                  f"(of {len(whole)})")
    print(f"fail_ratio = {checks['failed'] / checks['attempted']:.6g} "
          f"({checks['failed']} of {checks['attempted']} outputs)")
    if not args.trace:
        print(f"host.calib_s = {statistics.median(r['calib_s'] for r in reps):.6g} s "
              f"(median of {len(reps)}; reported, not used to rescale)")
    for message in checks["failures"][:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    print(json.dumps({
        "correct": checks["failed"] == 0 and all("error" not in r for r in reps),
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
