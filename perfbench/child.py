"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode run|trace|setup|warm --workdir DIR

Imports ``qspread`` from this checkout's ``src/`` (and refuses any other copy),
builds the inputs, times the call into the program (with spans in mode
``trace``; not at all in modes ``setup`` and ``warm``), checks its outputs and
prints one JSON object on its last line of standard output.  The durations
of the timed phase's segments (see ``tracing.CaseProbe``) go to a file in
the work directory that the JSON object names.  Mode ``warm``
also imports every ``qspread`` module, so that one untimed child fills the
bytecode cache before the measured ones.  ``run.py`` spawns
it; it is not meant to be run by hand except when debugging a workload.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_checkout_qspread():
    sys.path.insert(0, str(SRC))
    import qspread

    origin = Path(qspread.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qspread imported from {origin}, not from {SRC}")
    return qspread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup", "warm"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--golden", action="store_true",
                        help="print the outputs the recorded files are made from, unchecked")
    args = parser.parse_args(argv)

    qspread = import_checkout_qspread()
    import numpy as np

    if args.mode == "warm":
        for module in pkgutil.iter_modules(qspread.__path__):
            importlib.import_module(f"qspread.{module.name}")

    import tracing
    from workloads import WORKLOADS, suite_normalized

    setup, run, check, _ = WORKLOADS[args.workload]
    probe = tracing.install_case_probe()
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    state = setup(args.seed, args.workdir)

    log_start, cases_start = len(probe.log), probe.total
    root_start = tracer.root_s if tracer else 0.0
    start_monotonic = time.monotonic()
    if args.mode in ("setup", "warm"):
        print(json.dumps({"start_monotonic": start_monotonic, "attempted": 0, "failures": []}))
        return 0
    probe.reset_marks()
    start, cpu_start = time.perf_counter(), time.process_time()
    outputs = run(state)
    end, cpu_end = time.perf_counter(), time.process_time()
    wall, cpu = end - start, cpu_end - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    segments = args.workdir / f"segments-{os.getpid()}.bin"
    with open(segments, "wb") as f:
        probe.segments((start, end), (cpu_start, cpu_end)).tofile(f)

    cases = probe.log[log_start:]
    result = {
        "start_monotonic": start_monotonic,
        "wall_s": wall,
        "cpu_s": cpu,
        "segments_file": str(segments),
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qspread_file": str(Path(qspread.__file__).resolve().relative_to(ROOT)),
    }
    if tracer:
        result["layers"] = tracer.metrics(cases=probe.total - cases_start)
        result["coverage"] = (tracer.root_s - root_start) / wall
    if not args.golden:
        result["attempted"], result["failures"] = check(args.seed, state, outputs, cases)
    elif args.workload == "suite_default":
        result["golden"] = {"reports": suite_normalized(outputs),
                            "cases": [list(c) for c in cases]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
