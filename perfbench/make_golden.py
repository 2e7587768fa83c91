"""Record the reference outputs the benchmark checks --seed 0 against.

    python3 perfbench/make_golden.py

Writes golden/suite_default.json (the report stream of ``suite all`` on the
example config without runtime_ms, and the per-tracker case counts).
Run it only on a commit whose outputs are known to be right, and only when a
change to the report stream is intended.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, child_env


def record(workload: str) -> dict:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        out = subprocess.run(
            [sys.executable, "-s", str(HERE / "child.py"), "--workload", workload,
             "--seed", "0", "--mode", "run", "--workdir", workdir, "--golden"],
            cwd=ROOT, env=child_env(Path(workdir)), capture_output=True, text=True, check=True,
            timeout=600).stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])["golden"]


def main() -> int:
    (HERE / "golden").mkdir(exist_ok=True)
    path = HERE / "golden" / "suite_default.json"
    path.write_text(json.dumps(record("suite_default"), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
