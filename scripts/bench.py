"""Write one BENCH file: perfbench runs plus the tier-1 and acceptance times.

Run from the root of a checkout:

    python3 scripts/bench.py --out BENCH_<n>.json

It runs perfbench/run.py with --trace 0 for the simulate and influence
workloads and with --trace 1 for simulate, each on the default seed for
10 s, keeping each run's provenance line and final JSON line. Then it runs the tier-1 suite once and records
its wall time and the elapsed times of acceptance criteria 1 and 10 from
the suite's JUnit report. Compare a BENCH file only with another taken on
the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

RUNS = (("simulate", 0), ("influence", 0), ("simulate", 1))
SECONDS = 10
CRITERIA = ("test_criterion_01_", "test_criterion_10_")


def perfbench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench: {' '.join(cmd[1:])} exited {out.returncode}\n{out.stderr}")
    return {"args": cmd[2:], "provenance": lines[-2]["provenance"], "result": lines[-1]}


def tier1() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-W", "error::RuntimeWarning", "-p", "no:cacheprovider", f"--junitxml={report}"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, ("src", os.environ.get("PYTHONPATH"))))},
            capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        suite = ET.parse(report).getroot().find("testsuite")
    cases = suite.findall("testcase")
    times = {
        prefix: sum(float(c.get("time")) for c in cases if c.get("name").startswith(prefix))
        for prefix in CRITERIA
    }
    return {
        "wall_s": wall,
        "exit_code": out.returncode,
        "tests": int(suite.get("tests")),
        "failures": int(suite.get("failures")) + int(suite.get("errors")),
        "skipped": int(suite.get("skipped")),
        "criterion_01_s": times["test_criterion_01_"],
        "criterion_10_s": times["test_criterion_10_"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args()
    runs = [perfbench(w, t) for w, t in RUNS]
    bench = {"perfbench": runs, "tier1": tier1()}
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(json.dumps(bench["tier1"]))
    return 0 if bench["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
