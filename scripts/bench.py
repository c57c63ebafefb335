"""Write one BENCH file: perfbench runs, a per-law solve table, tier-1 times.

Run from the root of a checkout:

    python3 scripts/bench.py --out BENCH_<n>.json
    python3 scripts/bench.py --solve-table   # the solve table alone, to stdout
    python3 scripts/bench.py --memory        # the memory row alone, to stdout
    python3 scripts/bench.py --energy        # the energy row alone, to stdout

It runs perfbench/run.py with --trace 0 for the simulate and influence
workloads and with --trace 1 for simulate, each on the default seed for
10 s, keeping each run's provenance line and final JSON line. The solve
table times the Dijkstra kernel alone, called as LatticeBox.solve calls
it: the stopped solve from (0, 0) to (n, 0) on the box of a `simulate`
cell at n = 100 and 200, for each law of SOLVE_LAWS, and the full solve of
the 11 x 11 box of the two-point energy fields. The energy row times a
call of `v_e_plus_bernoulli` on that box and of `geodesic_breakpoints` on
it and on the box of a `simulate` cell at n = 100 (`exp`), each the median
of every call's time over ROUNDS rounds of FIELDS fields. It times
`fpplab classify --dist exp:rate=1` cold, as the median wall time of 7
fresh interpreters. The memory row is the tracemalloc peak of the numpy
arrays of one `exp` replica (WeightField.generate and passage_time) on the
box of a `simulate` cell at n = 100 and 200, against the budget of one
field, one distance array and the edge bitset, and the growth of the peak
RSS over one 2-worker, 100-replica `exp` cell at n = 200 in a fresh
interpreter, from its value after the imports (Linux only). Then it runs
the tier-1 suite once and records its wall time and the elapsed times of
acceptance criteria 1 and 10 from the suite's JUnit report. Compare a
BENCH file only with another taken on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

RUNS = (("simulate", 0), ("influence", 0), ("simulate", 1))
SECONDS = 10
CRITERIA = ("test_criterion_01_", "test_criterion_10_")
SOLVE_LAWS = (
    "exp:rate=1", "gamma:a=2,b=1", "gamma:a=0.5,b=1", "gamma:a=0.05,b=1", "uniform:lo=1,hi=2",
    "halfnormal", "bernoulli:a=1,b=2,p=0.5", "bernoulli:a=0,b=1,p=0.6",
    "bernoulli:a=0.1,b=0.3,p=0.5", "bernoulli:a=1,b=100,p=0.01", "dirac:c=1",
)
SOLVE_NS = (100, 200)
FIELDS = 20
ROUNDS = 5  # each field is solved once per round
ENERGY_CALLS = 50  # full solves of the 11 x 11 box per timed call
CLASSIFY = ("classify", "--dist", "exp:rate=1")
INTERPRETERS = 7
MEMORY_REPLICAS = 5  # replicas traced per n, after one whose peak is dropped
# The peak RSS is Linux's VmHWM, this process image's own: ru_maxrss would
# also count the process it was forked from.
_CELL_RSS = """
import json
from fpplab import experiments

def peak_mib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))

cfg = experiments.ExperimentConfig("exp:rate=1", n_list=(200,), replicas=100, master_seed=1,
                                   workers=2)
before = peak_mib()
experiments.collect_batch(cfg, 200, 0)
print(json.dumps({"before_mib": before, "growth_mib": peak_mib() - before}))
"""


def solve_table() -> dict:
    """Median ms of one kernel solve, over ROUNDS rounds of FIELDS fields:
    {"n100": {law: ms}, "n200": {...}, "energy_11x11_full": ms}. The fields
    come from master seed 1, as perfbench's; the kernel is the one that
    fpplab under src/ builds."""
    sys.path.insert(0, "src")
    import numpy as np

    from fpplab import experiments, fpp_core, parse_spec, WeightField

    kernel = fpp_core._KERNEL
    if kernel is None:
        sys.exit("bench: no compiled kernel to time")

    def timer(box, fields, src, tgt, calls=1):
        dist = np.empty(box.n_vertices)
        pred = np.empty(box.n_vertices, dtype=np.int32)
        args = (box.d, box._c_shape)
        tail = (src, tgt, fpp_core.TIE_REL_TOL, dist.ctypes.data, pred.ctypes.data)
        times = []
        for _ in range(ROUNDS):
            for w in fields:
                t0 = time.perf_counter()
                for _ in range(calls):
                    kernel.fpp_dijkstra(*args, w.ctypes.data, *tail)
                times.append((time.perf_counter() - t0) / calls)
        return float(np.median(times)) * 1e3

    table = {}
    for n in SOLVE_NS:
        box = experiments.box_for(experiments.ExperimentConfig("exp:rate=1", n_list=(n,)), n)
        src, tgt = box.vertex_index((0, 0)), box.vertex_index((n, 0))
        table[f"n{n}"] = {
            spec: timer(box, [WeightField.generate(box, parse_spec(spec), 1, r).weights
                              for r in range(FIELDS)], src, tgt)
            for spec in SOLVE_LAWS
        }
    box = fpp_core.LatticeBox((0, 0), (10, 10))
    fields = [WeightField.generate(box, parse_spec("bernoulli:a=1,b=2,p=0.5"), 1, r).weights
              for r in range(FIELDS)]
    table["energy_11x11_full"] = timer(box, fields, 0, -1, ENERGY_CALLS)
    return table


def energy_table() -> dict:
    """Median us of one call, over ROUNDS rounds of FIELDS fields:
    {"v_e_plus_bernoulli_11x11": us, "geodesic_breakpoints_11x11": us,
    "geodesic_breakpoints_n100": us}. The two-point fields are those of
    perfbench's energy loop, bernoulli:a=1,b=2,p=0.5 from (0, 0) to
    (10, 10); the n=100 fields are exp from (0, 0) to (100, 0). Master seed
    1 throughout."""
    sys.path.insert(0, "src")
    import numpy as np

    from fpplab import (experiments, geodesic_breakpoints, LatticeBox, parse_spec,
                        passage_time, v_e_plus_bernoulli, WeightField)

    def timer(calls):
        times = []
        for _ in range(ROUNDS):
            for call in calls:
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        return float(np.median(times)) * 1e6

    def fields(box, spec):
        return [WeightField.generate(box, parse_spec(spec), 1, r) for r in range(FIELDS)]

    def breakpoint_calls(box, spec, v):
        return [partial(geodesic_breakpoints, field, passage_time(field, (0, 0), v))
                for field in fields(box, spec)]

    small = LatticeBox((0, 0), (10, 10))
    n100 = experiments.box_for(experiments.ExperimentConfig("exp:rate=1", n_list=(100,)), 100)
    return {
        "v_e_plus_bernoulli_11x11": timer(
            [partial(v_e_plus_bernoulli, field, (0, 0), (10, 10))
             for field in fields(small, "bernoulli:a=1,b=2,p=0.5")]),
        "geodesic_breakpoints_11x11": timer(
            breakpoint_calls(small, "bernoulli:a=1,b=2,p=0.5", (10, 10))),
        "geodesic_breakpoints_n100": timer(breakpoint_calls(n100, "exp:rate=1", (100, 0))),
    }


def memory_table() -> dict:
    """{"n100": {...}, "n200": {...}, "cell_n200": {...}}: per n, the largest
    tracemalloc peak in bytes over MEMORY_REPLICAS replicas and the budget
    9 E + 8 V; for the cell, the RSS growth in MiB."""
    sys.path.insert(0, "src")
    import tracemalloc

    from fpplab import experiments, parse_spec, passage_time, WeightField

    law = parse_spec("exp:rate=1")
    table = {}
    for n in SOLVE_NS:
        box = experiments.box_for(experiments.ExperimentConfig("exp:rate=1", n_list=(n,)), n)
        peaks = []
        for r in range(MEMORY_REPLICAS + 1):
            tracemalloc.start()
            passage_time(WeightField.generate(box, law, 1, r), (0, 0), (n, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        table[f"n{n}"] = {"peak_bytes": max(peaks[1:]),
                          "budget_bytes": 9 * box.n_edges + 8 * box.n_vertices}
    out = subprocess.run([sys.executable, "-c", _CELL_RSS], env=_src_env(),
                         capture_output=True, text=True, check=True)
    table["cell_n200"] = json.loads(out.stdout.splitlines()[-1])
    return table


def perfbench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench: {' '.join(cmd[1:])} exited {out.returncode}\n{out.stderr}")
    return {"args": cmd[2:], "provenance": lines[-2]["provenance"], "result": lines[-1]}


def _src_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def classify_cold() -> dict:
    """Median wall time of the CLI's classify over INTERPRETERS fresh
    interpreters, start-up and imports included."""
    cmd = [sys.executable, "-m", "fpplab.cli", *CLASSIFY]
    times = []
    for _ in range(INTERPRETERS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_src_env(), capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return {"args": ["fpplab", *CLASSIFY], "runs": len(times),
            "median_s": statistics.median(times)}


def tier1() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-W", "error::RuntimeWarning", "-p", "no:cacheprovider", f"--junitxml={report}"],
            env=_src_env(), capture_output=True, text=True,
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
    p.add_argument("--out", type=Path)
    p.add_argument("--solve-table", action="store_true",
                   help="print the per-law solve table and exit")
    p.add_argument("--memory", action="store_true", help="print the memory row and exit")
    p.add_argument("--energy", action="store_true", help="print the energy row and exit")
    args = p.parse_args()
    if args.solve_table:
        print(json.dumps(solve_table(), indent=1))
        return 0
    if args.memory:
        print(json.dumps(memory_table(), indent=1))
        return 0
    if args.energy:
        print(json.dumps(energy_table(), indent=1))
        return 0
    if args.out is None:
        p.error("--out is required unless --solve-table, --memory or --energy is given")
    runs = [perfbench(w, t) for w, t in RUNS]
    table = solve_table()
    bench = {"perfbench": runs, "solve_table_ms": table, "energy_us": energy_table(),
             "memory": memory_table(),
             "classify_cold": classify_cold(), "tier1": tier1()}
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(json.dumps(bench["tier1"]))
    return 0 if bench["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
