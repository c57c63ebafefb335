"""fpplab benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0

Workloads: simulate, influence, verify (see perfbench/README.md).
With --trace 0 it measures set-up time in fresh interpreters, then runs the
workload's jobs in a closed loop for --seconds and prints the end-to-end
metrics. With --trace 1 it runs the serial traced profile and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed.

The launcher itself imports neither numpy nor fpplab: it pins BLAS and
OpenMP to one thread in the environment of every process it starts, so
the two pool workers cannot oversubscribe two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEED = 1  # the tuning seed; a claimed gain must also hold on seed 7919
WORKLOADS = ("simulate", "influence", "verify")
SETUP_STARTS = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SPECIFIC = {
    "simulate": ("replicas_per_s.n100", "replicas_per_s.n200"),
    "influence": ("influence_s", "energy_fields_per_s", "exact_probe_share"),
    "verify": ("tables_per_s", "offsets_per_s"),
}

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("FPPLAB_WORKERS", None)  # the benchmark passes workers=2 itself
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, str]:
    """Run child.py in its own process group; return (wall seconds, stdout)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child {args[0]} ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
    return wall, out


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def provenance(args, library: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **library,
        **git_state(),
        "thread_env": {var: child_env()[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    base = ["--seed", str(args.seed), "--work", str(work)]
    if args.trace:
        _, out = run_child(["trace", *base], deadline)
        result = last_json(out)
        for key, value in result["shares"].items():
            print(f"share {key}: {value}")
        for name, (untraced, traced) in result["walls"].items():
            print(f"section {name}: untraced {untraced:.3f} s, traced {traced:.3f} s")
        return result, result["metrics"]

    starts = [
        run_child(["setup", "--workload", args.workload, "--seed", str(args.seed)], deadline)[0]
        for _ in range(SETUP_STARTS)
    ]
    _, out = run_child(
        ["run", "--workload", args.workload, "--seconds", str(args.seconds), *base],
        deadline,
    )
    result = last_json(out)
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(starts), "unit": "s"}
    frac = result["failed"] / result["attempted"]
    print(f"jobs: {result['jobs']} in {result['measured_s']:.2f} s, sizes {result['sizes']}")
    print(f"setup starts (s): {', '.join(f'{s:.4f}' for s in starts)}")
    for name in END_TO_END + SPECIFIC[args.workload]:
        print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"failed_frac: {frac:.6g} of {result['attempted']} attempted operations")
    return result, {name: metrics[name] for name in END_TO_END}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so run_child kills the measuring process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "fpplab" / "__init__.py").is_file():
        print(f"perfbench: no fpplab sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result, metrics = measure(args, work, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    library = result["library"]
    if Path(library["fpplab_path"]).resolve() != (ROOT / "src" / "fpplab").resolve():
        print(f"perfbench: measured fpplab at {library['fpplab_path']}, not this checkout",
              file=sys.stderr)
        return 1
    for message in result["messages"]:
        print(f"check failed: {message}")
    print(json.dumps({"provenance": provenance(args, library)}))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
