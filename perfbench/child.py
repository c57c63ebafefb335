"""Measuring process, started by run.py with the package on sys.path.

    child.py setup --workload W --seed S
        parse the inputs and build the boxes of W, then exit (timed from outside)
    child.py run --workload W --seed S --seconds T --work DIR
        untraced closed loop of W's jobs for T seconds, then the output checks
    child.py trace --seed S --work DIR
        serial traced profile of all three workloads, each section run once
        untraced and once traced

`run` and `trace` print one JSON object as their last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import fpplab
from fpplab import averaging, distributions, experiments, fpp_core, funcineq
from fpplab import neargamma, reporting
from tracer import Tracer
import workloads as W

# Job sizes. An untraced job takes about 1.5-2.5 s on a 2-core Xeon, so a
# 40 s run yields about 16-27 jobs whose median is reported.
RUN_SIZES = {
    "simulate": {"replicas": 100},
    "influence": {"replicas": 100, "exact": 25, "fields": 300},
    "verify": {"tables": 150, "offsets": 400},
}
# The traced profile is serial, so it uses fewer replicas; 1000 energy
# fields put ten samples beyond the p99 of the per-field time.
TRACE_SIZES = {
    "simulate": {"replicas": 60},
    "influence": {"replicas": 60, "exact": 15, "fields": 1000},
    "verify": {"tables": 150, "offsets": 400},
}


def _median(xs):
    return float(statistics.median(xs))


def _peak_rss_mb() -> float:
    """This process plus its largest finished child (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _library_provenance() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "fpplab": fpplab.__version__,
        "fpplab_path": str(Path(fpplab.__file__).parent),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "workers": W.WORKERS,
    }


# ---------------------------------------------------------------------------
# untraced closed loop


def _run_simulate(cfg, work, tally) -> dict:
    """One checked simulate job; returns its files, times and cell walls."""
    out = work / "sim"
    t0 = time.perf_counter()
    with W.BatchCapture() as cap:
        W.simulate_job(cfg, out)
    wall = time.perf_counter() - t0
    tally.add(W.check_simulate(cfg, out, cap.batches))
    files = W.read_outputs(out)
    shutil.rmtree(out)
    return {
        "wall": wall,
        "files": files,
        "times": {b.n: b.times for b in cap.batches},
        "cell_s": {b.n: b.seconds for b in cap.batches},
    }


def _simulate_job(seed, op, sizes, work, tally, keep):
    cfg = W.sim_config(W.op_seed(seed, op), sizes["replicas"])
    run = _run_simulate(cfg, work, tally)
    if op == 0:
        keep["first"] = (cfg, run["files"])
    return {
        "wall_s": run["wall"],
        "replicas_per_s.n100": cfg.replicas / run["cell_s"][100],
        "replicas_per_s.n200": cfg.replicas / run["cell_s"][200],
    }


def _simulate_replay(keep, work, tally):
    """The first job again with one worker: its files must be byte-identical."""
    cfg, expected = keep["first"]
    cfg1 = W.sim_config(cfg.master_seed, cfg.replicas, workers=1)
    same = _run_simulate(cfg1, work, tally)["files"] == expected
    tally.add([] if same else ["1-worker replay differs from the 2-worker report bytes"])


def _run_influence(master, sizes, tally, workers=W.WORKERS) -> dict:
    """One checked influence job: paired diagnostics, then the energy fields."""
    cfg = W.influence_config(master, sizes["replicas"], workers)
    t0 = time.perf_counter()
    with W.BatchCapture() as cap:
        diag = experiments.influence_diagnostics(
            cfg, W.INFLUENCE_N, exact_replicas=sizes["exact"]
        )
    t1 = time.perf_counter()
    box = fpp_core.LatticeBox(*W.ENERGY_BOX)
    dist = distributions.parse_spec(W.ENERGY_SPEC)
    fields = [W.energy_field(box, dist, master, r) for r in range(sizes["fields"])]
    t2 = time.perf_counter()
    tally.add(W.check_influence(diag))
    for value, t, _ in fields:
        tally.add(W.check_energy(dist, value, t))
    return {
        "wall_s": t2 - t0,
        "influence_s": t1 - t0,
        "energy_fields_per_s": len(fields) / (t2 - t1),
        "exact_probe_share": 1.0 - sum(b.seconds for b in cap.batches) / (t1 - t0),
        "low_edges": sum(low for _, _, low in fields),
    }


def _influence_job(seed, op, sizes, work, tally, keep):
    return _run_influence(W.op_seed(seed, op), sizes, tally)


def _verify_job(seed, op, sizes, work, tally, keep):
    part = W.verify_job(W.op_seed(seed, op), sizes, tally)
    return {
        "wall_s": part["wall_s"],
        "tables_per_s": part["tables"] / part["suite_s"],
        "offsets_per_s": part["offsets"] / part["offsets_s"],
    }


JOBS = {"simulate": _simulate_job, "influence": _influence_job, "verify": _verify_job}
UNITS = {
    "wall_s": "s",
    "replicas_per_s.n100": "1/s",
    "replicas_per_s.n200": "1/s",
    "influence_s": "s",
    "energy_fields_per_s": "1/s",
    "tables_per_s": "1/s",
    "offsets_per_s": "1/s",
    "exact_probe_share": "ratio",
}


def run_untraced(workload, seed, seconds, work) -> dict:
    sizes = RUN_SIZES[workload]
    tally = W.Tally()
    keep: dict = {}
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(JOBS[workload](seed, len(jobs), sizes, work, tally, keep))
    measured = time.perf_counter() - start
    if workload == "simulate":
        _simulate_replay(keep, work, tally)
    metrics = {
        name: {"value": _median([j[name] for j in jobs]), "unit": unit}
        for name, unit in UNITS.items()
        if name in jobs[0]
    }
    metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MiB"}
    return {
        "metrics": metrics,
        "jobs": len(jobs),
        "measured_s": measured,
        "sizes": sizes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "library": _library_provenance(),
    }


# ---------------------------------------------------------------------------
# traced profile


def _install(tracer: Tracer, labels: dict):
    def box_label(box):
        return labels.get(box.n_vertices, f"v{box.n_vertices}")

    tr = tracer.wrap
    tr(experiments, "full_report", "experiments.full_report")
    tr(experiments, "collect_batch", "experiments.collect_batch",
       tag=lambda a, r: f"m{r.m}")
    tr(experiments, "influence_diagnostics", "experiments.influence_diagnostics")
    tr(experiments, "passage_time", "fpp_core.passage_time",
       tag=lambda a, r: box_label(a[0].box))
    tr(experiments, "edge_breakpoint", "fpp_core.edge_breakpoint")
    tr(fpp_core, "passage_time", "fpp_core.passage_time",
       tag=lambda a, r: box_label(a[0].box))
    tr(fpp_core, "v_e_plus_bernoulli", "fpp_core.energy_field")
    tr(fpp_core.LatticeBox, "__init__", "fpp_core.box_build",
       tag=lambda a, r: box_label(a[0]))
    tr(fpp_core.LatticeBox, "solve", "fpp_core.solve",
       tag=lambda a, r: box_label(a[0]),
       value=lambda a, r: float(np.count_nonzero(np.isfinite(r[0]))) / r[0].size)
    tr(fpp_core.WeightField, "generate", "distributions.sample",
       tag=lambda a, r: box_label(r.box))
    tr(averaging.AveragingMap, "level", "averaging.level")
    tr(averaging, "sample_offset", "averaging.sample_offset")
    tr(averaging, "verify_averaging_properties", "averaging.gm_check",
       tag=lambda a, r: f"m{r.m}")
    tr(funcineq, "run_random_suite", "funcineq.suite")
    tr(funcineq, "verify_modified_poincare", "funcineq.mp")
    tr(funcineq, "verify_fs_bound", "funcineq.fs")
    tr(funcineq, "verify_energy_decomposition", "funcineq.energy")
    tr(funcineq.ProductTable, "weights", "funcineq.weights")
    tr(funcineq, "gaussian_lsi_check", "funcineq.lsi")
    tr(neargamma, "classify_nearly_gamma", "neargamma.classify")
    tr(reporting, "write_json", "reporting.write")
    tr(reporting, "write_csv", "reporting.write")


def _trace_simulate(seed, work, tally) -> dict:
    sizes = TRACE_SIZES["simulate"]
    for _ in range(3):
        W.setup("simulate", seed, sizes)
    cfg = W.sim_config(W.op_seed(seed, 0), sizes["replicas"], workers=1)
    return _run_simulate(cfg, work, tally)


def _trace_influence(seed, work, tally) -> dict:
    sizes = TRACE_SIZES["influence"]
    for _ in range(3):
        W.setup("influence", seed, sizes)
    return _run_influence(W.op_seed(seed, 1), sizes, tally, workers=1)


def _trace_verify(seed, work, tally) -> dict:
    return W.verify_job(W.op_seed(seed, 2), TRACE_SIZES["verify"], tally)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_traced(seed, work) -> dict:
    tally = W.Tally()
    labels = {
        experiments.box_for(W.sim_config(0, 2), n).n_vertices: f"n{n}" for n in W.SIM_N
    }
    # the traced simulate job run untraced with 2 workers: the dispatch reference
    sizes = TRACE_SIZES["simulate"]
    pool = _run_simulate(W.sim_config(W.op_seed(seed, 0), sizes["replicas"]), work, tally)
    tracer = Tracer()
    walls = {}
    results = {}
    plain = {}
    sections = {
        "simulate": _trace_simulate,
        "influence": _trace_influence,
        "verify": _trace_verify,
    }
    for name, fn in sections.items():
        t0 = time.perf_counter()
        plain[name] = fn(seed, work, tally)
        t1 = time.perf_counter()
        tracer.section = name
        _install(tracer, labels)
        try:
            results[name] = fn(seed, work, tally)
        finally:
            tracer.unwrap_all()
        t2 = time.perf_counter()
        walls[name] = (t1 - t0, t2 - t1)

    sim = results["simulate"]
    same = (
        sim["files"] == pool["files"] == plain["simulate"]["files"]
        and all(_same_bits(sim["times"][n], pool["times"][n]) for n in W.SIM_N)
    )
    tally.add([] if same else ["traced serial run differs from the 2-worker run"])

    metrics, shares = _layer_metrics(tracer, walls, pool, results)
    return {
        "metrics": metrics,
        "shares": shares,
        "walls": walls,
        "sizes": TRACE_SIZES,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "library": _library_provenance(),
    }


def _layer_metrics(tracer: Tracer, walls, pool, results):
    S = tracer.select
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def med(spans, attr="dur"):
        return _median([getattr(s, attr) for s in spans])

    for n in W.SIM_N:
        put(f"distributions.sample_ms.n{n}",
            1e3 * med(S("distributions.sample", "simulate", f"n{n}")), "ms")
    put("fpp_core.box_build_ms", 1e3 * med(S("fpp_core.box_build", "simulate", "n200")), "ms")
    for n in W.SIM_N:
        put(f"fpp_core.solve_ms.n{n}", 1e3 * med(S("fpp_core.solve", "simulate", f"n{n}")), "ms")
    solves = S("fpp_core.solve", "simulate", "n200")
    put("fpp_core.settled_frac.n200", statistics.fmean(s.value for s in solves), "ratio")
    for n in W.SIM_N:
        put(f"fpp_core.geodesic_ms.n{n}",
            1e3 * med(S("fpp_core.passage_time", "simulate", f"n{n}"), "self_dur"), "ms")

    bps = S("fpp_core.edge_breakpoint", "influence")
    put("fpp_core.breakpoint_ms", 1e3 * med(bps), "ms")
    put("fpp_core.breakpoint_calls", len(bps), "count")
    fields = sorted(s.dur for s in S("fpp_core.energy_field", "influence"))
    put("fpp_core.energy_field_ms.p50", 1e3 * _median(fields), "ms")
    put("fpp_core.energy_field_ms.p99", 1e3 * statistics.quantiles(fields, n=100)[98], "ms")
    put("fpp_core.energy_low_edges", results["influence"]["low_edges"], "count")

    levels = S("averaging.level", "influence")
    put("averaging.level_us", 1e6 * med(levels), "us")
    put("averaging.level_calls", len(levels), "count")
    put("averaging.sample_offset_us", 1e6 * med(S("averaging.sample_offset", "verify")), "us")
    put("averaging.gm_check_ms.m4", 1e3 * med(S("averaging.gm_check", "verify", "m4")), "ms")

    for m in (0, 4):
        put(f"experiments.batch_s.m{m}",
            sum(s.dur for s in S("experiments.collect_batch", "influence", f"m{m}")), "s")
    diags = S("experiments.influence_diagnostics", "influence")
    batches = S("experiments.collect_batch", "influence")
    exact = sum(s.dur for s in diags) - sum(s.dur for s in batches)
    put("experiments.exact_probe_s", exact, "s")
    busy = sum(
        s.dur
        for name in ("distributions.sample", "fpp_core.passage_time")
        for s in S(name, "simulate", "n200")
    )
    ideal = busy / W.WORKERS
    put("experiments.dispatch_s.n200", pool["cell_s"][200] - ideal, "s")
    put("experiments.pool_efficiency.n200", ideal / pool["cell_s"][200], "ratio")
    put("experiments.aggregate_ms",
        1e3 * sum(s.self_dur for s in S("experiments.full_report", "simulate")), "ms")
    put("reporting.write_ms", 1e3 * sum(s.dur for s in S("reporting.write", "simulate")), "ms")

    tables = sum(1 for _ in S("funcineq.mp", "verify"))
    for part in ("mp", "fs", "energy", "weights"):
        total = sum(s.self_dur for s in S(f"funcineq.{part}", "verify"))
        put(f"funcineq.{part}_ms", 1e3 * total / tables, "ms")
    put("funcineq.tables", tables, "count")
    put("neargamma.classify_ms", 1e3 * med(S("neargamma.classify", "verify")), "ms")

    traced_wall = sum(t for _, t in walls.values())
    put("trace.coverage", sum(s.self_dur for s in tracer.spans) / traced_wall, "ratio")
    put("trace.overhead_frac",
        traced_wall / sum(u for u, _ in walls.values()) - 1.0, "ratio")

    # shares the ROADMAP baseline predicts, printed beside the metrics
    n200 = S("distributions.sample", "simulate", "n200")
    replica = busy / len(n200)
    influence_s = sum(s.dur for s in diags)
    influence_parts = {
        "exact_probe": exact,
        "batch_m0": out["experiments.batch_s.m0"]["value"],
        "batch_m4": out["experiments.batch_s.m4"]["value"],
    }
    per_table = {p: out[f"funcineq.{p}_ms"]["value"] for p in ("mp", "fs", "energy", "weights")}
    shares = {
        "n200_replica_ms": 1e3 * replica,
        "solve_share_of_n200_replica": out["fpp_core.solve_ms.n200"]["value"] / (1e3 * replica),
        "exact_probe_share_of_influence_s": exact / influence_s,
        "largest_part_of_influence_s": max(influence_parts, key=influence_parts.get),
        "largest_part_of_verify_table": max(per_table, key=per_table.get),
    }
    return out, shares


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "trace"))
    p.add_argument("--workload", choices=tuple(JOBS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--work", type=Path)
    args = p.parse_args(argv)
    if args.mode == "setup":
        W.setup(args.workload, args.seed, RUN_SIZES[args.workload])
        return 0
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "run":
        result = run_untraced(args.workload, args.seed, args.seconds, args.work)
    else:
        result = run_traced(args.seed, args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
