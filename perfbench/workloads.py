"""The three benchmark workloads: inputs from a seed, the jobs, and their checks.

Every job goes through fpplab's public functions, looked up on the
package's modules at call time so that the traced run can wrap them.
Each check returns a list of failure messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from fpplab import averaging, distributions, experiments, fpp_core, funcineq
from fpplab import neargamma, reporting

WORKERS = 2

SIM_SPEC = "exp:rate=1"
SIM_N = (100, 200)
ENERGY_SPEC = "bernoulli:a=1,b=2,p=0.5"
ENERGY_BOX = ((0, 0), (10, 10))  # the 11x11 box of acceptance criterion 8
INFLUENCE_N = 100
SUITE_NS = tuple(range(2, 13))
SUITE_PS = (0.1, 0.5, 0.9)
GM_MS = (2, 3, 4)
OFFSET_MS = (3, 4)
OFFSET_D = 2


def op_seed(seed: int, op: int) -> int:
    """Master seed of job number `op` in a run started with `seed`."""
    return int(np.random.SeedSequence((seed, op)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# inputs and set-up


def sim_config(master_seed: int, replicas: int, workers: int = WORKERS):
    return experiments.ExperimentConfig(
        dist_spec=SIM_SPEC,
        dim=2,
        n_list=SIM_N,
        replicas=replicas,
        master_seed=master_seed,
        m_policy="none",
        workers=workers,
    )


def influence_config(master_seed: int, replicas: int, workers: int = WORKERS):
    return experiments.ExperimentConfig(
        dist_spec=SIM_SPEC,
        dim=2,
        n_list=(INFLUENCE_N,),
        replicas=replicas,
        master_seed=master_seed,
        m_policy="auto",
        workers=workers,
    )


def nearly_gamma_laws():
    """The five criterion-5 laws with the verdict each must get."""

    def direct(v):
        return v.direct_pass

    return [
        ("gamma(0.5,1)", distributions.Gamma(0.5, 1.0), direct),
        ("gamma(1,1)", distributions.Gamma(1.0, 1.0), direct),
        ("gamma(2,1)", distributions.Gamma(2.0, 1.0), direct),
        (
            "halfnormal",
            distributions.HalfNormal(),
            lambda v: v.direct_pass and not v.sufficient_pass,
        ),
        ("uniform[1,2]", distributions.Uniform(1.0, 2.0), direct),
    ]


def setup(workload: str, seed: int, sizes: dict):
    """Parse the workload's inputs and build its boxes, as a fresh run must."""
    if workload == "simulate":
        cfg = sim_config(op_seed(seed, 0), sizes["replicas"])
        return [experiments.box_for(cfg, n) for n in SIM_N]
    if workload == "influence":
        cfg = influence_config(op_seed(seed, 0), sizes["replicas"])
        distributions.parse_spec(ENERGY_SPEC)
        return [experiments.box_for(cfg, INFLUENCE_N), fpp_core.LatticeBox(*ENERGY_BOX)]
    if workload == "verify":
        return [law for _, law, _ in nearly_gamma_laws()]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# simulate: the library path behind `fpplab simulate`


def simulate_job(cfg, out_dir: Path) -> dict:
    """full_report plus report.json and scaling.csv, as the CLI writes them."""
    doc = experiments.full_report(cfg, deterministic=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = experiments.SCALING_CSV_HEADER
    reporting.write_csv(
        header, [[r[k] for k in header] for r in doc["rows"]], out_dir / "scaling.csv"
    )
    reporting.write_json(doc, out_dir / "report.json")
    return doc


def read_outputs(out_dir: Path) -> tuple[bytes, bytes]:
    return (out_dir / "report.json").read_bytes(), (out_dir / "scaling.csv").read_bytes()


def check_simulate(cfg, out_dir: Path, batches: list) -> list[str]:
    """Outputs parse, agree with each other and hold finite positive moments."""
    bad = []
    doc = json.loads((out_dir / "report.json").read_text())
    rows = doc["rows"]
    if [r["n"] for r in rows] != list(SIM_N):
        bad.append(f"report rows are for n={[r['n'] for r in rows]}")
    for r in rows:
        for key in ("mean", "var", "geo_len_mean"):
            if not (math.isfinite(r[key]) and r[key] > 0):
                bad.append(f"n={r['n']}: {key}={r[key]}")
    with open(out_dir / "scaling.csv", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != experiments.SCALING_CSV_HEADER or len(table) != len(rows) + 1:
        bad.append("scaling.csv header or row count differs from report.json")
    else:
        for line, r in zip(table[1:], rows):
            if [float(c) for c in line] != [float(r[k]) for k in table[0]]:
                bad.append(f"scaling.csv row n={r['n']} differs from report.json")
    if [b.n for b in batches] != list(SIM_N):
        bad.append(f"collected cells {[b.n for b in batches]}")
    for b in batches:
        if b.times.size != cfg.replicas or not np.all(np.isfinite(b.times) & (b.times > 0)):
            bad.append(f"n={b.n}: passage times missing, non-finite or not positive")
    return bad


class BatchCapture:
    """Keeps every ReplicaBatch that collect_batch returns while active.

    full_report drops its batches, and their times are needed for the
    per-cell throughput and for the bit-for-bit check of the traced run.
    """

    def __init__(self):
        self.batches = []

    def __enter__(self):
        self._orig = experiments.collect_batch

        def capture(*args, **kwargs):
            batch = self._orig(*args, **kwargs)
            self.batches.append(batch)
            return batch

        experiments.collect_batch = capture
        return self

    def __exit__(self, *exc):
        experiments.collect_batch = self._orig


# ---------------------------------------------------------------------------
# influence: paired diagnostics plus the two-point energy loop


def check_influence(diag: dict) -> list[str]:
    bad = []
    for key in ("m0", "randomized"):
        d = diag[key]
        values = [d.r_hat, d.s_hat, d.s_hat_bound, d.mean_f, d.k_const]
        if d.l_defined:
            values.append(d.l_of_k)
        values += [p.w_sq_mean for p in d.probes]
        if not all(math.isfinite(v) for v in values):
            bad.append(f"{key}: non-finite diagnostic")
        if not all(0.0 <= p.presence <= 1.0 for p in d.probes):
            bad.append(f"{key}: presence outside [0, 1]")
    for key in ("max_presence_m0", "max_presence_randomized"):
        if not 0.0 <= diag[key] <= 1.0:
            bad.append(f"{key}={diag[key]}")
    return bad


def energy_field(box, dist, master_seed: int, replica: int):
    """One criterion-8 field: (V_e+ value, passage time, low geodesic edges)."""
    field = fpp_core.WeightField.generate(box, dist, master_seed, replica)
    value, res = fpp_core.v_e_plus_bernoulli(field, ENERGY_BOX[0], ENERGY_BOX[1])
    low = int(np.count_nonzero(field.weights[res.edge_ids] == dist.a))
    return value, res.time, low


def check_energy(dist, value: float, time_: float) -> list[str]:
    bound = (dist.b - dist.a) ** 2 / dist.a * time_
    if not 0.0 <= value <= bound:
        return [f"V_e+ = {value} outside [0, {bound}]"]
    return []


# ---------------------------------------------------------------------------
# verify: the exact half, no lattice


def check_gm(rep) -> list[str]:
    if rep.gradient_ok and set(rep.gradient_values) <= {0, 1} and rep.level_bound_ok:
        return []
    return [f"m={rep.m}: gradient {rep.gradient_values}, max measure {rep.max_level_measure}"]


def check_offset(sample, m: int) -> list[str]:
    if np.all((sample.z >= 0) & (sample.z <= m)):
        return []
    return [f"offset {sample.z.tolist()} outside 0..{m}"]


def lsi_job():
    return funcineq.gaussian_lsi_check(
        lambda x: math.exp(0.5 * x), lambda x: 0.5 * math.exp(0.5 * x)
    )


def check_lsi(rep) -> list[str]:
    target = 0.5 * math.exp(0.5)
    if abs(rep.lhs - target) <= 1e-6 * target and abs(rep.rhs - target) <= 1e-6 * target:
        return []
    return [f"Gaussian LSI equality case: lhs={rep.lhs} rhs={rep.rhs}"]


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str], ops: int = 1, failed: int | None = None):
        self.attempted += ops
        self.failed += (1 if problems else 0) if failed is None else failed
        self.messages.extend(problems[: max(0, 10 - len(self.messages))])


def verify_job(master_seed: int, sizes: dict, tally: Tally) -> dict:
    """One verify job; returns the wall time of each part in seconds."""
    t0 = time.perf_counter()
    suite = funcineq.run_random_suite(
        n_tables=sizes["tables"], ns=SUITE_NS, ps=SUITE_PS, seed=master_seed,
        energy_coordinates="all",
    )
    t1 = time.perf_counter()
    gm = [averaging.verify_averaging_properties(m) for m in GM_MS]
    t2 = time.perf_counter()
    offsets = []
    for m in OFFSET_MS:
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, m)))
        offsets += [(m, averaging.sample_offset(rng, m, OFFSET_D)) for _ in range(sizes["offsets"])]
    t3 = time.perf_counter()
    verdicts = [
        (name, neargamma.classify_nearly_gamma(law), expect)
        for name, law, expect in nearly_gamma_laws()
    ]
    lsi = lsi_job()
    t4 = time.perf_counter()

    suite_bad = [] if suite.tables == sizes["tables"] else [f"suite ran {suite.tables} tables"]
    if suite.violations:
        suite_bad.append(f"{suite.violations} tables violate an inequality")
    tally.add(suite_bad, ops=suite.tables, failed=max(suite.violations, len(suite_bad)))
    for rep in gm:
        tally.add(check_gm(rep))
    for m, sample in offsets:
        tally.add(check_offset(sample, m))
    for name, verdict, expect in verdicts:
        tally.add([] if expect(verdict) else [f"{name}: unexpected nearly-gamma verdict"])
    tally.add(check_lsi(lsi))
    return {
        "suite_s": t1 - t0,
        "tables": suite.tables,
        "offsets_s": t3 - t2,
        "offsets": len(offsets),
        "wall_s": t4 - t0,
    }
