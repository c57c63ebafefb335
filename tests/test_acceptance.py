"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite. The heavy
Monte Carlo criterion (10) keeps its stated sizes: n up to 200 with 2000
replicas per distance.
"""

import math
import time

import numpy as np
import pytest

import fpplab as F
from fpplab.cli import main as cli_main

from oracles import brute_force_passage_time


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_functional_inequality_suite():
    t0 = time.perf_counter()
    rep = F.run_random_suite(
        n_tables=1000, ns=range(2, 13), ps=(0.1, 0.5, 0.9), seed=20240917,
        energy_coordinates="all",
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.violations == 0
        and rep.mp_min_slack >= -1e-9
        and rep.fs_min_slack >= -1e-9
        and rep.energy_max_error <= 1e-10
        and elapsed <= 60.0
    )
    _report(
        1,
        "1000-table product-space inequality suite",
        ok,
        f"tables={rep.tables} mp_min={rep.mp_min_slack:.3g} fs_min={rep.fs_min_slack:.3g} "
        f"energy_max={rep.energy_max_error:.3g} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_two_point_lsi_constant():
    exact_at_half = F.lsi_constant_bernoulli(0.5) == 2.0
    worst = 0.0
    grid = [0.05 * k for k in range(1, 20)] + [0.123, 0.377, 0.482, 0.86]
    for p in grid:
        diff = abs(F.lsi_constant_bernoulli(p) - F.lsi_constant_bernoulli(1.0 - p))
        worst = max(worst, diff)
    ok = exact_at_half and worst <= 1e-15
    _report(
        2,
        "two-point log-Sobolev constant: value at 1/2 and symmetry",
        ok,
        f"c(1/2)={F.lsi_constant_bernoulli(0.5)} worst_sym_diff={worst:.2e}",
    )


def test_criterion_03_averaging_map_properties():
    t0 = time.perf_counter()
    details = []
    ok = True
    for m in (2, 3):
        rep = F.verify_averaging_properties(m)
        ok = ok and rep.gradient_ok and set(rep.gradient_values) <= {0, 1}
        ok = ok and rep.max_level_measure <= 4.0 / m
        details.append(f"m={m}: flips {rep.gradient_values}, meas {rep.max_level_measure:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 5.0
    _report(3, "level-function gradient and measure bounds (m=2,3)", ok,
            "; ".join(details) + f"; elapsed={elapsed:.2f}s")


def test_criterion_04_gaussian_tail_machinery():
    ratio = F.tail_asymptotic_ratio(1e-8)
    ratio_ok = abs(ratio - 1.0) <= 0.02
    xs = np.linspace(-8.0, 8.0, 1601)
    worst_x = 0.0
    worst_p = 0.0
    roundtrip_ok = True
    for x in xs:
        p = F.gauss_cdf(float(x))
        back = F.gauss_quantile(p)
        # binary64 floor: above x ~ 5.2 the survival information is lost in
        # the rounding of p next to 1, bounding any implementation by
        # 0.51 ulp(1) / g(x); inside that, the stated 1e-10 applies
        floor = 0.51 * 2.0**-53 / F.gauss_pdf(float(x)) if x > 0 else 0.0
        err = abs(back - x)
        roundtrip_ok = roundtrip_ok and err <= max(1e-10, floor)
        worst_x = max(worst_x, err if floor <= 1e-10 else 0.0)
        p_back = F.gauss_cdf(back)
        worst_p = max(worst_p, abs(p_back - p) / max(p, 1.0 - p, 1e-300))
    ok = ratio_ok and roundtrip_ok and worst_p <= 1e-10
    _report(
        4,
        "tail ratio at 1e-8 and quantile/cdf round-trip on [-8, 8]",
        ok,
        f"ratio={ratio:.5f} worst_x_err(sub-5.2)={worst_x:.2e} worst_p_rel={worst_p:.2e}",
    )


def test_criterion_05_nearly_gamma_verdicts():
    checks = []
    for a in (0.5, 1.0, 2.0):
        v = F.classify_nearly_gamma(F.Gamma(a, 1.0))
        checks.append(("gamma(%.1f,1) direct" % a, v.direct_pass))
    hn = F.classify_nearly_gamma(F.HalfNormal())
    checks.append(("halfnormal direct", hn.direct_pass))
    checks.append(("halfnormal not sufficient", not hn.sufficient_pass))
    uni = F.classify_nearly_gamma(F.Uniform(1.0, 2.0))
    checks.append(("uniform[1,2] direct", uni.direct_pass))
    ok = all(flag for _, flag in checks)
    _report(5, "nearly-gamma classifier verdicts", ok,
            ", ".join(f"{name}={flag}" for name, flag in checks))


def test_criterion_06_gaussian_lsi_equality_case():
    rep = F.gaussian_lsi_check(
        lambda x: math.exp(0.5 * x), lambda x: 0.5 * math.exp(0.5 * x)
    )
    target = 0.5 * math.exp(0.5)
    ok = (
        abs(rep.lhs - target) <= 1e-6 * target
        and abs(rep.rhs - target) <= 1e-6 * target
    )
    _report(6, "Gaussian log-Sobolev equality case", ok,
            f"lhs={rep.lhs:.10f} rhs={rep.rhs:.10f} target={target:.10f}")


def test_criterion_07_shortest_path_oracle_equivalence():
    shapes_2d = [(1, 1), (1, 2), (2, 1), (2, 2)]  # box extents: up to 3x3 vertices
    shapes_3d = [(1, 1, 1)]  # 2x2x2 vertices
    dist = F.parse_spec("exp:rate=1")
    total = 0
    worst = 0.0
    for hi in shapes_2d + shapes_3d:
        lo = tuple(0 for _ in hi)
        box = F.LatticeBox(lo, hi)
        for rep in range(100):
            field = F.WeightField.generate(box, dist, 4242 + total, rep)
            res = F.passage_time(field, lo, hi)
            ref = brute_force_passage_time(box, field.weights, lo, hi)
            worst = max(worst, abs(res.time - ref) / max(ref, 1e-300))
            total += 1
    ok = worst <= 1e-12
    _report(7, "Dijkstra equals exhaustive path enumeration", ok,
            f"fields={total} worst_rel={worst:.2e}")


def test_criterion_08_bernoulli_energy_bound():
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    box = F.LatticeBox((0, 0), (10, 10))
    violations = 0
    worst_margin = math.inf
    for rep in range(1000):
        field = F.WeightField.generate(box, dist, 1789, rep)
        val, res = F.v_e_plus_bernoulli(field, (0, 0), (10, 10))
        bound = (dist.b - dist.a) ** 2 / dist.a * res.time
        if val > bound:
            violations += 1
        worst_margin = min(worst_margin, bound - val)
    ok = violations == 0
    _report(8, "two-point resampling energy bound on 1000 fields", ok,
            f"violations={violations} min_margin={worst_margin:.3f}")


def test_criterion_09_truncation_domination_and_coupling():
    cfg = F.ExperimentConfig(
        dist_spec="exp:rate=1", dim=2, n_list=(20,), replicas=1000,
        master_seed=31, workers=1,
    )
    rep = F.truncation_experiment(cfg, k=100, c5=8.0, n=20, replicas=1000)
    ok = (
        rep.grid_ok
        and rep.grid_max_defect <= 1e-12
        and rep.coupling_violations == 0
        and rep.distance_violations == 0
    )
    _report(9, "truncated-law domination and coupled distances", ok,
            f"grid_defect={rep.grid_max_defect:.2e} coupling_viol={rep.coupling_violations} "
            f"dist_viol={rep.distance_violations} replicas={rep.replicas}")


def test_criterion_10_desk_scale_concentration_proxy():
    t0 = time.perf_counter()
    cfg = F.ExperimentConfig(
        dist_spec="exp:rate=1", dim=2, n_list=(25, 50, 100, 200),
        replicas=2000, master_seed=20240917, m_policy="auto",
    )
    batches: dict = {}
    rows = F.run_variance_scaling(cfg, batches=batches)

    # (a) Var(f_n)/n nonincreasing within jackknife CIs
    ratios = [(r.n, r.var / r.n, r.var_lo / r.n, r.var_hi / r.n) for r in rows]
    part_a = all(
        nxt[2] <= prev[3] for prev, nxt in zip(ratios, ratios[1:])
    )

    # (b) log exceedance linear over the well-populated t-range
    prof = F.tail_profile(cfg, 100, batch=batches[100])
    part_b = prof.fit is not None and prof.fit.r2 >= 0.9 and prof.fit.points >= 3

    # (c) randomization strictly lowers the near-origin presence maximum
    infl = F.influence_diagnostics(cfg, 100, exact_replicas=150)
    part_c = infl["max_presence_randomized"] < infl["max_presence_m0"]

    elapsed = time.perf_counter() - t0
    ok = part_a and part_b and part_c and elapsed <= 600.0
    var_line = " ".join(f"{n}:{v:.4f}" for n, v, _, _ in ratios)
    _report(
        10,
        "variance decay, exponential tail fit, influence flattening",
        ok,
        f"var/n {var_line}; r2={prof.fit.r2 if prof.fit else float('nan'):.3f} "
        f"pts={prof.fit.points if prof.fit else 0}; presence "
        f"{infl['max_presence_m0']:.3f}->{infl['max_presence_randomized']:.3f}; "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    args = ["simulate", "--dist", "exp:rate=1", "--dim", "2", "--n", "8,12",
            "--replicas", "16", "--seed", "2024"]
    outs = []
    for name, workers in (("w1", "1"), ("w2", "2"), ("w1b", "1")):
        out = tmp_path / name
        rc = cli_main(args + ["--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append(
            ((out / "scaling.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    ok = outs[0] == outs[1] == outs[2]
    _report(11, "CLI outputs byte-identical across runs and worker counts", ok,
            f"csv_bytes={len(outs[0][0])} json_bytes={len(outs[0][1])}")
