import math
import multiprocessing.process
import os
import sys
import threading

import numpy as np
import pytest

import fpplab as F
from fpplab import ConfigError, DomainError
from fpplab.experiments import ScalingRow


TINY = dict(dist_spec="exp:rate=1", dim=2, n_list=(6, 10), replicas=24,
            master_seed=77, workers=1)


def test_config_validation():
    with pytest.raises(ConfigError):
        F.ExperimentConfig(dist_spec="exp:rate=1", replicas=1)
    with pytest.raises(ConfigError):
        F.ExperimentConfig(dist_spec="exp:rate=1", dim=4)
    with pytest.raises(ConfigError):
        F.ExperimentConfig(dist_spec="exp:rate=1", n_list=())
    with pytest.raises(DomainError):
        F.ExperimentConfig(dist_spec="wat:x=1")
    with pytest.raises(ConfigError):
        F.ExperimentConfig(dist_spec="exp:rate=1", m_policy="sometimes")


def test_config_rejects_repeated_distances():
    with pytest.raises(ConfigError, match="distinct"):
        F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(5, 5, 5), replicas=3)
    with pytest.raises(ConfigError, match="distinct"):
        F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(10, 20, np.int64(10)))


@pytest.mark.parametrize(
    "spec", ("bernoulli:a=-1,b=2,p=0.5", "uniform:lo=-1,hi=1", "dirac:c=-0.5")
)
def test_config_rejects_negative_support(spec):
    with pytest.raises(ConfigError, match="negative support"):
        F.ExperimentConfig(dist_spec=spec)


def test_config_rejects_non_integer_replicas():
    for replicas in (2.5, 100.0, "100", True):
        with pytest.raises(ConfigError, match="integer"):
            F.ExperimentConfig(dist_spec="exp:rate=1", replicas=replicas)
    assert F.ExperimentConfig(dist_spec="exp:rate=1", replicas=np.int64(10)).replicas == 10


@pytest.mark.parametrize("workers", (0, -3, 2.5, 2.0, "2", True))
def test_config_rejects_workers_that_are_not_positive_integers(workers):
    with pytest.raises(ConfigError, match="workers"):
        F.ExperimentConfig(dist_spec="exp:rate=1", workers=workers)


def test_config_accepts_positive_integer_workers():
    assert F.ExperimentConfig(dist_spec="exp:rate=1", workers=None).workers is None
    assert F.ExperimentConfig(dist_spec="exp:rate=1", workers=np.int64(3)).workers == 3


@pytest.mark.parametrize("cap", ("abc", "0", "-1", "2.5", "²"))
def test_resolve_workers_rejects_a_bad_environment_cap(cap, monkeypatch):
    from fpplab.experiments import resolve_workers

    monkeypatch.setenv("FPPLAB_WORKERS", cap)
    with pytest.raises(ConfigError, match="FPPLAB_WORKERS"):
        resolve_workers(2)


def test_resolve_workers_applies_the_environment_cap(monkeypatch):
    from fpplab.experiments import resolve_workers

    monkeypatch.setenv("FPPLAB_WORKERS", " 3 ")
    assert resolve_workers(8) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("FPPLAB_WORKERS", "")
    assert resolve_workers(5) == 5


def test_m_policy():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", m_policy="auto")
    assert cfg.m_for(100) == 4
    assert cfg.m_for(25) == 3
    assert F.ExperimentConfig(dist_spec="exp:rate=1", m_policy="2").m_for(9) == 2
    assert F.ExperimentConfig(dist_spec="exp:rate=1").m_for(9) == 0


def test_box_too_small_for_m_policy_fails_before_sampling():
    # n=4 has margin ceil(0.5 * 4) = 2; the config checks every n it lists
    for n_list in ((4,), (40, 4)):
        with pytest.raises(ConfigError, match="cannot absorb offsets up to m=8"):
            F.ExperimentConfig(dist_spec="exp:rate=1", n_list=n_list, m_policy="8",
                               margin_factor=0.5, replicas=5)
    # an n outside n_list is still guarded where its box is built
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(40,), m_policy="8")
    with pytest.raises(ConfigError, match="cannot absorb offsets up to m=8"):
        F.experiments.box_for(cfg, 4)


def test_jackknife_requires_replicas():
    with pytest.raises(DomainError):
        F.jackknife_variance_ci(np.array([1.0, 2.0]))


def test_jackknife_coverage_on_gaussian_surrogate():
    rng = np.random.default_rng(12345)
    trials, reps, sigma = 500, 200, 1.7
    covered = 0
    for _ in range(trials):
        x = rng.normal(0.0, sigma, reps)
        _, lo, hi = F.jackknife_variance_ci(x)
        covered += lo <= sigma**2 <= hi
    assert abs(covered / trials - 0.95) <= 0.02


def test_deterministic_weights_give_zero_variance():
    cfg = F.ExperimentConfig(dist_spec="dirac:c=1", dim=2, n_list=(5, 9),
                             replicas=8, master_seed=1, workers=1)
    rows = F.run_variance_scaling(cfg)
    for row in rows:
        assert row.var == 0.0
        assert row.mean == row.n
        assert row.geo_len_mean == row.n


def test_scaling_rows_shape():
    cfg = F.ExperimentConfig(**TINY)
    rows = F.run_variance_scaling(cfg)
    assert [r.n for r in rows] == [6, 10]
    for r in rows:
        assert r.var_lo <= r.var <= r.var_hi
        assert r.var >= 0.0
    assert not hasattr(rows[0], "seconds") and not hasattr(rows[0], "summary")
    assert F.collect_batch(cfg, 6, m=0).seconds > 0.0  # cell times live on the batch


def test_worker_count_does_not_change_results():
    cfg1 = F.ExperimentConfig(**TINY)
    cfg2 = F.ExperimentConfig(**{**TINY, "workers": 2})
    r1 = F.run_variance_scaling(cfg1)
    r2 = F.run_variance_scaling(cfg2)
    for a, b in zip(r1, r2):
        assert a.mean == b.mean and a.var == b.var and a.ties == b.ties


# ---------------------------------------------------------------------------
# fit_scaling


def _rows(ns, var_fn, rel_ci=0.0):
    out = []
    for n in ns:
        v = var_fn(n)
        out.append(
            ScalingRow(
                n=n, mean=0.0, var=v,
                var_lo=v * (1 - rel_ci), var_hi=v * (1 + rel_ci),
                geo_len_mean=0.0, geo_len_sq_mean=0.0, ties=0,
            )
        )
    return out


def test_fit_scaling_recovers_linear():
    rep = F.fit_scaling(_rows((25, 50, 100, 200), lambda n: 2.0 * n))
    assert rep.preferred == "linear"
    assert rep.c_linear == pytest.approx(2.0, abs=1e-6)
    assert rep.rss_linear <= 1e-24


def test_fit_scaling_recovers_over_log():
    rep = F.fit_scaling(_rows((25, 50, 100, 200), lambda n: 2.0 * n / math.log(n)))
    assert rep.preferred == "linear-over-log"
    assert rep.c_over_log == pytest.approx(2.0, abs=1e-6)


def test_fit_scaling_inconclusive_under_noise():
    rng = np.random.default_rng(7)
    noisy = _rows(
        (25, 50, 100, 200),
        lambda n: 2.0 * n * float(rng.uniform(0.8, 1.2)),
        rel_ci=0.2,
    )
    rep = F.fit_scaling(noisy)
    assert rep.preferred == "inconclusive"
    with pytest.raises(DomainError):
        F.fit_scaling(noisy[:2])


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: a row whose variance CI reaches 0 adds nothing to noise_floor, though its "
    "log-scale width is unbounded, so the fit prefers a shape with noise_floor 0; the "
    "fix moves report.json bytes and needs a REPORT_FORMAT bump"))
def test_fit_scaling_inconclusive_when_a_ci_reaches_zero():
    # the variances of halfnormal at n = 4, 6, 8 with 4 replicas, seed 0, whose
    # jackknife CIs all reach 0
    rows = _rows((4, 6, 8), {4: 1.368, 6: 0.5407, 8: 0.9796}.get, rel_ci=1.0)
    assert all(r.var_lo == 0 for r in rows)
    assert F.fit_scaling(rows).preferred == "inconclusive"


# ---------------------------------------------------------------------------
# tail profile


def _synthetic_batch(n, times):
    return F.ReplicaBatch(
        n=n, m=0, times=np.asarray(times, dtype=float),
        geo_len=np.full(len(times), float(n)),
        ties=np.zeros(len(times), dtype=np.int64),
        presence=np.empty((len(times), 0), dtype=np.uint8),
        probe_ids=np.empty(0, dtype=np.int64),
    )


def test_tail_profile_deterministic_weights():
    batch = _synthetic_batch(100, np.full(3000, 42.0))
    prof = F.tail_profile(F.ExperimentConfig(**TINY), 100, batch=batch)
    assert all(r.count == 0 for r in prof.rows)
    assert "insufficient-exceedances" in prof.flags
    assert prof.fit is None


def test_tail_profile_exponential_synthetic():
    rng = np.random.default_rng(99)
    scale = math.sqrt(100 / math.log(100))
    # |f - mean| exactly exponential in t-units: P(|X| > t*scale) = exp(-2t)
    sgn = rng.choice([-1.0, 1.0], size=60_000)
    mag = rng.exponential(scale / 2.0, size=60_000)
    batch = _synthetic_batch(100, 42.0 + sgn * mag)
    prof = F.tail_profile(F.ExperimentConfig(**TINY), 100, batch=batch)
    assert prof.fit is not None
    assert prof.fit.r2 >= 0.98
    assert prof.fit.rate == pytest.approx(2.0, rel=0.1)
    qualifying = [r for r in prof.rows if r.count >= 20]
    assert prof.fit.points == len(qualifying)
    for r in prof.rows:
        assert (r.method == "normal") == (r.count >= 20)
        assert r.p_lo <= r.p_hat <= r.p_hi


@pytest.mark.parametrize("n", (150, 1000, 2000, 5000))
def test_clopper_pearson_is_scipy_stats_beta_ppf_bit_for_bit(n):
    from scipy import stats

    alpha = 1.0 - 0.95
    for k in range(20):
        lo, hi, method = F.experiments._count_ci(k, n)
        assert method == "clopper-pearson"
        want_lo = 0.0 if k == 0 else float(stats.beta.ppf(alpha / 2, k, n - k + 1))
        want_hi = float(stats.beta.ppf(1 - alpha / 2, k + 1, n - k))
        assert (lo, hi) == (want_lo, want_hi), (k, n)
        assert np.float64(lo).tobytes() == np.float64(want_lo).tobytes()
    assert F.experiments._count_ci(20, n)[2] == "normal"


def test_tail_profile_needs_replicas():
    cfg = F.ExperimentConfig(**{**TINY, "replicas": 24})
    with pytest.raises(ConfigError):
        F.tail_profile(cfg, 10)  # no batch injected, replicas too small


# ---------------------------------------------------------------------------
# time constant, geodesic stats, truncation


def test_time_constant_dirac():
    cfg = F.ExperimentConfig(dist_spec="dirac:c=1", dim=2, n_list=(4, 8, 16),
                             replicas=6, master_seed=0, workers=1)
    rep = F.estimate_time_constant(cfg)
    for row in rep.rows:
        assert row.ratio == pytest.approx(1.0, abs=1e-12)
    assert all(ok for (_, _, ok) in rep.subadditivity)
    assert rep.nonincreasing_within_ci


def test_time_constant_bernoulli_bounds():
    cfg = F.ExperimentConfig(dist_spec="bernoulli:a=1,b=2,p=0.5", dim=2,
                             n_list=(4, 8), replicas=30, master_seed=3, workers=1)
    rep = F.estimate_time_constant(cfg)
    for row in rep.rows:
        assert 1.0 - 1e-12 <= row.ratio <= 2.0 + 1e-12


def test_geodesic_stats_dirac():
    cfg = F.ExperimentConfig(dist_spec="dirac:c=1", dim=2, n_list=(8,),
                             replicas=5, master_seed=0, workers=1)
    st = F.geodesic_stats(cfg, 8)
    assert st.mean_len == 8.0
    assert st.len_sq_over_n_sq == pytest.approx(1.0)
    assert set(st.ball_counts) == {2, 3, 4}
    assert st.ball_counts[2] <= st.ball_counts[3] <= st.ball_counts[4]


def test_truncation_experiment_no_mass_moved():
    cfg = F.ExperimentConfig(dist_spec="uniform:lo=0,hi=1", dim=2, n_list=(5,),
                             replicas=10, master_seed=5, workers=1)
    rep = F.truncation_experiment(cfg, k=100, c5=1.0, n=5, replicas=10)
    assert rep.grid_ok
    assert rep.coupling_violations == 0
    assert rep.distance_violations == 0
    assert rep.gap_mean == 0.0
    assert rep.zero_gap_replicas == rep.replicas


def test_truncation_experiment_exercises_tail():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(6,),
                             replicas=60, master_seed=5, workers=1)
    rep = F.truncation_experiment(cfg, k=10, c5=0.5, n=6, replicas=60)
    assert rep.grid_ok
    assert rep.coupling_violations == 0
    assert rep.distance_violations == 0
    assert rep.gap_max > 0.0  # the bump region was really sampled


def test_truncation_requires_continuous_base():
    cfg = F.ExperimentConfig(dist_spec="bernoulli:a=1,b=2,p=0.5", dim=2,
                             n_list=(5,), replicas=10, master_seed=0, workers=1)
    with pytest.raises(ConfigError):
        F.truncation_experiment(cfg, k=10, c5=1.0)


# ---------------------------------------------------------------------------
# influence diagnostics (small but real)


def test_influence_diagnostics_randomization_flattens_presence():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(16,),
                             replicas=300, master_seed=11, m_policy="auto",
                             workers=1)
    out = F.influence_diagnostics(cfg, 16, exact_replicas=40)
    assert out["max_presence_m0"] > out["max_presence_randomized"]
    base = out["m0"]
    rand = out["randomized"]
    assert base.r_hat >= 0.0 and rand.r_hat >= 0.0
    assert base.s_hat > 0.0
    assert base.s_hat_bound > 0.0
    assert rand.m == 2  # ceil(16^(1/4))
    if base.l_defined:
        assert base.l_of_k > 0.0


def test_influence_diagnostics_dirac_degenerate():
    cfg = F.ExperimentConfig(dist_spec="dirac:c=1", dim=2, n_list=(8,),
                             replicas=40, master_seed=2, workers=1)
    out = F.influence_diagnostics(cfg, 8, exact_replicas=10)
    base = out["m0"]
    assert base.r_hat == 0.0
    assert base.s_hat == 0.0
    assert not base.l_defined
    assert any("l(K) undefined" in f for f in base.flags)


def test_influence_diagnostics_flags_a_two_point_law_at_zero():
    # a = 0 has no two-point energy constant (it divides by a): C = 1.0, flagged
    cfg = F.ExperimentConfig(dist_spec="bernoulli:a=0,b=1,p=0.5", dim=2, n_list=(8,),
                             replicas=40, master_seed=2, workers=1)
    out = F.influence_diagnostics(cfg, 8, exact_replicas=10)
    for key in ("m0", "randomized"):
        diag = out[key]
        assert "a = 0" in diag.flags[0]
        assert math.isfinite(diag.k_const) and diag.k_const > 0.0
    assert out["m0"].k_const == 4.0 * out["m0"].mean_f


def test_influence_diagnostics_classifies_the_law_once(monkeypatch):
    calls = []
    original = F.experiments.classify_nearly_gamma

    def counting(dist):
        calls.append(dist)
        return original(dist)

    monkeypatch.setattr(F.experiments, "classify_nearly_gamma", counting)
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(16,), replicas=12,
                             master_seed=3, workers=1)
    F.influence_diagnostics(cfg, 16, exact_replicas=4)
    assert len(calls) == 1


def test_l_of_k_guard():
    with pytest.raises(DomainError):
        F.l_of_k(1.0, 1.0)
    val = F.l_of_k(100.0, 1.0)
    assert val == pytest.approx(100.0 / math.log(100.0 / math.log(100.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# full report


def test_full_report_deterministic_and_complete(monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(5, 8, 12),
                             replicas=12, master_seed=4, workers=1)
    from fpplab import reporting

    doc1 = F.full_report(cfg)
    doc2 = F.full_report(F.ExperimentConfig(dist_spec="exp:rate=1", dim=2,
                                            n_list=(5, 8, 12), replicas=12,
                                            master_seed=4, workers=2))
    assert reporting.dumps(doc1) == reporting.dumps(doc2)
    assert doc1["version"] == F.__version__
    assert doc1["config"]["dist_spec"] == "exp:rate=1"
    assert len(doc1["rows"]) == 3
    assert doc1["fit"] is not None
    assert doc1["format"] == 3
    assert all(set(r) == set(F.experiments.SCALING_CSV_HEADER) for r in doc1["rows"])
    assert not any("seconds" in r for r in doc1["rows"])
    # asking for wall times is refused before any field is sampled
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="no wall times"):
        F.full_report(cfg, deterministic=False)


def test_randomized_passage_time_preserves_the_mean():
    # translation invariance of the weight law makes the offset version of
    # the passage time mean-neutral; checked at Monte Carlo resolution
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(10,),
                             replicas=4000, master_seed=606, m_policy="3")
    plain = F.collect_batch(cfg, 10, m=0)
    offset = F.collect_batch(cfg, 10, m=3)
    se = math.sqrt(plain.times.var(ddof=1) / plain.times.size
                   + offset.times.var(ddof=1) / offset.times.size)
    assert abs(plain.times.mean() - offset.times.mean()) <= 4.0 * se


def test_geodesic_ball_counts_grow_subordinately():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(16,),
                             replicas=200, master_seed=13, workers=1)
    st = F.geodesic_stats(cfg, 16)
    # |geodesic ∩ ball(e, d m)| should grow no faster than linearly in the
    # ball radius for d = 2 (the m^(d-1) envelope)
    per_m = {m: st.ball_counts[m] / m for m in (2, 3, 4)}
    assert max(per_m.values()) <= 3.0 * min(per_m.values()) + 1.0


def test_tail_profile_bernoulli_field():
    cfg = F.ExperimentConfig(dist_spec="bernoulli:a=1,b=2,p=0.5", dim=2,
                             n_list=(50,), replicas=3000, master_seed=21)
    prof = F.tail_profile(cfg, 50)
    assert prof.fit is not None
    assert prof.fit.points >= 3
    assert prof.fit.r2 >= 0.9
    assert prof.fit.rate > 0


def test_time_constant_exponential_trend():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(8, 16, 32),
                             replicas=300, master_seed=44)
    rep = F.estimate_time_constant(cfg)
    assert rep.nonincreasing_within_ci
    assert all(ok for (_, _, ok) in rep.subadditivity)


@pytest.mark.parametrize(
    "bad",
    (
        dict(n_list=(4.5,)),
        dict(n_list=(4, 8.0)),
        dict(n_list=(True,)),
        dict(dim=2.0),
        dict(master_seed=1.5),
        dict(master_seed=-1),
        dict(margin_factor=float("nan")),
        dict(margin_factor=float("inf")),
        dict(margin_factor="0.5"),
        dict(m_policy=3),
        dict(dist_spec=5),
    ),
)
def test_config_rejects_fields_it_would_coerce(bad):
    with pytest.raises(ConfigError):
        F.ExperimentConfig(**(dict(dist_spec="exp:rate=1") | bad))


def test_config_refuses_a_margin_that_overflows():
    # 1e308 * 4 is inf: the margin has no integer ceiling
    kwargs = dict(dist_spec="exp:rate=1", n_list=(4, 6, 8), replicas=4, margin_factor=1e308)
    with pytest.raises(ConfigError, match="margin factor 1e\\+308 times n=4 overflows"):
        F.ExperimentConfig(**kwargs)
    echo = F.ExperimentConfig(**(kwargs | dict(margin_factor=0.5))).echo()
    with pytest.raises(ConfigError, match="overflows"):
        F.ExperimentConfig.from_echo(echo | dict(margin_factor=1e308))


def test_config_accepts_numpy_integers():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=np.int64(2),
                             n_list=(np.int32(4),), master_seed=np.uint32(3))
    assert cfg.echo()["n_list"] == [4]


def test_config_round_trips_through_its_echo():
    import json

    cfg = F.ExperimentConfig(dist_spec="gamma:a=2,b=1", dim=3, n_list=(9, 5), replicas=7,
                             master_seed=11, m_policy="1", margin_factor=0.75)
    default = F.ExperimentConfig(dist_spec="exp:rate=1")
    assert all(getattr(cfg, k) != getattr(default, k) for k in cfg.echo() if k != "seed_scheme")
    echo = json.loads(json.dumps(cfg.echo()))  # as a report holds it
    assert F.ExperimentConfig.from_echo(echo) == cfg
    with pytest.raises(KeyError):
        F.ExperimentConfig.from_echo({k: v for k, v in echo.items() if k != "dim"})


# ---------------------------------------------------------------------------
# the replica path against the per-replica tuple fold it replaced


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("m", (0, 2))
@pytest.mark.parametrize("spec", ("exp:rate=1", "bernoulli:a=1,b=2,p=0.5"))
def test_collect_batch_matches_the_tuple_fold(spec, m, workers):
    from oracles import tuple_fold_batch

    n = 12
    # 40 replicas, one per call, in this thread or on 2 pool threads
    cfg = F.ExperimentConfig(dist_spec=spec, n_list=(n,), replicas=40,
                             master_seed=23, m_policy="2", workers=workers)
    probes = [int(e) for e in F.experiments.box_for(cfg, n).edges_near((0, 0), 1)]
    got = F.collect_batch(cfg, n, m=m, want_edges=True, probe_ids=probes,
                          exact_replicas=11)
    want = tuple_fold_batch(cfg, n, m, want_edges=True, probe_ids=probes,
                            exact_replicas=11)
    assert (got.n, got.m) == (want.n, want.m)
    for name in ("times", "geo_len", "ties", "presence", "probe_ids", "exact_w"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert len(got.geo_edges) == len(want.geo_edges) == cfg.replicas
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.geo_edges, want.geo_edges))
    assert got.exact_w_plus == want.exact_w_plus
    assert len(got.exact_w_plus) == 11 and got.presence.any() and got.exact_w.any()


def test_collect_batch_without_probes_keeps_empty_shapes():
    cfg = F.ExperimentConfig(**TINY)
    batch = F.collect_batch(cfg, 6, m=0)
    assert batch.presence.shape == (cfg.replicas, 0) and batch.presence.dtype == np.uint8
    assert batch.exact_w.shape == (0, 0) and batch.exact_w_plus == []
    assert batch.probe_ids.dtype == np.int64 and batch.geo_edges is None


# ---------------------------------------------------------------------------
# batch sharing between the scaling readers


def test_full_report_solves_each_replica_once(solve_counter):
    cfg = F.ExperimentConfig(**TINY)
    F.full_report(cfg)
    assert len(solve_counter) == cfg.replicas * len(cfg.n_list)
    assert all(tgt is not None for _, tgt in solve_counter)


def test_truncation_experiment_solves_to_its_target(solve_counter):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(6,),
                             replicas=4, master_seed=5, workers=1)
    F.truncation_experiment(cfg, k=10, c5=0.5, n=6, replicas=4)
    box = F.experiments.box_for(cfg, 6)
    assert solve_counter == [(box.vertex_index((0, 0)), box.vertex_index((6, 0)))] * 8


def test_time_constant_reuses_the_scaling_batches(solve_counter):
    cfg = F.ExperimentConfig(**TINY)
    batches: dict = {}
    F.run_variance_scaling(cfg, batches=batches)
    assert sorted(batches) == sorted(cfg.n_list)
    solve_counter.clear()
    F.estimate_time_constant(cfg, batches=batches)
    assert solve_counter == []


def test_full_report_collects_only_m0_cells(monkeypatch):
    cfg = F.ExperimentConfig(**(TINY | dict(m_policy="auto")))
    assert cfg.m_for(10) == 2
    cells = []
    original = F.experiments.collect_batch

    def recording(cfg, n, m=None, **kwargs):
        cells.append((n, m))
        return original(cfg, n, m=m, **kwargs)

    monkeypatch.setattr(F.experiments, "collect_batch", recording)
    F.full_report(cfg)
    assert cells == [(6, 0), (10, 0)]


# ---------------------------------------------------------------------------
# configs refused before any field is sampled


def _forbid_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a field before the config was checked")

    monkeypatch.setattr(F.WeightField, "generate", no_sampling)


def test_batch_readers_refuse_a_batch_of_another_n_before_sampling(monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(8,), replicas=5, workers=1)
    batch = _synthetic_batch(16, np.full(5, 16.0))
    batch.geo_edges = [np.arange(16)] * 5
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="given a batch of n=16"):
        F.tail_profile(cfg, 8, batch=batch)
    with pytest.raises(ConfigError, match="given a batch of n=16"):
        F.geodesic_stats(cfg, 8, batch=batch)


def test_geodesic_stats_refuses_a_batch_without_edges_before_sampling(monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(8,), replicas=5, workers=1)
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="want_edges=True"):
        F.geodesic_stats(cfg, 8, batch=_synthetic_batch(8, np.full(5, 8.0)))


@pytest.mark.parametrize("n,margin_factor", ((10, 0.1), (2, 0.5)))
def test_influence_diagnostics_checks_its_randomized_m_before_sampling(n, margin_factor,
                                                                       monkeypatch):
    # policy "none" randomizes at m = ceil(n^(1/4)) = 2, beyond the margin of 1
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(n,), replicas=20, workers=1,
                             margin_factor=margin_factor)
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="margin 1 cannot absorb offsets up to m=2"):
        F.influence_diagnostics(cfg, n)


@pytest.mark.parametrize("exact", (0, -5, 2.5, 10.0, True, "10"))
def test_influence_diagnostics_refuses_a_bad_exact_replica_count_before_sampling(exact,
                                                                                 monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(16,), replicas=12, workers=1)
    _forbid_sampling(monkeypatch)
    monkeypatch.setattr(F.experiments, "collect_batch", None)  # no cell is collected
    with pytest.raises(ConfigError, match="exact_replicas must be an integer >= 1"):
        F.influence_diagnostics(cfg, 16, exact_replicas=exact)


@pytest.mark.parametrize("replicas", (0, -3, 1.5, False))
def test_truncation_experiment_refuses_a_bad_replica_count_before_sampling(replicas,
                                                                           monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(6,), replicas=10, workers=1)
    monkeypatch.setattr(F.experiments, "box_for", None)  # nor is a box built
    monkeypatch.setattr(F.experiments, "Truncated", None)
    with pytest.raises(ConfigError, match="replicas must be an integer >= 1"):
        F.truncation_experiment(cfg, k=10, c5=0.5, replicas=replicas)


def test_truncation_experiment_runs_on_one_replica():
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(6,), replicas=10, workers=1)
    rep = F.truncation_experiment(cfg, k=10, c5=0.5, replicas=1)
    assert rep.replicas == 1 and rep.gap_max == rep.gap_mean >= 0.0


@pytest.mark.parametrize(
    "call, match",
    (
        (lambda cfg: F.collect_batch(cfg, 2.5, 0), "distance n"),
        (lambda cfg: F.collect_batch(cfg, 0, 0), "distance n"),
        (lambda cfg: F.collect_batch(cfg, -4, 0), "distance n"),
        (lambda cfg: F.collect_batch(cfg, True, 0), "distance n"),
        (lambda cfg: F.truncation_experiment(cfg, 10, 0.5, n=2.5, replicas=2), "distance n"),
        (lambda cfg: F.truncation_experiment(cfg, 10, 0.5, n=0, replicas=2), "distance n"),
        (lambda cfg: F.influence_diagnostics(cfg, 2.5), "distance n"),
        (lambda cfg: F.influence_diagnostics(cfg, -4), "distance n"),
        (lambda cfg: F.geodesic_stats(cfg, 6.0), "distance n"),
        (lambda cfg: F.tail_profile(cfg, True, batch=_synthetic_batch(1, [1.0, 2.0])),
         "distance n"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, exact_replicas=2.5), "exact_replicas"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, exact_replicas=-1), "exact_replicas"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, exact_replicas=True), "exact_replicas"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, probe_ids=[-1]), "probe ids"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, probe_ids=[1.7]), "probe ids"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, probe_ids=[3, 10**9]), "probe ids"),
        (lambda cfg: F.collect_batch(cfg, 6, 0, probe_ids=["3"]), "probe ids"),
    ),
    ids=("n=2.5", "n=0", "n=-4", "n=True", "truncation-n=2.5", "truncation-n=0",
         "influence-n=2.5", "influence-n=-4", "geodesic-n=6.0", "tail-n=True",
         "exact=2.5", "exact=-1", "exact=True",
         "probe=-1", "probe=1.7", "probe=1e9", "probe='3'"),
)
def test_cell_entries_refuse_bad_inputs_before_sampling(call, match, monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(6,), replicas=10, workers=1)
    _forbid_sampling(monkeypatch)
    monkeypatch.setattr(F.LatticeBox, "solve", None)  # nor is a field solved
    with pytest.raises(ConfigError, match=match):
        call(cfg)


def test_collect_batch_refuses_an_m_its_box_cannot_hold(monkeypatch):
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(10,), replicas=20, workers=1,
                             margin_factor=0.1)
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="margin 1 cannot absorb offsets up to m=2"):
        F.collect_batch(cfg, 10, 2)
    with pytest.raises(ConfigError, match="nonnegative"):
        F.collect_batch(cfg, 10, -1)


def test_scaling_refuses_runs_it_cannot_finish_before_sampling(monkeypatch):
    _forbid_sampling(monkeypatch)
    with pytest.raises(ConfigError, match="at least 3 replicas"):
        F.run_variance_scaling(F.ExperimentConfig(**(TINY | dict(replicas=2))))
    with pytest.raises(ConfigError, match="n > 1"):
        F.full_report(F.ExperimentConfig(**(TINY | dict(n_list=(1, 2, 3)))))


def test_full_report_without_a_fit_accepts_n_1():
    doc = F.full_report(F.ExperimentConfig(**(TINY | dict(n_list=(1, 2)))))
    assert doc["fit"] is None and [r["n"] for r in doc["rows"]] == [1, 2]


@pytest.mark.parametrize("policy,m_rand", (("0", 2), ("none", 2), ("auto", 2), ("1", 1)))
def test_influence_diagnostics_collects_m0_and_one_randomized_cell(policy, m_rand,
                                                                    monkeypatch):
    # the randomized m is cfg.m_for(n) when that is >= 1, else ceil(16^(1/4)) = 2
    cfg = F.ExperimentConfig(dist_spec="exp:rate=1", n_list=(16,), replicas=12,
                             master_seed=3, m_policy=policy, workers=1)
    cells = []
    original = F.experiments.collect_batch

    def recording(cfg, n, m, **kwargs):
        cells.append(m)
        return original(cfg, n, m, **kwargs)

    monkeypatch.setattr(F.experiments, "collect_batch", recording)
    out = F.influence_diagnostics(cfg, 16, exact_replicas=4)
    assert cells == [0, m_rand]
    assert (out["m0"].m, out["randomized"].m) == (0, m_rand)


def test_collect_batch_builds_one_box_in_the_calling_thread_first(monkeypatch):
    """A box is its shape, so there is no cache: collect_batch builds its
    cell's box itself, once, in the calling thread, before a pool of
    threads runs the first replica."""
    events = []
    build, generate = F.LatticeBox.__init__, F.WeightField.generate.__func__

    def recording_build(self, lo, hi):
        events.append(("box", threading.get_ident()))
        build(self, lo, hi)

    def recording_generate(cls, *args):
        events.append(("replica", threading.get_ident()))
        return generate(cls, *args)

    monkeypatch.setattr(F.LatticeBox, "__init__", recording_build)
    monkeypatch.setattr(F.WeightField, "generate", classmethod(recording_generate))
    cfg = F.ExperimentConfig(**(TINY | dict(workers=2)))
    F.collect_batch(cfg, 10, 0)
    assert events[0] == ("box", threading.get_ident())
    assert [kind for kind, _ in events].count("box") == 1
    assert len(events) == 1 + cfg.replicas


def _batch_bytes(batch):
    arrays = ("times", "geo_len", "ties", "presence", "probe_ids", "exact_w")
    return (
        [(getattr(batch, a).dtype, getattr(batch, a).shape, getattr(batch, a).tobytes())
         for a in arrays],
        [e.tobytes() for e in batch.geo_edges],
        batch.exact_w_plus,
    )


def _collect_bytes(cfg):
    probes = [int(e) for e in F.experiments.box_for(cfg, 10).edges_near((0, 0), 1)]
    return _batch_bytes(F.collect_batch(cfg, 10, 2, want_edges=True, probe_ids=probes,
                                        exact_replicas=5))


def _truncation_bytes(cfg):
    return F.reporting.dumps(F.truncation_experiment(cfg, k=10, c5=0.5, n=10, replicas=24))


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("run", (_collect_bytes, _truncation_bytes),
                         ids=("collect_batch", "truncation_experiment"))
def test_collect_batch_starts_no_process(run, workers, monkeypatch):
    """`_map_replicas` runs the replicas on threads of this process, which
    share its box and law: nothing forks, and with a switch interval of 1 us
    the fold is still the one-worker bytes at 2 threads and at 4, more than
    two cores."""

    def no_process(*args, **kwargs):
        raise AssertionError("a replica run started a process")

    want = run(F.ExperimentConfig(**(TINY | dict(workers=1))))
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run(F.ExperimentConfig(**(TINY | dict(workers=workers))))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_a_replica_error_surfaces_from_collect_batch_at_any_worker_count(monkeypatch):
    original = F.experiments.passage_time
    raised_in = []

    def failing(field, u, v):
        if field.replica == 13:  # mid-batch, with replicas after it still queued
            raised_in.append(threading.current_thread() is threading.main_thread())
            raise DomainError(f"replica {field.replica} cannot be solved")
        return original(field, u, v)

    monkeypatch.setattr(F.experiments, "passage_time", failing)
    errors = []
    for workers in (1, 2):
        with pytest.raises(DomainError) as info:
            F.collect_batch(F.ExperimentConfig(**(TINY | dict(workers=workers))), 10, 0)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(DomainError, "replica 13 cannot be solved")] * 2
    assert raised_in == [True, False]  # the second run raised in a pool thread
