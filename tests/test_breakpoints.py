"""Breakpoints from one solve per edge and two per geodesic, checked against
the two-solve re-solve and brute-force enumeration, plus solve-count guards.
The oracle checks run on both backends: the kernel's scan and breakpoint
pass, and their Python fallbacks on scipy's solver."""

import dataclasses
import math

import numpy as np
import pytest

import fpplab as F
from fpplab import fpp_core
from oracles import (
    brute_force_passage_time,
    matrix_path_sums,
    per_edge_v_e_plus,
    serial_exact_probe_influence,
    two_solve_breakpoint,
)

BOXES = {
    2: ((-3, -3), (12, 3), (0, 0), (9, 0)),
    3: ((-2, -2, -2), (6, 2, 2), (0, 0, 0), (4, 1, 0)),
}
SPECS = ("exp:rate=1", "gamma:a=2,b=1", "bernoulli:a=1,b=2,p=0.5")


def _fields(spec, dim, count, seed=99):
    lo, hi, u, v = BOXES[dim]
    box = F.LatticeBox(lo, hi)
    dist = F.parse_spec(spec)
    for rep in range(count):
        field = F.WeightField.generate(box, dist, seed, rep)
        yield field, F.passage_time(field, u, v)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("spec", SPECS)
def test_geodesic_breakpoints_match_two_solve_oracle(spec, dim, solve_backend):
    integer_valued = spec.startswith("bernoulli")
    edges = 0
    for field, res in _fields(spec, dim, 25):
        t0, t_inf = F.geodesic_breakpoints(field, res)
        assert t0.shape == t_inf.shape == (res.length,)
        for i, eid in enumerate(res.edge_ids):
            o0, o_inf = two_solve_breakpoint(field, res, int(eid))
            assert t0[i] == pytest.approx(o0, rel=1e-12, abs=0.0)
            assert t_inf[i] == pytest.approx(o_inf, rel=1e-12, abs=0.0)
            if integer_valued:
                assert (t0[i], t_inf[i]) == (o0, o_inf)
            edges += 1
    assert edges > 100


def test_geodesic_breakpoints_match_brute_force_on_tiny_boxes(solve_backend):
    dist = F.parse_spec("exp:rate=1")
    for hi in ((2, 2), (3, 1), (1, 1, 1)):
        lo = tuple(0 for _ in hi)
        box = F.LatticeBox(lo, hi)
        for rep in range(8):
            field = F.WeightField.generate(box, dist, 5, rep)
            res = F.passage_time(field, lo, hi)
            t0, t_inf = F.geodesic_breakpoints(field, res)
            big = float(field.weights.sum()) + 1.0
            for i, eid in enumerate(res.edge_ids):
                w = field.weights.copy()
                w[eid] = 0.0
                assert t0[i] == pytest.approx(
                    brute_force_passage_time(box, w, lo, hi), rel=1e-12
                )
                w[eid] = big
                assert t_inf[i] == pytest.approx(
                    brute_force_passage_time(box, w, lo, hi), rel=1e-12
                )


@pytest.mark.parametrize("c", (0.0, 1.0))
def test_geodesic_breakpoints_on_bridges_ties_and_free_edges(c, solve_backend):
    # a 1-wide strip makes every edge a bridge; constant fields tie everywhere;
    # c = 0 makes every geodesic edge free
    cases = (
        ((0, 0), (5, 0), (0, 0), (5, 0)),
        ((0, 0), (4, 3), (0, 0), (4, 3)),
        ((0, 0, 0), (2, 2, 2), (0, 0, 0), (2, 2, 1)),
    )
    for lo, hi, u, v in cases:
        box = F.LatticeBox(lo, hi)
        field = F.WeightField(box, np.full(box.n_edges, c), f"dirac:c={c}", 0, 0)
        res = F.passage_time(field, u, v)
        t0, t_inf = F.geodesic_breakpoints(field, res)
        for i, eid in enumerate(res.edge_ids):
            assert (t0[i], t_inf[i]) == two_solve_breakpoint(field, res, int(eid))


def test_geodesic_breakpoints_empty_path(solve_backend):
    box = F.LatticeBox((0, 0), (2, 2))
    field = F.WeightField.generate(box, F.Exponential(1.0), 1, 0)
    t0, t_inf = F.geodesic_breakpoints(field, F.passage_time(field, (1, 1), (1, 1)))
    assert t0.size == t_inf.size == 0


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("spec", SPECS)
def test_edge_breakpoint_equals_oracle_bit_for_bit(spec, dim, solve_backend):
    on = off = 0
    for field, res in _fields(spec, dim, 12, seed=7):
        off_ids = np.flatnonzero(~res.edge_bitset)[:: max(field.box.n_edges // 12, 1)]
        for eid in list(res.edge_ids) + list(off_ids):
            assert F.edge_breakpoint(field, res, int(eid)) == two_solve_breakpoint(
                field, res, int(eid)
            )
            on += bool(res.edge_bitset[eid])
            off += not res.edge_bitset[eid]
    assert on > 40 and off > 40


def test_v_e_plus_matches_per_edge_resolve_bit_for_bit(solve_backend):
    # every field of acceptance criterion 8
    box = F.LatticeBox((0, 0), (10, 10))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    for rep in range(1000):
        field = F.WeightField.generate(box, dist, 1789, rep)
        val, res = F.v_e_plus_bernoulli(field, (0, 0), (10, 10))
        assert val == per_edge_v_e_plus(field, dist, res)


@pytest.mark.parametrize(
    "spec",
    ("bernoulli:a=1,b=2,p=0.5", "bernoulli:a=0,b=1,p=0.6", "bernoulli:a=0.1,b=0.3,p=0.5",
     "dirac:c=1"),
)
def test_breakpoints_with_ties_on_a_bucketed_box(spec, solve_backend):
    """The box of a simulate cell at n=50, 5,151 vertices, whose solves the
    kernel runs through its bucket layer; these laws tie at every step, so
    the trees behind the replacement-path labels are the bucketed queue's.
    geodesic_breakpoints matches the one-solve edge_breakpoint on every
    geodesic edge, and v_e_plus_bernoulli, where the law allows it, the
    per-edge re-solve."""
    box = F.LatticeBox((-25, -25), (75, 25))
    law = F.parse_spec(spec)
    energy = law.kind == "bernoulli" and law.a > 0
    for rep in range(2):
        field = F.WeightField.generate(box, law, 50, rep)
        res = F.passage_time(field, (0, 0), (50, 0))
        t0, t_inf = F.geodesic_breakpoints(field, res)
        for i, eid in enumerate(res.edge_ids.tolist()):
            o0, o_inf = F.edge_breakpoint(field, res, eid)
            assert t0[i] == pytest.approx(o0, rel=1e-12, abs=0.0)
            assert t_inf[i] == pytest.approx(o_inf, rel=1e-12, abs=0.0)
        if energy:
            val, energy_res = F.v_e_plus_bernoulli(field, (0, 0), (50, 0))
            assert energy_res.edge_ids.tobytes() == res.edge_ids.tobytes()
            assert val == pytest.approx(per_edge_v_e_plus(field, law, res), rel=1e-12, abs=0.0)


def _same_sums(wpath, positions, value):
    got = F.fpp_core._path_sums(wpath, positions, value)
    want = matrix_path_sums(wpath, positions, value)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_path_sums_equal_the_matrix_oracle_bit_for_bit():
    rng = np.random.default_rng(2718)
    for trial in range(300):
        size = int(rng.integers(0, 120))
        kind = trial % 3  # continuous, tied small integers, with free edges
        wpath = (rng.exponential(1.0, size) if kind == 0
                 else rng.integers(0, 3 if kind == 2 else 4, size).astype(float) * 0.1)
        everywhere = np.arange(size)
        subset = np.flatnonzero(rng.random(size) < 0.3)
        for positions in (everywhere, subset, everywhere[:1], everywhere[-1:]):
            for value in (0.0, 2.0, float(rng.exponential(1.0))):
                assert _same_sums(wpath, positions, value), (trial, positions, value)
    # every field of acceptance criterion 8, at both values the energy uses
    box = F.LatticeBox((0, 0), (10, 10))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    for rep in range(1000):
        field = F.WeightField.generate(box, dist, 1789, rep)
        wpath = field.weights[F.passage_time(field, (0, 0), (10, 10)).edge_ids]
        assert _same_sums(wpath, np.arange(wpath.size), 0.0), rep
        assert _same_sums(wpath, np.flatnonzero(wpath == dist.a), dist.b), rep


def test_v_e_plus_lossless_spec_matches_brute_force_resampling(solve_backend):
    # 0.1234567 does not survive a 6-digit spec round trip; the field's
    # law must still recognise its own low edges
    box = F.LatticeBox((0, 0), (4, 4))
    dist = F.parse_spec("bernoulli:a=0.1234567,b=2,p=0.5")
    positive = 0
    for rep in range(12):
        field = F.WeightField.generate(box, dist, 4321, rep)
        val, res = F.v_e_plus_bernoulli(field, (0, 0), (4, 4))
        brute = 0.0
        for eid in range(box.n_edges):
            for y, prob in ((dist.a, 1 - dist.p), (dist.b, dist.p)):
                w2 = field.weights.copy()
                w2[eid] = y
                t_y = F.passage_time(
                    F.WeightField(box, w2, field.dist_spec, 0, 0), (0, 0), (4, 4)
                ).time
                brute += prob * max(t_y - res.time, 0.0) ** 2
        assert val == pytest.approx(brute, rel=1e-12, abs=1e-15)
        positive += val > 0
    assert positive >= 6


# ---------------------------------------------------------------------------
# solve counts


def test_edge_breakpoint_costs_one_solve(solve_counter):
    box = F.LatticeBox((-2, -2), (8, 2))
    field = F.WeightField.generate(box, F.Exponential(1.0), 3, 1)
    res = F.passage_time(field, (0, 0), (6, 0))
    assert solve_counter == [(box.vertex_index((0, 0)), box.vertex_index((6, 0)))]
    off = int(np.flatnonzero(~res.edge_bitset)[0])
    for eid in (int(res.edge_ids[2]), off):
        solve_counter.clear()
        F.edge_breakpoint(field, res, eid)
        assert solve_counter == [(box.vertex_index((0, 0)), box.vertex_index((6, 0)))]


def _pass_counter(monkeypatch):
    """The calls of the kernel's breakpoint pass made in this process from
    here on; none without the kernel."""
    calls = []
    if fpp_core._KERNEL is not None:
        entry = fpp_core._KERNEL.fpp_breakpoint_pass
        monkeypatch.setattr(fpp_core._KERNEL, "fpp_breakpoint_pass",
                            lambda *args: calls.append(args[3:5]) or entry(*args))
    return calls


def _assert_two_full_solves(solve_counter, passes, src, tgt):
    """One kernel pass and no LatticeBox.solve call with the kernel; the
    full solve from each end, through LatticeBox.solve, without it."""
    if fpp_core._KERNEL is None:
        assert solve_counter == [(src, None), (tgt, None)] and passes == []
    else:
        assert solve_counter == [] and passes == [(src, tgt)]


def test_v_e_plus_costs_two_solves_per_field(solve_counter, solve_backend, monkeypatch):
    """A full solve from each end: the geodesic is read off the source's."""
    passes = _pass_counter(monkeypatch)
    box = F.LatticeBox((0, 0), (10, 10))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    src, tgt = box.vertex_index((0, 0)), box.vertex_index((10, 10))
    for rep in range(20):
        field = F.WeightField.generate(box, dist, 1789, rep)
        solve_counter.clear()
        passes.clear()
        F.v_e_plus_bernoulli(field, (0, 0), (10, 10))
        _assert_two_full_solves(solve_counter, passes, src, tgt)


def test_v_e_plus_geodesic_is_the_passage_time_geodesic(solve_backend):
    """Read off the full solve from the source, the geodesic is the one the
    stopped solve of passage_time gives: two-point fields tie often."""
    box = F.LatticeBox((0, 0), (10, 10))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    tied = 0
    for rep in range(300):
        field = F.WeightField.generate(box, dist, 1789, rep)
        _, got = F.v_e_plus_bernoulli(field, (0, 0), (10, 10))
        want = F.passage_time(field, (0, 0), (10, 10))
        assert (got.time, got.ties, got.unique) == (want.time, want.ties, want.unique)
        assert np.array_equal(got.path, want.path)
        assert np.array_equal(got.edge_ids, want.edge_ids)
        assert np.array_equal(got.edge_bitset, want.edge_bitset)
        tied += want.ties > 0
    assert tied > 100


def test_influence_diagnostics_solves_batch_plus_probe_edges(solve_counter):
    cfg = F.ExperimentConfig(
        dist_spec="exp:rate=1", dim=2, n_list=(12,), replicas=20,
        master_seed=5, m_policy="auto", workers=1,
    )
    exact_n = 8
    box = F.experiments.box_for(cfg, 12)
    probe_ids = box.edges_near((0, 0), 1)
    expected = 0
    for m in (0, cfg.m_for(12)):
        batch = F.collect_batch(cfg, 12, m=m,
                                observe=lambda field, res, r: res.edge_bitset[probe_ids])
        expected += cfg.replicas + int(np.sum(batch.observed[:exact_n]))
    solve_counter.clear()
    F.influence_diagnostics(cfg, 12, exact_replicas=exact_n)
    assert len(solve_counter) == expected
    assert all(tgt is not None for _, tgt in solve_counter)


# ---------------------------------------------------------------------------
# influence diagnostics against the serial exact-probe loop


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("spec", ("exp:rate=1", "bernoulli:a=1,b=2,p=0.5"))
def test_influence_diagnostics_matches_serial_oracle(spec, workers):
    n, exact_n = 16, 12
    cfg = F.ExperimentConfig(
        dist_spec=spec, dim=2, n_list=(n,), replicas=24,
        master_seed=17, m_policy="auto", workers=workers,
    )
    out = F.influence_diagnostics(cfg, n, exact_replicas=exact_n)
    probe_ids = [p.edge for p in out["m0"].probes]
    for key, m in (("m0", 0), ("randomized", cfg.m_for(n))):
        diag = out[key]
        assert diag.m == m
        w_sq, s_sq = serial_exact_probe_influence(cfg, n, m, exact_n, probe_ids)
        assert [p.w_sq_mean for p in diag.probes] == w_sq.tolist()
        assert [p.r_hat for p in diag.probes] == [math.sqrt(x) for x in w_sq]
        assert diag.r_hat == float(np.sqrt(w_sq.max()))
        assert diag.s_hat == math.sqrt(s_sq)
        assert np.any(w_sq > 0)


def test_geodesic_breakpoints_makes_two_full_solves(solve_counter, solve_backend, monkeypatch):
    passes = _pass_counter(monkeypatch)
    box = F.LatticeBox((-2, -2), (8, 2))
    field = F.WeightField.generate(box, F.Exponential(1.0), 3, 2)
    res = F.passage_time(field, (0, 0), (6, 0))
    solve_counter.clear()
    F.geodesic_breakpoints(field, res)
    _assert_two_full_solves(solve_counter, passes, box.vertex_index((0, 0)),
                            box.vertex_index((6, 0)))


def test_geodesic_breakpoints_refuses_a_foreign_result(solve_backend):
    """A result that is not the field's geodesic between its endpoints: one
    from another field of the law, and the field's own with its last edge
    dropped. The error names the first path position whose edge differs."""
    box = F.LatticeBox((0, 0), (10, 10))
    law = F.parse_spec("exp:rate=1")
    field = F.WeightField.generate(box, law, 8, 0)
    own = F.passage_time(field, (0, 0), (10, 10))
    assert F.geodesic_breakpoints(field, own)[0].size == own.length
    others = [F.passage_time(F.WeightField.generate(box, law, 8, rep), (0, 0), (10, 10))
              for rep in range(1, 4)]
    short = dataclasses.replace(own, edge_ids=own.edge_ids[:-1])
    for foreign in others + [short]:
        common = min(foreign.length, own.length)
        differ = np.flatnonzero(foreign.edge_ids[:common] != own.edge_ids[:common])
        at = int(differ[0]) if differ.size else common
        with pytest.raises(F.DomainError, match=f"edge ids differ at path position {at}$"):
            F.geodesic_breakpoints(field, foreign)
    assert short.length == own.length - 1


def test_derivative_check_costs_seven_solves(solve_counter):
    """1 bump, 1 breakpoint and 5 sweep points, each one solve."""
    box = F.LatticeBox((-2, -2), (8, 2))
    field = F.WeightField.generate(box, F.Exponential(1.0), 3, 2)
    res = F.passage_time(field, (0, 0), (6, 0))
    assert res.unique
    for eid in (int(res.edge_ids[2]), int(np.flatnonzero(~res.edge_bitset)[0])):
        solve_counter.clear()
        chk = F.geodesic_derivative_check(field, res, eid, 1e-6)
        assert not chk.inconclusive and chk.shape_ok
        assert solve_counter == [(box.vertex_index((0, 0)), box.vertex_index((6, 0)))] * 7
