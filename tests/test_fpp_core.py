import itertools
import pickle

import numpy as np
import pytest

import fpplab as F
from fpplab import DomainError, UnsupportedParameterError

from oracles import (
    antithetic_mc_influence,
    brute_force_passage_time,
    csr_lower_endpoints,
    random_box,
)


def _field(box, spec, seed, replica=0):
    return F.WeightField.generate(box, F.parse_spec(spec), seed, replica)


# ---------------------------------------------------------------------------
# box structure


def test_box_validation():
    with pytest.raises(DomainError):
        F.LatticeBox((0,), (3,))
    with pytest.raises(DomainError):
        F.LatticeBox((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(DomainError):
        F.LatticeBox((0, 0), (-1, 2))


def test_vertex_index_roundtrip():
    box = F.LatticeBox((-2, -1), (3, 2))
    for coord in itertools.product(range(-2, 4), range(-1, 3)):
        assert box.vertex_coord(box.vertex_index(coord)) == coord
    with pytest.raises(DomainError):
        box.vertex_index((4, 0))
    with pytest.raises(DomainError):
        box.vertex_coord(box.n_vertices)


@pytest.mark.parametrize("bad", (2.0, 2.7, True, "1"))
def test_addresses_must_be_integers(bad):
    """Corners, coordinates, axes, vertex indices and edge ids that are not
    integers are refused, never truncated or parsed to a neighbouring one."""
    box = F.LatticeBox((0, 0), (4, 2))
    field = _field(box, "exp:rate=1", 3)
    calls = (
        lambda: F.LatticeBox((bad, 0), (4, 2)),
        lambda: F.LatticeBox((0, 0), (4, bad)),
        lambda: box.contains((bad, 0)),
        lambda: box.vertex_index((bad, 0)),
        lambda: box.vertex_index((0, bad)),
        lambda: box.vertex_coord(bad),
        lambda: box.edge_id((bad, 0), 0),
        lambda: box.edge_id((1, 0), bad),
        lambda: box.edge_endpoints(bad),
        lambda: box.edges_near((bad, 0), 1),
        lambda: box.solve(field.weights, bad),
        lambda: box.solve(field.weights, 0, bad),
        lambda: F.passage_time(field, (bad, 0), (3, 0)),
        lambda: F.passage_time(field, (0, 0), (3, bad)),
        lambda: F.randomized_passage_time(field, np.zeros((2, 1), dtype=np.uint8), (bad, 0)),
    )
    for i, call in enumerate(calls):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
            pytest.fail(f"call {i} accepted {bad!r}")


def test_address_range_errors_name_the_range():
    box = F.LatticeBox((0, 0), (4, 2))
    with pytest.raises(DomainError, match=r"edge index out of range: 22 not in 0\.\.21"):
        box.edge_endpoints(box.n_edges)
    with pytest.raises(DomainError, match=r"axis out of range: 2 not in 0\.\.1"):
        box.edge_id((0, 0), 2)
    with pytest.raises(DomainError, match="outside box"):
        box.vertex_index((0, 0, 0))
    assert not box.contains((0, 0, 0)) and not box.contains((5, 0)) and box.contains((4, 2))


def test_edge_index_bijection():
    for lo, hi in [((-1, -1), (2, 2)), ((0, 0, 0), (2, 1, 2))]:
        box = F.LatticeBox(lo, hi)
        seen = set()
        for eid in range(box.n_edges):
            u, v = box.edge_endpoints(eid)
            axis = int(np.nonzero(np.asarray(v) - np.asarray(u))[0][0])
            assert box.edge_id(u, axis) == eid
            seen.add((u, axis))
        assert len(seen) == box.n_edges
    with pytest.raises(DomainError):
        box.edge_id((2, 1, 2), 0)  # at the upper face, no outgoing edge


def test_closed_form_addressing_is_the_sliced_edge_list():
    """On random 2D and 3D boxes, sides of length 1 included, the edge
    count, `edge_id`, `edge_endpoints` and `edges_near` agree with the edge
    list the box's CSR graph is built from."""
    rng = np.random.default_rng(22)
    for case in range(60):
        box = random_box(rng)
        indptr, indices, eids = box._csr
        assert 2 * box.n_edges == indptr[-1] == indices.size, case
        ends = [box.edge_endpoints(e) for e in range(box.n_edges)]
        for eid, (u, v) in enumerate(ends):
            assert all(type(c) is int for c in u + v)
            axis = int(np.flatnonzero(np.subtract(v, u))[0])
            assert np.subtract(v, u).tolist() == [int(k == axis) for k in range(box.d)]
            assert box.edge_id(u, axis) == eid, case
        for x in range(box.n_vertices):  # every arc x -> y names its edge
            for y, e in zip(indices[indptr[x]:indptr[x + 1]], eids[indptr[x]:indptr[x + 1]]):
                arc = sorted([box.vertex_coord(x), box.vertex_coord(int(y))])
                assert tuple(arc) == ends[e], case
        lower = np.stack(np.unravel_index(csr_lower_endpoints(box), box.shape), axis=1)
        lower += np.asarray(box.lo)
        centers = [box.lo, box.hi, tuple(np.asarray(box.lo) - 2),
                   tuple(int(c) for c in rng.integers(-6, 13, size=box.d))]
        for center in centers:
            dist = np.abs(lower - np.asarray(center)).sum(axis=1)
            for radius in range(box.d * max(F.experiments.BALL_MS) + 1):
                near = box.edges_near(center, radius)
                assert near.dtype == np.int64
                assert np.array_equal(near, np.flatnonzero(dist <= radius)), (case, center)


def test_a_box_holds_only_its_shape():
    """The n=200 box of `simulate` keeps no per-edge or per-vertex array
    until its CSR graph is read, and pickles to a few hundred bytes."""
    box = F.LatticeBox((-100, -100), (300, 100))
    arrays = {k: v.size for k, v in vars(box).items() if isinstance(v, np.ndarray)}
    assert all(size <= box.d for size in arrays.values()), arrays
    assert len(pickle.dumps(box)) < 1024
    assert "_csr" not in vars(box)


def test_edge_counts():
    box = F.LatticeBox((0, 0), (2, 2))  # 3x3 vertices
    assert box.n_vertices == 9
    assert box.n_edges == 12
    box3 = F.LatticeBox((0, 0, 0), (1, 1, 1))
    assert box3.n_vertices == 8
    assert box3.n_edges == 12


# ---------------------------------------------------------------------------
# passage times


def test_unit_weights_give_l1_distance():
    box = F.LatticeBox((-1, -1), (5, 3))
    field = F.WeightField(box, np.ones(box.n_edges), "dirac:c=1", 0, 0)
    for u, v in [((0, 0), (4, 2)), ((0, 0), (0, 0)), ((-1, -1), (5, 3)), ((2, 3), (0, 0))]:
        res = F.passage_time(field, u, v)
        want = abs(u[0] - v[0]) + abs(u[1] - v[1])
        assert res.time == want
        assert res.length == want
        assert tuple(res.path[0]) == u and tuple(res.path[-1]) == v


def test_time_is_path_weight_sum():
    box = F.LatticeBox((-2, -2), (8, 2))
    field = _field(box, "exp:rate=1", 3)
    res = F.passage_time(field, (0, 0), (6, 0))
    assert res.time == pytest.approx(
        float(field.weights[res.edge_ids].sum()), rel=1e-9
    )
    assert res.edge_bitset.sum() == res.length


def test_weight_scaling_homogeneity():
    box = F.LatticeBox((-2, -2), (6, 2))
    field = _field(box, "exp:rate=1", 9)
    res = F.passage_time(field, (0, 0), (4, 0))
    scaled = F.WeightField(box, field.weights * 3.0, field.dist_spec, 0, 0)
    res3 = F.passage_time(scaled, (0, 0), (4, 0))
    assert res3.time == pytest.approx(3.0 * res.time, rel=1e-12)


def test_endpoints_must_lie_in_box():
    box = F.LatticeBox((0, 0), (3, 3))
    field = _field(box, "exp:rate=1", 1)
    with pytest.raises(DomainError):
        F.passage_time(field, (0, 0), (4, 0))
    with pytest.raises(DomainError):
        F.passage_time(field, (-1, 0), (2, 0))


def test_metric_axioms(rng):
    box = F.LatticeBox((0, 0), (4, 4))
    field = _field(box, "exp:rate=1", 17)
    verts = [tuple(map(int, rng.integers(0, 5, 2))) for _ in range(6)]
    for u in verts:
        assert F.passage_time(field, u, u).time == 0.0
    for u, v in itertools.combinations(verts, 2):
        duv = F.passage_time(field, u, v).time
        dvu = F.passage_time(field, v, u).time
        assert duv == pytest.approx(dvu, rel=1e-12)
    for u, v, w in itertools.combinations(verts, 3):
        duv = F.passage_time(field, u, v).time
        duw = F.passage_time(field, u, w).time
        dwv = F.passage_time(field, w, v).time
        assert duv <= duw + dwv + 1e-12 * max(duv, 1.0)


@pytest.mark.parametrize(
    "hi",
    [(1, 1), (2, 1), (2, 2), (3, 3), (1, 1, 1)],
)
def test_oracle_equivalence_small_boxes(hi, rng):
    """Dijkstra result equals exhaustive self-avoiding path enumeration."""
    lo = tuple(0 for _ in hi)
    box = F.LatticeBox(lo, hi)
    src = lo
    dst = hi
    for rep in range(25):
        field = _field(box, "exp:rate=1", 1000 + rep)
        res = F.passage_time(field, src, dst)
        ref = brute_force_passage_time(box, field.weights, src, dst)
        assert res.time == pytest.approx(ref, rel=1e-12)


def test_oracle_equivalence_random_endpoints(rng):
    box = F.LatticeBox((0, 0), (2, 2))
    for rep in range(20):
        field = _field(box, "uniform:lo=0.5,hi=1.5", 2000 + rep)
        pts = rng.integers(0, 3, size=(2, 2))
        u, v = tuple(map(int, pts[0])), tuple(map(int, pts[1]))
        res = F.passage_time(field, u, v)
        ref = brute_force_passage_time(box, field.weights, u, v)
        assert res.time == pytest.approx(ref, rel=1e-12)


def test_monotonicity_under_weight_increase(rng):
    box = F.LatticeBox((-1, -1), (5, 3))
    field = _field(box, "exp:rate=1", 23)
    base = F.passage_time(field, (0, 0), (4, 1)).time
    for _ in range(1000):
        eid = int(rng.integers(box.n_edges))
        bump = float(rng.exponential(1.0))
        w2 = field.weights.copy()
        w2[eid] += bump
        res2 = F.passage_time(
            F.WeightField(box, w2, field.dist_spec, 0, 0), (0, 0), (4, 1)
        )
        assert res2.time >= base - 1e-12 * max(base, 1.0)


def test_continuous_weights_rarely_tie():
    # tie frequency below 1e-6 for continuous laws: none expected in 1e4 runs
    box = F.LatticeBox((-1, -1), (7, 3))
    dist = F.parse_spec("exp:rate=1")
    ties = 0
    for rep in range(10_000):
        field = F.WeightField.generate(box, dist, 31337, rep)
        res = F.passage_time(field, (0, 0), (6, 0))
        ties += 0 if res.unique else 1
    assert ties == 0


def test_bernoulli_weights_do_tie():
    box = F.LatticeBox((0, 0), (4, 2))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    tied = 0
    for rep in range(50):
        field = F.WeightField.generate(box, dist, 99, rep)
        res = F.passage_time(field, (0, 0), (4, 0))
        tied += 0 if res.unique else 1
    assert tied > 0


def test_determinism_bit_identical():
    box = F.LatticeBox((-2, -2), (6, 2))
    dist = F.parse_spec("gamma:a=2,b=1")
    f1 = F.WeightField.generate(box, dist, 5, 11)
    f2 = F.WeightField.generate(box, dist, 5, 11)
    assert np.array_equal(f1.weights, f2.weights)
    r1 = F.passage_time(f1, (0, 0), (4, 0))
    r2 = F.passage_time(f2, (0, 0), (4, 0))
    assert r1.time == r2.time
    assert np.array_equal(r1.edge_ids, r2.edge_ids)
    f3 = F.WeightField.generate(box, dist, 5, 12)
    assert not np.array_equal(f1.weights, f3.weights)


def test_export_roundtrip(tmp_path):
    box = F.LatticeBox((0, 0), (3, 2))
    field = _field(box, "exp:rate=1", 8)
    bin_path, meta_path = field.export(tmp_path / "field")
    loaded = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
    assert np.array_equal(loaded, field.weights)
    import json

    meta = json.loads(meta_path.read_text())
    assert meta["dist_spec"] == "exp:rate=1"
    assert meta["edges"] == box.n_edges


def test_export_keeps_dotted_prefixes_apart(tmp_path):
    box = F.LatticeBox((0, 0), (3, 2))
    fields = {name: _field(box, "exp:rate=1", 8, r) for r, name in enumerate(("n100", "n200"))}
    for name, field in fields.items():
        paths = field.export(tmp_path / f"field.{name}")
        assert [p.name for p in paths] == [f"field.{name}.f64", f"field.{name}.json"]
    for name, field in fields.items():
        loaded = np.frombuffer((tmp_path / f"field.{name}.f64").read_bytes(), dtype="<f8")
        assert np.array_equal(loaded, field.weights)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "field.n100.f64", "field.n100.json", "field.n200.f64", "field.n200.json"]


# ---------------------------------------------------------------------------
# randomized passage time


def test_randomized_passage_zero_offset():
    box = F.LatticeBox((-2, -2), (8, 4))
    field = _field(box, "exp:rate=1", 77)
    plain = F.passage_time(field, (0, 0), (5, 0))
    bits = np.zeros((2, 4), dtype=np.uint8)
    assert F.randomized_passage_time(field, bits, (5, 0)) == plain.time


def test_randomized_passage_unit_field_translation_invariance(rng):
    box = F.LatticeBox((-1, -1), (9, 5))
    field = F.WeightField(box, np.ones(box.n_edges), "dirac:c=1", 0, 0)
    for _ in range(10):
        bits = rng.integers(0, 2, size=(2, 4), dtype=np.uint8)
        assert F.randomized_passage_time(field, bits, (5, 0)) == 5.0


def test_randomized_passage_box_guard():
    box = F.LatticeBox((0, 0), (5, 1))
    field = _field(box, "exp:rate=1", 1)
    bits = np.ones((2, 9), dtype=np.uint8)  # m=3 offsets can reach 3
    with pytest.raises(DomainError):
        F.randomized_passage_time(field, bits, (5, 0))
    with pytest.raises(DomainError):
        F.randomized_passage_time(field, np.zeros((2, 3), dtype=np.uint8), (2, 0))


# ---------------------------------------------------------------------------
# influence


def test_edge_influence_off_geodesic_is_zero():
    box = F.LatticeBox((-2, -2), (6, 2))
    field = _field(box, "exp:rate=1", 13)
    res = F.passage_time(field, (0, 0), (4, 0))
    corner = box.edge_id((-2, -2), 0)
    assert not res.edge_bitset[corner]
    assert F.edge_influence(field, res, corner, field.distribution()) == 0.0
    with pytest.raises(DomainError):
        F.edge_influence(field, res, box.n_edges, field.distribution())


def test_edge_influence_mc_matches_exact(rng):
    # the closed form against the antithetic Monte Carlo it replaced
    box = F.LatticeBox((-2, -2), (6, 2))
    for spec in ("exp:rate=1", "gamma:a=2,b=1"):
        dist = F.parse_spec(spec)
        field = F.WeightField.generate(box, dist, 13, 4)
        res = F.passage_time(field, (0, 0), (4, 0))
        for eid in res.edge_ids[:3]:
            exact = F.edge_influence(field, res, int(eid), dist)
            mc = antithetic_mc_influence(field, res, int(eid), dist, 200_000, rng)
            assert mc == pytest.approx(exact, rel=0.03, abs=1e-4), spec


def test_edge_influence_bernoulli_two_point():
    box = F.LatticeBox((0, 0), (2, 1))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    field = F.WeightField.generate(box, dist, 3, 5)
    res = F.passage_time(field, (0, 0), (2, 0))
    for eid in res.edge_ids:
        eid = int(eid)
        w = F.edge_influence(field, res, eid, dist)
        # exact two-point integral recomputed by hand
        t0, t_inf = F.edge_breakpoint(field, res, eid)
        by_hand = 0.5 * max(min(t0 + 1.0, t_inf) - res.time, 0.0) + 0.5 * max(
            min(t0 + 2.0, t_inf) - res.time, 0.0
        )
        assert w == pytest.approx(by_hand, rel=1e-12)
    # resampling a geodesic edge can add at most E(Y) on average
    ey = dist.mean()
    for eid in res.edge_ids:
        assert F.edge_influence(field, res, int(eid), dist) <= ey + 1e-12


def test_edge_influence_dirac_resampling_changes_nothing():
    box = F.LatticeBox((0, 0), (3, 1))
    field = F.WeightField(box, np.full(box.n_edges, 2.0), "dirac:c=2", 0, 0)
    res = F.passage_time(field, (0, 0), (3, 0))
    for eid in range(box.n_edges):
        assert F.edge_influence(field, res, eid, field.distribution()) == 0.0


# ---------------------------------------------------------------------------
# Bernoulli energy sum


def test_v_e_plus_all_high_is_zero():
    box = F.LatticeBox((0, 0), (3, 1))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    field = F.WeightField(box, np.full(box.n_edges, 2.0), dist.spec_string(), 0, 0)
    val, _ = F.v_e_plus_bernoulli(field, (0, 0), (3, 0))
    assert val == 0.0


def test_v_e_plus_single_low_edge_bridge():
    # 1-D line of two edges: each is a bridge; flipping a low edge to b
    # always adds exactly b - a, so each low edge contributes p (b-a)^2
    box = F.LatticeBox((0, 0), (2, 0))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    field = F.WeightField(box, np.array([1.0, 2.0]), dist.spec_string(), 0, 0)
    val, res = F.v_e_plus_bernoulli(field, (0, 0), (2, 0))
    assert val == pytest.approx(0.5 * (2.0 - 1.0) ** 2)
    assert val <= (2 - 1) ** 2 / 1 * res.time


def test_v_e_plus_bound_on_random_fields():
    box = F.LatticeBox((-2, -2), (6, 2))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    for rep in range(30):
        field = F.WeightField.generate(box, dist, 555, rep)
        val, res = F.v_e_plus_bernoulli(field, (0, 0), (4, 0))
        assert val <= (dist.b - dist.a) ** 2 / dist.a * res.time + 1e-12


def test_field_keeps_its_parsed_law(monkeypatch):
    box = F.LatticeBox((0, 0), (4, 4))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    field = F.WeightField.generate(box, dist, 3, 0)
    parses = []
    real = F.fpp_core.parse_spec

    def counting(spec):
        parses.append(spec)
        return real(spec)

    monkeypatch.setattr(F.fpp_core, "parse_spec", counting)
    F.v_e_plus_bernoulli(field, (0, 0), (4, 4))
    assert field.distribution() is dist and parses == []
    # a field built by hand parses its spec once, on first use
    plain = F.WeightField(box, np.full(box.n_edges, 2.0), "dirac:c=2", 0, 0)
    assert plain.distribution() is plain.distribution()
    assert plain.distribution().c == 2.0 and parses == ["dirac:c=2"]


def test_v_e_plus_parameter_guards():
    box = F.LatticeBox((0, 0), (2, 1))
    f_zero = F.WeightField(box, np.ones(box.n_edges), "bernoulli:a=0,b=1,p=0.5", 0, 0)
    with pytest.raises(UnsupportedParameterError):
        F.v_e_plus_bernoulli(f_zero, (0, 0), (2, 0))
    f_exp = _field(box, "exp:rate=1", 1)
    with pytest.raises(F.UnsupportedKindError):
        F.v_e_plus_bernoulli(f_exp, (0, 0), (2, 0))


# ---------------------------------------------------------------------------
# derivative check


def test_derivative_check_on_unique_geodesic():
    box = F.LatticeBox((-2, -2), (6, 2))
    field = _field(box, "exp:rate=1", 29)
    res = F.passage_time(field, (0, 0), (4, 0))
    assert res.unique
    on = int(res.edge_ids[1])
    chk = F.geodesic_derivative_check(field, res, on, 1e-9)
    assert not chk.inconclusive
    assert chk.in_geodesic
    assert chk.delta_observed == pytest.approx(1e-9, abs=1e-12)
    assert chk.shape_ok
    assert chk.breakpoint > 0
    off = box.edge_id((-2, -2), 0)
    chk_off = F.geodesic_derivative_check(field, res, off, 1e-9)
    assert chk_off.delta_observed == pytest.approx(0.0, abs=1e-15)
    assert chk_off.delta_expected == 0.0


def test_derivative_check_sweep_is_slope_one_then_flat():
    box = F.LatticeBox((-2, -2), (6, 2))
    field = _field(box, "exp:rate=1", 41)
    res = F.passage_time(field, (0, 0), (4, 0))
    eid = int(res.edge_ids[0])
    chk = F.geodesic_derivative_check(field, res, eid, 1e-8)
    t0 = chk.sweep_time[0]
    y_inf = chk.breakpoint
    for y, t in zip(chk.sweep_y, chk.sweep_time):
        assert t == pytest.approx(min(t0 + y, t0 + y_inf), rel=1e-9)


def test_derivative_check_inconclusive_on_ties():
    box = F.LatticeBox((0, 0), (3, 2))
    field = F.WeightField(box, np.ones(box.n_edges), "dirac:c=1", 0, 0)
    res = F.passage_time(field, (0, 0), (3, 1))
    assert not res.unique
    chk = F.geodesic_derivative_check(field, res, 0, 1e-9)
    assert chk.inconclusive


def test_v_e_plus_matches_exhaustive_two_point_resample():
    # brute force: resample every edge to both values with full solves; the
    # production path may skip edges it can prove contribute nothing
    box = F.LatticeBox((0, 0), (2, 2))
    dist = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    for rep in range(25):
        field = F.WeightField.generate(box, dist, 777, rep)
        val, res = F.v_e_plus_bernoulli(field, (0, 0), (2, 2))
        brute = 0.0
        src, tgt = (0, 0), (2, 2)
        for eid in range(box.n_edges):
            for y, prob in ((dist.a, 1 - dist.p), (dist.b, dist.p)):
                w2 = field.weights.copy()
                w2[eid] = y
                t_y = F.passage_time(
                    F.WeightField(box, w2, field.dist_spec, 0, 0), src, tgt
                ).time
                brute += prob * max(t_y - res.time, 0.0) ** 2
        assert val == pytest.approx(brute, rel=1e-12, abs=1e-15)
