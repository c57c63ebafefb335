"""The compiled Dijkstra behind LatticeBox.solve against scipy's csgraph, and
the canonical geodesic, which must not depend on the solver."""

import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fpplab as F
from fpplab import fpp_core, reporting
from oracles import (
    batch_bytes,
    brute_force_passage_time,
    csr_dijkstra,
    fewest_tight_edges,
    full_solve_passage_time,
    loop_tie_count,
    path_weight,
    probe_observer,
)

LAWS = (
    "exp:rate=1",
    "gamma:a=2,b=1",
    "bernoulli:a=1,b=2,p=0.5",
    "dirac:c=0",
    "uniform:lo=0,hi=1",
)
BOXES = (((-12, -6), (24, 6)), ((-4, -3, -3), (9, 3, 3)))
TWO_POINT = "bernoulli:a=1,b=2,p=0.5"
# A box of this many vertices or more runs the kernel's bucket layer unless
# the weights it samples for the bucket width sum to 0 or most of them are
# light; smaller boxes run the heap alone, which breaks ties as
# oracles.csr_dijkstra does.
BUCKETED = 4096

needs_kernel = pytest.mark.skipif(
    fpp_core._KERNEL is None, reason="no C compiler: LatticeBox.solve runs on scipy"
)


def _scipy_passage_time(monkeypatch, field, u, v):
    with monkeypatch.context() as mp:
        mp.setattr(fpp_core, "_KERNEL", None)
        return F.passage_time(field, u, v)


def test_compiled_backend_loads_when_a_compiler_is_present():
    if shutil.which("cc") or shutil.which("gcc"):
        assert fpp_core._KERNEL is not None


def test_kernel_builds_into_the_user_cache_or_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if shutil.which("cc") or shutil.which("gcc"):
        assert fpp_core._load_kernel() is not None
        built = list((tmp_path / "fpplab").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        assert fpp_core._load_kernel() is not None  # loads the cached build
        assert list((tmp_path / "fpplab").iterdir()) == built
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "none"))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert fpp_core._load_kernel() is None
    assert not (tmp_path / "none").exists()


def test_the_kernel_loads_from_its_cache_path():
    """_kernel_path() names the library _load_kernel loads, so CI's
    sanitizer step can put its build there by calling it."""
    if fpp_core._KERNEL is None:
        pytest.skip("no C compiler: no kernel was loaded")
    assert fpp_core._KERNEL._name == str(fpp_core._kernel_path())


def test_solve_checks_its_input_on_either_backend(solve_backend):
    box = F.LatticeBox((0, 0), (3, 3))  # 16 vertices, 24 edges
    w = np.ones(box.n_edges)
    with pytest.raises(F.DomainError, match="expected 24 edge weights"):
        box.solve(np.ones(29), 0)
    with pytest.raises(F.DomainError, match="expected 24 edge weights"):
        box.solve(w.reshape(4, 6), 0)
    for source in (999, 16, -1):
        with pytest.raises(F.DomainError, match="out of range"):
            box.solve(w, source)
    for source in (2.7, True, "0", None):  # 2.7 would be truncated to vertex 2
        with pytest.raises(F.DomainError, match="source vertex index must be an integer"):
            box.solve(w, source)
    dist, pred = box.solve(w, 0)
    assert dist[box.vertex_index((3, 3))] == 6.0 and pred[0] == -9999


def test_solve_refuses_negative_and_nan_weights_on_either_backend(solve_backend):
    box = F.LatticeBox((0, 0), (3, 3))  # 16 vertices, 24 edges
    for bad in (-0.5, -np.inf, np.nan):
        w = np.ones(box.n_edges)
        w[7] = bad
        with pytest.raises(F.DomainError, match="nonnegative and not NaN"):
            box.solve(w, 0)
        with pytest.raises(F.DomainError, match="nonnegative and not NaN"):
            box.solve(w, 0, 15)
    zero = np.ones(box.n_edges)
    zero[7] = 0.0
    w = zero.copy()
    w[7] = -0.0  # compares equal to zero, so it is a zero weight
    assert box.solve(w, 0)[0].tobytes() == box.solve(zero, 0)[0].tobytes()


def test_weight_field_refuses_negative_and_nan_samples(monkeypatch):
    box = F.LatticeBox((0, 0), (3, 3))
    law = F.parse_spec("exp:rate=1")
    for bad in (-0.5, np.nan):
        monkeypatch.setattr(type(law), "sample", lambda self, rng, size, bad=bad: np.full(size, bad))
        with pytest.raises(F.DomainError, match="nonnegative and not NaN"):
            F.WeightField.generate(box, law, 4, 0)


@pytest.mark.parametrize("lohi", (((-3, -3), (9, 5)), ((-2, 0, -1), (3, 2, 2))))
def test_an_unpickled_box_gives_the_original_bytes(lohi, solve_backend):
    box = F.LatticeBox(*lohi)
    field = F.WeightField.generate(box, F.parse_spec("exp:rate=1"), 4, 0)
    copy = pickle.loads(pickle.dumps(box))
    copy_field = F.WeightField(copy, field.weights, field.dist_spec, 4, 0)
    w = field.weights
    for src in (0, box.n_vertices - 1):
        for tgt in (None, box.n_vertices // 2):
            ours, theirs = copy.solve(w, src, tgt), box.solve(w, src, tgt)
            assert ours[0].tobytes() == theirs[0].tobytes()
            assert ours[1].tobytes() == theirs[1].tobytes()
    u, v = box.lo, box.hi
    ours, theirs = F.passage_time(copy_field, u, v), F.passage_time(field, u, v)
    assert ours.time == theirs.time and ours.ties == theirs.ties
    assert ours.path.tobytes() == theirs.path.tobytes()
    assert ours.edge_ids.tobytes() == theirs.edge_ids.tobytes()
    for a, b in zip(F.geodesic_breakpoints(copy_field, ours), F.geodesic_breakpoints(field, theirs)):
        assert a.tobytes() == b.tobytes()


def _child_env():
    """The environment of a child Python that imports this fpplab."""
    src = str(Path(F.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


_FAULT_PROBE = """
import json, resource
import fpplab as F
box = F.LatticeBox((-100, -100), (300, 100))  # the n=200 box of simulate
law = F.parse_spec("exp:rate=1")
counts = []
for r in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    F.passage_time(F.WeightField.generate(box, law, 1, r), (0, 0), (200, 0))
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(counts))
"""


@needs_kernel
@pytest.mark.skipif(
    not hasattr(os, "confstr") or "CS_GNU_LIBC_VERSION" not in os.confstr_names,
    reason="the kernel sets glibc's malloc thresholds only",
)
def test_replicas_reuse_the_memory_earlier_replicas_freed():
    # each replica allocates and frees several MB; returned to the system,
    # they fault in again on the next replica: about 600 faults each here
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=_child_env(),
        check=True,
    )
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert max(counts[2:]) < 50, counts


def test_solve_checks_its_target_on_either_backend(solve_backend):
    box = F.LatticeBox((0, 0), (3, 3))  # 16 vertices
    w = np.ones(box.n_edges)
    for target in (999, 16, -1):
        with pytest.raises(F.DomainError, match="target vertex index out of range"):
            box.solve(w, 0, target)
    for target in (2.7, True, np.float64(15.0)):
        with pytest.raises(F.DomainError, match="target vertex index must be an integer"):
            box.solve(w, 0, target)
    assert box.solve(w, np.int64(0), np.int32(15))[0][15] == 6.0
    dist, pred = box.solve(w, 0, 15)
    assert dist[15] == 6.0 and pred[0] == -9999


@pytest.mark.parametrize("lohi", BOXES)
@pytest.mark.parametrize("spec", LAWS)
def test_stopped_solve_is_the_full_solve_inside_the_tie_horizon(spec, lohi, solve_backend):
    """dist and pred are the full solve's bytes where dist <= T + tol, and
    read as unreachable beyond."""
    box = F.LatticeBox(*lohi)
    law = F.parse_spec(spec)
    src = box.vertex_index((0,) * box.d)
    near = box.vertex_index((3,) + (1,) * (box.d - 1))
    targets = (box.vertex_index(box.hi), near, box.vertex_index(box.lo), src)
    for rep in range(3):
        w = F.WeightField.generate(box, law, 43, rep).weights
        full_dist, full_pred = box.solve(w, src)
        for tgt in targets:
            dist, pred = box.solve(w, src, tgt)
            t = full_dist[tgt]
            inside = full_dist <= t + fpp_core.TIE_REL_TOL * max(t, 1.0)
            assert dist.dtype == np.float64 and pred.dtype == np.int32
            assert dist[inside].tobytes() == full_dist[inside].tobytes()
            assert pred[inside].tobytes() == full_pred[inside].tobytes()
            assert np.all(dist[~inside] == np.inf) and np.all(pred[~inside] == -9999)
            if tgt != box.vertex_index(box.hi) and spec != "dirac:c=0":
                assert not inside.all()  # the solve really stopped


def test_a_vertex_exactly_at_the_tie_horizon_is_settled(solve_backend):
    """The horizon T + tol is inclusive: (0, 1) sits exactly on it."""
    box = F.LatticeBox((0, 0), (2, 1))
    limit = 1.0 + fpp_core.TIE_REL_TOL * max(1.0, 1.0)
    w = np.full(box.n_edges, 5.0)
    w[box.edge_id((0, 0), 0)] = 1.0  # the target (1, 0) at T = 1
    w[box.edge_id((0, 0), 1)] = limit
    src, tgt, rim = (box.vertex_index(c) for c in ((0, 0), (1, 0), (0, 1)))
    dist, pred = box.solve(w, src, tgt)
    assert dist[tgt] == 1.0 and dist[rim] == limit and pred[rim] == src
    assert np.count_nonzero(np.isfinite(dist)) == 3


@pytest.mark.parametrize(
    "spec",
    ("dirac:c=0", "bernoulli:a=0,b=1,p=0.4", TWO_POINT, "exp:rate=1", "uniform:lo=0,hi=1"),
)
def test_passage_time_is_the_full_solve_record(spec, solve_backend):
    law = F.parse_spec(spec)
    for lo, hi, u, v in (
        ((-8, -8), (24, 8), (0, 0), (16, 0)),
        ((-8, -8), (24, 8), (5, 2), (-3, -6)),
        ((-3, -3, -3), (9, 3, 3), (0, 0, 0), (6, 2, -1)),
    ):
        box = F.LatticeBox(lo, hi)
        for rep in range(4):
            field = F.WeightField.generate(box, law, 61, rep)
            ours = F.passage_time(field, u, v)
            ref = full_solve_passage_time(field, u, v)
            assert ours.time == ref.time
            assert np.array_equal(ours.path, ref.path)
            assert ours.edge_ids.tobytes() == ref.edge_ids.tobytes()
            assert ours.edge_bitset.tobytes() == ref.edge_bitset.tobytes()
            assert ours.ties == ref.ties and ours.unique == ref.unique


@needs_kernel
@pytest.mark.parametrize("lohi", BOXES)
@pytest.mark.parametrize("spec", LAWS)
def test_compiled_dist_is_scipy_dist_byte_for_byte(spec, lohi):
    box = F.LatticeBox(*lohi)
    law = F.parse_spec(spec)
    sources = (box.vertex_index(box.lo), box.vertex_index((0,) * box.d))
    for rep in range(4):
        w = F.WeightField.generate(box, law, 31, rep).weights
        for src in sources:
            dist, pred = box.solve(w, src)
            ref, _ = fpp_core._scipy_solve(box, w, src)
            assert dist.dtype == ref.dtype and dist.tobytes() == ref.tobytes()
            assert pred.dtype == np.int32
            _assert_shortest_path_tree(box, w, src, None, dist, pred)


def _assert_shortest_path_tree(box, w, src, target, dist, pred):
    """pred is a shortest-path tree of dist from src, whichever way the
    queue broke ties: each reached vertex but src has an arc neighbour as
    its pred, whose dist plus the arc's weight is its own dist exactly;
    following pred from any reached vertex reaches src; pred is -9999
    exactly at src and where dist is inf; and a solve stopped at target has
    the full solve's pred wherever it settled."""
    indptr, nbr, eid = box._csr
    x = np.repeat(np.arange(box.n_vertices), np.diff(indptr))  # arc x -> nbr
    reached = np.isfinite(dist)
    child = reached.copy()
    child[src] = False
    assert np.array_equal(pred == -9999, ~child)
    arc = child[x] & (nbr == pred[x])
    assert np.array_equal(np.bincount(x[arc], minlength=box.n_vertices) > 0, child)
    assert (dist[nbr[arc]] + w[eid[arc]]).tobytes() == dist[x[arc]].tobytes()
    up = np.where(child, pred, src).astype(np.int64)
    for _ in range(box.n_vertices.bit_length()):
        up = up[up]
    assert np.all(up == src)
    if target is not None:
        full_pred = box.solve(w, src)[1]
        assert pred[reached].tobytes() == full_pred[reached].tobytes()


def _scans_agree(box, w, dist, src, tgt):
    """The kernel's geodesic scan gives the Python scan's path, edge ids and
    ties; returns the path's vertices."""
    tol = fpp_core.TIE_REL_TOL * max(float(dist[tgt]), 1.0)
    ours = fpp_core._kernel_geodesic_scan(box, w, dist, src, tgt, tol)
    theirs = fpp_core._geodesic_scan(box, w, dist, src, tgt, tol)
    assert ours[0].tobytes() == theirs[0].tobytes()
    assert ours[1].tobytes() == theirs[1].tobytes()
    assert ours[2] == theirs[2]
    return ours[0]


@needs_kernel
@pytest.mark.parametrize("spec", ("dirac:c=1", "bernoulli:a=1,b=2,p=0.5"))
@pytest.mark.parametrize("hi", ((59, 59), (15, 15, 15)))
def test_large_box_corner_to_corner_matches_the_oracles(spec, hi):
    """Corner to corner on a 60 x 60 and a 16^3 box, on laws whose geodesic
    scan reaches every vertex (dirac:c=1) or 275 to 1,075 of them (the
    two-point law): more than the scan's first record buffer of 256 holds,
    so it grows, up to four times. The stopped and full solves give the CSR
    solve's dist bytes and a shortest-path tree, the CSR solve's pred bytes
    on the 3,600 vertices that the heap alone serves (the 4,096 of the 16^3
    box take the bucket layer, whose ties leave in another order), and the
    kernel's scan the Python scan's path, edge ids and ties."""
    box = F.LatticeBox((0,) * len(hi), hi)
    src, tgt = 0, box.n_vertices - 1
    for rep in range(2):
        w = F.WeightField.generate(box, F.parse_spec(spec), 23, rep).weights
        for target in (None, tgt):
            dist, pred = box.solve(w, src, target)
            ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
            assert dist.tobytes() == ref_dist.tobytes(), target
            _assert_shortest_path_tree(box, w, src, target, dist, pred)
            if box.n_vertices < BUCKETED:
                assert pred.tobytes() == ref_pred.tobytes(), target
        _scans_agree(box, w, dist, src, tgt)


@needs_kernel
@pytest.mark.parametrize("spec", ("dirac:c=0", "dirac:c=1", "uniform:lo=1,hi=1.000001"))
def test_a_frontier_past_the_heaps_first_block_matches_the_oracles(spec, monkeypatch):
    """The heap and the bucket pool start at 1,024 slots and double. From
    the centre of a 29^3 box the largest distance level of a dirac:c=1
    field holds 1,260 vertices, all of them queued at once, so the pool
    grows: they wait on one bucket's list, as for weights in [1, 1 + 1e-6],
    distinct but so close that each level falls in one bucket. A dirac:c=0
    field runs the heap alone, as its sampled mean is 0, and every vertex
    lies at distance 0: the heap holds up to 13,171 of them. The stopped
    and full solves give the CSR solve's dist bytes and a shortest-path
    tree, and the CSR solve's pred bytes except where ties leave the
    bucketed queue (dirac:c=1); the two geodesic scans and passage_time on
    either backend agree."""
    box = F.LatticeBox((-14,) * 3, (14,) * 3)
    src, tgt = box.vertex_index((0, 0, 0)), box.vertex_index((14, 14, 0))
    w = F.WeightField.generate(box, F.parse_spec(spec), 5, 0).weights
    for target in (None, tgt):
        dist, pred = box.solve(w, src, target)
        ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
        assert dist.tobytes() == ref_dist.tobytes(), target
        _assert_shortest_path_tree(box, w, src, target, dist, pred)
        if spec != "dirac:c=1":
            assert pred.tobytes() == ref_pred.tobytes(), target
        if target is None:
            assert np.bincount(dist.astype(np.int64)).max() > 1024
    _scans_agree(box, w, dist, src, tgt)
    field = F.WeightField(box, w, spec, 5, 0)
    ours = F.passage_time(field, (0, 0, 0), (14, 14, 0))
    theirs = _scipy_passage_time(monkeypatch, field, (0, 0, 0), (14, 14, 0))
    assert ours.time == theirs.time and ours.ties == theirs.ties
    assert ours.edge_ids.tobytes() == theirs.edge_ids.tobytes()


def _serpentine(width, rows):
    """A box of `rows` corridors of width edges, joined end to end at
    alternate ends, with weight 1 along the corridor and 1000 elsewhere:
    (box, weights, the corridor's far end). The corridor is the one
    geodesic from (0, 0), as any other path pays 1000 for one edge."""
    box = F.LatticeBox((0, 0), (width, 2 * rows - 2))
    w = np.full(box.n_edges, 1000.0)
    for row in range(rows):
        y = 2 * row
        for x in range(width):
            w[box.edge_id((x, y), 0)] = 1.0
        if row + 1 < rows:
            x = width if row % 2 == 0 else 0
            w[box.edge_id((x, y), 1)] = w[box.edge_id((x, y + 1), 1)] = 1.0
    end = (width if rows % 2 else 0, 2 * rows - 2)
    return box, w, end


@needs_kernel
def test_a_geodesic_longer_than_the_scans_first_buffer(monkeypatch):
    """A serpentine geodesic of 250 edges between vertices 10 apart: the
    scan's first buffer holds 84 vertices, so the kernel reports that the
    path does not fit, writing nothing past the buffer, and the retry with
    room for every vertex finds it. The solve gives the CSR solve's bytes,
    and the two scans and passage_time on either backend agree."""
    box, w, end = _serpentine(40, 6)
    src, tgt = box.vertex_index((0, 0)), box.vertex_index(end)
    room = fpp_core._path_room(box, src, tgt)
    assert room == 84
    for target in (None, tgt):
        dist, pred = box.solve(w, src, target)
        ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
        assert dist.tobytes() == ref_dist.tobytes(), target
        assert pred.tobytes() == ref_pred.tobytes(), target
    verts = _scans_agree(box, w, dist, src, tgt)
    assert verts.size == 251 and dist[tgt] == 250.0

    guard = np.int64(-7)
    buffers = [np.full(room + 16, guard) for _ in range(2)]
    ties = np.empty(1, dtype=np.int64)
    status = fpp_core._KERNEL.fpp_geodesic_scan(
        box.d, box._c_shape, w.ctypes.data, dist.ctypes.data, src, tgt,
        fpp_core.TIE_REL_TOL * 250.0, room, buffers[0].ctypes.data, buffers[1].ctypes.data,
        ties.ctypes.data,
    )
    assert status == -3
    assert all(np.all(b[room:] == guard) for b in buffers)

    field = F.WeightField(box, w, "dirac:c=1", 0, 0)
    ours = F.passage_time(field, (0, 0), end)
    theirs = _scipy_passage_time(monkeypatch, field, (0, 0), end)
    assert ours.edge_ids.tobytes() == theirs.edge_ids.tobytes() and ours.unique


@pytest.mark.parametrize(
    "lohi", BOXES + (((0, 0), (79, 79)), ((0, 0, 0), (15, 15, 15))),
    ids=("2d", "3d", "2d-bucketed", "3d-bucketed"),
)
@pytest.mark.parametrize("spec", LAWS)
def test_a_solve_without_predecessors_keeps_the_dist_bytes(spec, lohi, solve_backend):
    """pred=False returns None for pred and the dist bytes of the default
    solve, stopped and full; the two larger boxes run a continuous law's
    solve through the bucket layer."""
    box = F.LatticeBox(*lohi)
    src = box.vertex_index((0,) * box.d)
    w = F.WeightField.generate(box, F.parse_spec(spec), 17, 0).weights
    for target in (None, box.vertex_index((5,) + (2,) * (box.d - 1)), box.n_vertices - 1):
        dist, pred = box.solve(w, src, target, pred=False)
        assert pred is None
        assert dist.tobytes() == box.solve(w, src, target)[0].tobytes(), target


@needs_kernel
def test_a_replica_allocates_one_field_one_distance_array_and_the_bitset():
    """The numpy arrays of WeightField.generate and passage_time on the
    n=200 box of simulate peak below one field (8 bytes an edge), one
    distance array (8 bytes a vertex) and the geodesic's edge bitset (1 byte
    an edge), plus 64 KiB for the path's own arrays and Python objects:
    the sample is transformed in the generator's buffer, the stopped solve
    keeps no predecessors, and the path buffers are sized to the path."""
    box = F.LatticeBox((-100, -100), (300, 100))
    law = F.parse_spec("exp:rate=1")
    budget = 9 * box.n_edges + 8 * box.n_vertices + 64 * 1024
    F.passage_time(F.WeightField.generate(box, law, 1, 0), (0, 0), (200, 0))
    for r in range(1, 4):
        tracemalloc.start()
        try:
            F.passage_time(F.WeightField.generate(box, law, 1, r), (0, 0), (200, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (r, peak, budget)


_CHILD_SOLVES = """
import sys
import tracemalloc
import numpy as np
import fpplab as F
args = np.load(sys.argv[1])
box = F.LatticeBox(tuple(args["lo"].tolist()), tuple(args["hi"].tolist()))
out = {}
src = int(args["src"])
for i, tgt in enumerate(args["targets"].tolist()):
    out[f"dist{i}"], out[f"pred{i}"] = box.solve(args["w"], src, None if tgt < 0 else tgt)
np.savez(sys.argv[2], **out)
"""


def _solve_in_child(box, w, src, targets, tmp_path):
    """(dist, pred) of LatticeBox.solve from src to each target (None for
    the full solve), run in a child process that gets 60 s, so that a solve
    that never ends fails the test instead of stalling the suite."""
    args, result = tmp_path / "args.npz", tmp_path / "result.npz"
    np.savez(args, lo=box.lo, hi=box.hi, w=w, src=src,
             targets=[-1 if t is None else t for t in targets])
    subprocess.run([sys.executable, "-c", _CHILD_SOLVES, str(args), str(result)],
                   env=_child_env(), check=True, timeout=60)
    with np.load(result) as got:
        return [(got[f"dist{i}"], got[f"pred{i}"]) for i in range(len(targets))]


def _bucket_sample(w):
    """The 256 weights, at a stride of len(w) // 256, that the kernel takes
    its bucket width from; the solve of a box of 4,096 or more vertices runs
    through the bucket layer when their sum is finite and positive and at
    most 3/5 of them in 2D, 2/5 in 3D, are light (nonzero and below one
    bucket's width, their mean over PER_MEAN)."""
    return w[:: len(w) // 256][:256]


@needs_kernel
@pytest.mark.parametrize("hi", ((79, 79), (15, 15, 15)))
def test_extreme_weights_give_the_oracle_bytes(hi, tmp_path):
    """exp fields on boxes of 6,400 and 4,096 vertices, which the bucket
    layer serves, with edges at 0, at sum(w) + 1 (priced out), at 1e300 and
    at +inf. The far corner lies past 1e300 edges, so its solves end with
    only far keys left, and a vertex walled in by +inf edges is
    unreachable. Stopped and full solves give the CSR solve's dist and pred
    bytes."""
    box = F.LatticeBox((0,) * len(hi), hi)

    def vertex(x, y):
        return (x, y) + (2,) * (box.d - 2)

    indptr, _, arc_edges = box._csr

    def edges_at(v):
        return arc_edges[indptr[v] : indptr[v + 1]]

    src, mid, behind_zero, walled = (
        box.vertex_index(vertex(*c)) for c in ((2, 3), (10, 10), (6, 5), (12, 6))
    )
    corner = box.n_vertices - 1
    targets = (None, corner, walled, mid, behind_zero)
    for rep in range(2):
        w = F.WeightField.generate(box, F.parse_spec("exp:rate=1"), 29, rep).weights
        priced_out = w.sum() + 1.0
        for c, a in ((vertex(5, 5), 0), (vertex(5, 5), 1), (vertex(9, 4), 0)):
            w[box.edge_id(c, a)] = 0.0
        for x in (3, 4, 7):
            w[box.edge_id(vertex(x, 3), 0)] = priced_out
        w[edges_at(corner)] = 1e300
        w[edges_at(walled)] = np.inf
        sample = _bucket_sample(w)
        assert 0 < sample.sum() < np.inf
        solves = _solve_in_child(box, w, src, targets, tmp_path)
        for target, (dist, pred) in zip(targets, solves):
            ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
            assert dist.tobytes() == ref_dist.tobytes(), target
            assert pred.tobytes() == ref_pred.tobytes(), target
        full = solves[0][0]
        assert full[walled] == np.inf and 1e300 <= full[corner] < np.inf


@needs_kernel
def test_weights_that_repeat_give_a_shortest_path_tree():
    """Integer weights 1, 2 and 3 on the 80 x 80 box, which the bucket
    layer serves: their keys tie at every step, and equal keys leave the
    bucketed queue in another order than the heap's. dist keeps the CSR
    solve's bytes, and pred is a shortest-path tree, though not the CSR
    solve's."""
    box = F.LatticeBox((0, 0), (79, 79))
    src = box.vertex_index((3, 40))
    other_order = 0
    for rep in range(4):
        w = np.random.default_rng(rep).integers(1, 4, size=box.n_edges).astype(np.float64)
        for target in (None, box.vertex_index((70, 40)), box.n_vertices - 1):
            dist, pred = box.solve(w, src, target)
            ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
            assert dist.tobytes() == ref_dist.tobytes(), (rep, target)
            _assert_shortest_path_tree(box, w, src, target, dist, pred)
            other_order += pred.tobytes() != ref_pred.tobytes()
    assert other_order > 0  # the bucket layer served these solves


RESCAN_BOXES = (((0, 0), (79, 79)), ((0, 0, 0), (15, 15, 15)))


def _unit_sample(w):
    """w with the weights of _bucket_sample set to 1: their mean is 1 and
    none of them is light, so the kernel serves a box of 4,096 or more
    vertices through the bucket layer however light the rest of w is."""
    w = w.copy()
    w[:: len(w) // 256][:256] = 1.0
    return w


def _light_fields(box):
    """(name, weights) of fields with light edges, nonzero and far below a
    bucket's width. gamma:a=0.05 has about 70% of its edges lighter than
    1/1000: the kernel runs it on the heap alone, as it does any field with
    that many light sampled weights. gamma:a=0.2 has about 25% of its edges
    below a bucket's width: they join some keys of a bucket, and the bucket
    layer scans tens of vertices twice per solve. Then two-point fields with
    zero edges, and a hand-built mix of 0, 1e-300 and 1, whose sums round to
    ties. All but the first have the unit sample, so the bucket layer serves
    them."""
    gamma = F.WeightField.generate(box, F.parse_spec("gamma:a=0.05,b=1"), 41, 0).weights
    fields = [("gamma:a=0.05,b=1", gamma)] + [
        (spec, _unit_sample(F.WeightField.generate(box, F.parse_spec(spec), 41, rep).weights))
        for spec in ("gamma:a=0.2,b=1", "bernoulli:a=0,b=1,p=0.9")
        for rep in range(2)
    ]
    mix = np.random.default_rng(box.d).choice([0.0, 1e-300, 1.0], size=box.n_edges)
    return fields + [("0, 1e-300, 1", _unit_sample(mix))]


@needs_kernel
@pytest.mark.parametrize("lohi", RESCAN_BOXES, ids=("2d", "3d"))
def test_light_edges_rescan_the_vertices_they_lower(lohi):
    """The bucket layer scans a bucket's list in list order, so a light edge
    can lower a vertex already scanned at a larger key of its bucket; the
    heap then scans it again. On the light fields, stopped and full solves
    give the CSR solve's dist bytes and a shortest-path tree."""
    box = F.LatticeBox(*lohi)
    src = box.vertex_index((3,) * box.d)
    targets = (None, box.vertex_index((9, 5) + (4,) * (box.d - 2)), box.n_vertices - 1)
    for name, w in _light_fields(box):
        for target in targets:
            dist, pred = box.solve(w, src, target)
            ref_dist, _ = csr_dijkstra(box, w, src, target)
            assert dist.tobytes() == ref_dist.tobytes(), (name, target)
            _assert_shortest_path_tree(box, w, src, target, dist, pred)


@needs_kernel
def test_a_tie_horizon_in_the_next_bucket_is_solved_to_its_end():
    """Unit weights on the 80 x 80 box, so buckets split the keys at
    multiples of 1 / PER_MEAN. The target (4, 0) lies at T = 4 - 2e-12, at
    the top of its bucket, and its horizon T + 1e-12 T lies past 4, in the
    next bucket. Inside it are the three vertices at distance 4 exactly and
    (1, 4), at 4 + 1e-12, which only (1, 3) reaches so soon, so a solve
    that ended with the target's bucket would leave it unreached; (0, 4), at
    4 + 1e-11, is beyond. The stopped solve settles exactly the vertices
    inside, as the CSR solve does."""
    box = F.LatticeBox((0, 0), (79, 79))
    w = np.ones(box.n_edges)
    w[box.edge_id((3, 0), 0)] = 1.0 - 2e-12
    w[box.edge_id((0, 3), 1)] = 1.0 + 1e-11
    w[box.edge_id((1, 3), 1)] = 1e-12
    assert _bucket_sample(w).sum() == 256.0  # buckets 1 / PER_MEAN wide
    src, tgt, late, beyond = (box.vertex_index(c) for c in ((0, 0), (4, 0), (1, 4), (0, 4)))
    dist, pred = box.solve(w, src, tgt)
    t = dist[tgt]
    assert t < 4.0 < t + fpp_core.TIE_REL_TOL * t < box.solve(w, src)[0][beyond]
    ref_dist, _ = csr_dijkstra(box, w, src, tgt)
    assert dist.tobytes() == ref_dist.tobytes()
    assert np.count_nonzero(dist == 4.0) == 3 and dist[late] == 4.0 + 1e-12
    assert dist[beyond] == np.inf
    _assert_shortest_path_tree(box, w, src, tgt, dist, pred)


def _bucket_scale(box, w):
    """The buckets per unit of key that the kernel's solve of w runs on, or
    0 for the heap alone: `fpp_bucket_scale`."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    return fpp_core._KERNEL.fpp_bucket_scale(box.d, box._c_shape, w.ctypes.data)


@needs_kernel
def test_the_queue_is_chosen_by_box_size_sampled_mean_and_light_share():
    """The buckets, PER_MEAN (128) to the sampled mean weight, for exp on
    boxes of 6,400 and 4,096 vertices in 2D and 4,096 in 3D. The heap alone
    on the same boxes when a sampled weight is +inf or every weight is 0,
    and for gamma:a=0.05, most of whose sampled weights are lighter than a
    bucket; and on a box of 4,032 vertices whatever the weights."""
    exp, gamma = F.parse_spec("exp:rate=1"), F.parse_spec("gamma:a=0.05,b=1")
    for lohi in (((0, 0), (79, 79)), ((0, 0), (63, 63)), ((0, 0, 0), (15, 15, 15))):
        box = F.LatticeBox(*lohi)
        assert box.n_vertices >= BUCKETED
        for rep in range(3):
            w = F.WeightField.generate(box, exp, 43, rep).weights
            sample = _bucket_sample(w).tolist()
            assert _bucket_scale(box, w) == 128 * 256 / sum(sample) > 0  # summed in order
            w[0] = np.inf  # the first sampled weight
            assert _bucket_scale(box, w) == 0.0
            light = F.WeightField.generate(box, gamma, 43, rep).weights
            assert 0 < _bucket_sample(light).sum() < np.inf
            assert _bucket_scale(box, light) == 0.0
        assert _bucket_scale(box, np.zeros(box.n_edges)) == 0.0
    small = F.LatticeBox((0, 0), (62, 63))
    assert small.n_vertices == BUCKETED - 64
    w = F.WeightField.generate(small, exp, 43, 0).weights
    assert _bucket_scale(small, w) == 0.0 and _bucket_scale(small, np.ones(small.n_edges)) == 0.0


def _python_arcs(shape, x):
    """(neighbours, edge ids) of vertex x in the kernel's order, in Python
    integers: x - S_a for a = 0..d-1, then x + S_a for a = d-1..0, and the
    edge (y, y + e_a) numbered off_a plus y's row-major index in the grid of
    the axis-a lower endpoints."""
    d = len(shape)
    strides = [math.prod(shape[a + 1 :]) for a in range(d)]
    coords = [x // s % n for s, n in zip(strides, shape)]
    offsets, grid_strides = [], []
    for a in range(d):
        grid = [n - (k == a) for k, n in enumerate(shape)]
        offsets.append(sum(math.prod(n - (k == b) for k, n in enumerate(shape)) for b in range(a)))
        grid_strides.append([math.prod(grid[k + 1 :]) for k in range(d)])

    def eid(y, a):
        c = [y // s % n for s, n in zip(strides, shape)]
        return offsets[a] + sum(ck * gk for ck, gk in zip(c, grid_strides[a]))

    arcs = [(x - strides[a], eid(x - strides[a], a)) for a in range(d) if coords[a] > 0]
    arcs += [(x + strides[a], eid(x, a)) for a in reversed(range(d)) if coords[a] < shape[a] - 1]
    return [v for v, _ in arcs], [e for _, e in arcs]


@needs_kernel
@pytest.mark.parametrize("shape", ((32767, 32767), (1024, 1023, 681), (811, 883, 997)))
def test_arcs_are_exact_at_the_32_bit_edge_id_limit(shape):
    """The kernel finds a vertex's coordinates by multiply and shift, exact
    below 2^31; at shapes whose edge ids nearly fill 32 bits its arcs are
    Python's integer arithmetic at the first and last vertex, at the ends of
    rows and layers, and at random vertices. No box-sized array is made."""
    box = F.LatticeBox((0,) * len(shape), tuple(n - 1 for n in shape))
    assert 2**31 - 2**27 < box.n_edges < 2**31
    rng = np.random.default_rng(11)
    strides = box.strides.tolist()
    vertices = [0, box.n_vertices - 1] + rng.integers(box.n_vertices, size=300).tolist()
    for s in strides[:-1]:
        for k in rng.integers(1, box.n_vertices // s, size=40).tolist():
            vertices += [k * s - 1, k * s]
    for x in vertices:
        nbr = np.empty(2 * box.d, dtype=np.int32)
        eid = np.empty(2 * box.d, dtype=np.int32)
        count = fpp_core._KERNEL.fpp_arcs(box.d, box._c_shape, x, nbr.ctypes.data, eid.ctypes.data)
        assert (nbr[:count].tolist(), eid[:count].tolist()) == _python_arcs(shape, x), x


@needs_kernel
def test_canonical_geodesic_does_not_depend_on_the_solver(monkeypatch):
    box = F.LatticeBox((-10, -10), (30, 10))
    law = F.parse_spec(TWO_POINT)
    probes = box.edges_near((0, 0), 1)
    src, tgt = box.vertex_index((0, 0)), box.vertex_index((20, 0))
    scipy_tree_differs = 0
    for rep in range(20):
        field = F.WeightField.generate(box, law, 8, rep)
        ours = F.passage_time(field, (0, 0), (20, 0))
        theirs = _scipy_passage_time(monkeypatch, field, (0, 0), (20, 0))
        assert ours.time == theirs.time
        assert np.array_equal(ours.path, theirs.path)
        assert np.array_equal(ours.edge_ids, theirs.edge_ids)
        assert ours.ties == theirs.ties and ours.unique == theirs.unique
        assert np.array_equal(ours.edge_bitset[probes], theirs.edge_bitset[probes])
        _, scipy_pred = fpp_core._scipy_solve(box, field.weights, src)
        tree = [tgt]
        while tree[-1] != src:
            tree.append(int(scipy_pred[tree[-1]]))
        canonical = (ours.path - np.asarray(box.lo)) @ box.strides
        scipy_tree_differs += not np.array_equal(tree[::-1], canonical)
    # scipy's own tree path is often not the canonical one on a two-point law
    assert scipy_tree_differs >= 5


PLATEAU_LAWS = (
    "dirac:c=0",
    "bernoulli:a=0,b=1,p=0.4",
    "bernoulli:a=0,b=1,p=0.7",
    TWO_POINT,
    "uniform:lo=0,hi=1",
)


@pytest.mark.parametrize(
    "lo, hi, u, v",
    (
        ((0, 0), (2, 2), (0, 0), (2, 2)),  # tiny: every path enumerated
        ((0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 1)),
        ((-8, -8), (24, 8), (0, 0), (16, 3)),  # larger: csgraph hop counts
        ((-3, -3, -3), (9, 3, 3), (0, 0, 0), (6, 2, -1)),
    ),
)
@pytest.mark.parametrize("spec", PLATEAU_LAWS)
def test_geodesic_is_the_fewest_edge_tight_path(spec, lo, hi, u, v, solve_backend):
    box = F.LatticeBox(lo, hi)
    law = F.parse_spec(spec)
    src, tgt = box.vertex_index(u), box.vertex_index(v)
    for rep in range(6):
        field = F.WeightField.generate(box, law, 17, rep)
        res = F.passage_time(field, u, v)
        dist, _ = box.solve(field.weights, src)
        verts = (res.path - np.asarray(box.lo)) @ box.strides
        assert verts[0] == src and verts[-1] == tgt
        # every step is a tight arc along the edge it names
        steps = zip(res.path[:-1].tolist(), res.path[1:].tolist())
        ends = [box.edge_endpoints(e) for e in res.edge_ids.tolist()]
        assert ends == [tuple(sorted(map(tuple, step))) for step in steps]
        assert np.array_equal(dist[verts[:-1]] + field.weights[res.edge_ids], dist[verts[1:]])
        assert res.length == fewest_tight_edges(box, field.weights, dist, src, tgt)


def test_the_zero_plateau_geodesic_has_the_lattice_distance(solve_backend):
    box = F.LatticeBox((-6, -6, -2), (6, 6, 2))
    law = F.parse_spec("dirac:c=0")
    for rep in range(3):
        res = F.passage_time(F.WeightField.generate(box, law, 2, rep), (0, 0, 0), (5, 3, -1))
        assert res.time == 0.0 and res.length == 9  # a depth-first walk took 401


def test_equal_geodesics_go_through_the_first_vertex_the_search_reaches(solve_backend):
    """On a 2x2 box with equal weights both corners give a 2-edge geodesic;
    the target's arcs are scanned in increasing index, so the path takes
    the smaller-index corner and counts the other as one tie."""
    box = F.LatticeBox((0, 0), (1, 1))  # vertex index 2x + y
    field = F.WeightField(box, np.ones(box.n_edges), "dirac:c=1", 0, 0)
    for u, v, corner in (((0, 0), (1, 1), (0, 1)), ((1, 1), (0, 0), (0, 1)),
                         ((0, 1), (1, 0), (0, 0)), ((1, 0), (0, 1), (0, 0))):
        res = F.passage_time(field, u, v)
        assert [tuple(c) for c in res.path] == [u, corner, v]
        assert res.time == 2.0 and res.ties == 1 and not res.unique


class _CountingArray(np.ndarray):
    """An ndarray that counts its scalar and index reads."""

    def item(self, *args):
        self.reads += 1
        return super().item(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("spec", ("exp:rate=1", "gamma:a=2,b=1", "uniform:lo=0,hi=1"))
@pytest.mark.parametrize("lohi", BOXES)
def test_continuous_geodesics_read_dist_only_around_the_path(spec, lohi, solve_backend):
    box = F.LatticeBox(*lohi)
    law = F.parse_spec(spec)
    u, v = (0,) * box.d, (8,) + (2,) * (box.d - 1)
    src, tgt = box.vertex_index(u), box.vertex_index(v)
    for rep in range(10):
        field = F.WeightField.generate(box, law, 29, rep)
        dist, _ = box.solve(field.weights, src, tgt)
        counted = dist.view(_CountingArray)
        counted.reads = 0
        tol = fpp_core.TIE_REL_TOL * max(float(dist[tgt]), 1.0)
        verts, eids, ties = fpp_core._geodesic_scan(box, field.weights, counted, src, tgt, tol)
        assert 0 < counted.reads <= eids.size * (1 + 2 * box.d)
        res = F.passage_time(field, u, v)
        assert np.array_equal(eids, res.edge_ids) and ties == res.ties


@pytest.mark.parametrize("spec", ("exp:rate=1", TWO_POINT, "dirac:c=1", "dirac:c=0"))
def test_tie_count_matches_the_double_loop(spec, solve_backend):
    box = F.LatticeBox((-5, -5, -2), (12, 5, 2))
    law = F.parse_spec(spec)
    for rep in range(6):
        field = F.WeightField.generate(box, law, 21, rep)
        res = F.passage_time(field, (0, 0, 0), (8, 3, 1))
        dist, _ = box.solve(field.weights, box.vertex_index((0, 0, 0)))
        assert res.ties == loop_tie_count(
            box, field.weights, dist, res.path, res.time, F.fpp_core.TIE_REL_TOL
        )


@pytest.mark.parametrize("spec", ("exp:rate=1", TWO_POINT, "dirac:c=0", "uniform:lo=0,hi=1"))
def test_canonical_path_is_optimal_on_tiny_boxes(spec, solve_backend):
    law = F.parse_spec(spec)
    for hi in ((2, 2), (3, 1), (1, 1, 1)):
        lo = (0,) * len(hi)
        box = F.LatticeBox(lo, hi)
        far = (hi[0],) + (0,) * (len(hi) - 1)
        for rep in range(6):
            field = F.WeightField.generate(box, law, 5, rep)
            for u, v in ((lo, hi), (hi, lo), (far, hi)):
                res = F.passage_time(field, u, v)
                best = brute_force_passage_time(box, field.weights, u, v)
                assert tuple(res.path[0]) == u and tuple(res.path[-1]) == v
                assert len({tuple(c) for c in res.path}) == len(res.path)
                assert res.time == pytest.approx(best, rel=1e-12, abs=1e-15)
                assert path_weight(box, field.weights, res.path) == pytest.approx(
                    best, rel=1e-12, abs=1e-15
                )


@pytest.mark.parametrize("spec", ("dirac:c=0", "uniform:lo=0,hi=1"))
def test_canonical_walk_terminates_on_zero_weight_plateaus(spec, monkeypatch):
    box = F.LatticeBox((-6, -6, -2), (6, 6, 2))
    law = F.parse_spec(spec)
    for rep in range(3):
        field = F.WeightField.generate(box, law, 2, rep)
        if spec == "uniform:lo=0,hi=1":
            field.weights[::3] = 0.0  # a plateau wide enough to dead-end the walk
        res = F.passage_time(field, (0, 0, 0), (5, 3, -1))
        assert tuple(res.path[0]) == (0, 0, 0) and tuple(res.path[-1]) == (5, 3, -1)
        assert len({tuple(c) for c in res.path}) == len(res.path)
        assert path_weight(box, field.weights, res.path) == pytest.approx(res.time, abs=1e-12)
        theirs = _scipy_passage_time(monkeypatch, field, (0, 0, 0), (5, 3, -1))
        assert np.array_equal(res.edge_ids, theirs.edge_ids) and res.ties == theirs.ties


@needs_kernel
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("spec", ("exp:rate=1", TWO_POINT))
def test_simulate_report_bytes_do_not_depend_on_the_backend(spec, workers, monkeypatch):
    cfg = F.ExperimentConfig(
        dist_spec=spec, dim=2, n_list=(8, 16), replicas=24,
        master_seed=3, m_policy="auto", workers=workers,
    )
    ours = reporting.dumps(F.full_report(cfg, deterministic=True))
    monkeypatch.setattr(fpp_core, "_KERNEL", None)
    assert reporting.dumps(F.full_report(cfg, deterministic=True)) == ours


@needs_kernel
def test_batch_observables_do_not_depend_on_the_backend(monkeypatch):
    cfg = F.ExperimentConfig(
        dist_spec=TWO_POINT, dim=2, n_list=(12,), replicas=30,
        master_seed=9, m_policy="auto", workers=1,
    )
    _, observe = probe_observer(cfg, 12, exact_replicas=0)

    def batch():
        return batch_bytes(F.collect_batch(cfg, 12, m=2, observe=observe))

    ours = batch()
    monkeypatch.setattr(fpp_core, "_KERNEL", None)
    assert batch() == ours
