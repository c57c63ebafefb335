"""The kernel against its oracles, byte for byte, on random boxes, laws and
endpoints: its arcs against the CSR rows of the box, its solve against the
CSR solve it replaced, its geodesic scan against the Python scan with the
distances of either solve backend, and its breakpoint pass against the
Python composition of scan, replacement-path offers and path sums over the
kernel's own solves."""

import numpy as np
import pytest

import fpplab as F
from fpplab import fpp_core
from oracles import csr_dijkstra, random_box

LAWS = (
    "exp:rate=1",
    "uniform:lo=0,hi=1",
    "bernoulli:a=0,b=1,p=0.5",
    "bernoulli:a=1,b=2,p=0.5",
    "dirac:c=0",
    "dirac:c=1",
)
CASES = 200  # per backend

pytestmark = pytest.mark.skipif(
    fpp_core._KERNEL is None, reason="no C compiler: there is no kernel to compare"
)


def _random_case(rng, case):
    """A random 2D or 3D box, law and field, and endpoints: equal, adjacent
    or anywhere, in turn."""
    d = int(rng.integers(2, 4))
    hi = tuple(int(k) for k in rng.integers(1, 8 if d == 2 else 4, size=d))
    box = F.LatticeBox((0,) * d, hi)
    spec = LAWS[int(rng.integers(len(LAWS)))]
    field = F.WeightField.generate(box, F.parse_spec(spec), 2024, case)
    if case % 3 == 0:
        src = tgt = int(rng.integers(box.n_vertices))
    elif case % 3 == 1:
        e = int(rng.integers(box.n_edges))
        src, tgt = (box.vertex_index(c) for c in box.edge_endpoints(e))
        if rng.random() < 0.5:
            src, tgt = tgt, src
    else:
        src, tgt = (int(i) for i in rng.integers(box.n_vertices, size=2))
    return box, field, spec, src, tgt


def _set_an_arc_at_the_tie_horizon(box, w, dist, verts, eids, tol) -> bool:
    """Lower one arc u -> v into a geodesic vertex v so that dist[u] + w is
    exactly dist[v] + tol, the inclusive end of the tie test.

    Only an arc with dist[u] < dist[v] that reaches v beyond the limit is
    taken, so no distance, tight arc or path changes and the tie count
    gains exactly this arc. False when no arc fits.
    """
    on_path = set(eids.tolist())
    indptr, indices, perm = box._csr
    for v in verts[1:].tolist():
        limit = dist[v] + tol
        for j in range(indptr[v], indptr[v + 1]):
            u, e = int(indices[j]), int(perm[j])
            if e in on_path or not (dist[u] < dist[v] and dist[u] + w[e] > limit):
                continue
            y = limit - dist[u]
            for near in (y, np.nextafter(y, 0.0), np.nextafter(y, np.inf)):
                if dist[u] + near == limit:
                    w[e] = near
                    return True
    return False


def _kernel_pass(box, w, src, tgt, value):
    """The kernel's breakpoint pass with room for every vertex: (ds, dt,
    verts, eids, ties, sums, t_inf), before the re-solve fallback."""
    n = box.n_vertices
    ds, dt, sums, t_inf = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    verts, eids = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    ties = np.empty(1, dtype=np.int64)
    length = fpp_core._KERNEL.fpp_breakpoint_pass(
        box.d, box._c_shape, w.ctypes.data, src, tgt, fpp_core.TIE_REL_TOL, value, n,
        *(a.ctypes.data for a in (ds, dt, verts, eids, ties, sums, t_inf)),
    )
    assert length >= 0
    return (ds, dt, verts[: length + 1], eids[:length], int(ties[0]), sums[:length],
            t_inf[:length])


def _python_pass(box, w, src, tgt, value):
    """The same from the kernel's two full solves, LatticeBox.solve's, and
    the Python scan, offers and path sums."""
    ds, pred_s = box.solve(w, src)
    dt, pred_t = box.solve(w, tgt)
    tol = fpp_core.TIE_REL_TOL * max(float(ds[tgt]), 1.0)
    verts, eids, ties = fpp_core._geodesic_scan(box, w, ds, src, tgt, tol)
    t_inf = np.empty(0)
    if eids.size:
        on_path = np.zeros(box.n_edges, dtype=bool)
        on_path[eids] = True
        t_inf = fpp_core._replacement_offers(box, w, on_path, verts, ds, pred_s, dt, pred_t)
    sums = fpp_core._path_sums(w[eids], np.arange(eids.size), value)
    return ds, dt if eids.size else ds, verts, eids, ties, sums, t_inf


def _stopped_solve(monkeypatch, backend, box, w, src, tgt):
    """The distances of the stopped solve, on one backend."""
    with monkeypatch.context() as mp:
        if backend == "scipy":
            mp.setattr(fpp_core, "_KERNEL", None)
        return box.solve(w, src, tgt)[0]


@pytest.mark.parametrize("backend", ("compiled", "scipy"))
def test_kernel_entries_match_their_python_paths(backend, monkeypatch):
    rng = np.random.default_rng(7)
    seen = {"laws": set(), "dims": set(), "same": 0, "adjacent": 0, "horizon": 0}
    for case in range(CASES):
        box, field, spec, src, tgt = _random_case(rng, case)
        w = field.weights
        dist = _stopped_solve(monkeypatch, backend, box, w, src, tgt)
        tol = fpp_core.TIE_REL_TOL * max(float(dist[tgt]), 1.0)
        verts, eids, _ = fpp_core._geodesic_scan(box, w, dist, src, tgt, tol)
        before = dist.tobytes()
        if _set_an_arc_at_the_tie_horizon(box, w, dist, verts, eids, tol):
            seen["horizon"] += 1
        dist = _stopped_solve(monkeypatch, backend, box, w, src, tgt)
        assert dist.tobytes() == before

        ours = fpp_core._kernel_geodesic_scan(box, w, dist, src, tgt, tol)
        theirs = fpp_core._geodesic_scan(box, w, dist, src, tgt, tol)
        assert ours[0].dtype == theirs[0].dtype and ours[1].dtype == theirs[1].dtype
        assert ours[0].tobytes() == theirs[0].tobytes(), case
        assert ours[1].tobytes() == theirs[1].tobytes(), case
        assert ours[2] == theirs[2], case
        eids = theirs[1]

        if backend == "compiled":
            value = (0.0, 2.0, 1 / 3)[case // 3 % 3]
            kernel = _kernel_pass(box, w, src, tgt, value)
            for a, b in zip(kernel, _python_pass(box, w, src, tgt, value)):
                if isinstance(a, int):
                    assert a == b, case
                else:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
            # the package's record, from a path buffer of every vertex and
            # from one vertex, which the pass refuses, so it runs again
            u, v = box.vertex_coord(src), box.vertex_coord(tgt)
            res = F.passage_time(field, u, v)
            records = [fpp_core._breakpoint_pass(field, u, v, value)]
            with monkeypatch.context() as mp:
                mp.setattr(fpp_core, "_path_room", lambda box, src, tgt: 1)
                records.append(fpp_core._breakpoint_pass(field, u, v, value))
            for got, sums, t_inf in records:
                assert got.time == res.time and got.ties == res.ties, case
                assert type(got.ties) is type(res.ties), case
                assert got.path.tobytes() == res.path.tobytes(), case
                assert got.edge_ids.tobytes() == res.edge_ids.tobytes(), case
                assert got.edge_bitset.tobytes() == res.edge_bitset.tobytes(), case
                assert sums.tobytes() == kernel[5].tobytes(), case
                finite = np.isfinite(kernel[6]) & (w[eids] > 0)
                assert t_inf[finite].tobytes() == kernel[6][finite].tobytes(), case
                assert t_inf.tobytes() == records[0][2].tobytes(), case

        seen["laws"].add(spec)
        seen["dims"].add(box.d)
        seen["same"] += src == tgt
        seen["adjacent"] += eids.size == 1
    assert seen["laws"] == set(LAWS) and seen["dims"] == {2, 3}
    assert seen["same"] >= 40 and seen["adjacent"] >= 40
    assert seen["horizon"] >= 20


def _kernel_arcs(box, v):
    """(neighbours, edge ids) of vertex v, as the kernel enumerates them."""
    nbr = np.empty(2 * box.d, dtype=np.int32)
    eid = np.empty(2 * box.d, dtype=np.int32)
    count = fpp_core._KERNEL.fpp_arcs(box.d, box._c_shape, v, nbr.ctypes.data, eid.ctypes.data)
    return nbr[:count].tolist(), eid[:count].tolist()


def test_solve_is_the_csr_solve_byte_for_byte():
    """Random 2D and 3D boxes, sides of length 1 included: at every vertex
    the kernel's arcs are the CSR row in order and `edge_id` names the same
    edges, and the kernel's full and stopped solves give the retired CSR
    solve's dist and pred bytes, ties and zero weights included."""
    rng = np.random.default_rng(21)
    seen = {"laws": set(), "dims": set(), "side_one": 0}
    for case in range(240):
        box = random_box(rng)
        indptr, indices, perm = box._csr
        for v in range(box.n_vertices):
            row = slice(indptr[v], indptr[v + 1])
            assert _kernel_arcs(box, v) == (indices[row].tolist(), perm[row].tolist()), case
            for u, e in zip(indices[row].tolist(), perm[row].tolist()):
                x, axis = min(u, v), int(np.flatnonzero(box.strides == abs(u - v))[0])
                assert box.edge_id(box.vertex_coord(x), axis) == e, case
        spec = LAWS[case % len(LAWS)]
        w = F.WeightField.generate(box, F.parse_spec(spec), 2025, case).weights
        src, tgt = (int(i) for i in rng.integers(box.n_vertices, size=2))
        for target in (None, tgt):
            dist, pred = box.solve(w, src, target)
            ref_dist, ref_pred = csr_dijkstra(box, w, src, target)
            assert dist.tobytes() == ref_dist.tobytes(), (case, target)
            assert pred.tobytes() == ref_pred.tobytes(), (case, target)
        seen["laws"].add(spec)
        seen["dims"].add(box.d)
        seen["side_one"] += 1 in box.shape
    assert seen["laws"] == set(LAWS) and seen["dims"] == {2, 3}
    assert seen["side_one"] >= 20
