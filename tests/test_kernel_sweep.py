"""The kernel against its oracles, byte for byte, on random boxes, laws and
endpoints: its arcs against the CSR rows of the box, its solve against the
CSR solve it replaced, and its geodesic scan and replacement-path offers
against their Python paths, with the distances and trees of either solve
backend."""

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


def _solves(monkeypatch, backend, box, w, src, tgt):
    """The stopped solve and the full solves from both ends, on one backend."""
    with monkeypatch.context() as mp:
        if backend == "scipy":
            mp.setattr(fpp_core, "_KERNEL", None)
        return box.solve(w, src, tgt)[0], box.solve(w, src), box.solve(w, tgt)


@pytest.mark.parametrize("backend", ("compiled", "scipy"))
def test_kernel_entries_match_their_python_paths(backend, monkeypatch):
    rng = np.random.default_rng(7)
    seen = {"laws": set(), "dims": set(), "same": 0, "adjacent": 0, "horizon": 0}
    for case in range(CASES):
        box, field, spec, src, tgt = _random_case(rng, case)
        w = field.weights
        dist, _, _ = _solves(monkeypatch, backend, box, w, src, tgt)
        tol = fpp_core.TIE_REL_TOL * max(float(dist[tgt]), 1.0)
        verts, eids, _ = fpp_core._geodesic_scan(box, w, dist, src, tgt, tol)
        before = dist.tobytes()
        if _set_an_arc_at_the_tie_horizon(box, w, dist, verts, eids, tol):
            seen["horizon"] += 1
        dist, (ds, pred_s), (dt, pred_t) = _solves(monkeypatch, backend, box, w, src, tgt)
        assert dist.tobytes() == before

        ours = fpp_core._kernel_geodesic_scan(box, w, dist, src, tgt, tol)
        theirs = fpp_core._geodesic_scan(box, w, dist, src, tgt, tol)
        assert ours[0].dtype == theirs[0].dtype and ours[1].dtype == theirs[1].dtype
        assert ours[0].tobytes() == theirs[0].tobytes(), case
        assert ours[1].tobytes() == theirs[1].tobytes(), case
        assert ours[2] == theirs[2], case
        verts, eids = theirs[0], theirs[1]
        if eids.size:
            on_path = np.zeros(box.n_edges, dtype=bool)
            on_path[eids] = True
            args = (box, w, on_path, verts, ds, pred_s, dt, pred_t)
            t_inf = fpp_core._kernel_replacement_offers(*args)
            assert t_inf.tobytes() == fpp_core._replacement_offers(*args).tobytes(), case

        # the records the package builds, with the kernel and without it
        if backend == "compiled":
            u, v = box.vertex_coord(src), box.vertex_coord(tgt)
            res = F.passage_time(field, u, v)
            bp = F.geodesic_breakpoints(field, res)
            with monkeypatch.context() as mp:
                mp.setattr(fpp_core, "_kernel_geodesic_scan", fpp_core._geodesic_scan)
                mp.setattr(fpp_core, "_kernel_replacement_offers", fpp_core._replacement_offers)
                ref = F.passage_time(field, u, v)
                ref_bp = F.geodesic_breakpoints(field, ref)
            assert res.path.tobytes() == ref.path.tobytes()
            assert res.edge_ids.tobytes() == ref.edge_ids.tobytes()
            assert res.ties == ref.ties and type(res.ties) is type(ref.ties)
            assert bp[0].tobytes() == ref_bp[0].tobytes()
            assert bp[1].tobytes() == ref_bp[1].tobytes()

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
