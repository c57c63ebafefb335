"""Finite-box lattice first passage percolation.

A LatticeBox indexes the vertices and edges of an axis-aligned box in Z^d
(d = 2 or 3) once; weight fields and shortest-path solves then reuse that
structure. Distances are exact Dijkstra runs, by a small C kernel compiled
once per machine (scipy's csgraph when no compiler is present), with
deterministic outputs for a fixed (spec, seed, replica). The geodesic is a
function of the distances and weights alone, so it does not depend on how
the solver broke ties.

Single-edge perturbations exploit the breakpoint structure of the passage
time: as a function of one edge weight y it is min(t0 + y, t_inf), where
t0 is the passage time with that edge free and t_inf the time with it
priced out. One of the two is free: on the geodesic t0 is the geodesic
re-summed with the edge at zero, off it t_inf is the passage time itself.
So a single-edge breakpoint costs one solve, and the breakpoints of every
geodesic edge together cost one solve from the target plus a sweep over
the edges (replacement paths). Influence integrals, the two-point energy
and derivative checks are then closed-form arithmetic.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import reporting
from .averaging import OffsetSample
from .distributions import Distribution, parse_spec
from .errors import DomainError, UnsupportedKindError, UnsupportedParameterError

TIE_REL_TOL = 1e-12
_KERNEL_SOURCE = Path(__file__).with_name("_dijkstra.c")


def _load_kernel():
    """The compiled `fpp_dijkstra`, or None without a compiler or if the
    build fails; LatticeBox.solve then runs scipy.

    The library is cached per user, named by the machine type and the hash
    of the source. The first import on a machine compiles it into a
    temporary file next to that name and moves it into place, so
    concurrent first imports do not race; later imports only load it.
    """
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()).hexdigest()
        lib = cache / "fpplab" / f"dijkstra-{platform.machine()}-{digest}.so"
        if not lib.exists():
            cc = shutil.which("cc") or shutil.which("gcc")
            if cc is None:
                return None
            lib.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".tmp")
            os.close(fd)
            try:
                subprocess.run(
                    [cc, "-O3", "-shared", "-fPIC", "-o", tmp, str(_KERNEL_SOURCE)],
                    check=True,
                    capture_output=True,
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(lib)).fpp_dijkstra
    except (OSError, RuntimeError, subprocess.CalledProcessError):
        return None
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [ctypes.c_int32, i32, i32, i32, f64, ctypes.c_int32, f64, i32]
    fn.restype = ctypes.c_int
    return fn


_KERNEL = _load_kernel()


def _scipy_solve(box: LatticeBox, weights: np.ndarray, source_index: int):
    """LatticeBox.solve by scipy's csgraph: the fallback and the test oracle."""
    data = weights[box.data_perm]
    graph = csr_matrix(
        (data, box._csr_indices, box._csr_indptr),
        shape=(box.n_vertices, box.n_vertices),
    )
    return dijkstra(graph, directed=True, indices=source_index, return_predecessors=True)


class LatticeBox:
    """Axis-aligned box of Z^d with a fixed edge indexing.

    Edges are indexed lexicographically by (lower endpoint, axis): all
    axis-0 edges in vertex order, then all axis-1 edges, and so on.
    """

    def __init__(self, lo, hi):
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        if len(lo) != len(hi) or len(lo) not in (2, 3):
            raise DomainError("box dimension must be 2 or 3")
        if any(h < l for l, h in zip(lo, hi)):
            raise DomainError("box corners must satisfy lo <= hi componentwise")
        self.d = len(lo)
        self.lo = lo
        self.hi = hi
        self.shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        self.n_vertices = int(np.prod(self.shape))
        self.strides = np.array(
            [int(np.prod(self.shape[ax + 1 :])) for ax in range(self.d)], dtype=np.int64
        )

        idx = np.arange(self.n_vertices).reshape(self.shape)
        heads, tails, axes = [], [], []
        for ax in range(self.d):
            take_lo = [slice(None)] * self.d
            take_hi = [slice(None)] * self.d
            take_lo[ax] = slice(0, self.shape[ax] - 1)
            take_hi[ax] = slice(1, self.shape[ax])
            u = idx[tuple(take_lo)].ravel()
            heads.append(u)
            tails.append(idx[tuple(take_hi)].ravel())
            axes.append(np.full(u.size, ax, dtype=np.int8))
        self.edge_u = np.concatenate(heads)
        self.edge_v = np.concatenate(tails)
        self.edge_axis = np.concatenate(axes)
        self.n_edges = int(self.edge_u.size)

        self._eid_lookup = np.full(self.n_vertices * self.d, -1, dtype=np.int64)
        self._eid_lookup[self.edge_u * self.d + self.edge_axis] = np.arange(
            self.n_edges
        )

        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        eids = np.tile(np.arange(self.n_edges, dtype=np.int32), 2)
        order = np.lexsort((cols, rows))
        self._csr_indptr = np.searchsorted(
            rows[order], np.arange(self.n_vertices + 1)
        ).astype(np.int32)
        self._csr_indices = cols[order].astype(np.int32)
        self.data_perm = eids[order]

    # vertex and edge addressing -----------------------------------------
    def contains(self, coord) -> bool:
        return all(l <= int(c) <= h for c, l, h in zip(coord, self.lo, self.hi))

    def vertex_index(self, coord) -> int:
        if len(coord) != self.d or not self.contains(coord):
            raise DomainError(f"vertex {tuple(coord)} outside box {self.lo}..{self.hi}")
        rel = np.asarray(coord, dtype=np.int64) - np.asarray(self.lo, dtype=np.int64)
        return int(np.dot(rel, self.strides))

    def vertex_coord(self, index: int) -> tuple:
        if not (0 <= index < self.n_vertices):
            raise DomainError("vertex index out of range")
        out = []
        rem = int(index)
        for ax in range(self.d):
            out.append(rem // int(self.strides[ax]) + self.lo[ax])
            rem %= int(self.strides[ax])
        return tuple(out)

    def edge_id(self, coord, axis: int) -> int:
        """Edge from coord to coord + e_axis; DomainError if absent."""
        if not (0 <= axis < self.d):
            raise DomainError(f"axis must be in 0..{self.d - 1}")
        u = self.vertex_index(coord)
        eid = int(self._eid_lookup[u * self.d + axis])
        if eid < 0:
            raise DomainError(f"no edge at {tuple(coord)} along axis {axis}")
        return eid

    def edge_endpoints(self, eid: int) -> tuple[tuple, tuple]:
        if not (0 <= eid < self.n_edges):
            raise DomainError("edge index out of range")
        return (
            self.vertex_coord(int(self.edge_u[eid])),
            self.vertex_coord(int(self.edge_v[eid])),
        )

    def edges_near(self, center, radius: int) -> np.ndarray:
        """Edge ids whose lower endpoint is within L1 radius of center."""
        lo_coords = np.stack(
            np.unravel_index(self.edge_u, self.shape), axis=1
        ) + np.asarray(self.lo)
        dist = np.abs(lo_coords - np.asarray(center)).sum(axis=1)
        return np.nonzero(dist <= radius)[0]

    # solving -------------------------------------------------------------
    def solve(self, weights: np.ndarray, source_index: int):
        """Full single-source Dijkstra; returns (dist float64, pred int32).

        As scipy's dijkstra: pred is -9999 at the source and at unreachable
        vertices, where dist is inf.
        """
        if _KERNEL is None:
            return _scipy_solve(self, weights, source_index)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != (self.n_edges,):
            raise DomainError(f"expected {self.n_edges} edge weights, got shape {w.shape}")
        if not 0 <= source_index < self.n_vertices:
            raise DomainError("source vertex index out of range")
        dist = np.empty(self.n_vertices)
        pred = np.empty(self.n_vertices, dtype=np.int32)
        status = _KERNEL(
            self.n_vertices, self._csr_indptr, self._csr_indices, self.data_perm,
            w, int(source_index), dist, pred,
        )
        if status != 0:
            raise MemoryError("Dijkstra kernel could not allocate its heap")
        return dist, pred

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBox)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"LatticeBox(lo={self.lo}, hi={self.hi})"


@dataclass
class WeightField:
    """Edge weights on a box plus the provenance needed to regenerate them."""

    box: LatticeBox
    weights: np.ndarray
    dist_spec: str
    master_seed: int
    replica: int
    # the parsed dist_spec; generate() passes the law it sampled from
    _law: Distribution | None = dataclass_field(default=None, repr=False, compare=False)

    @classmethod
    def generate(
        cls, box: LatticeBox, dist: Distribution, master_seed: int, replica: int
    ) -> "WeightField":
        """Deterministic field: PCG64 seeded from (master_seed, replica)."""
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, replica)))
        w = np.asarray(dist.sample(rng, box.n_edges), dtype=float)
        if np.any(w < 0):
            raise DomainError("edge times must be nonnegative")
        return cls(
            box=box,
            weights=w,
            dist_spec=dist.spec_string(),
            master_seed=int(master_seed),
            replica=int(replica),
            _law=dist,
        )

    def distribution(self) -> Distribution:
        if self._law is None:
            self._law = parse_spec(self.dist_spec)
        return self._law

    def export(self, path_prefix) -> tuple[Path, Path]:
        """Flat little-endian float64 in edge order plus a JSON sidecar."""
        prefix = Path(path_prefix)
        bin_path = prefix.with_suffix(".f64")
        meta_path = prefix.with_suffix(".json")
        bin_path.write_bytes(self.weights.astype("<f8").tobytes())
        meta = {
            "box_lo": list(self.box.lo),
            "box_hi": list(self.box.hi),
            "dimension": self.box.d,
            "edges": self.box.n_edges,
            "edge_order": "lexicographic by (lower endpoint, axis)",
            "dist_spec": self.dist_spec,
            "master_seed": self.master_seed,
            "replica": self.replica,
            "dtype": "<f8",
            "seed_scheme": "numpy SeedSequence((master_seed, replica)) -> PCG64",
        }
        reporting.write_json(meta, meta_path)
        return bin_path, meta_path


@dataclass
class GeodesicResult:
    """Shortest passage between two vertices of a weight field."""

    source: tuple
    target: tuple
    time: float
    path: np.ndarray  # (L+1, d) vertex coordinates, source first
    edge_ids: np.ndarray  # (L,) edge indices along the path
    edge_bitset: np.ndarray  # (E,) bool membership mask
    unique: bool
    ties: int
    # the source solve behind the path, reused by geodesic_breakpoints
    source_dist: np.ndarray | None = dataclass_field(default=None, repr=False)
    source_pred: np.ndarray | None = dataclass_field(default=None, repr=False)

    @property
    def length(self) -> int:
        return int(self.edge_ids.size)


def _canonical_walk(box: LatticeBox, weights, dist, src: int, tgt: int) -> np.ndarray:
    """The canonical geodesic, walked back from the target, source first.

    Each step takes the smallest-index neighbour u with dist[u] + w ==
    dist[v] that the walk has not visited yet, so the path depends on dist
    and the weights only, never on how the solver broke ties. On zero-weight
    plateaus the walk can run into a dead end; it then backs up a step, so
    it is a depth-first search over the tight arcs and always reaches the
    source. Scalar reads: a step looks at 2d arcs, too few for array calls.
    """
    indptr, nbr, eid = box._csr_indptr.item, box._csr_indices.item, box.data_perm.item
    d, w = dist.item, weights.item
    path = [tgt]
    seen = {tgt}
    while path[-1] != src:
        v = path[-1]
        dv = d(v)
        for j in range(indptr(v), indptr(v + 1)):
            u = nbr(j)
            if u not in seen and d(u) + w(eid(j)) == dv:
                seen.add(u)
                path.append(u)
                break
        else:
            path.pop()
    return np.asarray(path[::-1], dtype=np.int64)


def _path_scan(box: LatticeBox, weights, dist, verts: np.ndarray, tol: float):
    """Edge ids of a path and its tie count, from one gather over the arcs
    into every path vertex after the source.

    A tie is an in-arc other than the path's own that reaches a path vertex
    within tol of its distance. A second geodesic must rejoin the path
    somewhere, and at the rejoin vertex two in-arcs both achieve the
    optimal distance, so the count detects every multiplicity.
    """
    heads, tails = verts[1:], verts[:-1]
    start = box._csr_indptr[heads]
    k = np.arange(2 * box.d)
    valid = k < (box._csr_indptr[heads + 1] - start)[:, None]
    slots = start[:, None] + np.where(valid, k, 0)
    nbrs = box._csr_indices[slots]
    reach = dist[nbrs] + weights[box.data_perm[slots]]
    ties = int(np.count_nonzero(valid & (reach <= dist[heads][:, None] + tol))) - heads.size
    step = (nbrs == tails[:, None]).argmax(axis=1)
    eids = box.data_perm[slots[np.arange(heads.size), step]].astype(np.int64)
    return eids, ties


def passage_time(field: WeightField, u, v) -> GeodesicResult:
    """Exact shortest passage time and geodesic between box vertices u, v."""
    box = field.box
    src = box.vertex_index(u)
    tgt = box.vertex_index(v)
    dist, pred = box.solve(field.weights, src)
    time = float(dist[tgt])
    if not math.isfinite(time):
        raise DomainError("target unreachable (disconnected weights?)")
    verts = _canonical_walk(box, field.weights, dist, src, tgt)
    eids, ties = _path_scan(box, field.weights, dist, verts, TIE_REL_TOL * max(time, 1.0))
    bitset = np.zeros(box.n_edges, dtype=bool)
    bitset[eids] = True
    coords = np.stack(np.unravel_index(verts, box.shape), axis=1) + np.asarray(box.lo)
    return GeodesicResult(
        source=tuple(int(c) for c in u),
        target=tuple(int(c) for c in v),
        time=time,
        path=coords,
        edge_ids=eids,
        edge_bitset=bitset,
        unique=(ties == 0),
        ties=ties,
        source_dist=dist,
        source_pred=pred,
    )


def randomized_passage_time(field: WeightField, a_bits: np.ndarray, v) -> float:
    """Passage time between the offset endpoints z(a) and v + z(a).

    a_bits has one row of m^2 bits per lattice axis, and z is the offset
    `OffsetSample(a_bits)` encodes (z_i = g_m of row i), the same bits -> z
    path as the Monte Carlo harness. The caller must have sized the box so
    both endpoints fit, otherwise this raises DomainError.
    """
    a_bits = np.asarray(a_bits)
    box = field.box
    if a_bits.ndim != 2 or a_bits.shape[0] != box.d:
        raise DomainError(f"offset bits must have shape ({box.d}, m^2)")
    z = OffsetSample(a_bits).z
    start = tuple(int(c) for c in z)
    end = tuple(int(c) for c in (np.asarray(v, dtype=np.int64) + z))
    if not box.contains(start) or not box.contains(end):
        raise DomainError("offset endpoints fall outside the box; enlarge the margin")
    return passage_time(field, start, end).time


def _solve_time(box: LatticeBox, weights: np.ndarray, src: int, tgt: int) -> float:
    dist, _ = box.solve(weights, src)
    return float(dist[tgt])


def _priced_out_time(field: WeightField, eid: int, src: int, tgt: int) -> float:
    """Passage time with edge eid priced above every self-avoiding path."""
    w = field.weights.copy()
    w[eid] = float(field.weights.sum()) + 1.0
    return _solve_time(field.box, w, src, tgt)


def _path_sums(wpath: np.ndarray, positions, value: float) -> np.ndarray:
    """For each position i, the path weights summed left to right with
    entry i set to value: the sum Dijkstra forms along that path, bit for
    bit (np.sum would add pairwise)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0)
    rows = np.tile(wpath, (positions.size, 1))
    rows[np.arange(positions.size), positions] = value
    return np.add.accumulate(rows, axis=1)[:, -1]


def edge_breakpoint(field: WeightField, result: GeodesicResult, eid: int):
    """(t0, t_inf): passage time with edge eid free and priced out.

    The passage time as a function of that one edge weight y is exactly
    min(t0 + y, t_inf); t_inf - t0 is the breakpoint level. One solve: on
    the geodesic t0 is the geodesic re-summed with the edge at zero, off
    it t_inf is result.time.
    """
    box = field.box
    if not (0 <= eid < box.n_edges):
        raise DomainError("edge index out of range")
    src = box.vertex_index(result.source)
    tgt = box.vertex_index(result.target)
    if result.edge_bitset[eid]:
        i = int(np.flatnonzero(result.edge_ids == eid)[0])
        t0 = float(_path_sums(field.weights[result.edge_ids], [i], 0.0)[0])
        return t0, _priced_out_time(field, eid, src, tgt)
    w0 = field.weights.copy()
    w0[eid] = 0.0
    return _solve_time(box, w0, src, tgt), result.time


def _geodesic_labels(pred: np.ndarray, path_pos: np.ndarray, verts: np.ndarray):
    """Path index of the first geodesic vertex on each vertex's tree path.

    Geodesic vertices are roots, so the tree is forced onto the geodesic
    whichever way the solve broke ties there. Pointer jumping takes
    log2(tree depth) vectorized rounds.
    """
    up = pred.astype(np.int64)
    up[verts] = verts
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return path_pos[up]
        up = nxt


def geodesic_breakpoints(field: WeightField, result: GeodesicResult):
    """(t0, t_inf) arrays for every geodesic edge, in path order.

    t0 is the geodesic re-summed with that edge at zero. t_inf is the
    replacement-path distance (Malik, Mittal & Gupta, Oper. Res. Lett. 8,
    1989; Hershberger & Suri, FOCS 2001): label each vertex with the
    geodesic index where its source-tree path leaves the geodesic and the
    index where its target-tree path first reaches it. A non-geodesic edge
    (x, y) with lab_s(x) < lab_t(y) then offers the detour
    ds[x] + w + dt[y] to path edges lab_s(x) .. lab_t(y) - 1, and the
    cheapest offer to an edge is its t_inf. The offers are reduced through
    an (L+1) x (L+1) table and two running-minimum scans, so this costs one
    solve from the target beyond the source solve on `result`.

    The labels need a positive weight on the edge itself; free geodesic
    edges and bridges (no offer at all) fall back to a re-solve.
    """
    box = field.box
    w = field.weights
    n_path = result.length
    if n_path == 0:
        return np.empty(0), np.empty(0)
    verts = (result.path - np.asarray(box.lo)) @ box.strides
    if result.source_dist is None:
        ds, pred_s = box.solve(w, int(verts[0]))
    else:
        ds, pred_s = result.source_dist, result.source_pred
    dt, pred_t = box.solve(w, int(verts[-1]))
    path_pos = np.full(box.n_vertices, -1, dtype=np.int64)
    path_pos[verts] = np.arange(n_path + 1)
    lab_s = _geodesic_labels(pred_s, path_pos, verts)
    lab_t = _geodesic_labels(pred_t, path_pos, verts)

    off = ~result.edge_bitset
    eu, ev, ew = box.edge_u[off], box.edge_v[off], w[off]
    x = np.concatenate([eu, ev])
    y = np.concatenate([ev, eu])
    wx = np.concatenate([ew, ew])
    a, b = lab_s[x], lab_t[y]
    keep = a < b
    offers = np.full((n_path + 1, n_path + 1), np.inf)
    np.minimum.at(offers, (a[keep], b[keep]), ds[x[keep]] + wx[keep] + dt[y[keep]])
    # best[i, j] = min over offers with a <= i and b >= j
    best = np.minimum.accumulate(offers, axis=0)
    best = np.minimum.accumulate(best[:, ::-1], axis=1)[:, ::-1]
    t_inf = best[np.arange(n_path), np.arange(1, n_path + 1)]

    wpath = w[result.edge_ids]
    t0 = _path_sums(wpath, np.arange(n_path), 0.0)
    src, tgt = int(verts[0]), int(verts[-1])
    for i in np.flatnonzero(np.isinf(t_inf) | (wpath == 0.0)):
        t_inf[i] = _priced_out_time(field, int(result.edge_ids[i]), src, tgt)
    return t0, t_inf


def breakpoint_influence(dist: Distribution, time: float, t0: float, t_inf: float) -> float:
    """W_{e,+} = E (min(t0 + Y, t_inf) - time)+ for Y ~ dist, in closed form.

    With the edge's breakpoint (t0, t_inf) and time = min(t0 + x_e, t_inf),
    the gain is (Y - (time - t0))+ - (Y - (t_inf - t0))+, so its mean is a
    difference of two mean excesses, exact for every law.
    """
    return float(dist.upper_mean(time - t0) - dist.upper_mean(t_inf - t0))


def edge_influence(
    field: WeightField, result: GeodesicResult, eid: int, dist: Distribution
) -> float:
    """W_{e,+}: expected positive change of the passage time when edge eid
    is independently resampled from `dist`.

    Exact for every law: one breakpoint solve, then `breakpoint_influence`.
    An edge off the returned geodesic costs nothing and gives 0.0.
    """
    box = field.box
    if not (0 <= eid < box.n_edges):
        raise DomainError("edge index out of range")
    if not result.edge_bitset[eid]:
        # the returned geodesic avoids the edge, so raising it never hurts
        # and the positive part vanishes identically
        return 0.0
    t0, t_inf = edge_breakpoint(field, result, eid)
    return breakpoint_influence(dist, result.time, t0, t_inf)


def v_e_plus_bernoulli(field: WeightField, u, v, result: GeodesicResult | None = None):
    """Sum over edges of the squared positive resample increments for a
    two-point edge law with 0 < a < b.

    Only geodesic edges currently at the low value can contribute: any
    other edge admits a route around it at the current cost. Raising a low
    edge to b gives min(geodesic with that edge at b, t_inf), with t_inf
    from geodesic_breakpoints, so a field costs two solves. Returns
    (value, result) so callers can reuse the passage-time solve.
    """
    dist = field.distribution()
    if dist.kind != "bernoulli":
        raise UnsupportedKindError("this energy bound is for two-point edge laws")
    if dist.a <= 0:
        raise UnsupportedParameterError(
            "two-point law must be bounded away from zero (a > 0)"
        )
    if not dist.a < dist.b:
        raise UnsupportedParameterError("two-point law needs a < b")
    if result is None:
        result = passage_time(field, u, v)
    _, t_inf = geodesic_breakpoints(field, result)
    wpath = field.weights[result.edge_ids]
    low = np.flatnonzero(wpath == dist.a)
    t_b = np.minimum(_path_sums(wpath, low, dist.b), t_inf[low])
    total = 0.0
    for t in t_b.tolist():
        total += dist.p * (max(t - result.time, 0.0)) ** 2
    return total, result


@dataclass
class DerivativeCheck:
    """Outcome of the single-edge slope probe and breakpoint sweep."""

    edge: int
    inconclusive: bool
    in_geodesic: bool | None = None
    delta_observed: float | None = None
    delta_expected: float | None = None
    breakpoint: float | None = None
    sweep_y: list | None = None
    sweep_time: list | None = None
    sweep_max_error: float | None = None
    shape_ok: bool | None = None


def geodesic_derivative_check(
    field: WeightField, result: GeodesicResult, eid: int, epsilon: float
) -> DerivativeCheck:
    """Check that the passage time moves by epsilon * 1{e in geodesic} for a
    small upward bump, and that the full weight sweep is slope-1 then flat.

    Requires a unique geodesic; with ties the slope indicator is ill
    defined, so the check reports inconclusive instead of failing.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if not result.unique:
        return DerivativeCheck(edge=int(eid), inconclusive=True)
    box = field.box
    src = box.vertex_index(result.source)
    tgt = box.vertex_index(result.target)
    in_geo = bool(result.edge_bitset[eid])
    wp = field.weights.copy()
    wp[eid] = wp[eid] + epsilon
    bumped = _solve_time(box, wp, src, tgt)
    delta = bumped - result.time
    expected = epsilon if in_geo else 0.0

    t0, t_inf = edge_breakpoint(field, result, eid)
    y_inf = t_inf - t0
    probes = [0.0, 0.25 * y_inf, 0.5 * y_inf, 0.9 * y_inf, 1.5 * y_inf + 1.0]
    times = []
    max_err = 0.0
    for y in probes:
        wq = field.weights.copy()
        wq[eid] = y
        t_y = _solve_time(box, wq, src, tgt)
        times.append(t_y)
        max_err = max(max_err, abs(t_y - min(t0 + y, t_inf)))
    shape_ok = max_err <= 1e-9 * max(t_inf, 1.0)
    return DerivativeCheck(
        edge=int(eid),
        inconclusive=False,
        in_geodesic=in_geo,
        delta_observed=delta,
        delta_expected=expected,
        breakpoint=y_inf,
        sweep_y=[float(y) for y in probes],
        sweep_time=[float(t) for t in times],
        sweep_max_error=float(max_err),
        shape_ok=bool(shape_ok),
    )
