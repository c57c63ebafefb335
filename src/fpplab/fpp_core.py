"""Finite-box lattice first passage percolation.

A LatticeBox is an axis-aligned box in Z^d (d = 2 or 3), held as its
shape: every vertex index, edge id and endpoint is arithmetic on it.
Distances are exact Dijkstra runs, with deterministic outputs for a fixed
(spec, seed, replica). A solve that only needs one target's time stops at
the target's tie horizon. The geodesic is a function of the distances and
weights alone, so it does not depend on how the solver broke ties.

A small C kernel, compiled once per machine, runs the solve, the geodesic
scan and the replacement-path pass over the solves. It takes the box as
its shape: each neighbour of a vertex and each edge id is arithmetic on
the shape. Without a compiler the solve runs on scipy's csgraph and the
two passes in Python and numpy, over a CSR graph of the box built on first
use. Each gives the kernel's bytes from the same inputs, and the tests use
them as the kernel's oracles.

Single-edge perturbations exploit the breakpoint structure of the passage
time: as a function of one edge weight y it is min(t0 + y, t_inf), where
t0 is the passage time with that edge free and t_inf the time with it
priced out. One of the two is free: on the geodesic t0 is the geodesic
re-summed with the edge at zero, off it t_inf is the passage time itself.
So a single-edge breakpoint costs one solve, and the breakpoints of every
geodesic edge together cost a full solve from each end plus a sweep over
the edges (replacement paths). Influence integrals, the two-point energy
and derivative checks are then closed-form arithmetic.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import hashlib
import itertools
import math
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field as dataclass_field
from numbers import Integral
from pathlib import Path

import numpy as np

from . import reporting
from .averaging import OffsetSample
from .distributions import Distribution, parse_spec
from .errors import DomainError, UnsupportedKindError, UnsupportedParameterError

TIE_REL_TOL = 1e-12
_KERNEL_SOURCE = Path(__file__).with_name("_dijkstra.c")


def _load_kernel():
    """The compiled kernel library, or None without a compiler or if the
    build fails. Its three solver entries are `fpp_dijkstra`
    (LatticeBox.solve), `fpp_geodesic_scan` (passage_time) and
    `fpp_replacement_offers` (geodesic_breakpoints); with None every one of
    them runs in Python, on scipy's solver. `fpp_arcs` serves the tests, and
    `fpp_reuse_freed_memory` runs once, at import.

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
                    [cc, "-O3", "-ffp-contract=off", "-shared", "-fPIC", "-o", tmp,
                     str(_KERNEL_SOURCE)],
                    check=True,
                    capture_output=True,
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except (OSError, RuntimeError, subprocess.CalledProcessError):
        return None
    # arrays go in as raw addresses; each caller owns their dtype and layout.
    # Every entry starts with the box as (d, shape), the shape as the bytes
    # of d C int32s (`LatticeBox._c_shape`).
    ptr, i32, f64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_double
    kernel.fpp_dijkstra.argtypes = [i32, ptr, ptr, i32, i32, f64, ptr, ptr]
    kernel.fpp_dijkstra.restype = ctypes.c_int
    kernel.fpp_geodesic_scan.argtypes = [i32, ptr, ptr, ptr, i32, i32, f64, ptr, ptr, ptr]
    kernel.fpp_geodesic_scan.restype = ctypes.c_int64
    kernel.fpp_replacement_offers.argtypes = [i32] + [ptr] * 7 + [i32, ptr, ptr]
    kernel.fpp_replacement_offers.restype = ctypes.c_int
    kernel.fpp_arcs.argtypes = [i32, ptr, i32, ptr, ptr]
    kernel.fpp_arcs.restype = ctypes.c_int
    kernel.fpp_reuse_freed_memory.argtypes = []
    kernel.fpp_reuse_freed_memory.restype = None
    return kernel


_KERNEL = _load_kernel()
if _KERNEL is not None:
    _KERNEL.fpp_reuse_freed_memory()  # see README, "Start-up and memory"


def _scipy_solve(box: LatticeBox, weights: np.ndarray, source_index: int):
    """The full LatticeBox.solve by scipy's csgraph: the fallback and the
    test oracle."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    indptr, indices, perm = box._csr
    graph = csr_matrix((weights[perm], indices, indptr), shape=(box.n_vertices,) * 2)
    return dijkstra(graph, directed=True, indices=source_index, return_predecessors=True)


class LatticeBox:
    """Axis-aligned box of Z^d with a fixed edge indexing.

    Edges are indexed lexicographically by (lower endpoint, axis): all
    axis-0 edges in vertex order, then all axis-1 edges, and so on. So
    every neighbour and edge id is arithmetic on the shape, and the box
    holds nothing else until `_csr` is first read.
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
        self.n_vertices = math.prod(self.shape)
        if self.n_vertices * self.d >= 2**31:
            raise DomainError("box too large: its edge ids must fit in 32 bits")
        self.strides = np.array(
            [math.prod(self.shape[ax + 1 :]) for ax in range(self.d)], dtype=np.int64
        )
        # the axis-a edges' lower endpoints form the box one shorter along a,
        # and edge (x, x + e_a) has id off_a (the kernel's: the edges along
        # the axes below a) plus x's row-major index in that grid
        self._grids = tuple(
            tuple(s - (k == a) for k, s in enumerate(self.shape)) for a in range(self.d)
        )
        counts = [math.prod(grid) for grid in self._grids]
        self._offsets = tuple(itertools.accumulate([0] + counts[:-1]))
        self.n_edges = sum(counts)
        # ctypes passes bytes by the address of their buffer, so the shape
        # goes to the kernel without a `.ctypes.data` read (about 2 us)
        self._c_shape = np.array(self.shape, dtype=np.int32).tobytes()

    @functools.cached_property
    def _csr(self):
        """(indptr, indices, edge id of each arc): the box as a CSR graph
        whose rows list each vertex's neighbours in increasing index, the
        kernel's arc order. Built on first use, for the scipy solve and the
        Python passes, which are the fallback and the test oracles. Its edge
        list is sliced from the vertex grid, independently of `edge_id`."""
        idx = np.arange(self.n_vertices).reshape(self.shape)
        heads, tails = [], []
        for ax in range(self.d):  # the grid without its last, then its first layer
            heads.append(np.delete(idx, -1, axis=ax).ravel())
            tails.append(np.delete(idx, 0, axis=ax).ravel())
        rows, cols = np.concatenate(heads + tails), np.concatenate(tails + heads)
        order = np.lexsort((cols, rows))
        indptr = np.searchsorted(rows[order], np.arange(self.n_vertices + 1))
        eids = np.tile(np.arange(self.n_edges, dtype=np.int32), 2)
        return indptr.astype(np.int32), cols[order].astype(np.int32), eids[order]

    # vertex and edge addressing -----------------------------------------
    def contains(self, coord) -> bool:
        return all(l <= int(c) <= h for c, l, h in zip(coord, self.lo, self.hi))

    def vertex_index(self, coord) -> int:
        if len(coord) != self.d or not self.contains(coord):
            raise DomainError(f"vertex {tuple(coord)} outside box {self.lo}..{self.hi}")
        return int(np.ravel_multi_index([int(c) - l for c, l in zip(coord, self.lo)], self.shape))

    def vertex_coord(self, index: int) -> tuple:
        if not (0 <= index < self.n_vertices):
            raise DomainError("vertex index out of range")
        return tuple(int(c) + l for c, l in zip(np.unravel_index(index, self.shape), self.lo))

    def edge_id(self, coord, axis: int) -> int:
        """Edge from coord to coord + e_axis; DomainError if absent."""
        if not (0 <= axis < self.d):
            raise DomainError(f"axis must be in 0..{self.d - 1}")
        self.vertex_index(coord)  # DomainError outside the box
        rel = [int(x) - l for x, l in zip(coord, self.lo)]
        if rel[axis] == self.shape[axis] - 1:
            raise DomainError(f"no edge at {tuple(coord)} along axis {axis}")
        return self._offsets[axis] + int(np.ravel_multi_index(rel, self._grids[axis]))

    def edge_endpoints(self, eid: int) -> tuple[tuple, tuple]:
        """(lower endpoint, upper endpoint) of edge eid: `edge_id` inverted."""
        if not (0 <= eid < self.n_edges):
            raise DomainError("edge index out of range")
        axis = bisect.bisect_right(self._offsets, eid) - 1
        rel = np.unravel_index(int(eid) - self._offsets[axis], self._grids[axis])
        low = tuple(int(c) + l for c, l in zip(rel, self.lo))
        return low, tuple(c + (k == axis) for k, c in enumerate(low))

    def edges_near(self, center, radius: int) -> np.ndarray:
        """Ids of the edges whose lower endpoint is within L1 radius of
        center, ascending, as int64: per axis, the lower endpoints in the
        ball's bounding box that the ball holds."""
        rel = [int(c) - l for c, l in zip(center, self.lo)]
        ids = []
        for off, grid in zip(self._offsets, self._grids):
            spans = [np.arange(max(c - radius, 0), min(c + radius + 1, s))
                     for c, s in zip(rel, grid)]
            dist = sum(np.abs(x - c) for x, c in zip(np.ix_(*spans), rel))
            hit = np.nonzero(dist <= radius)
            low = tuple(x[i] for x, i in zip(spans, hit))
            ids.append(off + np.ravel_multi_index(low, grid).astype(np.int64))
        return np.concatenate(ids)

    # solving -------------------------------------------------------------
    def solve(
        self, weights: np.ndarray, source_index: int, target_index: int | None = None
    ):
        """Single-source Dijkstra; returns (dist float64, pred int32).

        As scipy's dijkstra: pred is -9999 at the source and at unreachable
        vertices, where dist is inf. Without a target the whole box is
        solved. With one, the solve stops at the target's tie horizon
        T + TIE_REL_TOL * max(T, 1), T the target's distance: dist and pred
        are the full solve's where dist <= that limit, and every vertex
        beyond it reads as unreachable. A vertex index that is not an
        integer in range raises DomainError, on either backend, and so do
        negative and NaN weights.
        """
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != (self.n_edges,):
            raise DomainError(f"expected {self.n_edges} edge weights, got shape {w.shape}")
        if w.size and not w.min() >= 0.0:  # one pass; a NaN fails the test too
            raise DomainError("edge weights must be nonnegative and not NaN")
        self._check_index(source_index, "source")
        if target_index is not None:
            self._check_index(target_index, "target")
        if _KERNEL is None:
            dist, pred = _scipy_solve(self, w, source_index)
            if target_index is not None:
                t = float(dist[target_index])
                beyond = dist > t + TIE_REL_TOL * max(t, 1.0)
                dist[beyond] = np.inf
                pred[beyond] = -9999
            return dist, pred
        dist = np.empty(self.n_vertices)
        pred = np.empty(self.n_vertices, dtype=np.int32)
        status = _KERNEL.fpp_dijkstra(
            self.d, self._c_shape, w.ctypes.data, int(source_index),
            -1 if target_index is None else int(target_index), TIE_REL_TOL,
            dist.ctypes.data, pred.ctypes.data,
        )
        if status != 0:
            raise MemoryError("Dijkstra kernel could not allocate its heap")
        return dist, pred

    def _check_index(self, index, name: str) -> None:
        if not isinstance(index, Integral) or isinstance(index, bool):
            raise DomainError(f"{name} vertex index must be an integer, got {index!r}")
        if not 0 <= index < self.n_vertices:
            raise DomainError(f"{name} vertex index out of range")

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
        if w.size and not w.min() >= 0.0:  # one pass; a NaN fails the test too
            raise DomainError("edge times must be nonnegative and not NaN")
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

    @property
    def length(self) -> int:
        return int(self.edge_ids.size)


def _geodesic_scan(box: LatticeBox, weights, dist, src: int, tgt: int, tol: float):
    """(vertices, edge ids, ties) of the canonical geodesic, source first.

    The geodesic is the tight path (dist[u] + w == dist[v] on each arc
    u -> v) with the fewest edges, found by a breadth-first search back
    from the target: arcs are scanned in increasing neighbour index, each
    vertex records the first scanned vertex and edge that reached it, and
    the search stops once the vertex that reached the source is scanned.
    So among equal paths each vertex steps to the earliest-scanned vertex
    its tight arcs lead to, and the path depends on dist and the weights
    only, never on how the solver broke ties. On a continuous law only the
    L path vertices after the source are scanned: L * (1 + 2d) dist reads.

    A tie is an in-arc other than the path's own that reaches a path vertex
    within tol of its distance. A second geodesic must rejoin the path at a
    vertex with two such in-arcs, so the count detects every multiplicity.
    Scalar reads, as a vertex has 2d arcs: through memoryviews, and dist
    through its own `item`, so an ndarray subclass sees every read of it.
    """
    indptr, nbr, eid = map(memoryview, box._csr)
    w, d = memoryview(weights), dist.item
    reached = {tgt: None}  # vertex -> (the vertex it leads to, edge id)
    near = {}  # scanned vertex -> its in-arcs within tol
    queue = [tgt]
    for v in queue:  # also takes the vertices appended below
        if src in reached:
            break
        dv = d(v)
        limit, count = dv + tol, 0
        for j in range(indptr[v], indptr[v + 1]):
            u, e = nbr[j], eid[j]
            reach = d(u) + w[e]
            if reach <= limit:
                count += 1
                if reach == dv and u not in reached:
                    reached[u] = (v, e)
                    queue.append(u)
        near[v] = count
    verts, eids = [src], []
    while verts[-1] != tgt:
        v, e = reached[verts[-1]]
        verts.append(v)
        eids.append(e)
    ties = sum(near[v] for v in verts[1:]) - len(eids)
    return np.asarray(verts, dtype=np.int64), np.asarray(eids, dtype=np.int64), ties


def _kernel_geodesic_scan(box: LatticeBox, weights, dist, src: int, tgt: int, tol: float):
    """_geodesic_scan by the kernel's `fpp_geodesic_scan`: the same
    search, arc order and float tests, so the same path, edge ids and ties."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    verts = np.empty(box.n_vertices, dtype=np.int64)
    eids = np.empty(box.n_vertices, dtype=np.int64)
    ties = np.empty(1, dtype=np.int64)
    length = _KERNEL.fpp_geodesic_scan(
        box.d, box._c_shape, w.ctypes.data, dist.ctypes.data, src, tgt, tol,
        verts.ctypes.data, eids.ctypes.data, ties.ctypes.data,
    )
    if length == -1:
        raise MemoryError("geodesic scan could not allocate its work arrays")
    if length < 0:
        raise DomainError("no tight path reaches the source")
    return verts[: length + 1].copy(), eids[:length].copy(), int(ties[0])


def passage_time(field: WeightField, u, v) -> GeodesicResult:
    """Exact shortest passage time and geodesic between box vertices u, v."""
    box = field.box
    src = box.vertex_index(u)
    tgt = box.vertex_index(v)
    dist, _ = box.solve(field.weights, src, tgt)
    time = float(dist[tgt])
    if not math.isfinite(time):
        raise DomainError("target unreachable (disconnected weights?)")
    scan = _geodesic_scan if _KERNEL is None else _kernel_geodesic_scan
    verts, eids, ties = scan(box, field.weights, dist, src, tgt, TIE_REL_TOL * max(time, 1.0))
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


def _time_with(field: WeightField, result: GeodesicResult, eid: int, y) -> float:
    """Passage time between result's endpoints with edge eid set to y: the
    one breakpoint solve."""
    box = field.box
    w = field.weights.copy()
    w[eid] = y
    tgt = box.vertex_index(result.target)
    dist, _ = box.solve(w, box.vertex_index(result.source), tgt)
    return float(dist[tgt])


def _priced_out(field: WeightField) -> float:
    """An edge weight above every self-avoiding path."""
    return float(field.weights.sum()) + 1.0


def _path_sums(wpath: np.ndarray, positions, value: float) -> np.ndarray:
    """For each position i, the path weights summed left to right with
    entry i set to value: the sum Dijkstra forms along that path, bit for
    bit (np.sum would add pairwise). Each sum continues the left-to-right
    prefix before entry i, one scalar addition at a time."""
    w = wpath.tolist()
    prefix = list(itertools.accumulate(w))
    value = float(value)
    sums = []
    for i in np.asarray(positions, dtype=np.int64).tolist():
        s = prefix[i - 1] + value if i else value
        for x in w[i + 1 :]:
            s += x
        sums.append(s)
    return np.array(sums, dtype=float)


def edge_breakpoint(field: WeightField, result: GeodesicResult, eid: int):
    """(t0, t_inf): passage time with edge eid free and priced out.

    The passage time as a function of that one edge weight y is exactly
    min(t0 + y, t_inf); t_inf - t0 is the breakpoint level. One solve: on
    the geodesic t0 is the geodesic re-summed with the edge at zero, off
    it t_inf is result.time.
    """
    if not (0 <= eid < field.box.n_edges):
        raise DomainError("edge index out of range")
    if result.edge_bitset[eid]:
        i = int(np.flatnonzero(result.edge_ids == eid)[0])
        t0 = float(_path_sums(field.weights[result.edge_ids], [i], 0.0)[0])
        return t0, _time_with(field, result, eid, _priced_out(field))
    return _time_with(field, result, eid, 0.0), result.time


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


def _replacement_offers(box: LatticeBox, w, on_path, verts, ds, pred_s, dt, pred_t):
    """t_inf of each geodesic edge from the two full solves, before the
    re-solve fallback: the labels, offer table and running-minimum scans
    of `geodesic_breakpoints`, in numpy. An edge with no offer reads inf."""
    n_path = verts.size - 1
    path_pos = np.full(box.n_vertices, -1, dtype=np.int64)
    path_pos[verts] = np.arange(n_path + 1)
    lab_s = _geodesic_labels(pred_s, path_pos, verts)
    lab_t = _geodesic_labels(pred_t, path_pos, verts)

    indptr, y, eid = box._csr  # every arc x -> y, both ways along each edge
    x = np.repeat(np.arange(box.n_vertices), np.diff(indptr))
    a, b = lab_s[x], lab_t[y]
    keep = (a < b) & ~on_path[eid]
    x, y, eid = x[keep], y[keep], eid[keep]
    offers = np.full((n_path + 1, n_path + 1), np.inf)
    np.minimum.at(offers, (a[keep], b[keep]), ds[x] + w[eid] + dt[y])
    # best[i, j] = min over offers with a <= i and b >= j
    best = np.minimum.accumulate(offers, axis=0)
    best = np.minimum.accumulate(best[:, ::-1], axis=1)[:, ::-1]
    return best[np.arange(n_path), np.arange(1, n_path + 1)]


def _kernel_replacement_offers(box: LatticeBox, w, on_path, verts, ds, pred_s, dt, pred_t):
    """_replacement_offers by the kernel's `fpp_replacement_offers`: the
    labels by a memoised walk up each tree, then the same offers, each the
    same two IEEE additions, into the same table and scans, so the same
    bits."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    on_path = np.ascontiguousarray(on_path, dtype=np.bool_)
    verts = np.ascontiguousarray(verts, dtype=np.int64)
    t_inf = np.empty(verts.size - 1)
    status = _KERNEL.fpp_replacement_offers(
        box.d, box._c_shape, w.ctypes.data, ds.ctypes.data, pred_s.ctypes.data,
        dt.ctypes.data, pred_t.ctypes.data, verts.ctypes.data, t_inf.size,
        on_path.ctypes.data, t_inf.ctypes.data,
    )
    if status != 0:
        raise MemoryError("replacement-path pass could not allocate its work arrays")
    return t_inf


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
    an (L+1) x (L+1) table and two running-minimum scans, so this costs two
    full solves, one from each end: a detour can pass vertices farther
    than the target, beyond the horizon where `passage_time` stops.

    The labels need a positive weight on the edge itself; free geodesic
    edges and bridges (no offer at all) fall back to a re-solve.
    """
    wpath = field.weights[result.edge_ids]
    return _path_sums(wpath, np.arange(result.length), 0.0), _replacement_times(field, result)


def _replacement_times(field: WeightField, result: GeodesicResult) -> np.ndarray:
    """The t_inf half of `geodesic_breakpoints`."""
    box = field.box
    w = field.weights
    if result.length == 0:
        return np.empty(0)
    verts = (result.path - np.asarray(box.lo)) @ box.strides
    ds, pred_s = box.solve(w, int(verts[0]))
    dt, pred_t = box.solve(w, int(verts[-1]))
    offers = _replacement_offers if _KERNEL is None else _kernel_replacement_offers
    t_inf = offers(box, w, result.edge_bitset, verts, ds, pred_s, dt, pred_t)
    wpath = w[result.edge_ids]
    for i in np.flatnonzero(np.isinf(t_inf) | (wpath == 0.0)):
        t_inf[i] = _time_with(field, result, int(result.edge_ids[i]), _priced_out(field))
    return t_inf


def breakpoint_influence(dist: Distribution, time: float, t0: float, t_inf: float) -> float:
    """W_{e,+} = E (min(t0 + Y, t_inf) - time)+ for Y ~ dist, in closed form.

    With the edge's breakpoint (t0, t_inf) and time = min(t0 + x_e, t_inf),
    the gain is (Y - (time - t0))+ - (Y - (t_inf - t0))+, so its mean is a
    difference of two mean excesses. It is as exact as `dist.upper_mean`:
    closed form for the parametric and two-point laws, and the trapezoid
    rule on 20001 (`Truncated`) or 4001 (`Tabulated`) nodes otherwise.
    """
    return float(dist.upper_mean(time - t0) - dist.upper_mean(t_inf - t0))


def edge_influence(
    field: WeightField, result: GeodesicResult, eid: int, dist: Distribution
) -> float:
    """W_{e,+}: expected positive change of the passage time when edge eid
    is independently resampled from `dist`.

    One breakpoint solve, then `breakpoint_influence`, so it is exact except
    for the quadrature in `upper_mean` of `Truncated` and `Tabulated`.
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


def v_e_plus_bernoulli(field: WeightField, u, v):
    """Sum over edges of the squared positive resample increments for a
    two-point edge law with 0 < a < b.

    Only geodesic edges currently at the low value can contribute: any
    other edge admits a route around it at the current cost. Raising a low
    edge to b gives min(geodesic with that edge at b, t_inf), with t_inf
    from `_replacement_times`, so a field costs three solves: the stopped
    passage-time solve and two full ones. Returns
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
    result = passage_time(field, u, v)
    t_inf = _replacement_times(field, result)
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
    in_geo = bool(result.edge_bitset[eid])
    delta = _time_with(field, result, eid, field.weights[eid] + epsilon) - result.time
    expected = epsilon if in_geo else 0.0

    t0, t_inf = edge_breakpoint(field, result, eid)
    y_inf = t_inf - t0
    probes = [0.0, 0.25 * y_inf, 0.5 * y_inf, 0.9 * y_inf, 1.5 * y_inf + 1.0]
    times = []
    max_err = 0.0
    for y in probes:
        t_y = _time_with(field, result, eid, y)
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
