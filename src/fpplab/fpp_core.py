"""Finite-box lattice first passage percolation.

A LatticeBox is an axis-aligned box in Z^d (d = 2 or 3), held as its
shape: every vertex index, edge id and endpoint is arithmetic on it.
Distances are exact Dijkstra runs, with deterministic outputs for a fixed
(spec, seed, replica). A solve that only needs one target's time stops at
the target's tie horizon. The geodesic is a function of the distances and
weights alone, so it does not depend on how the solver broke ties.

A small C kernel, compiled once per machine, runs the solve, the geodesic
scan and the breakpoint pass: the two full solves of a geodesic's ends, its
scan and the replacement paths and path sums read off them, in one call.
It takes the box as its shape: each neighbour of a vertex and each edge id
is arithmetic on the shape. Without a compiler the solve runs on scipy's
csgraph and the passes in Python and numpy, over a CSR graph of the box
built on first use. Each gives the kernel's bytes from the same inputs,
and the tests use them as the kernel's oracles.

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
import itertools
import math
import os
import platform
import shutil
import subprocess
import tempfile
import zlib
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import reporting
from .averaging import OffsetSample
from .distributions import Distribution, parse_spec
from .errors import DomainError, UnsupportedKindError, UnsupportedParameterError, _check_int

TIE_REL_TOL = 1e-12
_KERNEL_SOURCE = Path(__file__).with_name("_dijkstra.c")


def _kernel_path() -> Path:
    """The kernel's file in the per-user cache, by machine type and a
    checksum of the source: its length, CRC-32 and Adler-32, from zlib, so
    that naming the file loads no hash library (hashlib loads OpenSSL)."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    source = _KERNEL_SOURCE.read_bytes()
    digest = f"{len(source):x}-{zlib.crc32(source):08x}{zlib.adler32(source):08x}"
    return cache / "fpplab" / f"dijkstra-{platform.machine()}-{digest}.so"


def _load_kernel():
    """The compiled kernel library, or None without a compiler or if the
    build fails. Its three solver entries are `fpp_dijkstra`
    (LatticeBox.solve), `fpp_geodesic_scan` (passage_time) and
    `fpp_breakpoint_pass` (`_breakpoint_pass`, which geodesic_breakpoints
    and v_e_plus_bernoulli call); with None every one of them runs in
    Python, on scipy's solver. `fpp_arcs` and `fpp_bucket_scale` serve the
    tests, and `fpp_reuse_freed_memory` runs once, at import. On a box of
    at least 4,096 vertices whose sampled mean weight is finite and
    positive and whose sampled weights are not mostly lighter than a
    bucket, `fpp_dijkstra` keeps its keys in buckets: it scans each
    bucket's vertices straight off its list, and its heap orders only the
    keys that a relaxation lowers into the open bucket. `dist` keeps its
    bytes either way, and `pred` breaks ties in the order the vertices are
    scanned (see the kernel's header comment). The breakpoint pass solves
    as `fpp_dijkstra` does, on the same queue.

    The library is cached at `_kernel_path()`. The first import on a
    machine compiles it into a temporary file next to that name and moves
    it into place, so concurrent first imports do not race; later imports
    only load it.
    """
    try:
        lib = _kernel_path()
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
    kernel.fpp_geodesic_scan.argtypes = [
        i32, ptr, ptr, ptr, i32, i32, f64, ctypes.c_int64, ptr, ptr, ptr
    ]
    kernel.fpp_geodesic_scan.restype = ctypes.c_int64
    kernel.fpp_breakpoint_pass.argtypes = [
        i32, ptr, ptr, i32, i32, f64, f64, ctypes.c_int64
    ] + [ptr] * 7
    kernel.fpp_breakpoint_pass.restype = ctypes.c_int64
    kernel.fpp_bucket_scale.argtypes = [i32, ptr, ptr]
    kernel.fpp_bucket_scale.restype = f64
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
        lo = tuple(_check_int(c, "box corner") for c in lo)
        hi = tuple(_check_int(c, "box corner") for c in hi)
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
        """Whether coord, a sequence of integers, is a vertex of the box."""
        coord = [_check_int(c, "vertex coordinate") for c in coord]
        return len(coord) == self.d and all(
            l <= c <= h for c, l, h in zip(coord, self.lo, self.hi)
        )

    def vertex_index(self, coord) -> int:
        if not self.contains(coord):
            raise DomainError(f"vertex {tuple(coord)} outside box {self.lo}..{self.hi}")
        return int(np.ravel_multi_index([int(c) - l for c, l in zip(coord, self.lo)], self.shape))

    def vertex_coord(self, index: int) -> tuple:
        index = _check_int(index, "vertex index", self.n_vertices)
        return tuple(int(c) + l for c, l in zip(np.unravel_index(index, self.shape), self.lo))

    def edge_id(self, coord, axis: int) -> int:
        """Edge from coord to coord + e_axis; DomainError if absent."""
        axis = _check_int(axis, "axis", self.d)
        self.vertex_index(coord)  # DomainError outside the box
        rel = [int(x) - l for x, l in zip(coord, self.lo)]
        if rel[axis] == self.shape[axis] - 1:
            raise DomainError(f"no edge at {tuple(coord)} along axis {axis}")
        return self._offsets[axis] + int(np.ravel_multi_index(rel, self._grids[axis]))

    def edge_endpoints(self, eid: int) -> tuple[tuple, tuple]:
        """(lower endpoint, upper endpoint) of edge eid: `edge_id` inverted."""
        eid = _check_int(eid, "edge index", self.n_edges)
        axis = bisect.bisect_right(self._offsets, eid) - 1
        rel = np.unravel_index(eid - self._offsets[axis], self._grids[axis])
        low = tuple(int(c) + l for c, l in zip(rel, self.lo))
        return low, tuple(c + (k == axis) for k, c in enumerate(low))

    def edges_near(self, center, radius: int) -> np.ndarray:
        """Ids of the edges whose lower endpoint is within L1 radius of
        center, ascending, as int64: per axis, the lower endpoints in the
        ball's bounding box that the ball holds."""
        rel = [_check_int(c, "vertex coordinate") - l for c, l in zip(center, self.lo)]
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
        self,
        weights: np.ndarray,
        source_index: int,
        target_index: int | None = None,
        *,
        pred: bool = True,
    ):
        """Single-source Dijkstra; returns (dist float64, pred int32).

        As scipy's dijkstra: pred is -9999 at the source and at unreachable
        vertices, where dist is inf. Without a target the whole box is
        solved. With one, the solve stops at the target's tie horizon
        T + TIE_REL_TOL * max(T, 1), T the target's distance: dist and pred
        are the full solve's where dist <= that limit, and every vertex
        beyond it reads as unreachable. With pred=False the second element
        is None, and the compiled solve neither allocates nor writes the
        predecessors; dist keeps its bytes. A vertex index that is not an
        integer in range raises DomainError, on either backend, and so do
        negative and NaN weights.
        """
        w = self._checked_weights(weights)
        _check_int(source_index, "source vertex index", self.n_vertices)
        if target_index is not None:
            _check_int(target_index, "target vertex index", self.n_vertices)
        if _KERNEL is None:
            dist, tree = _scipy_solve(self, w, source_index)
            if target_index is not None:
                t = float(dist[target_index])
                beyond = dist > t + TIE_REL_TOL * max(t, 1.0)
                dist[beyond] = np.inf
                tree[beyond] = -9999
            return dist, tree if pred else None
        dist = np.empty(self.n_vertices)
        tree = np.empty(self.n_vertices, dtype=np.int32) if pred else None
        status = _KERNEL.fpp_dijkstra(
            self.d, self._c_shape, w.ctypes.data, int(source_index),
            -1 if target_index is None else int(target_index), TIE_REL_TOL,
            dist.ctypes.data, None if tree is None else tree.ctypes.data,
        )
        if status != 0:
            raise MemoryError("Dijkstra kernel could not allocate its heap")
        return dist, tree

    def _checked_weights(self, weights) -> np.ndarray:
        """weights as the kernel reads them, contiguous float64, or
        DomainError unless there is one per edge, each nonnegative and not
        NaN."""
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != (self.n_edges,):
            raise DomainError(f"expected {self.n_edges} edge weights, got shape {w.shape}")
        if w.size and not w.min() >= 0.0:  # one pass; a NaN fails the test too
            raise DomainError("edge weights must be nonnegative and not NaN")
        return w

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
        """Flat little-endian float64 in edge order plus a JSON sidecar, at
        path_prefix with .f64 and .json appended (a dotted prefix such as
        field.n100 keeps its dot)."""
        bin_path, meta_path = (Path(f"{path_prefix}{ext}") for ext in (".f64", ".json"))
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


def _path_room(box: LatticeBox, src: int, tgt: int) -> int:
    """The scan's first path buffer: twice the lattice distance between the
    ends plus 64 vertices, or every vertex of the box if that is fewer."""
    ends = np.unravel_index([src, tgt], box.shape)
    lattice = sum(abs(int(a) - int(b)) for a, b in ends)
    return min(2 * lattice + 64, box.n_vertices)


def _kernel_geodesic_scan(box: LatticeBox, weights, dist, src: int, tgt: int, tol: float):
    """_geodesic_scan by the kernel's `fpp_geodesic_scan`: the same
    search, arc order and float tests, so the same path, edge ids and ties.
    The path goes into buffers of `_path_room`, and once more into buffers
    of every vertex of the box when it does not fit."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    ties = np.empty(1, dtype=np.int64)
    for room in (_path_room(box, src, tgt), box.n_vertices):
        verts = np.empty(room, dtype=np.int64)
        eids = np.empty(room, dtype=np.int64)
        length = _KERNEL.fpp_geodesic_scan(
            box.d, box._c_shape, w.ctypes.data, dist.ctypes.data, src, tgt, tol, room,
            verts.ctypes.data, eids.ctypes.data, ties.ctypes.data,
        )
        if length != -3:
            break
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
    dist, _ = box.solve(field.weights, src, tgt, pred=False)
    return _geodesic(field, u, v, src, tgt, dist)[0]


def _geodesic(field: WeightField, u, v, src: int, tgt: int, dist: np.ndarray):
    """(GeodesicResult, path vertex indices) from a solve from u, whose
    vertex index is src (tgt is v's).

    dist may be the stopped solve or the full one: they agree bit for bit
    within the tie horizon, and beyond it every distance exceeds the
    horizon, so each test of the scan comes out the same either way.
    """
    box = field.box
    time = float(dist[tgt])
    if not math.isfinite(time):
        raise DomainError("target unreachable (disconnected weights?)")
    scan = _geodesic_scan if _KERNEL is None else _kernel_geodesic_scan
    verts, eids, ties = scan(box, field.weights, dist, src, tgt, TIE_REL_TOL * max(time, 1.0))
    return _geodesic_result(box, u, v, time, verts, eids, ties), verts


def _geodesic_result(box: LatticeBox, u, v, time: float, verts, eids, ties: int):
    """The GeodesicResult of a scan's path vertex indices, edge ids and ties."""
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
    end = tuple(_check_int(c, "vertex coordinate") + s for c, s in zip(v, start, strict=True))
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
    dist, _ = box.solve(w, box.vertex_index(result.source), tgt, pred=False)
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
    eid = _check_int(eid, "edge index", field.box.n_edges)
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


def _breakpoint_pass(field: WeightField, u, v, value: float):
    """(GeodesicResult from u to v, path sums, t_inf): what
    `geodesic_breakpoints` and `v_e_plus_bernoulli` read of a field.

    The geodesic is read off the full solve from u, the same result
    `passage_time` gives. The path sums are the geodesic's weights summed
    left to right with each edge in turn set to value (`_path_sums`), and
    t_inf is each geodesic edge's replacement-path distance from that solve
    and a full one from v (`_replacement_offers`). The kernel's
    `fpp_breakpoint_pass` makes all of this one call, its scan with
    `_kernel_geodesic_scan`'s path room and retry; without it the same
    steps run on scipy's solver and in Python. Either way the labels need a
    positive weight on the edge itself, so a free geodesic edge and a bridge
    (no offer at all) fall back to a re-solve.
    """
    box = field.box
    src = box.vertex_index(u)
    tgt = box.vertex_index(v)
    if _KERNEL is None:
        ds, pred_s = box.solve(field.weights, src)
        result, verts = _geodesic(field, u, v, src, tgt, ds)
        sums = _path_sums(field.weights[result.edge_ids], np.arange(result.length), value)
        t_inf = np.empty(0)
        if result.length:
            dt, pred_t = box.solve(field.weights, tgt)
            t_inf = _replacement_offers(
                box, field.weights, result.edge_bitset, verts, ds, pred_s, dt, pred_t
            )
    else:
        w = box._checked_weights(field.weights)
        n = box.n_vertices
        # one buffer for the doubles (ds, dt, sums, t_inf) and one for the
        # integers (verts, eids, ties), as each `.ctypes.data` read costs
        # about a microsecond
        for room in (_path_room(box, src, tgt), n):
            floats = np.empty(2 * n + 2 * room)
            ints = np.empty(2 * room + 1, dtype=np.int64)
            f, i = floats.ctypes.data, ints.ctypes.data
            length = _KERNEL.fpp_breakpoint_pass(
                box.d, box._c_shape, w.ctypes.data, src, tgt, TIE_REL_TOL, value, room,
                f, f + 8 * n, i, i + 8 * room, i + 16 * room, f + 16 * n, f + 8 * (2 * n + room),
            )
            if length != -3:
                break
        if length == -1:
            raise MemoryError("breakpoint pass could not allocate its work arrays")
        if length == -4:
            raise DomainError("target unreachable (disconnected weights?)")
        if length < 0:
            raise DomainError("no tight path reaches the source")
        result = _geodesic_result(
            box, u, v, float(floats[tgt]), ints[: length + 1],
            ints[room : room + length].copy(), int(ints[2 * room]),
        )
        sums = floats[2 * n : 2 * n + length].copy()
        t_inf = floats[2 * n + room : 2 * n + room + length].copy()
    wpath = field.weights[result.edge_ids]
    for i in np.flatnonzero(np.isinf(t_inf) | (wpath == 0.0)):
        t_inf[i] = _time_with(field, result, int(result.edge_ids[i]), _priced_out(field))
    return result, sums, t_inf


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
    full solves, one from each end (`_breakpoint_pass`): a detour can pass
    vertices farther than the target, beyond the horizon where
    `passage_time` stops.

    result must be the field's geodesic between its endpoints, as
    `passage_time` gives it; DomainError names the first path position
    whose edge differs.
    """
    ours, t0, t_inf = _breakpoint_pass(field, result.source, result.target, 0.0)
    theirs = np.asarray(result.edge_ids)
    if not np.array_equal(theirs, ours.edge_ids):
        common = min(theirs.size, ours.length)
        differ = np.flatnonzero(theirs[:common] != ours.edge_ids[:common])
        at = int(differ[0]) if differ.size else common
        raise DomainError(
            f"result is not this field's geodesic from {ours.source} to {ours.target}: "
            f"its edge ids differ at path position {at}"
        )
    return t0, t_inf


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
    eid = _check_int(eid, "edge index", field.box.n_edges)
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
    edge to b gives min(geodesic with that edge at b, t_inf), both from
    `_breakpoint_pass`, which also gives the geodesic, the same result
    `passage_time` gives. So a field costs two full solves, one from each
    end, which the kernel makes in one call. Returns (value, result) so
    callers can reuse the geodesic.
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
    result, sums, t_inf = _breakpoint_pass(field, u, v, dist.b)
    low = np.flatnonzero(field.weights[result.edge_ids] == dist.a)
    t_b = np.minimum(sums[low], t_inf[low])
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
    eid = _check_int(eid, "edge index", field.box.n_edges)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if not result.unique:
        return DerivativeCheck(edge=eid, inconclusive=True)
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
        edge=eid,
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
