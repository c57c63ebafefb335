"""Independent reference computations used to freeze expected values.

These deliberately avoid the library's own code paths: the Gaussian oracle
runs mpmath at 50 digits, the shortest-path oracle enumerates every
self-avoiding path, and the martingale oracle computes conditional
expectations by direct summation over the hypercube.
"""

from __future__ import annotations

import math

import numpy as np

from fpplab import AveragingMap, GeodesicResult, fpp_core


def mp():
    import mpmath

    mpmath.mp.dps = 50
    return mpmath


def gauss_cdf_oracle(x: float) -> float:
    m = mp()
    return float(m.ncdf(m.mpf(x)))


def gauss_quantile_oracle(p: float) -> float:
    """Bisection on the high-precision CDF."""
    m = mp()
    target = m.mpf(p)
    lo, hi = m.mpf(-40), m.mpf(40)
    for _ in range(200):
        mid = (lo + hi) / 2
        if m.ncdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def gauss_pdf_oracle(x: float) -> float:
    m = mp()
    return float(m.npdf(m.mpf(x)))


def gauss_log_cdf_oracle(x: float) -> float:
    m = mp()
    return float(m.log(m.ncdf(m.mpf(x))))


def gauss_quantile_from_log_cdf_oracle(logp: float) -> float:
    """Newton's method on the high-precision log CDF from -sqrt(-2 log p),
    which lies left of the root; log G is concave, so the iterates climb
    to it."""
    m = mp()
    target = m.mpf(logp)
    x = -m.sqrt(-2 * target)
    for _ in range(100):
        step = (m.log(m.ncdf(x)) - target) * m.ncdf(x) / m.npdf(x)
        x -= step
        if abs(step) <= m.mpf(10) ** -40 * max(1, abs(x)):
            break
    return float(x)


def erfcx_chebyshev_coefficients(n: int, k: float = 3.75, nodes: int = 96) -> list:
    """The first n Chebyshev coefficients, interpolated at 60 digits on
    `nodes` Chebyshev points, of ((1 + 2z) erfcx(z) - 1) / (1 + t) as a
    function of t = (z - k)/(z + k), erfcx(z) = exp(z^2) erfc(z): the series
    of fpplab.gaussian."""
    m = mp()
    with m.workdps(60):
        k = m.mpf(k)

        def f(t):  # t = cos(angle) < 1 at every node
            z = k * (1 + t) / (1 - t)
            return ((1 + 2 * z) * m.erfc(z) * m.exp(z * z) - 1) / (1 + t)

        angles = [m.pi * (i + m.mpf(1) / 2) / nodes for i in range(nodes)]
        vals = [f(m.cos(a)) for a in angles]
        coef = [2 * m.fsum(v * m.cos(j * a) for v, a in zip(vals, angles)) / nodes
                for j in range(n)]
        coef[0] /= 2
        return [float(c) for c in coef]


def enumerate_self_avoiding_paths(shape, src, dst):
    """Every self-avoiding path src -> dst on the grid graph with the given
    vertex-grid shape, as lists of vertex tuples."""
    d = len(shape)

    def nbrs(v):
        for ax in range(d):
            for step in (-1, 1):
                w = list(v)
                w[ax] += step
                if 0 <= w[ax] < shape[ax]:
                    yield tuple(w)

    paths = []
    stack = [(src, (src,), frozenset((src,)))]
    while stack:
        v, path, seen = stack.pop()
        if v == dst:
            paths.append(list(path))
            continue
        for w in nbrs(v):
            if w not in seen:
                stack.append((w, path + (w,), seen | {w}))
    return paths


def brute_force_passage_time(box, weights, u, v):
    """Minimum path weight by exhaustive self-avoiding path enumeration.

    Endpoints are absolute lattice coordinates inside the box; the path
    count explodes quickly, so keep boxes tiny.
    """
    lo = np.asarray(box.lo)
    shape = box.shape
    src = tuple(int(c) for c in (np.asarray(u) - lo))
    dst = tuple(int(c) for c in (np.asarray(v) - lo))
    best = np.inf
    for path in enumerate_self_avoiding_paths(shape, src, dst):
        total = 0.0
        for a, b in zip(path, path[1:]):
            a_abs = tuple(int(x) for x in (np.asarray(a) + lo))
            b_abs = tuple(int(x) for x in (np.asarray(b) + lo))
            lo_c, hi_c = (a_abs, b_abs) if a_abs <= b_abs else (b_abs, a_abs)
            axis = int(np.nonzero(np.asarray(hi_c) - np.asarray(lo_c))[0][0])
            total += weights[box.edge_id(lo_c, axis)]
        best = min(best, total)
    return best


def fewest_tight_edges(box, weights, dist, src, tgt):
    """Edge count of the shortest tight path from vertex index src to tgt,
    an arc a -> b being tight when dist[a] + w == dist[b] (dist from a full
    solve). Boxes of at most 12 vertices enumerate every self-avoiding
    path; larger ones take the unweighted hop count of scipy's csgraph on
    the tight-arc subgraph."""
    if box.n_vertices <= 12:
        lo = np.asarray(box.lo)

        def index(rel):
            return box.vertex_index(tuple(int(c) for c in np.asarray(rel) + lo))

        def tight(a, b):
            step = np.asarray(b) - np.asarray(a)
            axis = int(np.flatnonzero(step)[0])
            low = tuple(int(c) for c in np.minimum(a, b) + lo)
            return dist[index(a)] + weights[box.edge_id(low, axis)] == dist[index(b)]

        rel = [np.unravel_index(i, box.shape) for i in (src, tgt)]
        return min(
            len(path) - 1
            for path in enumerate_self_avoiding_paths(box.shape, *map(tuple, rel))
            if all(tight(a, b) for a, b in zip(path, path[1:]))
        )
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    indptr, cols, eids = box._csr
    rows = np.repeat(np.arange(box.n_vertices), np.diff(indptr))
    keep = dist[rows] + weights[eids] == dist[cols]
    graph = csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])),
        shape=(box.n_vertices, box.n_vertices),
    )
    return int(shortest_path(graph, directed=True, unweighted=True, indices=src)[tgt])


def martingale_increments_oracle(table):
    """V_j = E[f | x_j..x_n] - E[f | x_(j+1)..x_n] by direct summation."""
    n = table.n
    p = table.p
    vals = table.values
    full = np.arange(1 << n)

    def cond_exp(keep_from):
        """E[f | coordinates keep_from..n], returned as a full table."""
        out = np.zeros(1 << n)
        for idx in range(1 << n):
            total = 0.0
            weight = 0.0
            for other in range(1 << n):
                # other must agree with idx on coordinates keep_from..n
                agree = True
                for j in range(keep_from, n + 1):
                    bit = n - j
                    if (idx >> bit) & 1 != (other >> bit) & 1:
                        agree = False
                        break
                if not agree:
                    continue
                w = 1.0
                for j in range(1, keep_from):
                    bit = n - j
                    pj = p[j - 1]
                    w *= pj if (other >> bit) & 1 else 1.0 - pj
                total += w * vals[other]
                weight += w
            out[idx] = total / weight
        return out

    increments = []
    for j in range(1, n + 1):
        increments.append(cond_exp(j) - cond_exp(j + 1))
    return increments


def full_solve_passage_time(field, u, v):
    """passage_time from a full solve of the box: the geodesic search and
    tie count over every distance, not only those inside the tie horizon."""
    box = field.box
    src, tgt = box.vertex_index(u), box.vertex_index(v)
    dist, _ = box.solve(field.weights, src)
    time = float(dist[tgt])
    verts, eids, ties = fpp_core._geodesic_scan(
        box, field.weights, dist, src, tgt, fpp_core.TIE_REL_TOL * max(time, 1.0)
    )
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


def random_box(rng):
    """A random 2D or 3D box, with sides of length 1 among them, anywhere
    near the origin."""
    d = int(rng.integers(2, 4))
    lo = tuple(int(c) for c in rng.integers(-3, 3, size=d))
    sides = rng.integers(1, 13 if d == 2 else 6, size=d)
    return fpp_core.LatticeBox(lo, tuple(int(c) for c in np.asarray(lo) + sides - 1))


def csr_lower_endpoints(box):
    """The lower endpoint of each edge, by vertex index, read from the
    box's CSR graph: the edge list that `edge_id` and `edge_endpoints`
    compute in closed form."""
    indptr, indices, eids = box._csr
    rows = np.repeat(np.arange(box.n_vertices), np.diff(indptr))
    lower = np.empty(box.n_edges, dtype=np.int64)
    lower[eids] = np.minimum(rows, indices)
    return lower


def csr_dijkstra(box, weights, src, tgt=None):
    """(dist, pred) of LatticeBox.solve by the solve the kernel made before
    it read the box from its shape, line for line in Python: the same
    indexed 4-ary heap with +inf keys past its end, the same sift tests,
    the settled and unseen marks in `pos`, and the arcs of each vertex
    read from the box's CSR rows, in increasing neighbour index."""
    indptr, indices, perm = (a.tolist() for a in box._csr)
    w = np.asarray(weights, dtype=np.float64).tolist()
    n, inf, unseen, settled = box.n_vertices, math.inf, -1, -2
    keys, verts = [inf] * (n + 4), [0] * (n + 4)
    pos, dist, pred = [unseen] * n, [inf] * n, [-9999] * n
    dist[src], keys[0], verts[0], pos[src] = 0.0, 0.0, src, 0
    size, limit = 1, inf

    def place(i, key, v):
        keys[i], verts[i] = key, v
        pos[v] = i

    def sift_up(i, key, v):
        while i > 0:
            parent = (i - 1) >> 2
            if keys[parent] <= key:
                break
            place(i, keys[parent], verts[parent])
            i = parent
        place(i, key, v)

    def sift_down(i, key, v):
        while True:
            c = 4 * i + 1
            if c >= size:
                break
            a = c + (keys[c + 1] < keys[c])
            b = c + 2 + (keys[c + 3] < keys[c + 2])
            c = a + (b - a) * (keys[b] < keys[a])
            if keys[c] >= key:
                break
            place(i, keys[c], verts[c])
            i = c
        place(i, key, v)

    while size > 0:
        u, du = verts[0], keys[0]
        if du > limit:
            break
        if u == tgt:
            limit = du + fpp_core.TIE_REL_TOL * max(du, 1.0)
        pos[u] = settled
        size -= 1
        last = keys[size], verts[size]
        keys[size] = inf
        if size > 0:
            sift_down(0, *last)
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            if pos[v] == settled:
                continue
            nd = du + w[perm[j]]
            if nd < dist[v]:
                dist[v], pred[v] = nd, u
                if pos[v] == unseen:
                    size += 1
                    sift_up(size - 1, nd, v)
                else:
                    sift_up(pos[v], nd, v)
    for v in verts[:size]:
        dist[v], pred[v] = inf, -9999
    return np.array(dist), np.array(pred, dtype=np.int32)


def two_solve_breakpoint(field, result, eid):
    """(t0, t_inf) for one edge from two full solves: the edge set to zero,
    then priced above every self-avoiding path."""
    box = field.box
    src = box.vertex_index(result.source)
    tgt = box.vertex_index(result.target)
    w = field.weights.copy()
    w[eid] = 0.0
    t0 = float(box.solve(w, src)[0][tgt])
    w[eid] = float(field.weights.sum()) + 1.0
    t_inf = float(box.solve(w, src)[0][tgt])
    return t0, t_inf


def matrix_path_sums(wpath, positions, value):
    """For each position i, the path weights with entry i set to value,
    summed left to right: one row per position, the L x L matrix
    accumulated along its rows (np.add.accumulate is sequential)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0)
    rows = np.tile(wpath, (positions.size, 1))
    rows[np.arange(positions.size), positions] = value
    return np.add.accumulate(rows, axis=1)[:, -1]


def seeded_offset(master_seed, replica, m, d):
    """The randomized endpoint offset of one replica, drawn as the harness
    first drew it: d rows of m^2 bits from SeedSequence((master_seed,
    replica, 0x0FF5E7)), each row mapped through the level function g_m."""
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, replica, 0x0FF5E7)))
    bits = rng.integers(0, 2, size=(d, m * m), dtype=np.uint8)
    amap = AveragingMap(m)
    return np.array([amap.level(row) for row in bits], dtype=np.int64)


def antithetic_mc_influence(field, result, eid, dist, resamples, rng):
    """W_{e,+} by Monte Carlo: the mean gain over `resamples` antithetic
    quantile draws of the edge weight, with two-solve breakpoints."""
    t0, t_inf = two_solve_breakpoint(field, result, eid)
    u = rng.random((resamples + 1) // 2)
    ys = np.concatenate([dist.quantile(u), dist.quantile(1.0 - u)])
    return float(np.mean(np.maximum(np.minimum(t0 + ys, t_inf) - result.time, 0.0)))


def serial_exact_probe_influence(cfg, n, m, exact_n, probe_ids):
    """Probe W_{e,+} squares and Lipschitz W_+ squares, each averaged over
    replicas 0..exact_n-1: every replica regenerated and re-solved serially,
    with two-solve breakpoints."""
    from fpplab import experiments as E

    dist = E.parse_spec(cfg.dist_spec)
    box = E.box_for(cfg, n)
    w_sq = np.zeros(len(probe_ids))
    s_sq_sum = 0.0
    for r in range(exact_n):
        field = E.WeightField.generate(box, dist, cfg.master_seed, r)
        if m > 0:
            z = seeded_offset(cfg.master_seed, r, m, box.d)
        else:
            z = np.zeros(box.d, dtype=np.int64)
        u = tuple(int(c) for c in z)
        v = list(u)
        v[0] += n
        res = E.passage_time(field, u, tuple(v))
        w_e = np.zeros(len(probe_ids))
        for j, eid in enumerate(probe_ids):
            if not res.edge_bitset[eid]:
                continue
            t0, t_inf = two_solve_breakpoint(field, res, eid)
            w_e[j] = dist.upper_mean(res.time - t0) - dist.upper_mean(t_inf - t0)
        w_plus = float(
            np.sum([dist.upper_mean(float(x)) for x in field.weights[res.edge_ids]])
        )
        w_sq += w_e**2
        s_sq_sum += w_plus**2
    w_sq /= max(exact_n, 1)
    return w_sq, s_sq_sum / max(exact_n, 1)


def tuple_fold_batch(cfg, n, m, want_edges=False, probe_ids=(), exact_replicas=0):
    """One (n, m) cell as the replica loop used to build it: a serial loop
    of per-replica tuples, folded field by field into a ReplicaBatch."""
    from fpplab import experiments as E

    box = E.box_for(cfg, n)
    dist = E.parse_spec(cfg.dist_spec)
    probe_ids = np.asarray(probe_ids, dtype=np.int64)
    flat = []
    for r in range(cfg.replicas):
        field = E.WeightField.generate(box, dist, cfg.master_seed, r)
        if m > 0:
            z = seeded_offset(cfg.master_seed, r, m, box.d)
        else:
            z = np.zeros(box.d, dtype=np.int64)
        v = z.copy()
        v[0] += n
        res = E.passage_time(field, tuple(int(c) for c in z), tuple(int(c) for c in v))
        presence = res.edge_bitset[probe_ids] if probe_ids.size else np.empty(0, bool)
        exact = None
        if r < exact_replicas:
            w_e = np.zeros(len(probe_ids))
            for j, eid in enumerate(probe_ids):
                if res.edge_bitset[eid]:
                    t0, t_inf = E.edge_breakpoint(field, res, int(eid))
                    w_e[j] = dist.upper_mean(res.time - t0) - dist.upper_mean(t_inf - t0)
            w_plus = float(
                np.sum([dist.upper_mean(float(x)) for x in field.weights[res.edge_ids]])
            )
            exact = (w_e, w_plus)
        flat.append(
            (res.time, res.length, res.ties, presence.astype(np.uint8),
             res.edge_ids if want_edges else None, exact)
        )
    exact = [f[5] for f in flat[:exact_replicas]]
    return E.ReplicaBatch(
        n=n,
        m=m,
        times=np.array([f[0] for f in flat]),
        geo_len=np.array([f[1] for f in flat], dtype=float),
        ties=np.array([f[2] for f in flat], dtype=np.int64),
        presence=(
            np.stack([f[3] for f in flat])
            if probe_ids.size
            else np.empty((len(flat), 0), dtype=np.uint8)
        ),
        probe_ids=probe_ids,
        geo_edges=[f[4] for f in flat] if want_edges else None,
        exact_w=np.array([w for w, _ in exact]).reshape(len(exact), len(probe_ids)),
        exact_w_plus=[w_plus for _, w_plus in exact],
    )


def per_edge_v_e_plus(field, dist, result):
    """Two-point energy with one full solve per low geodesic edge raised to b."""
    box = field.box
    src = box.vertex_index(result.source)
    tgt = box.vertex_index(result.target)
    total = 0.0
    for eid in result.edge_ids:
        if field.weights[eid] != dist.a:
            continue
        w = field.weights.copy()
        w[eid] = dist.b
        t_b = float(box.solve(w, src)[0][tgt])
        total += dist.p * (max(t_b - result.time, 0.0)) ** 2
    return total


def _tensordot_increment(t, axis, p_i):
    """t - E_i t with np.tensordot and np.expand_dims."""
    mean = np.tensordot(np.array([1.0 - p_i, p_i]), np.moveaxis(t, axis, 0), axes=(0, 0))
    return t - np.expand_dims(mean, axis=axis)


def fresh_martingale_increments(table):
    """Doob increments rebuilt from the table values on every call."""
    t = table.tensor()
    out = []
    run = t
    for j in range(1, table.n + 1):
        p_j = table.p[j - 1]
        nxt = np.tensordot(np.array([1.0 - p_j, p_j]), run, axes=(0, 0))
        v_j = run - nxt[None, ...]
        lead = (1,) * (j - 1)
        out.append(np.broadcast_to(v_j.reshape(lead + v_j.shape), t.shape).copy())
        run = nxt
    return out


def per_call_energy_decomposition(table, i):
    """(terms, sum of terms, E (D_i f)^2) for one coordinate i, the per-call
    way: fresh increments and a fresh Kronecker weight vector, each V_j
    wrapped in its own ProductTable before D_i is applied."""
    from fpplab import ProductTable

    w = np.ones(1)
    for pi in table.p:
        w = np.kron(w, np.array([1.0 - pi, pi]))
    w = w.reshape((2,) * table.n)
    terms = []
    for v in fresh_martingale_increments(table):
        sub = ProductTable(table.p, v.ravel())
        dv = _tensordot_increment(sub.tensor(), i - 1, sub.p[i - 1])
        terms.append(float(np.sum(w * dv * dv)))
    d = _tensordot_increment(table.tensor(), i - 1, table.p[i - 1])
    return terms, float(np.sum(terms)), float(np.sum(w * d * d))


def averaging_properties_oracle(m):
    """The exhaustive g_m checks with a bit-by-bit popcount loop, as a dict
    of the AveragingReport fields they determine."""
    n = m * m
    total = 1 << n
    vals = np.arange(total, dtype=np.int64)
    weight = np.zeros(total, dtype=np.int64)
    for b in range(n):
        weight += (vals >> b) & 1
    order = np.lexsort((-vals, weight))
    ranks = np.empty(total, dtype=np.int64)
    ranks[order] = np.arange(1, total + 1)
    k = -(-total // m)
    g = ranks // k
    diffs = set()
    flips = 0
    for q in range(n):
        bit = 1 << (n - 1 - q)
        lo = vals[(vals & bit) == 0]
        diffs.update(np.unique(g[lo | bit] - g[lo]).tolist())
        flips += lo.size
    counts = np.bincount(g, minlength=m + 1)
    max_meas = counts.max() / total
    return {
        "m": m,
        "n_bits": n,
        "block_size": k,
        "gradient_ok": diffs <= {0, 1},
        "gradient_values": sorted(int(v) for v in diffs),
        "bijection_ok": np.unique(ranks).size == total,
        "monotone_in_weight_ok": bool(np.all(np.diff(weight[np.argsort(ranks)]) >= 0)),
        "level_nondecreasing_ok": bool(np.all(np.diff(g[np.argsort(ranks)]) >= 0)),
        "level_counts": [int(c) for c in counts],
        "max_level_measure": float(max_meas),
        "c_implied": float(max_meas * m),
        "level_bound_ok": bool(max_meas <= 4.0 / m),
        "checked_strings": total,
        "checked_flips": flips,
    }


def truncated_tail_quantile_100_rounds(nu, u):
    """Truncated.quantile in the tail as a fixed 100-round bisection, never
    stopping early."""
    lo = np.full(u.shape, nu.cut)
    hi = np.full(u.shape, nu.top)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = nu._cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def path_weight(box, weights, path):
    """Left-to-right weight sum of a vertex-coordinate path, checking that
    consecutive vertices are lattice neighbours."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        a, b = tuple(int(x) for x in a), tuple(int(x) for x in b)
        step = np.asarray(b) - np.asarray(a)
        assert np.abs(step).sum() == 1, (a, b)
        lo_c = min(a, b)
        total += weights[box.edge_id(lo_c, int(np.flatnonzero(step)[0]))]
    return total


def loop_tie_count(box, weights, dist, path_coords, time, rel_tol):
    """The tie count by a double loop: in-arcs, other than the path's own,
    that reach a path vertex within rel_tol * max(time, 1) of its distance."""
    tol = rel_tol * max(time, 1.0)
    ties = 0
    for prev, here in zip(path_coords, path_coords[1:]):
        here = tuple(int(c) for c in here)
        best = dist[box.vertex_index(here)]
        for ax in range(box.d):
            for step in (-1, 1):
                c = list(here)
                c[ax] += step
                if not box.contains(c) or tuple(c) == tuple(int(x) for x in prev):
                    continue
                w = weights[box.edge_id(min(tuple(c), here), ax)]
                if dist[box.vertex_index(c)] + w <= best + tol:
                    ties += 1
    return ties
