/* Single-source Dijkstra on the lattice box of fpp_core.LatticeBox, and the
 * two passes fpp_core makes over its distances: the canonical geodesic scan
 * and the replacement-path offers.
 *
 * Every entry takes the box as (d, shape) and reads no graph arrays: the
 * neighbours of a vertex and the edge ids of its arcs are arithmetic on the
 * shape (FOR_EACH_ARC). Vertex x has index sum_a c_a * S_a, where c are
 * its coordinates from the box's lower corner and S the row-major strides,
 * and edges are numbered axis by axis, each axis in the order of its lower
 * endpoints. So the edge (x, x + e_a) has id
 *
 *     off_a + x - sum_{k<a} c_k * S_k / shape_a,
 *
 * off_a the number of edges along the axes below a. The arcs of a vertex
 * come in increasing neighbour index: x - S_a for a = 0..d-1, then x + S_a
 * for a = d-1..0, each where the box has that neighbour.
 *
 * The queue is an indexed 4-ary min-heap with decrease-key. Each heap slot
 * carries its key beside the vertex, and the slots past the end hold +inf
 * keys, so sifting down picks the least of four children without branches.
 * The weights must be nonnegative and not NaN (LatticeBox.solve refuses
 * others): a settled vertex then fails the relaxation test by itself, and
 * a vertex is in the heap exactly when its distance is finite and it is
 * not settled.
 *
 * Outputs follow scipy.sparse.csgraph.dijkstra: dist is +inf and pred is
 * -9999 for the source and for unreachable vertices. A vertex's distance
 * is the minimum of dist[u] + w over its in-arcs, one IEEE addition each,
 * so dist does not depend on the order in which equal keys leave the heap.
 *
 * With a target tgt >= 0 the solve stops at the target's tie horizon: once
 * tgt leaves the heap at key T, the limit is T + rel_tol * max(T, 1), and
 * the solve ends when the heap top exceeds it. The vertices still queued
 * then read as unreachable, so the settled set is exactly {dist <= limit}
 * and those distances are the full solve's, bit for bit. tgt = -1 solves
 * the whole box.
 *
 * Build: cc -O3 -ffp-contract=off -shared -fPIC _dijkstra.c -o _dijkstra.so
 * (no fused multiply-add, so the limit is the same two IEEE operations as
 * the tie tolerance in fpp_core, and every sum below is the one numpy forms).
 * Scratch arrays that mark vertices come from calloc and store index + 1,
 * so 0 means unset and the pages a pass never touches are never mapped.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#define NO_PRED (-9999)
#define MAX_D 3
#define INLINE static inline __attribute__((always_inline))

/* Each body below is compiled once for d = 2 and once for d = 3, so its
 * coordinate and arc loops unroll. */
#define BY_DIM(d, body, ...) ((d) == 2 ? body(2, __VA_ARGS__) : body(3, __VA_ARGS__))

typedef struct {
    int32_t n;                  /* vertices */
    int32_t stride[MAX_D];      /* S_a */
    int32_t last[MAX_D];        /* shape_a - 1 */
    int32_t off[MAX_D];         /* edges along the axes below a */
    int32_t fold[MAX_D][MAX_D]; /* S_k / shape_a for k < a */
} lattice_t;

static lattice_t lattice(int d, const int32_t *shape)
{
    lattice_t L = {0};
    L.n = 1;
    for (int a = d - 1; a >= 0; a--) {
        L.stride[a] = L.n;
        L.n *= shape[a];
    }
    for (int a = 0; a < d; a++) {
        L.last[a] = shape[a] - 1;
        if (a + 1 < d)
            L.off[a + 1] = L.off[a] + L.n / shape[a] * (shape[a] - 1);
        for (int k = 0; k < a; k++)
            L.fold[a][k] = L.stride[k] / shape[a];
    }
    return L;
}

/* The one arc enumeration: runs ARC(v, e) for each arc u -> v of the box,
 * e the id of its edge, in increasing neighbour index. u's coordinates take
 * d - 1 divisions, and base_[a] is the id of the edge (u, u + e_a). d is a
 * constant in the three entries' bodies, so there the loops unroll and the
 * arcs stay in registers. */
#define FOR_EACH_ARC(d, L, u, ARC)                                           \
    do {                                                                     \
        int32_t c_[MAX_D], base_[MAX_D], rem_ = (u);                         \
        for (int a_ = 0; a_ < (d) - 1; a_++) {                               \
            c_[a_] = rem_ / (L)->stride[a_];                                 \
            rem_ -= c_[a_] * (L)->stride[a_];                                \
        }                                                                    \
        c_[(d) - 1] = rem_;                                                  \
        for (int a_ = 0; a_ < (d); a_++) {                                   \
            base_[a_] = (L)->off[a_] + (u);                                  \
            for (int k_ = 0; k_ < a_; k_++)                                  \
                base_[a_] -= c_[k_] * (L)->fold[a_][k_];                     \
        }                                                                    \
        for (int a_ = 0; a_ < (d); a_++)                                     \
            if (c_[a_] > 0)                                                  \
                ARC((u) - (L)->stride[a_], base_[a_] - (L)->stride[a_]);     \
        for (int a_ = (d) - 1; a_ >= 0; a_--)                                \
            if (c_[a_] < (L)->last[a_])                                      \
                ARC((u) + (L)->stride[a_], base_[a_]);                       \
    } while (0)

/* The arcs of vertex u: writes each neighbour to nbr and the id of its
 * edge to eid (room for 2d of each), and returns the count. The tests
 * check them against a CSR graph of the box. */
int fpp_arcs(int32_t d, const int32_t *shape, int32_t u, int32_t *nbr, int32_t *eid)
{
    lattice_t L = lattice(d, shape);
    int count = 0;
#define LIST(v, e) (nbr[count] = (v), eid[count++] = (e))
    FOR_EACH_ARC(d, &L, u, LIST);
#undef LIST
    return count;
}

/* Lets glibc's malloc keep the arrays a replica frees for the next one.
 * A replica at n=200 allocates and frees several MB: the field, its
 * distances and the work arrays below. glibc gives the free top of its
 * heap back once it exceeds the trim threshold, twice the largest block it
 * has so far freed from mmap, and unless a larger block was freed earlier
 * each replica then faults every page in again. These are the thresholds
 * glibc's own rule reaches at its maximum. Elsewhere it does nothing. */
void fpp_reuse_freed_memory(void)
{
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

typedef struct {
    double key;
    int32_t v;
} slot_t;

static void sift_up(slot_t *heap, int32_t *pos, int32_t i, slot_t s)
{
    while (i > 0) {
        int32_t parent = (i - 1) >> 2;
        if (heap[parent].key <= s.key)
            break;
        heap[i] = heap[parent];
        pos[heap[i].v] = i;
        i = parent;
    }
    heap[i] = s;
    pos[s.v] = i;
}

static void sift_down(slot_t *heap, int32_t *pos, int32_t size, int32_t i, slot_t s)
{
    for (;;) {
        int32_t c = 4 * i + 1;
        if (c >= size)
            break;
        int32_t a = c + (heap[c + 1].key < heap[c].key);
        int32_t b = c + 2 + (heap[c + 3].key < heap[c + 2].key);
        c = a + (b - a) * (heap[b].key < heap[a].key);
        if (heap[c].key >= s.key)
            break;
        heap[i] = heap[c];
        pos[heap[i].v] = i;
        i = c;
    }
    heap[i] = s;
    pos[s.v] = i;
}

/* A settled v fails nd < dist[v]: dist[v] <= du <= nd. An unseen v has
 * dist[v] == inf, and it joins the heap at the end. */
INLINE void relax(slot_t *heap, int32_t *pos, int32_t *size, double *dist, int32_t *pred,
                  int32_t u, double nd, int32_t v)
{
    if (nd < dist[v]) {
        int32_t at = dist[v] == INFINITY ? (*size)++ : pos[v];
        dist[v] = nd;
        pred[v] = u;
        slot_t s = {nd, v};
        sift_up(heap, pos, at, s);
    }
}

INLINE int dijkstra(int d, const lattice_t *L, const double *w, int32_t src, int32_t tgt,
                    double rel_tol, double *dist, int32_t *pred)
{
    int32_t n = L->n;
    slot_t *heap = malloc(((size_t)n + 4) * sizeof(slot_t));
    int32_t *pos = malloc((size_t)n * sizeof(int32_t)); /* read only for queued vertices */
    if (heap == NULL || pos == NULL) {
        free(heap);
        free(pos);
        return -1;
    }
    for (int32_t v = 0; v < n; v++) {
        dist[v] = INFINITY;
        pred[v] = NO_PRED;
    }
    for (int32_t i = 0; i < n + 4; i++)
        heap[i].key = INFINITY;
    dist[src] = 0.0;
    heap[0].key = 0.0;
    heap[0].v = src;
    pos[src] = 0;
    int32_t size = 1;
    double limit = INFINITY;

    while (size > 0) {
        int32_t u = heap[0].v;
        double du = heap[0].key;
        if (du > limit)
            break;
        if (u == tgt)
            limit = du + rel_tol * fmax(du, 1.0);
        slot_t last = heap[--size];
        heap[size].key = INFINITY;
        if (size > 0)
            sift_down(heap, pos, size, 0, last);
#define RELAX(v, e) relax(heap, pos, &size, dist, pred, u, du + w[e], v)
        FOR_EACH_ARC(d, L, u, RELAX);
#undef RELAX
    }
    for (int32_t i = 0; i < size; i++) {
        dist[heap[i].v] = INFINITY;
        pred[heap[i].v] = NO_PRED;
    }
    free(heap);
    free(pos);
    return 0;
}

/* Returns 0, or -1 when the work arrays cannot be allocated. */
int fpp_dijkstra(int32_t d, const int32_t *shape, const double *w, int32_t src,
                 int32_t tgt, double rel_tol, double *dist, int32_t *pred)
{
    lattice_t L = lattice(d, shape);
    return BY_DIM(d, dijkstra, &L, w, src, tgt, rel_tol, dist, pred);
}

INLINE int64_t geodesic_scan(int d, const lattice_t *L, const double *w, const double *dist,
                             int32_t src, int32_t tgt, double tol, int64_t *verts,
                             int64_t *eids, int64_t *ties)
{
    int32_t n = L->n;
    int32_t *next = calloc((size_t)n, sizeof(int32_t)); /* the vertex it leads to, + 1 */
    int32_t *via = calloc((size_t)n, sizeof(int32_t));  /* the edge id of that step */
    int32_t *near = calloc((size_t)n, sizeof(int32_t)); /* in-arcs within tol */
    int32_t *queue = calloc((size_t)n, sizeof(int32_t));
    int64_t len = -1;
    if (next == NULL || via == NULL || near == NULL || queue == NULL)
        goto done;
    next[tgt] = tgt + 1;
    queue[0] = tgt;
    for (int32_t head = 0, tail = 1; head < tail; head++) {
        if (next[src] != 0)
            break;
        int32_t v = queue[head];
        double dv = dist[v];
        double limit = dv + tol;
        int32_t count = 0;
#define TIGHT(u, e)                                                          \
    do {                                                                     \
        double reach = dist[u] + w[e];                                       \
        if (reach <= limit) {                                                \
            count++;                                                         \
            if (reach == dv && next[u] == 0) {                               \
                next[u] = v + 1;                                             \
                via[u] = e;                                                  \
                queue[tail++] = u;                                           \
            }                                                                \
        }                                                                    \
    } while (0)
        FOR_EACH_ARC(d, L, v, TIGHT);
#undef TIGHT
        near[v] = count;
    }
    if (next[src] == 0) {
        len = -2;
        goto done;
    }
    int64_t total = 0;
    int32_t v = src;
    verts[0] = src;
    for (len = 0; v != tgt; len++) {
        eids[len] = via[v];
        v = next[v] - 1;
        verts[len + 1] = v;
        total += near[v];
    }
    *ties = total - len;
done:
    free(next);
    free(via);
    free(near);
    free(queue);
    return len;
}

/* The canonical geodesic from src to tgt, a port of fpp_core._geodesic_scan:
 * a breadth-first search back from tgt over tight arcs (dist[u] + w ==
 * dist[v]), first in first out, each vertex's arcs in increasing neighbour
 * index. Each vertex records the first scanned vertex and edge that reached
 * it, and the search stops once the vertex that reached src is scanned.
 * Each scanned vertex counts its in-arcs within tol of its distance, and
 * ties is that count summed over the path vertices after src, less the
 * path's own arcs.
 *
 * Writes the L + 1 path vertices, src first, to verts and the L edge ids to
 * eids (room for n of each), and ties to *ties. Returns L, -1 when the work
 * arrays cannot be allocated, or -2 when no tight path reaches src.
 */
int64_t fpp_geodesic_scan(int32_t d, const int32_t *shape, const double *w,
                          const double *dist, int32_t src, int32_t tgt, double tol,
                          int64_t *verts, int64_t *eids, int64_t *ties)
{
    lattice_t L = lattice(d, shape);
    return BY_DIM(d, geodesic_scan, &L, w, dist, src, tgt, tol, verts, eids, ties);
}

/* The path index of the first geodesic vertex on v's tree path, memoised in
 * lab (label + 1; the geodesic vertices are set on entry). stack has room for
 * n vertices. A path that ends without reaching the geodesic, at a vertex
 * the solve did not reach, gets -1. */
static int32_t tree_label(const int32_t *pred, int32_t *lab, int32_t *stack, int32_t v)
{
    int32_t depth = 0;
    while (lab[v] == 0 && pred[v] != NO_PRED) {
        stack[depth++] = v;
        v = pred[v];
    }
    while (depth > 0)
        lab[stack[--depth]] = lab[v];
    return lab[v] - 1;
}

INLINE int replacement_offers(int d, const lattice_t *L, const double *w, const double *ds,
                              const int32_t *pred_s, const double *dt, const int32_t *pred_t,
                              const int64_t *verts, int32_t len, const uint8_t *on_path,
                              double *t_inf)
{
    int32_t n = L->n;
    size_t side = (size_t)len + 1;
    int32_t *lab_s = calloc((size_t)n, sizeof(int32_t));
    int32_t *lab_t = calloc((size_t)n, sizeof(int32_t));
    int32_t *stack = calloc((size_t)n, sizeof(int32_t));
    double *table = malloc(side * side * sizeof(double));
    int status = -1;
    if (lab_s == NULL || lab_t == NULL || stack == NULL || table == NULL)
        goto done;
    for (size_t k = 0; k < side * side; k++)
        table[k] = INFINITY;
    for (int32_t i = 0; i <= len; i++)
        lab_s[verts[i]] = lab_t[verts[i]] = i + 1;
    for (int32_t x = 0; x < n; x++) {
        int32_t a = tree_label(pred_s, lab_s, stack, x);
        if (a < 0)
            continue;
#define OFFER(y, e)                                                          \
    do {                                                                     \
        int32_t b = on_path[e] ? -1 : tree_label(pred_t, lab_t, stack, y);   \
        if (a < b) {                                                         \
            double offer = ds[x] + w[e];                                     \
            offer = offer + dt[y];                                           \
            double *cell = &table[a * side + b];                             \
            if (offer < *cell)                                               \
                *cell = offer;                                               \
        }                                                                    \
    } while (0)
        FOR_EACH_ARC(d, L, x, OFFER);
#undef OFFER
    }
    for (size_t i = 1; i < side; i++)
        for (size_t j = 0; j < side; j++)
            if (table[(i - 1) * side + j] < table[i * side + j])
                table[i * side + j] = table[(i - 1) * side + j];
    for (size_t i = 0; i < (size_t)len; i++) {
        double best = INFINITY;
        for (size_t j = len; j > i; j--)
            if (table[i * side + j] < best)
                best = table[i * side + j];
        t_inf[i] = best;
    }
    status = 0;
done:
    free(lab_s);
    free(lab_t);
    free(stack);
    free(table);
    return status;
}

/* The replacement-path distance t_inf of each of the L geodesic edges, a
 * port of fpp_core._replacement_offers. ds, pred_s
 * and dt, pred_t are full solves from the geodesic's two ends, verts its
 * L + 1 vertices and on_path its edge bitset. Each vertex is labelled with
 * the path index of the first geodesic vertex on its source-tree path
 * (lab_s) and on its target-tree path (lab_t). Every arc x -> y of an edge
 * off the geodesic with lab_s(x) < lab_t(y) offers (ds[x] + w) + dt[y] to
 * cell (lab_s(x), lab_t(y)) of an (L+1) x (L+1) table; a running minimum
 * down the rows and one leftward along each row then leave the best offer
 * to path edge i in cell (i, i + 1). A minimum is exact, so t_inf has the
 * numpy reduction's bits. Returns 0, or -1 when the work arrays cannot be
 * allocated. */
int fpp_replacement_offers(int32_t d, const int32_t *shape, const double *w,
                           const double *ds, const int32_t *pred_s, const double *dt,
                           const int32_t *pred_t, const int64_t *verts, int32_t len,
                           const uint8_t *on_path, double *t_inf)
{
    lattice_t L = lattice(d, shape);
    return BY_DIM(d, replacement_offers, &L, w, ds, pred_s, dt, pred_t, verts, len,
                  on_path, t_inf);
}
