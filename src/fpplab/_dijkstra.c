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
 * for a = d-1..0, each where the box has that neighbour. The coordinates
 * take no hardware divide: c_a = floor(r / S_a) is a multiply and a shift,
 * exact for every r < 2^31 (LatticeBox refuses boxes with 2^31 or more
 * edges, so every vertex index is below that).
 *
 * The queue is an indexed 4-ary min-heap with decrease-key, held as two
 * arrays, keys and vertices. The keys follow LaMarca and Ladner ("The
 * influence of caches on the performance of heaps", 1996): slot i's key
 * lives at index i + 3 of a 32-byte-aligned block, so the four children of
 * a slot are one aligned group. The slots past the end hold +inf keys, so
 * sifting down picks the least of four children without branches. Those
 * +inf keys are written only up to a high-water mark three slots past the
 * largest size the heap has reached, the last slot sift_down reads, so a
 * solve touches heap memory in proportion to its frontier (about 1,000
 * slots at n=200), not to the box. The weights must be nonnegative and not
 * NaN (LatticeBox.solve refuses others): a settled vertex then fails the
 * relaxation test by itself, and a vertex is in the heap exactly when its
 * distance is finite and it is not settled; its heap position is read only
 * then.
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
 * Scratch that is indexed by vertex comes from malloc or calloc and is
 * written only where a pass reaches, so the pages a pass never touches are
 * never mapped; calloc'd arrays store index + 1, so 0 means unset.
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
    uint64_t magic[MAX_D];      /* ceil(2^shift_a / S_a) */
    int32_t shift[MAX_D];       /* 31 + ceil(log2 S_a) */
    int32_t last[MAX_D];        /* shape_a - 1 */
    int32_t off[MAX_D];         /* edges along the axes below a */
    int32_t fold[MAX_D][MAX_D]; /* S_k / shape_a for k < a */
} lattice_t;

/* floor(x / S_a) for 0 <= x < 2^31, as (x * magic) >> shift (Granlund and
 * Montgomery). magic * S_a = 2^shift + e with 0 <= e < S_a, so x * magic /
 * 2^shift exceeds x / S_a by x * e / (S_a * 2^shift) < 2^-ceil(log2 S_a),
 * at most 1 / S_a, and x / S_a is at least that far below the next integer.
 * magic <= 2^32, so the product fits in 63 bits. */
INLINE int32_t quotient(const lattice_t *L, int a, int32_t x)
{
    return (int32_t)(((uint64_t)x * L->magic[a]) >> L->shift[a]);
}

static lattice_t lattice(int d, const int32_t *shape)
{
    lattice_t L = {0};
    L.n = 1;
    for (int a = d - 1; a >= 0; a--) {
        L.stride[a] = L.n;
        L.n *= shape[a];
    }
    for (int a = 0; a < d; a++) {
        int bits = 0;
        while ((INT64_C(1) << bits) < L.stride[a])
            bits++;
        L.shift[a] = 31 + bits;
        uint64_t s = (uint64_t)L.stride[a];
        L.magic[a] = ((UINT64_C(1) << L.shift[a]) + s - 1) / s;
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
 * d - 1 quotients, and base_[a] is the id of the edge (u, u + e_a). d is a
 * constant in the three entries' bodies, so there the loops unroll and the
 * arcs stay in registers. */
#define FOR_EACH_ARC(d, L, u, ARC)                                           \
    do {                                                                     \
        int32_t c_[MAX_D], base_[MAX_D], rem_ = (u);                         \
        for (int a_ = 0; a_ < (d) - 1; a_++) {                               \
            c_[a_] = quotient((L), a_, rem_);                                \
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

/* The heap: slot i holds key[i] and vert[i]. key points 3 doubles into a
 * 32-byte-aligned block, so the children 4i + 1 .. 4i + 4 of slot i sit at
 * 4(i + 1) .. 4(i + 1) + 3 of the block, one aligned group. The keys below
 * mark are written; those from size on are +inf. */
typedef struct {
    double *key;
    int32_t *vert;
    int32_t *pos; /* the slot of each queued vertex */
    int32_t size, mark;
} heap_t;

INLINE void place(heap_t *h, int32_t i, double key, int32_t v)
{
    h->key[i] = key;
    h->vert[i] = v;
    h->pos[v] = i;
}

static void sift_up(heap_t *h, int32_t i, double key, int32_t v)
{
    while (i > 0) {
        int32_t parent = (i - 1) >> 2;
        if (h->key[parent] <= key)
            break;
        place(h, i, h->key[parent], h->vert[parent]);
        i = parent;
    }
    place(h, i, key, v);
}

static void sift_down(heap_t *h, int32_t i, double key, int32_t v)
{
    for (;;) {
        int32_t c = 4 * i + 1;
        if (c >= h->size)
            break;
        int32_t a = c + (h->key[c + 1] < h->key[c]);
        int32_t b = c + 2 + (h->key[c + 3] < h->key[c + 2]);
        c = a + (b - a) * (h->key[b] < h->key[a]);
        if (h->key[c] >= key)
            break;
        place(h, i, h->key[c], h->vert[c]);
        i = c;
    }
    place(h, i, key, v);
}

/* A settled v fails nd < dist[v]: dist[v] <= du <= nd. An unseen v has
 * dist[v] == inf, and it joins the heap at the end; sift_down reads up to
 * three slots past the end, so the +inf keys then reach one slot further. */
INLINE void relax(heap_t *h, double *dist, int32_t *pred, int32_t u, double nd, int32_t v)
{
    if (nd < dist[v]) {
        int32_t at;
        if (dist[v] == INFINITY) {
            at = h->size++;
            if (h->mark < h->size + 3)
                h->key[h->mark++] = INFINITY;
        } else {
            at = h->pos[v];
        }
        dist[v] = nd;
        pred[v] = u;
        sift_up(h, at, nd, v);
    }
}

INLINE int dijkstra(int d, const lattice_t *L, const double *w, int32_t src, int32_t tgt,
                    double rel_tol, double *dist, int32_t *pred)
{
    int32_t n = L->n;
    /* keys: 3 doubles of padding, n slots and the 3 past them sift_down reads */
    void *raw = malloc(((size_t)n + 6) * sizeof(double) + 31);
    heap_t h = {
        .vert = malloc((size_t)n * sizeof(int32_t)),
        .pos = malloc((size_t)n * sizeof(int32_t)),
        .size = 1,
        .mark = 4,
    };
    if (raw == NULL || h.vert == NULL || h.pos == NULL) {
        free(raw);
        free(h.vert);
        free(h.pos);
        return -1;
    }
    h.key = (double *)(((uintptr_t)raw + 31) & ~(uintptr_t)31) + 3;
    for (int32_t v = 0; v < n; v++) {
        dist[v] = INFINITY;
        pred[v] = NO_PRED;
    }
    dist[src] = 0.0;
    place(&h, 0, 0.0, src);
    for (int32_t i = 1; i < h.mark; i++)
        h.key[i] = INFINITY;
    double limit = INFINITY;

    while (h.size > 0) {
        int32_t u = h.vert[0];
        double du = h.key[0];
        if (du > limit)
            break;
        if (u == tgt)
            limit = du + rel_tol * fmax(du, 1.0);
        int32_t end = --h.size;
        double last_key = h.key[end];
        int32_t last_v = h.vert[end];
        h.key[end] = INFINITY;
        if (h.size > 0)
            sift_down(&h, 0, last_key, last_v);
#define RELAX(v, e) relax(&h, dist, pred, u, du + w[e], v)
        FOR_EACH_ARC(d, L, u, RELAX);
#undef RELAX
    }
    for (int32_t i = 0; i < h.size; i++) {
        dist[h.vert[i]] = INFINITY;
        pred[h.vert[i]] = NO_PRED;
    }
    free(raw);
    free(h.vert);
    free(h.pos);
    return 0;
}

/* Returns 0, or -1 when the work arrays cannot be allocated. */
int fpp_dijkstra(int32_t d, const int32_t *shape, const double *w, int32_t src,
                 int32_t tgt, double rel_tol, double *dist, int32_t *pred)
{
    lattice_t L = lattice(d, shape);
    return BY_DIM(d, dijkstra, &L, w, src, tgt, rel_tol, dist, pred);
}

/* A vertex the geodesic scan has reached: the record of the vertex it leads
 * to, the edge id of that step and, once scanned, its in-arcs within tol. */
typedef struct {
    int32_t v, next, via, near;
} reached_t;

#define FIRST_RECORDS 256

/* Doubles the record buffer; -1, the buffer kept, if it cannot. */
static int grow(reached_t **seen, int32_t *cap)
{
    reached_t *grown = realloc(*seen, 2 * (size_t)*cap * sizeof(reached_t));
    if (grown == NULL)
        return -1;
    *seen = grown;
    *cap *= 2;
    return 0;
}

INLINE int64_t geodesic_scan(int d, const lattice_t *L, const double *w, const double *dist,
                             int32_t src, int32_t tgt, double tol, int64_t *verts,
                             int64_t *eids, int64_t *ties)
{
    int32_t *rec = calloc((size_t)L->n, sizeof(int32_t)); /* record index + 1 */
    int32_t cap = FIRST_RECORDS;
    reached_t *seen = malloc((size_t)cap * sizeof(reached_t));
    int64_t len = -1;
    if (rec == NULL || seen == NULL)
        goto done;
    /* the records in the order they are made are the breadth-first queue */
    seen[0] = (reached_t){tgt, 0, 0, 0};
    rec[tgt] = 1;
    int32_t tail = 1;
    for (int32_t head = 0; head < tail && rec[src] == 0; head++) {
        int32_t v = seen[head].v;
        double dv = dist[v];
        double limit = dv + tol;
        int32_t count = 0;
#define TIGHT(u, e)                                                          \
    do {                                                                     \
        double reach = dist[u] + w[e];                                       \
        if (reach <= limit) {                                                \
            count++;                                                         \
            if (reach == dv && rec[u] == 0) {                                \
                if (tail == cap && grow(&seen, &cap) != 0)                   \
                    goto done;                                               \
                seen[tail] = (reached_t){u, head, e, 0};                     \
                rec[u] = ++tail;                                             \
            }                                                                \
        }                                                                    \
    } while (0)
        FOR_EACH_ARC(d, L, v, TIGHT);
#undef TIGHT
        seen[head].near = count;
    }
    if (rec[src] == 0) {
        len = -2;
        goto done;
    }
    int64_t total = 0;
    int32_t r = rec[src] - 1;
    verts[0] = src;
    for (len = 0; seen[r].v != tgt; len++) {
        eids[len] = seen[r].via;
        r = seen[r].next;
        verts[len + 1] = seen[r].v;
        total += seen[r].near;
    }
    *ties = total - len;
done:
    free(rec);
    free(seen);
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
