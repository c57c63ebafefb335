/* Single-source Dijkstra on the lattice box of fpp_core.LatticeBox, and the
 * two passes fpp_core makes over its distances: the canonical geodesic scan
 * (passage_time), and the breakpoint pass, one call that solves the box from
 * both ends of the geodesic and reads off the two solves the replacement
 * paths and path sums of every geodesic edge (geodesic_breakpoints and
 * v_e_plus_bernoulli).
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
 * largest size the heap has reached, the last slot sift_down reads. The two
 * arrays start at 1,024 slots and double when a push finds them full, so a
 * solve holds heap memory in proportion to its frontier (about 1,000 slots
 * at n=200), not to the box; only the heap positions, pos, are one per
 * vertex, written when a vertex joins. The weights must be nonnegative and not
 * NaN (LatticeBox.solve refuses others): a settled vertex then fails the
 * relaxation test by itself, and a vertex is in the heap exactly when its
 * distance is finite and it is not settled; its heap position is read only
 * then.
 *
 * On a box of at least 4,096 vertices whose sampled mean weight is finite
 * and positive, and whose sampled weights are not mostly light (bucket_scale
 * below), the solve runs on buckets instead (buckets_t below; Dial 1969,
 * with the light-edge re-scans of Meyer and Sanders' delta-stepping). Keys
 * wait in one list per bucket. When a bucket opens, the vertices on its
 * list are scanned straight off it, in list order, and the heap holds only
 * the keys that a relaxation lowers into the open bucket, at most a few at
 * a time on the n=200 box of simulate; it is emptied in key order after the
 * list. A vertex scanned off the list whose key later drops inside its
 * bucket is scanned again from the heap, so no vertex is scanned more than
 * twice per bucket, and the heap phase is exact Dijkstra. dist is the least
 * fixed point of the monotone IEEE sums below whatever the scan order, so
 * it keeps the heap's bytes. pred is the first in-arc to reach that least
 * sum, so where two sums tie, as on every step of a law with atoms, it is
 * one shortest-path tree of several, chosen by the scan order; a
 * continuous law's sums all but never tie.
 *
 * Both queues relax a scanned vertex's arcs as one batch, in two steps
 * (improving below): every arc's sum is formed and tested against its
 * target's distance, the tests making a bit mask with no branch, and then
 * the targets whose bit is set are updated, lowest bit first. About a
 * third of the tests pass, in no pattern a branch predictor can learn, so
 * a branch taken on each test was often mispredicted. The 2d targets of a
 * vertex are distinct, so no update changes another arc's test, and the
 * updates come in arc order: the sums, list entries, heap sifts and pred
 * ties are those of testing and updating arc by arc. On the n=200 box the
 * stopped solve of an exp field takes about 2.9 ms (2-core Xeon), against
 * 3.4 to 3.8 ms arc by arc in the same runs.
 *
 * Outputs follow scipy.sparse.csgraph.dijkstra: dist is +inf and pred is
 * -9999 for the source and for unreachable vertices. A vertex's distance
 * is the minimum of dist[u] + w over its in-arcs, one IEEE addition each,
 * so dist does not depend on the order in which equal keys leave the queue.
 * pred may be NULL: the solve then neither initialises nor stores it, and
 * dist keeps its bytes.
 *
 * With a target tgt >= 0 the solve stops at the target's tie horizon: once
 * tgt is scanned at its final key T, the limit is T + rel_tol * max(T, 1).
 * The heap alone ends when its top exceeds the limit; the buckets end once
 * the bucket that holds the limit is done. Every vertex beyond the limit
 * then reads as unreachable, so the settled set is exactly {dist <= limit}
 * and those distances are the full solve's, bit for bit. tgt = -1 solves
 * the whole box.
 *
 * Build: cc -O3 -ffp-contract=off -shared -fPIC _dijkstra.c -o _dijkstra.so
 * (no fused multiply-add, so the limit is the same two IEEE operations as
 * the tie tolerance in fpp_core, and every sum below is the one numpy forms).
 *
 * Work arrays are sized to what a pass reads wherever that is known or can
 * grow: the heap, the bucket pool and the geodesic scan's records double
 * from a small first block, the scan marks the vertices it reaches with one
 * bit each, and it writes the path into buffers of the caller's size,
 * reporting a path that does not fit. The solve's heap positions are its
 * one box-sized work array; the breakpoint pass adds the two trees, the
 * replacement-path labels and an edge bitset. A box-sized block costs
 * memory even where a pass never writes it: glibc, with the thresholds of
 * fpp_reuse_freed_memory, keeps freed blocks for reuse, the next replica's
 * arrays land on their pages and map them, so each thread holds every
 * box-sized block it ever allocated. calloc'd arrays store index + 1, so 0
 * means unset.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
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

/* The one arc enumeration: runs ARC(v, e, k) for each arc u -> v of the
 * box, e the id of its edge, in increasing neighbour index. k is the arc's
 * slot among the 2d directions, a constant once the loops unroll: u - S_a
 * is slot a and u + S_a slot 2d - 1 - a, so the slots increase in arc
 * order, with gaps where the box lacks a neighbour. u's coordinates take
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
                ARC((u) - (L)->stride[a_], base_[a_] - (L)->stride[a_], a_); \
        for (int a_ = (d) - 1; a_ >= 0; a_--)                                \
            if (c_[a_] < (L)->last[a_])                                      \
                ARC((u) + (L)->stride[a_], base_[a_], 2 * (d) - 1 - a_);     \
    } while (0)

/* The arcs of vertex u: writes each neighbour to nbr and the id of its
 * edge to eid (room for 2d of each), and returns the count. The tests
 * check them against a CSR graph of the box. */
int fpp_arcs(int32_t d, const int32_t *shape, int32_t u, int32_t *nbr, int32_t *eid)
{
    lattice_t L = lattice(d, shape);
    int count = 0;
#define LIST(v, e, k) (nbr[count] = (v), eid[count++] = (e))
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
 * 32-byte-aligned block, raw, so the children 4i + 1 .. 4i + 4 of slot i
 * sit at 4(i + 1) .. 4(i + 1) + 3 of the block, one aligned group. The keys
 * below mark are written; those from size on are +inf. The block has room
 * for cap slots and the 3 past them that sift_down reads, and cap starts at
 * FIRST_SLOTS (or n) and doubles, up to n, when a push finds it full. */
typedef struct {
    double *key;
    int32_t *vert;
    int32_t *pos; /* the slot of each queued vertex, n of them */
    int32_t size, mark, cap;
    void *raw;
} heap_t;

#define FIRST_SLOTS 1024

/* The key block for cap slots: 3 doubles of padding, cap slots and the 3
 * past them, aligned as above; NULL if it cannot be allocated. */
static double *key_block(int32_t cap, void **raw)
{
    *raw = malloc(((size_t)cap + 6) * sizeof(double) + 31);
    return *raw == NULL ? NULL : (double *)(((uintptr_t)*raw + 31) & ~(uintptr_t)31) + 3;
}

/* Doubles the heap's room, up to n slots, keeping its keys and vertices;
 * -1, the heap kept, if it cannot. */
static __attribute__((noinline)) int heap_grow(heap_t *h, int32_t n)
{
    int32_t cap = h->cap > n / 2 ? n : 2 * h->cap;
    void *raw;
    double *key = key_block(cap, &raw);
    int32_t *vert = realloc(h->vert, (size_t)cap * sizeof(int32_t));
    if (vert != NULL)
        h->vert = vert;
    if (key == NULL || vert == NULL) {
        free(raw);
        return -1;
    }
    memcpy(key, h->key, (size_t)h->mark * sizeof(double));
    free(h->raw);
    h->raw = raw;
    h->key = key;
    h->cap = cap;
    return 0;
}

/* A new slot at the end of the heap, its key still to be placed: the +inf
 * keys reach one slot further, as sift_down reads up to three slots past
 * the end. -1 if the heap is full and cannot grow. */
INLINE int32_t heap_slot(heap_t *h, int32_t n)
{
    if (h->size == h->cap && heap_grow(h, n) != 0)
        return -1;
    int32_t at = h->size++;
    if (h->mark < h->size + 3)
        h->key[h->mark++] = INFINITY;
    return at;
}

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

/* Takes the top off the heap. */
INLINE void heap_pop(heap_t *h)
{
    int32_t end = --h->size;
    double last_key = h->key[end];
    int32_t last_v = h->vert[end];
    h->key[end] = INFINITY;
    if (h->size > 0)
        sift_down(h, 0, last_key, last_v);
}

/* The bucket layer (Dial, CACM 12, 1969; Meyer and Sanders, J. Algorithms
 * 49, 2003). Key x lies in bucket floor(x * scale), saturated at SATURATED.
 * The keys of the open bucket cur and of buckets cur + 1 .. cur + BUCKETS -
 * 1, the window, wait in one list per bucket, head[k & (BUCKETS - 1)], and
 * those past the window in the far list. The lists are singly linked
 * through one pool of entries with a free list, and hold entry index + 1,
 * so 0 ends a list. Deletion is lazy: an entry is stale once its key is not
 * dist[v], and it is freed when its list is read. The heap holds only the
 * keys that a relaxation lowers into the open bucket. */
#define BUCKETS 4096
#define PER_MEAN 128         /* buckets per mean weight */
#define SAMPLE 256           /* weights the mean is taken from */
#define MIN_BUCKETED 4096    /* smaller boxes run the heap alone */
#define FIRST_ENTRIES 1024
#define SATURATED (INT64_C(1) << 62)
#define NO_FAR INT64_MAX

typedef struct {
    double key;
    int32_t v, next;
} entry_t;

typedef struct {
    double scale;    /* buckets per unit of key */
    int64_t cur;     /* the open bucket */
    int64_t far_min; /* the least bucket on the far list, or NO_FAR */
    int32_t far;     /* the far list */
    int32_t pending; /* entries on the window's lists */
    int32_t spare;   /* the free list */
    int32_t used, cap;
    entry_t *pool;
    int32_t head[BUCKETS];
} buckets_t;

/* Buckets per unit of key: PER_MEAN over the mean of SAMPLE weights taken
 * at a stride, so the window spans BUCKETS / PER_MEAN mean weights. 0, for
 * the heap alone, on a box of fewer than MIN_BUCKETED vertices, when the
 * sampled mean is 0 or +inf, or when more than LIGHT[d] of the sampled
 * weights are light: nonzero but below a bucket's width. Edges that light
 * join a bucket's vertices into clusters, and once they percolate (the
 * bond threshold is 1/2 in 2D and 0.249 in 3D) a bucket's list holds many
 * vertices whose keys the cluster later lowers, each scanned twice. Past
 * these shares the heap alone was the faster queue on gamma laws of shape
 * 0.05 to 0.5. */
static const int LIGHT[MAX_D + 1] = {[2] = SAMPLE * 3 / 5, [3] = SAMPLE * 2 / 5};

/* The edges of the box: off_a counts those along the axes below a. */
INLINE int64_t edge_count(int d, const lattice_t *L)
{
    int32_t side = L->last[d - 1] + 1;
    return L->off[d - 1] + (int64_t)(L->n / side) * (side - 1);
}

/* Inlined into each caller, so that fpp_dijkstra, which picks its queue
 * with it, keeps its code and the solves their place in the library. */
INLINE double bucket_scale(int d, const lattice_t *L, const double *w)
{
    if (L->n < MIN_BUCKETED)
        return 0.0;
    int64_t stride = edge_count(d, L) / SAMPLE;
    double sum = 0.0;
    for (int i = 0; i < SAMPLE; i++)
        sum += w[i * stride];
    double scale = PER_MEAN * SAMPLE / sum;
    int light = 0;
    for (int i = 0; i < SAMPLE; i++)
        light += w[i * stride] > 0.0 && w[i * stride] * scale < 1.0;
    return isfinite(scale) && light <= LIGHT[d] ? scale : 0.0;
}

/* A double-to-integer conversion out of range is undefined, so the index
 * saturates first. x >= 0, and the product is monotone in x. */
INLINE int64_t bucket_of(const buckets_t *b, double x)
{
    double q = x * b->scale;
    return q < (double)SATURATED ? (int64_t)q : SATURATED;
}

/* Puts (key, v) on the list at *list; -1 if the pool cannot grow. */
static int list_push(buckets_t *b, int32_t *list, double key, int32_t v)
{
    int32_t i = b->spare;
    if (i != 0) {
        b->spare = b->pool[i - 1].next;
    } else {
        if (b->used == b->cap) {
            if (b->cap > INT32_MAX / 2)
                return -1;
            entry_t *grown = realloc(b->pool, 2 * (size_t)b->cap * sizeof(entry_t));
            if (grown == NULL)
                return -1;
            b->pool = grown;
            b->cap *= 2;
        }
        i = ++b->used;
    }
    b->pool[i - 1] = (entry_t){key, v, *list};
    *list = i;
    return 0;
}

/* The list a key of bucket k >= cur waits on: its bucket's in the window,
 * or the far list. */
static int32_t *list_for(buckets_t *b, int64_t k)
{
    if (k - b->cur < BUCKETS) {
        b->pending++;
        return &b->head[k & (BUCKETS - 1)];
    }
    if (k < b->far_min)
        b->far_min = k;
    return &b->far;
}

/* Moves the far list's live entries that the window now reaches onto their
 * buckets' lists and frees its stale ones. */
static void spread(buckets_t *b, const double *dist)
{
    int32_t i = b->far;
    b->far = 0;
    b->far_min = NO_FAR;
    while (i != 0) {
        entry_t *e = &b->pool[i - 1];
        int32_t next = e->next;
        int32_t *list = e->key == dist[e->v] ? list_for(b, bucket_of(b, e->key)) : &b->spare;
        e->next = *list;
        *list = i;
        i = next;
    }
}

/* Opens the next bucket that has a list: the next one in the window, or
 * the far list's least bucket when the window's lists are empty. Returns
 * that list, taken off its head, or 0 when no entry is left. */
static int32_t open_bucket(buckets_t *b, const double *dist)
{
    int32_t list = 0;
    while (list == 0) {
        if (b->pending > 0)
            b->cur++;
        else if (b->far != 0)
            b->cur = b->far_min;
        else
            return 0;
        if (b->far_min - b->cur < BUCKETS)
            spread(b, dist);
        list = b->head[b->cur & (BUCKETS - 1)];
        b->head[b->cur & (BUCKETS - 1)] = 0;
    }
    return list;
}

/* Step 1 of a scanned vertex's relaxation (see the header): for the arc of
 * u in each slot k, writes the sum nd[k] = du + w[e] and its target to[k],
 * and returns the mask whose bit k is nd[k] < dist[to[k]], 0 for the slots
 * without an arc. A settled target fails that test by itself: dist[v] <= du
 * <= nd. Step 2, in the solves, walks the set bits from the lowest, which
 * is arc order, and updates each improving arc's target (relax,
 * relax_bucketed), not testing again. */
INLINE unsigned improving(int d, const lattice_t *L, const double *w, const double *dist,
                          int32_t u, double du, double *nd, int32_t *to)
{
    unsigned mask = 0;
#define TEST(v, e, k) \
    (nd[k] = du + w[e], to[k] = (v), mask |= (unsigned)(nd[k] < dist[v]) << (k))
    FOR_EACH_ARC(d, L, u, TEST);
#undef TEST
    return mask;
}

/* Lowers v's distance to nd < dist[v], which improving tested. An unseen v
 * has dist[v] == inf, and it joins the heap at the end. pred may be NULL.
 * Returns -1 if the heap cannot grow. */
INLINE int relax(heap_t *h, int32_t n, double *dist, int32_t *pred, int32_t u, double nd,
                 int32_t v)
{
    int32_t at = dist[v] == INFINITY ? heap_slot(h, n) : h->pos[v];
    if (at < 0)
        return -1;
    dist[v] = nd;
    if (pred != NULL)
        pred[v] = u;
    sift_up(h, at, nd, v);
    return 0;
}

/* relax with the bucket layer: a key past the open bucket waits on a list,
 * and one inside it goes to the heap. A reached vertex is in the heap
 * exactly when its heap position is not -1: a list entry and a pop from the
 * heap both set it to -1, and the heap is empty whenever a bucket opens.
 * Returns -1 if the heap or a list cannot grow. */
INLINE int relax_bucketed(heap_t *h, int32_t n, buckets_t *b, double *dist, int32_t *pred,
                          int32_t u, double nd, int32_t v)
{
    double old = dist[v];
    dist[v] = nd;
    if (pred != NULL)
        pred[v] = u;
    int64_t k = bucket_of(b, nd);
    if (k > b->cur) {
        h->pos[v] = -1;
        return list_push(b, list_for(b, k), nd, v);
    }
    int32_t at = old != INFINITY && h->pos[v] >= 0 ? h->pos[v] : heap_slot(h, n);
    if (at < 0)
        return -1;
    sift_up(h, at, nd, v);
    return 0;
}

/* The heap holding src alone, every dist +inf but src's 0 and every pred
 * NO_PRED; -1 if the heap cannot be allocated. */
static int start(heap_t *h, int32_t n, int32_t src, double *dist, int32_t *pred)
{
    *h = (heap_t){
        .pos = malloc((size_t)n * sizeof(int32_t)),
        .size = 1,
        .mark = 4,
        .cap = n < FIRST_SLOTS ? n : FIRST_SLOTS,
    };
    h->key = key_block(h->cap, &h->raw);
    h->vert = malloc((size_t)h->cap * sizeof(int32_t));
    if (h->key == NULL || h->vert == NULL || h->pos == NULL)
        return -1;
    for (int32_t v = 0; v < n; v++)
        dist[v] = INFINITY;
    if (pred != NULL)
        for (int32_t v = 0; v < n; v++)
            pred[v] = NO_PRED;
    dist[src] = 0.0;
    place(h, 0, 0.0, src);
    for (int32_t i = 1; i < h->mark; i++)
        h->key[i] = INFINITY;
    return 0;
}

static void release(heap_t *h)
{
    free(h->raw);
    free(h->vert);
    free(h->pos);
}

INLINE int heap_dijkstra(int d, const lattice_t *L, const double *w, int32_t src,
                         int32_t tgt, double rel_tol, double *dist, int32_t *pred)
{
    int32_t n = L->n;
    heap_t h;
    int status = -1;
    if (start(&h, n, src, dist, pred) != 0)
        goto done;
    double limit = INFINITY;
    int failed = 0; /* the heap could not grow */
    while (h.size > 0) {
        int32_t u = h.vert[0];
        double du = h.key[0];
        if (du > limit)
            break;
        if (u == tgt)
            limit = du + rel_tol * fmax(du, 1.0);
        heap_pop(&h);
        double nd[2 * MAX_D];
        int32_t to[2 * MAX_D];
        for (unsigned m = improving(d, L, w, dist, u, du, nd, to); m != 0; m &= m - 1) {
            int j = __builtin_ctz(m);
            failed |= relax(&h, n, dist, pred, u, nd[j], to[j]);
        }
        if (failed)
            goto done;
    }
    for (int32_t i = 0; i < h.size; i++) {
        dist[h.vert[i]] = INFINITY;
        if (pred != NULL)
            pred[h.vert[i]] = NO_PRED;
    }
    status = 0;
done:
    release(&h);
    return status;
}

/* Each bucket is scanned in two phases. First its list, straight off it in
 * list order: each live entry's vertex is scanned at its key. Then the heap,
 * which holds every key a relaxation lowered into the bucket, in key order.
 * A vertex scanned off the list whose key a later scan lowers is scanned
 * again from the heap, so it is scanned at most twice in its bucket; and
 * once the list is done, the heap phase is exact Dijkstra, so a vertex it
 * pops is final. When the target is scanned, at its final key in the last
 * scan, its tie horizon is set, and the solve ends when the horizon's
 * bucket is done. */
INLINE int bucket_dijkstra(int d, const lattice_t *L, buckets_t *b, const double *w,
                           int32_t src, int32_t tgt, double rel_tol, double *dist,
                           int32_t *pred)
{
    int32_t n = L->n;
    heap_t h;
    int status = -1;
    if (start(&h, n, src, dist, pred) != 0)
        goto done;
    double limit = INFINITY;
    int64_t last = INT64_MAX; /* the bucket of limit */
    int32_t list = 0;         /* the rest of the open bucket's list */
    int failed = 0;           /* the heap or a list could not grow */
    for (;;) {
        int32_t u;
        double du;
        if (list != 0) {
            entry_t *e = &b->pool[list - 1];
            u = e->v;
            du = e->key;
            int32_t next = e->next;
            e->next = b->spare;
            b->spare = list;
            b->pending--;
            list = next;
            if (du != dist[u])
                continue;
        } else if (h.size > 0) {
            u = h.vert[0];
            du = h.key[0];
            heap_pop(&h);
            h.pos[u] = -1;
        } else {
            if (b->cur >= last || (list = open_bucket(b, dist)) == 0)
                break;
            continue;
        }
        if (u == tgt) {
            limit = du + rel_tol * fmax(du, 1.0);
            last = bucket_of(b, limit);
        }
        double nd[2 * MAX_D];
        int32_t to[2 * MAX_D];
        for (unsigned m = improving(d, L, w, dist, u, du, nd, to); m != 0; m &= m - 1) {
            int j = __builtin_ctz(m);
            failed |= relax_bucketed(&h, n, b, dist, pred, u, nd[j], to[j]);
        }
        if (failed)
            goto done;
    }
    if (limit < INFINITY)
        for (int32_t v = 0; v < n; v++)
            if (dist[v] > limit) {
                dist[v] = INFINITY;
                if (pred != NULL)
                    pred[v] = NO_PRED;
            }
    status = 0;
done:
    release(&h);
    return status;
}

/* The two queues are two functions, so that neither's register use and
 * code layout weigh on the other's loop: inlined into one, the heap's loop
 * ran about 2% slower. */
static __attribute__((noinline)) int heap_solve(int d, const lattice_t *L, const double *w,
                                                int32_t src, int32_t tgt, double rel_tol,
                                                double *dist, int32_t *pred)
{
    return BY_DIM(d, heap_dijkstra, L, w, src, tgt, rel_tol, dist, pred);
}

static __attribute__((noinline)) int bucketed_solve(int d, const lattice_t *L, double scale,
                                                    const double *w, int32_t src,
                                                    int32_t tgt, double rel_tol,
                                                    double *dist, int32_t *pred)
{
    buckets_t *b = calloc(1, sizeof(buckets_t));
    int status = -1;
    if (b != NULL && (b->pool = malloc(FIRST_ENTRIES * sizeof(entry_t))) != NULL) {
        b->scale = scale;
        b->far_min = NO_FAR;
        b->cap = FIRST_ENTRIES;
        status = BY_DIM(d, bucket_dijkstra, L, b, w, src, tgt, rel_tol, dist, pred);
    }
    if (b != NULL)
        free(b->pool);
    free(b);
    return status;
}

/* The solve on the queue bucket_scale picks: fpp_dijkstra's, and the two
 * of fpp_breakpoint_pass, which calls it here rather than through the
 * exported entry, whose calls would go through the library's PLT. Returns
 * 0, or -1 when the work arrays cannot be allocated. */
INLINE int solve(int d, const lattice_t *L, const double *w, int32_t src, int32_t tgt,
                 double rel_tol, double *dist, int32_t *pred)
{
    double scale = bucket_scale(d, L, w);
    if (scale > 0.0)
        return bucketed_solve(d, L, scale, w, src, tgt, rel_tol, dist, pred);
    return heap_solve(d, L, w, src, tgt, rel_tol, dist, pred);
}

int fpp_dijkstra(int32_t d, const int32_t *shape, const double *w, int32_t src,
                 int32_t tgt, double rel_tol, double *dist, int32_t *pred)
{
    lattice_t L = lattice(d, shape);
    return solve(d, &L, w, src, tgt, rel_tol, dist, pred);
}

/* A vertex the geodesic scan has reached: the record of the vertex it leads
 * to, the edge id of that step and, once scanned, its in-arcs within tol. */
typedef struct {
    int32_t v, next, via, near;
} reached_t;

#define FIRST_RECORDS 256

/* A set of vertices, one bit each. */
INLINE int has(const uint64_t *set, int32_t v)
{
    return set[v >> 6] >> (v & 63) & 1;
}

INLINE void add(uint64_t *set, int32_t v)
{
    set[v >> 6] |= UINT64_C(1) << (v & 63);
}

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
                             int32_t src, int32_t tgt, double tol, int64_t room,
                             int64_t *verts, int64_t *eids, int64_t *ties)
{
    uint64_t *known = calloc(((size_t)L->n + 63) / 64, sizeof(uint64_t)); /* the reached set */
    int32_t cap = FIRST_RECORDS;
    reached_t *seen = malloc((size_t)cap * sizeof(reached_t));
    int64_t len = -1;
    if (known == NULL || seen == NULL)
        goto done;
    /* the records in the order they are made are the breadth-first queue */
    seen[0] = (reached_t){tgt, 0, 0, 0};
    add(known, tgt);
    int32_t tail = 1, at_src = src == tgt ? 0 : -1; /* src's record, once made */
    for (int32_t head = 0; head < tail && at_src < 0; head++) {
        int32_t v = seen[head].v;
        double dv = dist[v];
        double limit = dv + tol;
        int32_t count = 0;
#define TIGHT(u, e, k)                                                       \
    do {                                                                     \
        double reach = dist[u] + w[e];                                       \
        if (reach <= limit) {                                                \
            count++;                                                         \
            if (reach == dv && !has(known, u)) {                             \
                if (tail == cap && grow(&seen, &cap) != 0)                   \
                    goto done;                                               \
                add(known, u);                                               \
                if ((u) == src)                                              \
                    at_src = tail;                                           \
                seen[tail++] = (reached_t){u, head, e, 0};                   \
            }                                                                \
        }                                                                    \
    } while (0)
        FOR_EACH_ARC(d, L, v, TIGHT);
#undef TIGHT
        seen[head].near = count;
    }
    if (at_src < 0) {
        len = -2;
        goto done;
    }
    int64_t total = 0;
    int32_t r = at_src;
    verts[0] = src;
    for (len = 0; seen[r].v != tgt; len++) {
        if (len + 1 >= room) {
            len = -3;
            goto done;
        }
        eids[len] = seen[r].via;
        r = seen[r].next;
        verts[len + 1] = seen[r].v;
        total += seen[r].near;
    }
    *ties = total - len;
done:
    free(known);
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
 * eids, room >= 1 entries each, and ties to *ties. Returns L, -1 when the
 * work arrays cannot be allocated, -2 when no tight path reaches src, or -3
 * when the path has more than room vertices; then nothing past room is
 * written (a path has at most n).
 */
int64_t fpp_geodesic_scan(int32_t d, const int32_t *shape, const double *w,
                          const double *dist, int32_t src, int32_t tgt, double tol,
                          int64_t room, int64_t *verts, int64_t *eids, int64_t *ties)
{
    lattice_t L = lattice(d, shape);
    return BY_DIM(d, geodesic_scan, &L, w, dist, src, tgt, tol, room, verts, eids, ties);
}

/* The path index of the first geodesic vertex on v's tree path, memoised in
 * lab (label + 1; the geodesic vertices are set on entry): one walk up to a
 * labelled vertex, and a second along the same vertices that writes its
 * label. A path that ends without reaching the geodesic, at a vertex the
 * solve did not reach, gets -1. */
static int32_t tree_label(const int32_t *pred, int32_t *lab, int32_t v)
{
    int32_t end = v;
    while (lab[end] == 0 && pred[end] != NO_PRED)
        end = pred[end];
    for (int32_t up; v != end; v = up) {
        up = pred[v];
        lab[v] = lab[end];
    }
    return lab[end] - 1;
}

/* Step 4 of fpp_breakpoint_pass below: t_inf of each of the len geodesic
 * edges from the two full solves. Returns 0, or -1 when the work arrays
 * cannot be allocated. */
INLINE int replacement_offers(int d, const lattice_t *L, const double *w, const double *ds,
                              const int32_t *pred_s, const double *dt, const int32_t *pred_t,
                              const int64_t *verts, int32_t len, const uint8_t *on_path,
                              double *t_inf)
{
    int32_t n = L->n;
    size_t side = (size_t)len + 1;
    int32_t *lab_s = calloc((size_t)n, sizeof(int32_t));
    int32_t *lab_t = calloc((size_t)n, sizeof(int32_t));
    double *table = malloc(side * side * sizeof(double));
    int status = -1;
    if (lab_s == NULL || lab_t == NULL || table == NULL)
        goto done;
    for (size_t k = 0; k < side * side; k++)
        table[k] = INFINITY;
    for (int32_t i = 0; i <= len; i++)
        lab_s[verts[i]] = lab_t[verts[i]] = i + 1;
    for (int32_t x = 0; x < n; x++) {
        int32_t a = tree_label(pred_s, lab_s, x);
        if (a < 0)
            continue;
#define OFFER(y, e, k)                                                       \
    do {                                                                     \
        int32_t b = on_path[e] ? -1 : tree_label(pred_t, lab_t, y);          \
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
    free(table);
    return status;
}

/* The path sums of fpp_core._path_sums: for each of the len path edges i,
 * the path's weights summed left to right with entry i set to value. Each
 * sum continues the left-to-right prefix before entry i one addition at a
 * time, so it is the sum a solve forms along that path, bit for bit. */
static void path_sums(const double *w, const int64_t *eids, int64_t len, double value,
                      double *sums)
{
    double prefix = 0.0; /* entries 0 .. i - 1 */
    for (int64_t i = 0; i < len; i++) {
        double s = i > 0 ? prefix + value : value;
        for (int64_t j = i + 1; j < len; j++)
            s += w[eids[j]];
        sums[i] = s;
        prefix = i > 0 ? prefix + w[eids[i]] : w[eids[i]];
    }
}

/* The queue fpp_dijkstra runs a box on: the buckets' scale, or 0 for the
 * heap alone. The tests pin its rules with it. */
double fpp_bucket_scale(int32_t d, const int32_t *shape, const double *w)
{
    lattice_t L = lattice(d, shape);
    return bucket_scale(d, &L, w);
}

/* Every breakpoint of the geodesic edges from src to tgt, in one call:
 * fpp_core._breakpoint_pass, which geodesic_breakpoints and
 * v_e_plus_bernoulli read.
 *
 * 1. The full solve from src, with its tree, into ds: fpp_dijkstra's solve,
 *    on the same queue.
 * 2. The canonical geodesic on ds, fpp_geodesic_scan's, with the tie
 *    tolerance rel_tol * max(T, 1), T = ds[tgt]: the same two IEEE
 *    operations as fpp_core's.
 * 3. The full solve from tgt, with its tree, into dt.
 * 4. The replacement-path distance t_inf of each of the L geodesic edges, a
 *    port of fpp_core._replacement_offers. Each vertex is labelled with the
 *    path index of the first geodesic vertex on its source-tree path (lab_s)
 *    and on its target-tree path (lab_t). Every arc x -> y of an edge off
 *    the geodesic with lab_s(x) < lab_t(y) offers (ds[x] + w) + dt[y] to
 *    cell (lab_s(x), lab_t(y)) of an (L+1) x (L+1) table; a running minimum
 *    down the rows and one leftward along each row then leave the best
 *    offer to path edge i in cell (i, i + 1), +inf where none is made. A
 *    minimum is exact, so t_inf has the numpy reduction's bits.
 * 5. The path sums with each geodesic edge in turn set to value
 *    (path_sums).
 *
 * ds and dt hold n entries each; verts, eids, sums and t_inf room >= 1
 * entries each. Returns L as fpp_geodesic_scan does, with -1 when the work
 * arrays cannot be allocated, -2 when no tight path reaches src and -3 when
 * the path does not fit, and -4 when tgt is unreachable from src. With src
 * == tgt, L is 0, and dt is a copy of ds.
 */
int64_t fpp_breakpoint_pass(int32_t d, const int32_t *shape, const double *w, int32_t src,
                            int32_t tgt, double rel_tol, double value, int64_t room,
                            double *ds, double *dt, int64_t *verts, int64_t *eids,
                            int64_t *ties, double *sums, double *t_inf)
{
    lattice_t L = lattice(d, shape);
    int32_t *pred_s = malloc((size_t)L.n * sizeof(int32_t));
    int32_t *pred_t = malloc((size_t)L.n * sizeof(int32_t));
    uint8_t *on_path = NULL;
    int64_t len = -1;
    if (pred_s == NULL || pred_t == NULL
        || solve(d, &L, w, src, -1, rel_tol, ds, pred_s) != 0)
        goto done;
    double T = ds[tgt];
    if (!isfinite(T)) {
        len = -4;
        goto done;
    }
    len = BY_DIM(d, geodesic_scan, &L, w, ds, src, tgt, rel_tol * fmax(T, 1.0), room, verts,
                 eids, ties);
    if (len == 0)
        memcpy(dt, ds, (size_t)L.n * sizeof(double));
    if (len <= 0)
        goto done;
    on_path = calloc((size_t)edge_count(d, &L), sizeof(uint8_t));
    if (on_path == NULL || solve(d, &L, w, tgt, -1, rel_tol, dt, pred_t) != 0) {
        len = -1;
        goto done;
    }
    for (int64_t i = 0; i < len; i++)
        on_path[eids[i]] = 1;
    if (BY_DIM(d, replacement_offers, &L, w, ds, pred_s, dt, pred_t, verts, (int32_t)len,
               on_path, t_inf) != 0) {
        len = -1;
        goto done;
    }
    path_sums(w, eids, len, value, sums);
done:
    free(pred_s);
    free(pred_t);
    free(on_path);
    return len;
}
