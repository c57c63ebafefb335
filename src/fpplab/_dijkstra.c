/* Single-source Dijkstra on a CSR graph whose arc weights are read by edge id.
 *
 * The graph is the lattice box of fpp_core.LatticeBox: row v of
 * (indptr, indices) lists the neighbours of v, and perm[j] is the edge id
 * of arc j, so the arc weight is w[perm[j]]. The queue is an indexed 4-ary
 * min-heap with decrease-key. Each heap slot carries its key beside the
 * vertex, and the slots past the end hold +inf keys, so sifting down picks
 * the least of four children without branches.
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
 * the tie tolerance in fpp_core).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define NO_PRED (-9999)
#define UNSEEN (-1)
#define SETTLED (-2)

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

/* Returns 0, or -1 when the work arrays cannot be allocated. */
int fpp_dijkstra(int32_t n, const int32_t *indptr, const int32_t *indices,
                 const int32_t *perm, const double *w, int32_t src,
                 int32_t tgt, double rel_tol, double *dist, int32_t *pred)
{
    slot_t *heap = malloc(((size_t)n + 4) * sizeof(slot_t));
    int32_t *pos = malloc(((size_t)n + 1) * sizeof(int32_t));
    if (heap == NULL || pos == NULL) {
        free(heap);
        free(pos);
        return -1;
    }
    for (int32_t v = 0; v < n; v++) {
        dist[v] = INFINITY;
        pred[v] = NO_PRED;
        pos[v] = UNSEEN;
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
        pos[u] = SETTLED;
        slot_t last = heap[--size];
        heap[size].key = INFINITY;
        if (size > 0)
            sift_down(heap, pos, size, 0, last);
        for (int32_t j = indptr[u]; j < indptr[u + 1]; j++) {
            int32_t v = indices[j];
            if (pos[v] == SETTLED)
                continue;
            double nd = du + w[perm[j]];
            if (nd < dist[v]) {
                dist[v] = nd;
                pred[v] = u;
                slot_t s = {nd, v};
                sift_up(heap, pos, pos[v] == UNSEEN ? size++ : pos[v], s);
            }
        }
    }
    for (int32_t i = 0; i < size; i++) {
        dist[heap[i].v] = INFINITY;
        pred[heap[i].v] = NO_PRED;
    }
    free(heap);
    free(pos);
    return 0;
}
