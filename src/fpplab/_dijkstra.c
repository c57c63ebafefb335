/* Single-source Dijkstra on a CSR graph whose arc weights are read by edge id,
 * and the two passes fpp_core makes over its distances: the canonical
 * geodesic scan and the replacement-path offers.
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
 * the tie tolerance in fpp_core, and every sum below is the one numpy forms).
 * Scratch arrays that mark vertices come from calloc and store index + 1,
 * so 0 means unset and the pages a pass never touches are never mapped.
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

/* The canonical geodesic from src to tgt, a port of fpp_core._geodesic_scan:
 * a breadth-first search back from tgt over tight arcs (dist[u] + w ==
 * dist[v]), first in first out, each row's arcs in CSR order. Each vertex
 * records the first scanned vertex and edge that reached it, and the
 * search stops once the vertex that reached src is scanned. Each scanned
 * vertex counts its in-arcs within tol of its distance, and ties is that
 * count summed over the path vertices after src, less the path's own arcs.
 *
 * Writes the L + 1 path vertices, src first, to verts and the L edge ids to
 * eids (room for n of each), and ties to *ties. Returns L, -1 when the work
 * arrays cannot be allocated, or -2 when no tight path reaches src.
 */
int64_t fpp_geodesic_scan(int32_t n, const int32_t *indptr, const int32_t *indices,
                          const int32_t *perm, const double *w, const double *dist,
                          int32_t src, int32_t tgt, double tol, int64_t *verts,
                          int64_t *eids, int64_t *ties)
{
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
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t u = indices[j];
            double reach = dist[u] + w[perm[j]];
            if (reach <= limit) {
                count++;
                if (reach == dv && next[u] == 0) {
                    next[u] = v + 1;
                    via[u] = perm[j];
                    queue[tail++] = u;
                }
            }
        }
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
int fpp_replacement_offers(int32_t n, const int32_t *indptr, const int32_t *indices,
                           const int32_t *perm, const double *w, const double *ds,
                           const int32_t *pred_s, const double *dt, const int32_t *pred_t,
                           const int64_t *verts, int32_t len, const uint8_t *on_path,
                           double *t_inf)
{
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
        for (int32_t j = indptr[x]; j < indptr[x + 1]; j++) {
            int32_t e = perm[j];
            if (on_path[e])
                continue;
            int32_t y = indices[j];
            int32_t b = tree_label(pred_t, lab_t, stack, y);
            if (a < b) {
                double offer = ds[x] + w[e];
                offer = offer + dt[y];
                double *cell = &table[a * side + b];
                if (offer < *cell)
                    *cell = offer;
            }
        }
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
