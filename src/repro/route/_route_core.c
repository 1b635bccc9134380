/* PathFinder negotiation core: a C port of the schedule
 * Router.route_reference (repro/route/pathfinder.py) spells out in
 * Python, bit-identical to it (tests/test_property_route.py).
 *
 * Port rules (same as _anneal_core.c):
 *   - every float expression keeps the Python operand order, compiled
 *     with -ffp-contract=off so no FMA contraction changes results;
 *   - occupancy arithmetic is integer-valued double addition (exact);
 *   - the A* open list holds (f, node) pairs that are strictly totally
 *     ordered (a node is only re-pushed with a strictly smaller f), so
 *     ANY correct binary min-heap pops the exact sequence heapq does;
 *   - node ids are non-negative, so C / and % match Python // and %.
 *
 * The session owns the per-net usage hash and the committed paths —
 * what one pass's connections need.  Everything node-sized is the
 * caller's numpy buffers, borrowed for the pass: occupancy (mutated in
 * place, so the Python side never goes stale), capacity and blocked
 * (read only), and the routing graph's pooled work arrays — history,
 * the cost tables and the A* arena.  A pass leaves those as the next
 * one needs them and touches nothing else: the arena is validated by a
 * generation counter that carries over (ws[0]), the cost tables are
 * rebuilt whole before an A* iteration reads them, and history, which
 * only an A* iteration writes, is zeroed again by route_free.  The
 * overuse count starts from the caller's (ws[1]) and follows the nodes
 * a commit or rip-up changes.  One route_iterate() call runs one
 * negotiation iteration — the Python loop keeps its stage spans and
 * telemetry shape.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SINGLE_COST 1.0
#define HEX_COST 3.0
#define HEX_REACH 6
#define PER_TILE_MIN 0.5 /* min(SINGLE_COST, HEX_COST / HEX_REACH) */
#define BLOCK_COST 1e12

typedef int64_t i64;
typedef uint8_t u8;

/* ---------------------------------------------------------------- hash
 * Open-addressing map key -> count, key = gid * n_nodes + node.
 * EMPTY = -1, TOMBSTONE = -2 (keys are always >= 0). */

typedef struct {
    i64 *keys;
    i64 *vals;
    i64 cap;   /* power of two */
    i64 used;  /* live + tombstones */
    i64 live;
} Hash;

static uint64_t hash_mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

static void hash_init(Hash *h, i64 cap) {
    h->cap = cap;
    h->used = 0;
    h->live = 0;
    h->keys = (i64 *)malloc(sizeof(i64) * cap);
    h->vals = (i64 *)malloc(sizeof(i64) * cap);
    for (i64 i = 0; i < cap; i++) h->keys[i] = -1;
}

static void hash_grow(Hash *h);

static void hash_put_fresh(Hash *h, i64 key, i64 val) {
    /* insert a key known to be absent (rehash / preload) */
    uint64_t mask = (uint64_t)h->cap - 1;
    uint64_t i = hash_mix((uint64_t)key) & mask;
    while (h->keys[i] >= 0) i = (i + 1) & mask;
    h->keys[i] = key;
    h->vals[i] = val;
    h->used++;
    h->live++;
}

static void hash_grow(Hash *h) {
    i64 old_cap = h->cap;
    i64 *ok = h->keys, *ov = h->vals;
    i64 cap = old_cap * 2;
    /* if the table is mostly tombstones, rehash at the same size */
    if (h->live * 4 < old_cap) cap = old_cap;
    hash_init(h, cap);
    for (i64 i = 0; i < old_cap; i++)
        if (ok[i] >= 0) hash_put_fresh(h, ok[i], ov[i]);
    free(ok);
    free(ov);
}

/* increment count for key; returns the previous count (0 = fresh) */
static i64 hash_incr(Hash *h, i64 key) {
    if ((h->used + 1) * 4 > h->cap * 3) hash_grow(h);
    uint64_t mask = (uint64_t)h->cap - 1;
    uint64_t i = hash_mix((uint64_t)key) & mask;
    i64 tomb = -1;
    for (;;) {
        i64 k = h->keys[i];
        if (k == key) {
            i64 old = h->vals[i];
            h->vals[i] = old + 1;
            return old;
        }
        if (k == -1) {
            if (tomb >= 0) {
                h->keys[tomb] = key;
                h->vals[tomb] = 1;
            } else {
                h->keys[i] = key;
                h->vals[i] = 1;
                h->used++;
            }
            h->live++;
            return 0;
        }
        if (k == -2 && tomb < 0) tomb = (i64)i;
        i = (i + 1) & mask;
    }
}

/* decrement count for key; returns the remaining count (0 = removed) */
static i64 hash_decr(Hash *h, i64 key) {
    uint64_t mask = (uint64_t)h->cap - 1;
    uint64_t i = hash_mix((uint64_t)key) & mask;
    for (;;) {
        i64 k = h->keys[i];
        if (k == key) {
            i64 left = h->vals[i] - 1;
            if (left == 0) {
                h->keys[i] = -2; /* tombstone */
                h->live--;
            } else {
                h->vals[i] = left;
            }
            return left;
        }
        /* key must exist (usage accounting is exact); -1 would be a bug
         * but return 0 rather than loop forever */
        if (k == -1) return 0;
        i = (i + 1) & mask;
    }
}

/* ---------------------------------------------------------------- heap
 * Binary min-heap of (f, node), lexicographic strict order. */

typedef struct {
    double f;
    i64 node;
} HeapItem;

typedef struct {
    HeapItem *a;
    i64 len;
    i64 cap;
} Heap;

static inline int item_lt(HeapItem x, HeapItem y) {
    return x.f < y.f || (x.f == y.f && x.node < y.node);
}

static void heap_push(Heap *h, double f, i64 node) {
    if (h->len == h->cap) {
        h->cap *= 2;
        h->a = (HeapItem *)realloc(h->a, sizeof(HeapItem) * h->cap);
    }
    i64 i = h->len++;
    HeapItem it = {f, node};
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (!item_lt(it, h->a[p])) break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = it;
}

static HeapItem heap_pop(Heap *h) {
    HeapItem top = h->a[0];
    HeapItem last = h->a[--h->len];
    i64 i = 0, n = h->len;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && item_lt(h->a[c + 1], h->a[c])) c++;
        if (!item_lt(h->a[c], last)) break;
        h->a[i] = h->a[c];
        i = c;
    }
    if (n > 0) h->a[i] = last;
    return top;
}

/* ------------------------------------------------------------- session */

typedef struct {
    /* geometry */
    i64 n_nodes, nrows, ncols;
    /* targets (sorted order) */
    i64 n_targets;
    const i64 *src, *dst, *width, *gid;
    /* borrowed numpy buffers (mutated in place) */
    double *occupancy;
    const double *capacity;
    double *history;
    const u8 *blocked; /* may be NULL */
    i64 *ws;          /* [generation, overused nodes]: carried between passes */
    i64 n_over;
    int history_dirty;
    /* params */
    double pres_fac, pres_fac_mult, hist_fac, reroute_weight;
    i64 max_expansions;
    /* iteration cost tables */
    double *cost, *hex;
    /* A* arena */
    double *g;
    i64 *parent, *stamp;
    i64 gen;
    Heap heap;
    double *ft; /* ft[d] = d * per_tile, d < nrows + ncols */
    /* usage hash */
    Hash usage;
    /* committed paths: offsets into a grow-only pool */
    i64 *pool;
    i64 pool_len, pool_cap;
    i64 *p_off, *p_len; /* p_len[t] == 0 -> no path */
    /* scratch for added / freed nodes (grown to longest path) */
    i64 *scratch;
    i64 scratch_cap;
    /* telemetry */
    i64 astar_calls, astar_expansions;
} Core;

static void ensure_scratch(Core *c, i64 need) {
    if (need > c->scratch_cap) {
        c->scratch_cap = need * 2;
        c->scratch = (i64 *)realloc(c->scratch, sizeof(i64) * c->scratch_cap);
    }
}

static i64 *pool_reserve(Core *c, i64 need) {
    if (c->pool_len + need > c->pool_cap) {
        while (c->pool_len + need > c->pool_cap) c->pool_cap *= 2;
        c->pool = (i64 *)realloc(c->pool, sizeof(i64) * c->pool_cap);
    }
    return c->pool + c->pool_len;
}

/* ------------------------------------------------------- direct path
 * Port of maze.direct_path: hex cols, single cols, hex rows, single
 * rows.  Writes nodes into out; returns the length (always >= 1). */

static i64 direct_path_c(i64 src, i64 dst, i64 nrows, i64 *out) {
    i64 len = 0;
    i64 node = src;
    out[len++] = src;
    i64 dcol = dst / nrows - src / nrows;
    i64 adc = dcol < 0 ? -dcol : dcol;
    i64 step_c = dcol > 0 ? HEX_REACH * nrows : -(HEX_REACH * nrows);
    for (i64 k = 0; k < adc / HEX_REACH; k++) {
        node += step_c;
        out[len++] = node;
    }
    step_c = dcol > 0 ? nrows : -nrows;
    for (i64 k = 0; k < adc % HEX_REACH; k++) {
        node += step_c;
        out[len++] = node;
    }
    i64 drow = dst % nrows - src % nrows;
    i64 adr = drow < 0 ? -drow : drow;
    i64 step_r = drow > 0 ? HEX_REACH : -HEX_REACH;
    for (i64 k = 0; k < adr / HEX_REACH; k++) {
        node += step_r;
        out[len++] = node;
    }
    step_r = drow > 0 ? 1 : -1;
    for (i64 k = 0; k < adr % HEX_REACH; k++) {
        node += step_r;
        out[len++] = node;
    }
    return len;
}

static i64 direct_len_bound(i64 src, i64 dst, i64 nrows) {
    i64 dcol = dst / nrows - src / nrows;
    i64 drow = dst % nrows - src % nrows;
    if (dcol < 0) dcol = -dcol;
    if (drow < 0) drow = -drow;
    return 1 + dcol / HEX_REACH + dcol % HEX_REACH + drow / HEX_REACH +
           drow % HEX_REACH;
}

/* ------------------------------------------------------ window bounds
 * A dilated bounding box of (src, dst) certified to contain every node
 * the unwindowed search pops, so clipping relaxations to it leaves the
 * pop sequence — the returned path and the expansion count — identical
 * to maze.astar_route's.
 *
 * Let D be the cost of direct_path under the current costs (an upper
 * bound on the optimal cost C*), w >= 1 the heuristic weight and c_min
 * (PER_TILE_MIN) the cheapest cost per tile.  Weighted A* returns a path
 * of cost g <= w * C* <= w * D, and every node n popped before dst has
 * f(n) <= w * g (some node of the returned path always sits in the open
 * list at its final f, which is at most w * g).  With
 * g(n) >= c_min * dist(src, n) and h(n) = c_min * w * dist(n, dst):
 *
 *     dist(src, n) + w * dist(n, dst)  <=  w^2 * D / c_min
 *
 * for every popped node.  The L1 ellipse is relaxed to its bounding
 * box: a node r tiles outside the endpoints' box has both distances
 * >= r, so r <= bound / (1 + w).  The 1e-9 is float slack only (the
 * derivation is exact in reals).  Requires cost >= 1 everywhere, as the
 * heuristic itself does. */

static double direct_cost_c(const Core *c, i64 src, i64 dst) {
    const double *cost = c->cost;
    i64 nrows = c->nrows;
    double total = 0.0;
    i64 node = src;
    i64 dcol = dst / nrows - src / nrows;
    i64 adc = dcol < 0 ? -dcol : dcol;
    i64 step_c = dcol > 0 ? HEX_REACH * nrows : -(HEX_REACH * nrows);
    for (i64 k = 0; k < adc / HEX_REACH; k++) {
        node += step_c;
        total += HEX_COST * cost[node];
    }
    step_c = dcol > 0 ? nrows : -nrows;
    for (i64 k = 0; k < adc % HEX_REACH; k++) {
        node += step_c;
        total += SINGLE_COST * cost[node];
    }
    i64 drow = dst % nrows - src % nrows;
    i64 adr = drow < 0 ? -drow : drow;
    i64 step_r = drow > 0 ? HEX_REACH : -HEX_REACH;
    for (i64 k = 0; k < adr / HEX_REACH; k++) {
        node += step_r;
        total += HEX_COST * cost[node];
    }
    step_r = drow > 0 ? 1 : -1;
    for (i64 k = 0; k < adr % HEX_REACH; k++) {
        node += step_r;
        total += SINGLE_COST * cost[node];
    }
    return total;
}

static void window_bounds_c(const Core *c, i64 src, i64 dst, i64 *out) {
    i64 nrows = c->nrows, ncols = c->ncols;
    double hw = c->reroute_weight;
    double w = hw > 1.0 ? hw : 1.0;
    double bound = w * w * direct_cost_c(c, src, dst);
    bound = bound / PER_TILE_MIN;
    double mn = w < hw ? w : hw;
    if (mn < 0.0) mn = 0.0;
    double divisor = 1.0 + mn;
    double lim = (double)(nrows + ncols);
    double r = bound * (1.0 + 1e-9) / divisor;
    if (r > lim) r = lim;
    i64 radius = (i64)r + 1;
    i64 sc = src / nrows, sr = src % nrows;
    i64 dc = dst / nrows, dr = dst % nrows;
    i64 clo = (sc < dc ? sc : dc) - radius;
    i64 rlo = (sr < dr ? sr : dr) - radius;
    i64 chi = (sc > dc ? sc : dc) + radius;
    i64 rhi = (sr > dr ? sr : dr) + radius;
    out[0] = clo > 0 ? clo : 0;
    out[1] = rlo > 0 ? rlo : 0;
    out[2] = chi < ncols - 1 ? chi : ncols - 1;
    out[3] = rhi < nrows - 1 ? rhi : nrows - 1;
}

/* -------------------------------------------------------------- A*
 * maze.astar_route over flat arena state: g / parent / stamp arrays
 * reused across searches, validated by a generation counter (stamp ==
 * gen open, == -gen closed), so a new search costs one increment instead
 * of clearing n_nodes entries.  Relaxations are clipped to the certified
 * window above, hex entry costs come premultiplied (c->hex, the same
 * IEEE product as HEX_COST * cost), and the heuristic is tabulated
 * (ft[d] = d * per_tile).  Heap entries are bare (f, node) pairs: g is
 * recoverable at first pop, because any later improvement to a node
 * pushes a strictly smaller f that pops (and closes the node) first.
 * Writes the path into the pool and returns its length, or 0 when
 * unreachable within the expansion budget. */

#define RELAX(NXT, COST_V, FDIST)                                            \
    do {                                                                     \
        i64 nxt = (NXT);                                                     \
        i64 s = stamp[nxt];                                                  \
        if (s != ngen) {                                                     \
            double ng = g + (COST_V);                                        \
            if (s != gen || g_arr[nxt] > ng) {                               \
                g_arr[nxt] = ng;                                             \
                stamp[nxt] = gen;                                            \
                parent[nxt] = node;                                          \
                heap_push(heap, ng + ft[(FDIST)], nxt);                      \
            }                                                                \
        }                                                                    \
    } while (0)

static i64 astar_c(Core *c, i64 src, i64 dst, i64 *out_cap_holder) {
    c->astar_calls++;
    if (src == dst) {
        ensure_scratch(c, 1);
        i64 *out = pool_reserve(c, 1);
        out[0] = src;
        return 1;
    }
    i64 nrows = c->nrows;
    i64 bounds[4];
    window_bounds_c(c, src, dst, bounds);
    i64 col_lo = bounds[0], row_lo = bounds[1];
    i64 col_hi = bounds[2], row_hi = bounds[3];
    i64 dc = dst / nrows, dr = dst % nrows;
    i64 hex_col = HEX_REACH * nrows;

    double *g_arr = c->g;
    i64 *parent = c->parent;
    i64 *stamp = c->stamp;
    i64 gen = ++c->gen;
    i64 ngen = -gen;
    const double *cost = c->cost;
    const double *hexl = c->hex;
    const double *ft = c->ft;
    Heap *heap = &c->heap;
    heap->len = 0;

    g_arr[src] = 0.0;
    stamp[src] = gen;
    heap_push(heap, 0.0, src);

    i64 expansions = 0;
    i64 max_expansions = c->max_expansions;

    while (heap->len > 0) {
        HeapItem top = heap_pop(heap);
        i64 node = top.node;
        if (node == dst) {
            /* reconstruct: count, reserve, fill forward */
            i64 len = 1;
            i64 cursor = dst;
            while (cursor != src) {
                cursor = parent[cursor];
                len++;
            }
            i64 *out = pool_reserve(c, len);
            i64 w = len - 1;
            cursor = dst;
            out[w--] = dst;
            while (cursor != src) {
                cursor = parent[cursor];
                out[w--] = cursor;
            }
            c->astar_expansions += expansions;
            (void)out_cap_holder;
            return len;
        }
        if (stamp[node] == ngen) continue;
        stamp[node] = ngen;
        expansions++;
        if (expansions > max_expansions) {
            c->astar_expansions += expansions;
            return 0;
        }
        double g = g_arr[node];
        i64 col = node / nrows, row = node % nrows;
        i64 cdx = col < dc ? dc - col : col - dc;
        i64 rdx = row < dr ? dr - row : row - dr;

        i64 nrow = row + 1;
        if (nrow <= row_hi)
            RELAX(node + 1, cost[node + 1],
                  cdx + (nrow < dr ? dr - nrow : nrow - dr));
        nrow = row - 1;
        if (nrow >= row_lo)
            RELAX(node - 1, cost[node - 1],
                  cdx + (nrow < dr ? dr - nrow : nrow - dr));
        i64 ncol = col + 1;
        if (ncol <= col_hi)
            RELAX(node + nrows, cost[node + nrows],
                  (ncol < dc ? dc - ncol : ncol - dc) + rdx);
        ncol = col - 1;
        if (ncol >= col_lo)
            RELAX(node - nrows, cost[node - nrows],
                  (ncol < dc ? dc - ncol : ncol - dc) + rdx);
        nrow = row + HEX_REACH;
        if (nrow <= row_hi)
            RELAX(node + HEX_REACH, hexl[node + HEX_REACH],
                  cdx + (nrow < dr ? dr - nrow : nrow - dr));
        nrow = row - HEX_REACH;
        if (nrow >= row_lo)
            RELAX(node - HEX_REACH, hexl[node - HEX_REACH],
                  cdx + (nrow < dr ? dr - nrow : nrow - dr));
        ncol = col + HEX_REACH;
        if (ncol <= col_hi)
            RELAX(node + hex_col, hexl[node + hex_col],
                  (ncol < dc ? dc - ncol : ncol - dc) + rdx);
        ncol = col - HEX_REACH;
        if (ncol >= col_lo)
            RELAX(node - hex_col, hexl[node - hex_col],
                  (ncol < dc ? dc - ncol : ncol - dc) + rdx);
    }
    c->astar_expansions += expansions;
    return 0;
}

/* -------------------------------------------------- rip / commit
 * Ports of Router._rip / Router._commit with an incremental cost
 * refresh.  The reference recomputes the cost of every node on the
 * ripped or committed path; here only the nodes whose occupancy changed
 * (freed by the rip, newly charged by the commit) are recomputed.  A
 * node's cost is a function of its occupancy, capacity and history
 * alone, and capacity and history do not change inside an iteration, so
 * every other node on the path would recompute to the value the table
 * already holds.  Iteration 0 runs no search and skips the refresh
 * altogether: route_iterate rebuilds the whole table from the arrays at
 * the top of every later iteration. */

static void refresh_nodes(Core *c, const i64 *nodes, i64 n) {
    double pres_fac = c->pres_fac, hist_fac = c->hist_fac;
    const double *occ = c->occupancy, *cap = c->capacity;
    const double *hist = c->history;
    for (i64 k = 0; k < n; k++) {
        i64 node = nodes[k];
        double over = occ[node] - cap[node];
        if (over < 0.0) over = 0.0;
        over = over / cap[node];
        double val = 1.0 + pres_fac * over + hist_fac * hist[node];
        c->cost[node] = val;
        c->hex[node] = HEX_COST * val;
    }
}

/* Add *width* to a node's occupancy, keeping the overuse count. */
static void charge(Core *c, i64 node, double width) {
    double cap = c->capacity[node];
    c->n_over -= c->occupancy[node] > cap;
    c->occupancy[node] += width;
    c->n_over += c->occupancy[node] > cap;
}

static void rip_c(Core *c, i64 t, int refresh) {
    i64 off = c->p_off[t], len = c->p_len[t];
    i64 base = c->gid[t] * c->n_nodes;
    double width = (double)c->width[t];
    i64 nf = 0;
    ensure_scratch(c, len);
    for (i64 k = off + 1; k < off + len - 1; k++) {
        i64 node = c->pool[k];
        if (hash_decr(&c->usage, base + node) == 0) c->scratch[nf++] = node;
    }
    for (i64 k = 0; k < nf; k++) charge(c, c->scratch[k], -width);
    if (refresh && nf) refresh_nodes(c, c->scratch, nf);
    c->p_len[t] = 0;
}

static void commit_c(Core *c, i64 t, i64 off, i64 len, int refresh) {
    i64 base = c->gid[t] * c->n_nodes;
    double width = (double)c->width[t];
    i64 na = 0;
    ensure_scratch(c, len);
    for (i64 k = off + 1; k < off + len - 1; k++) {
        i64 node = c->pool[k];
        if (hash_incr(&c->usage, base + node) == 0) c->scratch[na++] = node;
    }
    for (i64 k = 0; k < na; k++) charge(c, c->scratch[k], width);
    if (refresh && na) refresh_nodes(c, c->scratch, na);
    c->p_off[t] = off;
    c->p_len[t] = len;
}

static int path_overused(const Core *c, i64 t) {
    i64 off = c->p_off[t], len = c->p_len[t];
    const double *occ = c->occupancy, *cap = c->capacity;
    for (i64 k = off + 1; k < off + len - 1; k++) {
        i64 node = c->pool[k];
        if (occ[node] > cap[node]) return 1;
    }
    return 0;
}

/* ------------------------------------------------------------- API */

Core *route_new(
    i64 n_nodes, i64 nrows, i64 ncols, i64 n_targets,
    const i64 *src, const i64 *dst, const i64 *width, const i64 *gid,
    double *occupancy, const double *capacity, double *history,
    const u8 *blocked, i64 has_blocked,
    double *cost, double *hex, double *g, i64 *parent, i64 *stamp, i64 *ws,
    const i64 *pre_keys, const i64 *pre_counts, i64 n_pre,
    double pres_fac_init, double pres_fac_mult, double hist_fac,
    double reroute_weight, i64 max_expansions)
{
    Core *c = (Core *)calloc(1, sizeof(Core));
    c->n_nodes = n_nodes;
    c->nrows = nrows;
    c->ncols = ncols;
    c->n_targets = n_targets;
    c->src = src;
    c->dst = dst;
    c->width = width;
    c->gid = gid;
    c->occupancy = occupancy;
    c->capacity = capacity;
    c->history = history;
    c->blocked = has_blocked ? blocked : NULL;
    c->ws = ws;
    c->n_over = ws[1];
    c->pres_fac = pres_fac_init;
    c->pres_fac_mult = pres_fac_mult;
    c->hist_fac = hist_fac;
    c->reroute_weight = reroute_weight;
    c->max_expansions = max_expansions;

    c->cost = cost;
    c->hex = hex;
    c->g = g;
    c->parent = parent;
    c->stamp = stamp;
    c->gen = ws[0];
    c->heap.cap = 4096;
    c->heap.len = 0;
    c->heap.a = (HeapItem *)malloc(sizeof(HeapItem) * c->heap.cap);

    /* ft[d] = d * per_tile, identical to the Python heuristic's
     * distance * per_tile: int -> double conversion is exact */
    double per_tile = (HEX_COST / HEX_REACH) * reroute_weight;
    i64 nft = nrows + ncols;
    c->ft = (double *)malloc(sizeof(double) * nft);
    for (i64 d = 0; d < nft; d++) c->ft[d] = (double)d * per_tile;

    /* sized to the pass (it grows with the paths committed) */
    i64 hcap = 1 << 10;
    while (hcap < (n_pre + n_targets) * 2) hcap <<= 1;
    hash_init(&c->usage, hcap);
    for (i64 i = 0; i < n_pre; i++)
        hash_put_fresh(&c->usage, pre_keys[i], pre_counts[i]);

    c->pool_cap = 1 << 12;
    c->pool = (i64 *)malloc(sizeof(i64) * c->pool_cap);
    c->pool_len = 0;
    c->p_off = (i64 *)calloc(n_targets, sizeof(i64));
    c->p_len = (i64 *)calloc(n_targets, sizeof(i64));
    c->scratch_cap = 1024;
    c->scratch = (i64 *)malloc(sizeof(i64) * c->scratch_cap);
    return c;
}

/* One negotiation iteration.  out: failed, ripped, n_over,
 * astar_calls_delta, astar_expansions_delta.  failed is always 0 (a
 * search that gives up falls back to the direct path); the driver does
 * not read it. */
void route_iterate(Core *c, i64 iteration, i64 *out) {
    i64 n = c->n_targets;
    i64 failed = 0, ripped = 0;
    i64 calls0 = c->astar_calls, exps0 = c->astar_expansions;

    if (iteration == 0) {
        for (i64 t = 0; t < n; t++) {
            i64 bound = direct_len_bound(c->src[t], c->dst[t], c->nrows);
            i64 *out_p = pool_reserve(c, bound);
            i64 off = c->pool_len;
            i64 len = direct_path_c(c->src[t], c->dst[t], c->nrows, out_p);
            c->pool_len += len;
            commit_c(c, t, off, len, 0);
        }
    } else {
        /* escalate history / pres_fac for the previous iteration (the
         * Python loop does this after its break check; reaching here
         * means it didn't break) */
        const double *occ = c->occupancy, *cap = c->capacity;
        for (i64 i = 0; i < c->n_nodes; i++) {
            double over = occ[i] - cap[i];
            if (over < 0.0) over = 0.0;
            c->history[i] += over / cap[i];
        }
        c->history_dirty = 1;
        c->pres_fac *= c->pres_fac_mult;

        /* rebuild the iteration's cost tables from the arrays */
        double pres_fac = c->pres_fac, hist_fac = c->hist_fac;
        for (i64 i = 0; i < c->n_nodes; i++) {
            double over = occ[i] - cap[i];
            if (over < 0.0) over = 0.0;
            over = over / cap[i];
            double val = 1.0 + pres_fac * over + hist_fac * c->history[i];
            if (c->blocked && c->blocked[i]) val = BLOCK_COST;
            c->cost[i] = val;
            c->hex[i] = HEX_COST * val;
        }

        for (i64 t = 0; t < n; t++) {
            if (c->p_len[t] > 0) {
                if (!path_overused(c, t)) continue;
                ripped++;
                rip_c(c, t, 1);
            }
            i64 off = c->pool_len;
            i64 len = astar_c(c, c->src[t], c->dst[t], NULL);
            if (len == 0) {
                i64 bound = direct_len_bound(c->src[t], c->dst[t], c->nrows);
                i64 *out_p = pool_reserve(c, bound);
                off = c->pool_len;
                len = direct_path_c(c->src[t], c->dst[t], c->nrows, out_p);
            }
            c->pool_len += len;
            commit_c(c, t, off, len, 1);
        }
    }

    out[0] = failed;
    out[1] = ripped;
    out[2] = c->n_over;
    out[3] = c->astar_calls - calls0;
    out[4] = c->astar_expansions - exps0;
}

i64 route_paths_size(Core *c) {
    i64 total = 0;
    for (i64 t = 0; t < c->n_targets; t++) total += c->p_len[t];
    return total;
}

/* The committed paths as one CSR; returns their wirelength, the tiles
 * every hop spans (RoutingGraph.path_metrics), summed. */
i64 route_paths_fill(Core *c, i64 *flat, i64 *offs) {
    i64 w = 0, tiles = 0, nrows = c->nrows;
    offs[0] = 0;
    for (i64 t = 0; t < c->n_targets; t++) {
        i64 len = c->p_len[t];
        const i64 *path = c->pool + c->p_off[t];
        if (len) memcpy(flat + w, path, sizeof(i64) * len);
        for (i64 k = 1; k < len; k++) {
            i64 dc = path[k] / nrows - path[k - 1] / nrows;
            i64 dr = path[k] % nrows - path[k - 1] % nrows;
            tiles += (dc < 0 ? -dc : dc) + (dr < 0 ? -dr : dr);
        }
        w += len;
        offs[t + 1] = w;
    }
    return tiles;
}

/* Ends the pass: hands the borrowed buffers back as the next pass needs
 * them (the generation and overuse count in ws, history zero). */
void route_free(Core *c) {
    c->ws[0] = c->gen;
    c->ws[1] = c->n_over;
    if (c->history_dirty) memset(c->history, 0, sizeof(double) * c->n_nodes);
    free(c->heap.a);
    free(c->ft);
    free(c->usage.keys);
    free(c->usage.vals);
    free(c->pool);
    free(c->p_off);
    free(c->p_len);
    free(c->scratch);
    free(c);
}
