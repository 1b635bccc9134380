/* Native core of the simulated-annealing detailed placer: two entry
 * points over the same flat arrays, anneal_sweep (the Metropolis move
 * loop, below) and clump_pass (the directed post-pass, at the end).
 *
 * The Metropolis sweep of anneal_reference (_annealer_reference.py)
 * with per-net bounding boxes cached instead of rescanned: the same
 * moves in the same order, a merge-walk over the two per-cell net lists
 * for swaps (ascending like the reference's sorted union; a net on both
 * lists permutes its pins in place and keeps its cost), the same
 * Metropolis test, the same best-state checkpoints.
 *
 * The sweep is resumable: one call runs a range of steps, and
 * anneal_native (native.py) calls it once per chunk of the random
 * streams that move_streams (annealer.py) yields, so the streams never
 * need to be in memory for the whole budget.  The loop state lives in
 * out_i / out_d between calls; a sweep cut into any chunks is the
 * one-call sweep.
 *
 * Bounding-box rules — what keeps the cached boxes equal to a rescan:
 *   - evaluating a move never writes the cache.  A pin leaving the
 *     strict interior of its net's box can only grow the box toward the
 *     new position (O(1)); a pin leaving from the boundary may shrink
 *     it, so that net is rescanned from its pins (net_box); a net of
 *     two movable pins and no fixed pin is the min/max of two points;
 *   - an accepted move rescans every affected net and stores box and
 *     cost (rescan-on-commit).  Acceptances are rare under the quench
 *     schedule, so this is cheaper than staging boxes on every
 *     evaluation, and it reproduces the evaluation's boxes exactly: the
 *     O(1) growth equals a rescan when the cache was current, and a
 *     swap-shared net's rescan rewrites its unchanged box.
 *
 * Every floating-point operation is performed on IEEE doubles in the
 * operand order of the reference and exp() resolves to the same libm
 * the CPython math module wraps, so the accept/reject stream and all
 * costs are bit-identical to it — tests/test_property_place.py asserts
 * this, and the build (repro/_native.py) disables FP contraction so the
 * compiler cannot fuse an a*b+c into an fma and perturb low bits.
 *
 * Compiled on demand with the system C compiler and loaded via ctypes;
 * where that fails anneal() runs the reference instead.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define QUAD_K 120.0

/* Rescan one net's bounding box from its pins plus fixed extremes, in
 * the order _net_cost (annealer.py) walks them: head seeds the box,
 * tails use if/elif comparisons, fixed extremes fold in last. */
static inline void net_box(
    int64_t k, const int64_t *net_offs, const int64_t *net_pins,
    const double *fx0, const double *fx1, const double *fy0, const double *fy1,
    const double *xs, const double *ys,
    double *px0, double *px1, double *py0, double *py1)
{
    int64_t a = net_offs[k], b = net_offs[k + 1];
    int64_t p = net_pins[a];
    double x0 = xs[p], x1 = x0, y0 = ys[p], y1 = y0;
    for (int64_t q = a + 1; q < b; q++) {
        p = net_pins[q];
        double x = xs[p], y = ys[p];
        if (x < x0) x0 = x; else if (x > x1) x1 = x;
        if (y < y0) y0 = y; else if (y > y1) y1 = y;
    }
    double f = fx0[k];
    if (f < x0) x0 = f;
    f = fx1[k];
    if (f > x1) x1 = f;
    f = fy0[k];
    if (f < y0) y0 = f;
    f = fy1[k];
    if (f > y1) y1 = f;
    *px0 = x0; *px1 = x1; *py0 = y0; *py1 = y1;
}

/* One call runs steps [step_begin, step_end) of a budget-step sweep, so
 * the caller can feed the random streams a chunk at a time
 * (move_streams in annealer.py): cell_picks covers the whole budget and
 * is indexed by the step, the four float streams cover this chunk only
 * and are indexed by step - step_begin.  Everything else is global —
 * the move window shrinks with the step over the whole budget, and the
 * loop state is carried from call to call in out_i / out_d, which the
 * caller seeds before step 0:
 *   out_i: [accepted, bbox_fast, bbox_rescan, n_checkpoints, next_checkpoint]
 *   out_d: [running, best_cost, temperature]
 * The best state is copied from the start positions only at step 0. */
void anneal_sweep(
    int64_t n, int64_t budget, int64_t nrows, int64_t nsites,
    double alpha, int64_t checkpoint_every,
    double *xs, double *ys,
    const int64_t *net_offs, const int64_t *net_pins,
    const double *fx0, const double *fx1, const double *fy0, const double *fy1,
    const double *net_w, const uint8_t *net_two, const int64_t *net_psum,
    double *bx0, double *bx1, double *by0, double *by1, double *cost,
    const int64_t *cell_net_offs, const int64_t *cell_nets,
    int64_t *occ,
    const int64_t *cell_t,
    const int64_t *tcols_offs, const int64_t *tcols_flat,
    const int64_t *trmin, const int64_t *trmax,
    const uint8_t *grids,
    const int64_t *pool_offs, const int64_t *pool_flat,
    const int32_t *cell_picks, /* (budget,), indexed by step */
    double w_min, double w_max,
    double *best_xs, double *best_ys,
    int64_t *affected, /* workspace, capacity >= 2 * max cell degree */
    int64_t *ck_steps, double *ck_cost, double *ck_temp,
    int64_t *out_i, double *out_d,
    int64_t step_begin, int64_t step_end,
    /* this chunk's streams, indexed by step - step_begin */
    const double *uniforms, const double *pool_picks, const double *hop_picks,
    const double *offset_picks) /* (chunk, 2) uniforms: column, row */
{
    int64_t accepted = out_i[0], bbox_fast = out_i[1], bbox_rescan = out_i[2];
    int64_t nck = out_i[3], next_checkpoint = out_i[4];
    double running = out_d[0], best_cost = out_d[1], temperature = out_d[2];
    const int64_t BIG = (int64_t)1 << 60;

    if (step_begin == 0) {
        memcpy(best_xs, xs, (size_t)n * sizeof(double));
        memcpy(best_ys, ys, (size_t)n * sizeof(double));
    }

    for (int64_t step = step_begin; step < step_end; step++) {
        int64_t c = step - step_begin; /* index into the chunk */
        int64_t i = cell_picks[step];
        int64_t oxi = (int64_t)xs[i];
        int64_t oyi = (int64_t)ys[i];
        int64_t t = cell_t[i];
        int64_t tcol, trow, tkey;
        if (pool_picks[c] < 0.05) {
            int64_t npool = pool_offs[t + 1] - pool_offs[t];
            int64_t idx = ((int64_t)(hop_picks[c] * (double)npool)) % npool;
            const int64_t *s = pool_flat + 2 * (pool_offs[t] + idx);
            tcol = s[0];
            trow = s[1];
            tkey = tcol * nrows + trow;
        } else {
            /* range-limited target: the window shrinks linearly as the
             * schedule cools (the reference's arithmetic, term by term) */
            double window = w_max * (1.0 - (double)step / (double)budget);
            if (w_min > window) window = w_min;
            double want_col =
                (double)oxi + (offset_picks[2 * c] * 2.0 - 1.0) * window;
            const int64_t *cols = tcols_flat + tcols_offs[t];
            int64_t nc = tcols_offs[t + 1] - tcols_offs[t];
            /* bisect_left over the sorted columns (ints compare exactly
             * as doubles), then snap to the nearer neighbour */
            int64_t lo = 0, hi = nc;
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if ((double)cols[mid] < want_col) lo = mid + 1;
                else hi = mid;
            }
            int64_t k = lo;
            if (k >= nc) k = nc - 1;
            else if (k > 0 &&
                     want_col - (double)cols[k - 1] < (double)cols[k] - want_col)
                k -= 1;
            tcol = cols[k];
            double want_row =
                (double)oyi + (offset_picks[2 * c + 1] * 2.0 - 1.0) * window;
            double rlo = (double)trmin[t], rhi = (double)trmax[t];
            trow = (int64_t)(want_row < rlo ? rlo : (want_row > rhi ? rhi : want_row));
            tkey = tcol * nrows + trow;
            if (!grids[t * nsites + tkey]) {
                temperature *= alpha;
                continue;
            }
        }
        if (tcol == oxi && trow == oyi) {
            temperature *= alpha;
            continue;
        }
        int64_t j = occ[tkey];

        double oxf = xs[i], oyf = ys[i];
        double nxf = (double)tcol, nyf = (double)trow;
        xs[i] = nxf;
        ys[i] = nyf;
        double before = 0.0, after = 0.0;
        int64_t na = 0;
        if (j < 0) {
            /* move into an empty site: only cell i's pin moves */
            int64_t a0 = cell_net_offs[i], a1 = cell_net_offs[i + 1];
            for (int64_t q = a0; q < a1; q++) {
                int64_t k = cell_nets[q];
                affected[na++] = k;
                before += cost[k];
                double x0, x1, y0, y1;
                if (net_two[k]) {
                    bbox_fast++;
                    int64_t o = net_psum[k] - i;
                    double x = xs[o], y = ys[o];
                    if (x < nxf) { x0 = x; x1 = nxf; } else { x0 = nxf; x1 = x; }
                    if (y < nyf) { y0 = y; y1 = nyf; } else { y0 = nyf; y1 = y; }
                } else {
                    x0 = bx0[k]; x1 = bx1[k]; y0 = by0[k]; y1 = by1[k];
                    if (x0 < oxf && oxf < x1 && y0 < oyf && oyf < y1) {
                        bbox_fast++;
                        if (nxf < x0) x0 = nxf;
                        else if (nxf > x1) x1 = nxf;
                        if (nyf < y0) y0 = nyf;
                        else if (nyf > y1) y1 = nyf;
                    } else {
                        bbox_rescan++;
                        net_box(k, net_offs, net_pins, fx0, fx1, fy0, fy1,
                                xs, ys, &x0, &x1, &y0, &y1);
                    }
                }
                double hpwl = (x1 - x0) + (y1 - y0);
                after += (hpwl + hpwl * hpwl / QUAD_K) * net_w[k];
            }
        } else {
            /* swap: merge-walk the two ascending net lists; a net shared
             * by both cells permutes pins in place — cost unchanged */
            xs[j] = oxf;
            ys[j] = oyf;
            int64_t a = cell_net_offs[i] + 1, la = cell_net_offs[i + 1];
            int64_t b = cell_net_offs[j] + 1, lb = cell_net_offs[j + 1];
            int64_t u = a - 1 < la ? cell_nets[a - 1] : BIG;
            int64_t v = b - 1 < lb ? cell_nets[b - 1] : BIG;
            for (;;) {
                int64_t k, m;
                double mx, my, pox, poy;
                if (u < v) {
                    k = u;
                    u = a < la ? cell_nets[a] : BIG;
                    a++;
                    m = i; mx = nxf; my = nyf; pox = oxf; poy = oyf;
                } else if (v < u) {
                    k = v;
                    v = b < lb ? cell_nets[b] : BIG;
                    b++;
                    m = j; mx = oxf; my = oyf; pox = nxf; poy = nyf;
                } else if (u == BIG) {
                    break;
                } else {
                    k = u;
                    u = a < la ? cell_nets[a] : BIG;
                    a++;
                    v = b < lb ? cell_nets[b] : BIG;
                    b++;
                    affected[na++] = k;
                    double ck = cost[k];
                    before += ck;
                    after += ck;
                    continue;
                }
                affected[na++] = k;
                before += cost[k];
                double x0, x1, y0, y1;
                if (net_two[k]) {
                    bbox_fast++;
                    int64_t o = net_psum[k] - m;
                    double x = xs[o], y = ys[o];
                    if (x < mx) { x0 = x; x1 = mx; } else { x0 = mx; x1 = x; }
                    if (y < my) { y0 = y; y1 = my; } else { y0 = my; y1 = y; }
                } else {
                    x0 = bx0[k]; x1 = bx1[k]; y0 = by0[k]; y1 = by1[k];
                    if (x0 < pox && pox < x1 && y0 < poy && poy < y1) {
                        bbox_fast++;
                        if (mx < x0) x0 = mx;
                        else if (mx > x1) x1 = mx;
                        if (my < y0) y0 = my;
                        else if (my > y1) y1 = my;
                    } else {
                        bbox_rescan++;
                        net_box(k, net_offs, net_pins, fx0, fx1, fy0, fy1,
                                xs, ys, &x0, &x1, &y0, &y1);
                    }
                }
                double hpwl = (x1 - x0) + (y1 - y0);
                after += (hpwl + hpwl * hpwl / QUAD_K) * net_w[k];
            }
        }
        double delta = after - before;
        if (delta <= 0.0 || uniforms[c] < exp(-delta / temperature)) {
            accepted++;
            running += delta;
            for (int64_t q = 0; q < na; q++) {
                int64_t k = affected[q];
                double x0, x1, y0, y1;
                net_box(k, net_offs, net_pins, fx0, fx1, fy0, fy1,
                        xs, ys, &x0, &x1, &y0, &y1);
                bx0[k] = x0; bx1[k] = x1; by0[k] = y0; by1[k] = y1;
                double hpwl = (x1 - x0) + (y1 - y0);
                cost[k] = (hpwl + hpwl * hpwl / QUAD_K) * net_w[k];
            }
            occ[tkey] = i;
            int64_t okey = oxi * nrows + oyi;
            if (j >= 0) {
                occ[okey] = j;
            } else {
                occ[okey] = -1;
            }
        } else {
            xs[i] = oxf;
            ys[i] = oyf;
            if (j >= 0) {
                xs[j] = nxf;
                ys[j] = nyf;
            }
        }
        temperature *= alpha;
        if (step == next_checkpoint) {
            next_checkpoint += checkpoint_every;
            if (running < best_cost) {
                best_cost = running;
                memcpy(best_xs, xs, (size_t)n * sizeof(double));
                memcpy(best_ys, ys, (size_t)n * sizeof(double));
            }
            ck_steps[nck] = step;
            ck_cost[nck] = running;
            ck_temp[nck] = temperature;
            nck++;
        }
    }

    out_i[0] = accepted;
    out_i[1] = bbox_fast;
    out_i[2] = bbox_rescan;
    out_i[3] = nck;
    out_i[4] = next_checkpoint;
    out_d[0] = running;
    out_d[1] = best_cost;
    out_d[2] = temperature;
}

/* ------------------------------------------------------------------ */
/* Directed post-pass: clump the longest nets.
 *
 * The tail of anneal_reference, statement for statement.  Each pass
 * orders the nets by descending cost (stable: ties keep ascending index,
 * like sorted(key=-cost)), takes the worst fiftieth, and pulls every pin
 * further than 16 tiles (Manhattan) from its net's upper-median point to
 * the legal site nearest that point — a move into a free site or a swap
 * with the occupant — when that strictly lowers the summed cost of the
 * affected nets.  A swap's affected nets are the sorted union of the two
 * cells' lists.  Costs are rescanned in full (net_box) and summed the
 * way the reference does (repro._util.sum_left_to_right): left to right,
 * one addition at a time, whatever the interpreter's builtin sum() does.
 */

/* Exported (not static) so the test suite can hold it against the
 * reference's sum directly. */
double sum_left_to_right(const double *v, int64_t n)
{
    double f = 0.0;
    for (int64_t q = 0; q < n; q++) f += v[q];
    return f;
}

/* Stable bottom-up merge sort of the net indices by descending cost. */
static int64_t *order_by_cost(int64_t n, const double *cost, int64_t *a, int64_t *b)
{
    for (int64_t k = 0; k < n; k++) a[k] = k;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t l = lo, r = mid, o = lo;
            while (l < mid && r < hi)
                b[o++] = cost[a[r]] > cost[a[l]] ? a[r++] : a[l++];
            while (l < mid) b[o++] = a[l++];
            while (r < hi) b[o++] = a[r++];
        }
        int64_t *t = a; a = b; b = t;
    }
    return a;
}

/* Upper median of the n values in buf (sorted in place). */
static double upper_median(double *buf, int64_t n)
{
    for (int64_t q = 1; q < n; q++) {
        double v = buf[q];
        int64_t p = q;
        while (p > 0 && buf[p - 1] > v) { buf[p] = buf[p - 1]; p--; }
        buf[p] = v;
    }
    return buf[n / 2];
}

void clump_pass(
    int64_t n, int64_t n_nets, int64_t nrows, int64_t nsites,
    int64_t passes,
    double *xs, double *ys,
    const int64_t *net_offs, const int64_t *net_pins,
    const double *fx0, const double *fx1, const double *fy0, const double *fy1,
    const double *net_w, double *cost,
    const int64_t *cell_net_offs, const int64_t *cell_nets,
    int64_t *occ,
    const int64_t *cell_t,
    const int64_t *tcols_offs, const int64_t *tcols_flat,
    const int64_t *trmin, const int64_t *trmax,
    const uint8_t *grids,
    int64_t *affected, double *sums, /* capacity >= 2 * max cell degree */
    int64_t *order_a, int64_t *order_b, /* n_nets each */
    double *median_buf,                 /* capacity >= longest net */
    double *final_cost)
{
    for (int64_t s = 0; s < nsites; s++) occ[s] = -1;
    for (int64_t i = 0; i < n; i++)
        occ[(int64_t)xs[i] * nrows + (int64_t)ys[i]] = i;

    int64_t worst = n_nets / 50 > 1 ? n_nets / 50 : 1;
    for (int64_t pass = 0; pass < passes; pass++) {
        const int64_t *order = order_by_cost(n_nets, cost, order_a, order_b);
        int64_t changed = 0;
        for (int64_t w = 0; w < worst; w++) {
            int64_t net = order[w];
            int64_t a = net_offs[net], b = net_offs[net + 1];
            for (int64_t q = a; q < b; q++) median_buf[q - a] = xs[net_pins[q]];
            double cx = upper_median(median_buf, b - a);
            for (int64_t q = a; q < b; q++) median_buf[q - a] = ys[net_pins[q]];
            double cy = upper_median(median_buf, b - a);
            for (int64_t q = a; q < b; q++) {
                int64_t i = net_pins[q];
                if (fabs(xs[i] - cx) + fabs(ys[i] - cy) < 16.0) continue;
                int64_t t = cell_t[i];
                const int64_t *cols = tcols_flat + tcols_offs[t];
                int64_t nc = tcols_offs[t + 1] - tcols_offs[t];
                int64_t lo = 0, hi = nc;
                while (lo < hi) {
                    int64_t mid = (lo + hi) >> 1;
                    if ((double)cols[mid] < cx) lo = mid + 1;
                    else hi = mid;
                }
                int64_t k = lo;
                if (k >= nc) k = nc - 1;
                else if (k > 0 &&
                         fabs((double)cols[k - 1] - cx) < fabs((double)cols[k] - cx))
                    k -= 1;
                int64_t tcol = cols[k];
                double rlo = (double)trmin[t], rhi = (double)trmax[t];
                int64_t trow = (int64_t)(cy < rlo ? rlo : (cy > rhi ? rhi : cy));
                int64_t tkey = tcol * nrows + trow;
                if (!grids[t * nsites + tkey]) continue;
                int64_t oxi = (int64_t)xs[i], oyi = (int64_t)ys[i];
                if (tcol == oxi && trow == oyi) continue;
                int64_t j = occ[tkey];

                /* affected nets: cell i's list, or its sorted union with j's */
                int64_t na = 0;
                int64_t u = cell_net_offs[i], ue = cell_net_offs[i + 1];
                if (j < 0) {
                    while (u < ue) affected[na++] = cell_nets[u++];
                } else {
                    int64_t v = cell_net_offs[j], ve = cell_net_offs[j + 1];
                    while (u < ue || v < ve) {
                        int64_t m;
                        if (v >= ve || (u < ue && cell_nets[u] <= cell_nets[v]))
                            m = cell_nets[u++];
                        else
                            m = cell_nets[v++];
                        if (na == 0 || affected[na - 1] != m) affected[na++] = m;
                    }
                }
                for (int64_t p = 0; p < na; p++) sums[p] = cost[affected[p]];
                double before = sum_left_to_right(sums, na);

                double nxf = (double)tcol, nyf = (double)trow;
                double oxf = (double)oxi, oyf = (double)oyi;
                xs[i] = nxf; ys[i] = nyf;
                if (j >= 0) { xs[j] = oxf; ys[j] = oyf; }
                for (int64_t p = 0; p < na; p++) {
                    int64_t m = affected[p];
                    double x0, x1, y0, y1;
                    net_box(m, net_offs, net_pins, fx0, fx1, fy0, fy1,
                            xs, ys, &x0, &x1, &y0, &y1);
                    double hpwl = (x1 - x0) + (y1 - y0);
                    sums[p] = (hpwl + hpwl * hpwl / QUAD_K) * net_w[m];
                }
                double delta = sum_left_to_right(sums, na) - before;
                if (delta < 0.0) {
                    for (int64_t p = 0; p < na; p++) cost[affected[p]] = sums[p];
                    occ[tkey] = i;
                    occ[oxi * nrows + oyi] = j; /* the swapped cell, or -1: free */
                    *final_cost += delta;
                    changed++;
                } else {
                    xs[i] = oxf; ys[i] = oyf;
                    if (j >= 0) { xs[j] = nxf; ys[j] = nyf; }
                }
            }
        }
        if (!changed) break;
    }
}
