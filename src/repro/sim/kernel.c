/*
 * Compiled bank-segment kernel of the batched engine.
 *
 * repro_serve_segment() serves one bank's accesses of one epoch segment
 * exactly as the scalar oracle (MemorySystem.access) does, one access
 * at a time: BankState.serve_access with its _drain_until, then the
 * scheme's access (SCAScheme, PRAScheme, PRCATScheme/DRCATScheme over
 * CounterTree, or CounterCacheScheme), then BankState.serve_refresh for
 * every command the access emitted, at that access's completion time.
 * Each function below mirrors the Python method of the same name
 * statement by statement, except lookup, which reads a block map
 * instead of descending the pointer tree, and the counter cache's
 * _store, which writes through the count lookup_increment returned
 * instead of searching the set again.  Integer registers are exact;
 * the float registers stay on the quarter-ns grid, where every double
 * operation is exact as long as it runs in the oracle's order, so the
 * library is built with -ffp-contract=off (no a*b+c fused into an FMA)
 * and never with -ffast-math (no reassociation).
 *
 * Registers cross as flat arrays laid out by repro.sim.kernel,
 * CounterTree.registers() and CounterCacheScheme.registers().  The call
 * stops early when the event buffer could overflow and reports where it
 * stopped, so the caller can drain the buffer and continue.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SCA = 0, PRA = 1, PRCAT = 2, DRCAT = 3, CCACHE = 4 };

/* cfg[]: the static configuration (read only). */
enum {
    C_KIND, C_ROWS, C_T, C_ESCALATE, C_WEIGHT_MAX, C_WEIGHT_SPLIT, C_BUDGET,
    C_GROUP = 7, C_GROUP_SHIFT,       /* SCA: rows per group, its log2 or -1 */
    C_CUT = 7,                        /* PRA: draws below it refresh */
    C_SETS = 7, C_WAYS, C_LINE,       /* ccache: geometry, counters per line */
    C_M = 7, C_LEVELS, C_PRESPLIT, C_ADDR_BITS, C_WEIGHTS, C_CASCADE,
    C_SPLIT_AT                        /* CAT: split threshold per level */
};

/* The tree register header; the per-counter arrays follow it. */
enum {
    H_FREE_C, H_FREE_I, H_ACTIVE, H_ROOT, H_ROOT_LEAF, H_BUDGET, H_SPLITS,
    H_MERGES, H_REFRESHES, H_ROWS, H_READS, H_CASCADES, H_SIZE
};

/* The counter-cache register header; each set's way count follows it,
 * then n_ways ways per set of [tag, line counts], MRU first. */
enum { R_HITS, R_MISSES, R_WRITEBACKS, R_SIZE };

typedef struct {
    double t_rc, t_op, free_at, busy, stall;
    int64_t backlog, activations, refreshed, escalations, escalate;
} Bank;

typedef struct {
    int64_t m, levels, presplit, addr_bits, weights, T, n_rows;
    int64_t weight_max, weight_split, budget;
    const int64_t *split_at;
    int64_t *h, *count, *weight, *blocked, *level, *low, *high, *active;
    int64_t *child_l, *child_r, *leaf_l, *leaf_r, *inode_active;
    int64_t *free_c, *free_i;
    /* block -> covering counter: every leaf spans whole blocks of
     * n_rows >> (levels - 1) rows, so this map mirrors the pointer tree */
    int64_t *block_map, block_shift;
    int err;
} Tree;

typedef struct {
    int64_t n_sets, n_ways, line, n_rows;
    int64_t *h, *fill, *ways, *memory; /* memory: the backing store */
} Cache;

static int64_t row_count(int64_t low, int64_t high, int64_t n_rows)
{
    if (low < 0)
        low = 0;
    if (high > n_rows - 1)
        high = n_rows - 1;
    return high >= low ? high - low + 1 : 0;
}

/* -- the bank model (repro.dram.bank.BankState) ---------------------- */

static double drain_until(Bank *b, double start)
{
    double gap = start - b->free_at;
    if (gap <= 0)
        return start;
    int64_t ops_fit = (int64_t)(gap / b->t_op);
    if (ops_fit >= b->backlog) {
        b->busy += (double)b->backlog * b->t_op;
        b->backlog = 0;
        return start;
    }
    double residual = b->t_op - (gap - (double)ops_fit * b->t_op);
    int64_t completed = ops_fit + 1;
    b->busy += (double)completed * b->t_op;
    b->backlog -= completed;
    b->stall += residual;
    return start + residual;
}

static double serve_access(Bank *b, double arrival)
{
    double start = b->free_at > arrival ? b->free_at : arrival;
    if (b->backlog > 0)
        start = drain_until(b, start);
    double done = start + b->t_rc;
    b->free_at = done;
    b->activations += 1;
    return done;
}

static void serve_refresh(Bank *b, double arrival, int64_t n_rows)
{
    if (n_rows <= 0)
        return;
    b->backlog += n_rows;
    b->refreshed += n_rows;
    if (b->backlog > b->escalate) {
        double duration = (double)b->backlog * b->t_op;
        double begin = b->free_at > arrival ? b->free_at : arrival;
        b->free_at = begin + duration;
        b->busy += duration;
        b->stall += duration;
        b->backlog = 0;
        b->escalations += 1;
    }
}

/* -- the counter tree (repro.core.counter_tree.CounterTree) ---------- */

/* The descent from the root reads one SRAM word per level plus the
 * leaf, 1 + level reads in all (a root leaf is at level 0); the block
 * map finds the same leaf in one step. */
static int64_t lookup(Tree *t, int64_t row)
{
    int64_t idx = t->block_map[row >> t->block_shift];
    t->h[H_READS] += 1 + t->level[idx];
    return idx;
}

static void map_range(Tree *t, int64_t low, int64_t high, int64_t counter)
{
    for (int64_t b = low >> t->block_shift; b <= high >> t->block_shift; b++)
        t->block_map[b] = counter;
}

static void replace_slot(Tree *t, int64_t row, int64_t old_leaf, int64_t new_node)
{
    if (t->h[H_ROOT_LEAF]) {
        t->h[H_ROOT] = new_node;
        t->h[H_ROOT_LEAF] = 0;
        return;
    }
    int64_t node = t->h[H_ROOT], shift = t->addr_bits - 1;
    for (;;) {
        int64_t bit = (row >> shift) & 1, nxt, is_leaf;
        shift -= 1;
        if (bit) {
            nxt = t->child_r[node];
            is_leaf = t->leaf_r[node];
            if (is_leaf && nxt == old_leaf) {
                t->child_r[node] = new_node;
                t->leaf_r[node] = 0;
                return;
            }
        } else {
            nxt = t->child_l[node];
            is_leaf = t->leaf_l[node];
            if (is_leaf && nxt == old_leaf) {
                t->child_l[node] = new_node;
                t->leaf_l[node] = 0;
                return;
            }
        }
        if (is_leaf) {
            t->err = 1; /* "leaf mismatch during split repointing" */
            return;
        }
        node = nxt;
    }
}

/* Splits leaf idx (the caller checked the free list); returns the new
 * counter, which pops from the tail of the free stack. */
static int64_t split(Tree *t, int64_t idx, int64_t row)
{
    int64_t new = t->free_c[--t->h[H_FREE_C]];
    t->h[H_ACTIVE] += 1;
    int64_t low = t->low[idx], high = t->high[idx], mid = (low + high) / 2;
    t->count[new] = t->count[idx];
    t->level[idx] += 1;
    t->level[new] = t->level[idx];
    t->high[idx] = mid;
    t->low[new] = mid + 1;
    t->high[new] = high;
    t->active[new] = 1;
    if (t->weights)
        t->weight[new] = t->weight[idx];
    int64_t inode = t->free_i[--t->h[H_FREE_I]];
    t->inode_active[inode] = 1;
    t->child_l[inode] = idx;
    t->child_r[inode] = new;
    t->leaf_l[inode] = 1;
    t->leaf_r[inode] = 1;
    replace_slot(t, row, idx, inode);
    map_range(t, mid + 1, high, new);
    t->h[H_SPLITS] += 1;
    return new;
}

static void bump_weight(Tree *t, int64_t hot)
{
    int64_t step = t->level[hot] < t->levels - 1 ? 2 : 1;
    int64_t w = t->weight[hot] + step;
    if (w > t->weight_max)
        w = t->weight_max;
    for (int64_t i = 0; i < t->m; i++)
        if (t->weight[i] > 0)
            t->weight[i] -= 1;
    t->weight[hot] = w;
}

/* The coldest mergeable pair's inode (-1: none).  gate is already
 * capped at T - 1; ties go to the lowest inode. */
static int64_t find_cold_pair(Tree *t, int64_t exclude, int64_t gate)
{
    if (t->h[H_ROOT_LEAF])
        return -1;
    int64_t best = -1, best_count = 0;
    for (int64_t j = 0; j < t->m - 1; j++) {
        if (!t->inode_active[j] || !t->leaf_l[j] || !t->leaf_r[j])
            continue;
        int64_t left = t->child_l[j], right = t->child_r[j];
        if (t->level[left] < t->presplit || t->weight[left] || t->weight[right])
            continue;
        if (left == exclude || right == exclude)
            continue;
        int64_t merged = t->count[left] > t->count[right] ? t->count[left] : t->count[right];
        if (merged <= gate && (best < 0 || merged < best_count)) {
            best = j;
            best_count = merged;
        }
    }
    return best;
}

static int64_t parent_of_inode(Tree *t, int64_t inode, int64_t *slot_right)
{
    *slot_right = 0;
    if (t->h[H_ROOT] == inode)
        return -1;
    int64_t row = t->low[t->child_l[inode]];
    int64_t node = t->h[H_ROOT], shift = t->addr_bits - 1;
    for (;;) {
        int64_t bit = (row >> shift) & 1;
        shift -= 1;
        int64_t nxt = bit ? t->child_r[node] : t->child_l[node];
        if (nxt == inode) {
            *slot_right = bit;
            return node;
        }
        node = nxt;
    }
}

static int reconfigure(Tree *t, int64_t hot, int64_t gate)
{
    if (!t->active[hot] || t->level[hot] >= t->levels - 1 || t->high[hot] == t->low[hot])
        return 0;
    int64_t inode = find_cold_pair(t, hot, gate);
    if (inode < 0)
        return 0;
    int64_t slot_right, parent = parent_of_inode(t, inode, &slot_right);
    int64_t left = t->child_l[inode], right = t->child_r[inode];
    map_range(t, t->low[right], t->high[right], left);
    if (t->count[right] > t->count[left])
        t->count[left] = t->count[right];
    t->level[left] -= 1;
    t->high[left] = t->high[right];
    t->active[right] = 0;
    t->count[right] = 0;
    t->weight[right] = 0;
    t->free_c[t->h[H_FREE_C]++] = right;
    t->inode_active[inode] = 0;
    t->free_i[t->h[H_FREE_I]++] = inode;
    if (parent < 0) {
        t->h[H_ROOT] = left;
        t->h[H_ROOT_LEAF] = 1;
    } else if (slot_right) {
        t->child_r[parent] = left;
        t->leaf_r[parent] = 1;
    } else {
        t->child_l[parent] = left;
        t->leaf_l[parent] = 1;
    }
    t->h[H_ACTIVE] -= 1;
    t->h[H_MERGES] += 1;
    int64_t sibling = split(t, hot, t->low[hot]);
    t->weight[hot] = t->weight_split;
    t->weight[sibling] = t->weight_split;
    return 1;
}

/* CounterTree.access: 1 (and the refresh range) when the covering
 * counter reaches T. */
static int tree_access(Tree *t, int64_t row, int64_t *low, int64_t *high)
{
    int64_t idx = lookup(t, row);
    int64_t count = t->count[idx] + 1;
    if (count >= t->T) {
        t->count[idx] = 0;
        *low = t->low[idx] - 1;
        *high = t->high[idx] + 1;
        t->h[H_REFRESHES] += 1;
        t->h[H_ROWS] += row_count(*low, *high, t->n_rows);
        if (t->weights) {
            for (int64_t i = 0; i < t->m; i++)
                t->blocked[i] = 0;
            t->h[H_BUDGET] = t->budget;
            bump_weight(t, idx);
        }
        return 1;
    }
    t->count[idx] = count;
    int64_t level = t->level[idx];
    if (level < t->levels - 1 && count >= t->split_at[level]) {
        if (t->h[H_FREE_C] > 0) {
            split(t, idx, row);
        } else if (t->weights && !t->blocked[idx] && t->h[H_BUDGET] > 0) {
            int64_t gate = t->weight[idx] >= 2 ? t->T - 1 : (count / 2 > 1 ? count / 2 : 1);
            if (gate > t->T - 1)
                gate = t->T - 1;
            if (reconfigure(t, idx, gate))
                t->h[H_BUDGET] -= 1;
            else
                t->blocked[idx] = 1;
        }
    }
    return 0;
}

/* -- the counter cache (repro.core.counter_cache.CounterCacheScheme) */

/* _lookup_increment: the row's count, incremented in its line, which is
 * now the MRU way of its set. */
static int64_t *lookup_increment(Cache *c, int64_t row)
{
    int64_t line = row / c->line, offset = row - line * c->line, stride = 1 + c->line;
    int64_t *ways = c->ways + line % c->n_sets * c->n_ways * stride;
    int64_t *fill = c->fill + line % c->n_sets, way[stride];
    for (int64_t i = 0; i < *fill; i++) {
        if (ways[i * stride] == line) {
            c->h[R_HITS] += 1;
            ways[i * stride + 1 + offset] += 1;
            if (i) { /* ways.insert(0, ways.pop(i)) */
                memcpy(way, ways + i * stride, sizeof way);
                memmove(ways + stride, ways, i * sizeof way);
                memcpy(ways, way, sizeof way);
            }
            return ways + 1 + offset;
        }
    }
    /* Miss: fetch the whole counter line, zero-padded past the bank. */
    c->h[R_MISSES] += 1;
    int64_t base = line * c->line;
    way[0] = line;
    for (int64_t j = 0; j < c->line; j++)
        way[1 + j] = base + j < c->n_rows ? c->memory[base + j] : 0;
    way[1 + offset] += 1;
    if (*fill >= c->n_ways) {
        /* The LRU way goes; its write-back stops at the bank's end. */
        *fill -= 1;
        int64_t *victim = ways + *fill * stride, vbase = victim[0] * c->line;
        for (int64_t j = 0; j < c->line && vbase + j < c->n_rows; j++)
            c->memory[vbase + j] = victim[1 + j];
        c->h[R_WRITEBACKS] += 1;
    }
    memmove(ways + stride, ways, *fill * sizeof way);
    memcpy(ways, way, sizeof way);
    *fill += 1;
    return ways + 1 + offset;
}

/*
 * Serve accesses [start, n) of one bank segment.  Returns the number of
 * refresh commands written to ev (four rows of cap entries: access
 * position, low, high, rows refreshed) and ev_done (the access's
 * completion time), -1 on a broken tree or -2 when out of memory.
 * *stop receives the position after the last access served: n, or
 * earlier when fewer than two event slots were left.  aux holds PRA's
 * pre-drawn bits, or the counter cache's backing store (updated in place).
 */
int64_t repro_serve_segment(const int64_t *cfg, int64_t *regs, double *bank_f,
                            int64_t *bank_i, const double *times, const int64_t *rows,
                            int64_t *aux, int64_t start, int64_t n,
                            int64_t *ev, double *ev_done, int64_t cap, int64_t *stop)
{
    Bank b = {bank_f[0], bank_f[1], bank_f[2], bank_f[3], bank_f[4],
              bank_i[0], bank_i[1], bank_i[2], bank_i[3], cfg[C_ESCALATE]};
    int64_t kind = cfg[C_KIND], n_rows = cfg[C_ROWS], T = cfg[C_T];
    Tree t = {0};
    Cache c = {0};
    if (kind == CCACHE)
        c = (Cache){cfg[C_SETS], cfg[C_WAYS], cfg[C_LINE], n_rows, regs, regs + R_SIZE,
                    regs + R_SIZE + cfg[C_SETS], aux};
    if (kind == PRCAT || kind == DRCAT) {
        int64_t m = cfg[C_M];
        t.m = m;
        t.levels = cfg[C_LEVELS];
        t.presplit = cfg[C_PRESPLIT];
        t.addr_bits = cfg[C_ADDR_BITS];
        t.weights = cfg[C_WEIGHTS];
        t.T = T;
        t.n_rows = n_rows;
        t.weight_max = cfg[C_WEIGHT_MAX];
        t.weight_split = cfg[C_WEIGHT_SPLIT];
        t.budget = cfg[C_BUDGET];
        t.split_at = cfg + C_SPLIT_AT;
        int64_t *a = regs + H_SIZE;
        t.h = regs;
        t.level = a;
        t.low = a + m;
        t.high = a + 2 * m;
        t.child_l = a + 3 * m;
        t.child_r = a + 4 * m;
        t.free_c = a + 5 * m;
        t.free_i = a + 6 * m;
        t.active = a + 7 * m;
        t.leaf_l = a + 8 * m;
        t.leaf_r = a + 9 * m;
        t.inode_active = a + 10 * m;
        t.count = a + 11 * m;
        t.weight = a + 12 * m;
        t.blocked = a + 13 * m;
        t.block_shift = t.addr_bits - (t.levels - 1);
        t.block_map = malloc(sizeof(int64_t) << (t.levels - 1));
        if (!t.block_map)
            return -2;
        for (int64_t i = 0; i < m; i++)
            if (t.active[i])
                map_range(&t, t.low[i], t.high[i], i);
    }
    int64_t k = 0, i;
    for (i = start; i < n && k + 2 <= cap && !t.err; i++) {
        int64_t row = rows[i], low[2], high[2], n_cmds = 0, neighbours = 0;
        double done = serve_access(&b, times[i]);
        if (kind == SCA) {
            int64_t shift = cfg[C_GROUP_SHIFT];
            int64_t group = shift >= 0 ? row >> shift : row / cfg[C_GROUP];
            int64_t count = regs[group] + 1;
            if (count < T) {
                regs[group] = count;
            } else {
                regs[group] = 0;
                low[0] = group * cfg[C_GROUP] - 1;
                high[0] = low[0] + cfg[C_GROUP] + 1;
                n_cmds = 1;
            }
        } else if (kind == PRA) {
            neighbours = aux[i] < cfg[C_CUT];
        } else if (kind == CCACHE) {
            int64_t *count = lookup_increment(&c, row);
            if (*count >= T) {
                *count = 0; /* _store(row, 0) */
                c.memory[row] = 0;
                neighbours = 1;
            }
        } else if (tree_access(&t, row, &low[0], &high[0])) {
            n_cmds = 1;
            if (kind == DRCAT) {
                /* DRCATScheme.access: the weight-saturation cascade. */
                int64_t hot = lookup(&t, row);
                if (t.weight[hot] >= t.weight_max) {
                    for (int64_t level = 0; level < cfg[C_CASCADE]; level++) {
                        if (!reconfigure(&t, hot, T - 1))
                            break;
                        t.h[H_CASCADES] += 1;
                        hot = lookup(&t, row);
                    }
                }
            }
        }
        if (neighbours) { /* the in-range row±1 single-row commands */
            if (row - 1 >= 0) {
                low[n_cmds] = high[n_cmds] = row - 1;
                n_cmds++;
            }
            if (row + 1 < n_rows) {
                low[n_cmds] = high[n_cmds] = row + 1;
                n_cmds++;
            }
        }
        for (int64_t j = 0; j < n_cmds; j++, k++) {
            int64_t refreshed = row_count(low[j], high[j], n_rows);
            ev[k] = i;
            ev[cap + k] = low[j];
            ev[2 * cap + k] = high[j];
            ev[3 * cap + k] = refreshed;
            ev_done[k] = done;
            serve_refresh(&b, done, refreshed);
        }
    }
    *stop = i;
    free(t.block_map);
    bank_f[2] = b.free_at;
    bank_f[3] = b.busy;
    bank_f[4] = b.stall;
    bank_i[0] = b.backlog;
    bank_i[1] = b.activations;
    bank_i[2] = b.refreshed;
    bank_i[3] = b.escalations;
    return t.err ? -1 : k;
}
