/* Compiled twins of the _mbc_pure kernels, written against the CPython C API.
 *
 * Same contracts, same traversal order, same results: direct_search returns
 * (masks, numerators, denominator) triples and cover_search returns
 * (masks, multiplicities) pairs, plain ints only. _mbc_pure.py explains both
 * searches and stays the reference.
 *
 * direct_search keeps, per depth, the node's candidate list: each later mask
 * with its row already reduced against the chosen rows, its pivot, and the
 * divisor D_j of the level j the row was stored at. Entering a child reduces
 * every candidate once, against the newly chosen row R and only where its
 * entry b at R's pivot is nonzero, to (a * r - b * R) / D_j with a R's pivot
 * entry; a candidate whose incidence part vanishes is dropped for the whole
 * subtree, and an unreduced row is shared by pointer with its divisor. A
 * chosen row is first rescaled to its node's level, row * D_depth / D_j, and
 * its own coefficient, which always equals its divisor and so is not
 * stored, is written as D_depth into column n + 1 + depth. Rows are 2n + 1
 * columns wide. The all-ones residual's divisor is likewise its column n,
 * the all-ones coefficient, and is read from there. This is the
 * fraction-free elimination with exact division that _mbc_pure.py derives,
 * so both twins hold the same row values at every node, and a gcd is taken
 * only when a triple is emitted. The lists and the rows reduced on entering
 * each depth take (n + 1) * 2^n entries on the heap: 147 KB at n = 7.
 *
 * Each child is first tested by the Farkas rule that _mbc_pure.py derives.
 * Its chosen masks are the node's and its own; A is those plus the node's
 * later candidates, before they are reduced. If every member of A holding
 * player j also holds player i, y = e_i - e_j shows that any member holding
 * i but not j has weight 0 in every balanced subcollection of A, so the child
 * is skipped, before its row is copied or its residual reduced, when a chosen
 * mask holds such an i but not j; a player in no member of A ties every pair
 * it leads, so the child's own mask already fails the test.
 * A child that passes is solved when row[p] * rho[i] == rho[p] * row[i] for
 * every i < n, p its pivot, which is the reduced residual's incidence part
 * vanishing, tested before the full reduction. A solved child can emit only
 * its chosen masks, so it is tested again with A equal to them and skipped
 * if it fails; only then is its residual reduced and its weights checked. A
 * child that is not solved has its residual reduced, and every later
 * candidate holding such an i but not j is dropped before it is reduced.
 * A node of depth n - 1 has only solved children, and there the first test
 * cuts only what the second does (_mbc_pure.py shows both), so a node of
 * depth n - 2 keeps in its child's list only the candidates that pass the
 * second test with the child's chosen masks, before reducing them, and the
 * last level tests nothing: it rescales each row, reduces the residual and
 * emits. Only children that emit nothing are removed, and no entry of a
 * kept child changes, so the output and the bound below stand. Player
 * pairs (j, i) are bits j * n + i of a uint64_t (n * n <= 49): split[m]
 * has (j, i) when m holds j but not i, lone[m] has (j, i) when m holds i but
 * not j, and neither has a pair (j, j). A suffix OR of split per depth gives
 * A's pairs in one OR per child above the last level; a candidate costs a
 * few bitwise operations.
 *
 * cover_search runs its twin's node: it branches on p, the lowest uncovered
 * player, whose usable masks are the subsets of unc, the uncovered players,
 * that hold p and exceed floor, the last mask chosen for p on the path (0 if
 * the parent branched on another player); _mbc_pure.py shows why. Branch j on
 * them, s_1 < s_2 < ..., takes s_j with each multiplicity c >= 1 until a
 * player of s_j is covered. A node holding n - 1 masks has one child: unc with
 * the common remaining degree of its players, the only one that can finish.
 * The subset-sum bitset is kept per depth. Each cover is appended to the
 * result list when the search finds it, masks in the order chosen, which is
 * the pure twin's order.
 *
 * Every entry of direct_search's rows is at most ENTRY_MAX = 4096 in absolute
 * value, by the argument in _mbc_pure.py. In int64 that leaves wide margins:
 * a numerator a * r - b * R before its division is at most 2 * 4096^2 = 2^25,
 * and a rescale row * D_depth or a side of the solved test at most 2^24.
 * reduce() checks the bound on every row it stores, and direct_search raises
 * OverflowError if it ever fails.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAXN 7
#define WIDTH 16                   /* row stride: 2n + 1 <= 15 columns */
#define ENTRY_MAX 4096             /* see the bound in _mbc_pure.py */
#define MAX_STATES (1LL << 28)     /* cover bitset positions */

/* A tuple of sign * v[i] as Python ints, or NULL with an exception set. */
static PyObject *
tuple_of(const int64_t *v, int size, int sign)
{
    PyObject *t = PyTuple_New(size);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < size; i++) {
        PyObject *x = PyLong_FromLongLong((long long)(sign * v[i]));
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* Append (tuple(a), tuple(b)) to out, with den as a third item if >= 0. */
static int
append_result(PyObject *out, const int64_t *a, const int64_t *b, int size,
              int bsign, int64_t den)
{
    PyObject *ta = tuple_of(a, size, 1), *tb = tuple_of(b, size, bsign);
    PyObject *item = NULL;
    int rc = -1;
    if (ta != NULL && tb != NULL)
        item = den >= 0 ? Py_BuildValue("(OOL)", ta, tb, (long long)den)
                        : PyTuple_Pack(2, ta, tb);
    if (item != NULL) {
        rc = PyList_Append(out, item);
        Py_DECREF(item);
    }
    Py_XDECREF(ta);
    Py_XDECREF(tb);
    return rc;
}

/* ------------------------------------------------------------- direct */

/* A later coalition of a node: its row, reduced against the chosen rows. */
typedef struct {
    int mask, pivot;
    int64_t div;         /* D_j of the level j the row was stored at */
    const int64_t *row;  /* shared with the parent's list while unchanged */
} Cand;

typedef struct {
    int n, width, nmasks;
    Cand *cands;      /* per depth: that node's candidates, nmasks - 1 at most */
    int64_t *store;   /* per depth: rows reduced on entering it, WIDTH apart */
    uint64_t *suf;    /* per depth: split pairs of the candidates from c on */
    uint64_t split[1 << MAXN], lone[1 << MAXN];  /* player pairs, see the top */
    int64_t rows[MAXN * WIDTH];        /* the chosen row per depth */
    int64_t rhos[(MAXN + 1) * WIDTH];  /* all-ones residual per depth */
    int64_t chosen[MAXN];
    PyObject *out;
} Direct;

static int64_t
gcd(int64_t a, int64_t b)
{
    while (b) {
        int64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* out = (a * r - b * row) / div, which divides exactly; -1 if an entry
   exceeds ENTRY_MAX. */
static int
reduce(int64_t *out, int64_t a, const int64_t *r, int64_t b,
       const int64_t *row, int64_t div, int width)
{
    for (int i = 0; i < width; i++) {
        int64_t x = (a * r[i] - b * row[i]) / div;
        if (x > ENTRY_MAX || x < -ENTRY_MAX) {
            PyErr_SetString(PyExc_OverflowError,
                            "direct kernel: elimination entry exceeds its bound");
            return -1;
        }
        out[i] = x;
    }
    return 0;
}

/* Emit the solved node whose residual is r2, if every weight is positive. */
static int
direct_emit(Direct *d, int size, int64_t *r2)
{
    int64_t den = r2[d->n], *c = r2 + d->n + 1, g;
    if (den < 0) {
        den = -den;
        for (int j = 0; j < size; j++)
            c[j] = -c[j];
    }
    for (int j = 0; j < size; j++)
        if (c[j] >= 0)
            return 0;
    g = den;
    for (int j = 0; j < size; j++)
        g = gcd(g, -c[j]);
    for (int j = 0; j < size; j++)
        c[j] /= g;
    return append_result(d->out, d->chosen, c, size, -1, den / g);
}

/* Choose each of the node's candidates lo..hi-1 in turn, then search the
   candidates after it, each reduced once against the newly chosen row.
   split_chosen and lone_chosen are the player pairs of the chosen masks;
   dnode is D_depth; the residual's divisor is its own column n. */
static int
direct_rec(Direct *d, int depth, int ncand, int lo, int hi,
           uint64_t split_chosen, uint64_t lone_chosen, int64_t dnode)
{
    int n = d->n, width = d->width, slot = n + 1 + depth;
    int tail = depth == n - 2;  /* the kids form the last level */
    const Cand *cands = d->cands + (size_t)depth * d->nmasks;
    Cand *kids = d->cands + (size_t)(depth + 1) * d->nmasks;
    int64_t *store = d->store + (size_t)(depth + 1) * d->nmasks * WIDTH;
    int64_t *row = d->rows + depth * WIDTH;
    int64_t *rho = d->rhos + depth * WIDTH, *r2 = rho + WIDTH;
    uint64_t *suf = d->suf + (size_t)depth * d->nmasks;
    if (depth == n - 1) {
        /* the last level: every child is solved, and each candidate passed
           the pair test when the parent built the list */
        for (int c = lo; c < hi; c++) {
            int p = cands[c].pivot;
            if (cands[c].div == dnode)
                memcpy(row, cands[c].row, width * sizeof *row);
            else if (reduce(row, dnode, cands[c].row, 0, cands[c].row,
                            cands[c].div, width) < 0)
                return -1;
            row[slot] = dnode;
            if (reduce(r2, row[p], rho, rho[p], row, rho[n], width) < 0)
                return -1;
            d->chosen[depth] = cands[c].mask;
            if (direct_emit(d, depth + 1, r2) < 0)
                return -1;
        }
        return 0;
    }
    suf[ncand] = 0;
    for (int c = ncand - 1; c > lo; c--)
        suf[c] = suf[c + 1] | d->split[cands[c].mask];
    for (int c = lo; c < hi; c++) {
        int i, p = cands[c].pivot, nkids = 0, solved = 0;
        int64_t a;
        const int64_t *src = cands[c].row;
        uint64_t sc = split_chosen | d->split[cands[c].mask];
        uint64_t lc = lone_chosen | d->lone[cands[c].mask];
        uint64_t every = sc | suf[c + 1];
        uint64_t tied = ~every;  /* (j, i): every member of A with j has i */
        if (lc & tied)
            continue;  /* no positive weights below: cut */
        if (rho[p]) {  /* solved: the reduced residual's incidence part vanishes */
            for (i = 0; i < n && src[p] * rho[i] == rho[p] * src[i]; i++)
                ;
            solved = i == n;
        }
        if (solved && (lc & ~sc))
            continue;  /* the chosen masks alone need a zero weight */
        /* the chosen row at this node's level: src * D_depth / D_j */
        if (cands[c].div == dnode)
            memcpy(row, src, width * sizeof *row);
        else if (reduce(row, dnode, src, 0, src, cands[c].div, width) < 0)
            return -1;
        a = row[p];
        row[slot] = dnode;  /* the candidate's own coefficient, once chosen */
        if (rho[p]) {
            if (reduce(r2, a, rho, rho[p], row, rho[n], width) < 0)
                return -1;
        }
        else {
            memcpy(r2, rho, width * sizeof *r2);
        }
        d->chosen[depth] = cands[c].mask;
        if (solved) {
            if (direct_emit(d, depth + 1, r2) < 0)
                return -1;
            continue;
        }
        for (int j = c + 1; j < ncand; j++) {
            const int64_t *r = cands[j].row;
            int q = cands[j].pivot, m2 = cands[j].mask;
            int64_t div = cands[j].div;
            if (tail) {
                if ((lc | d->lone[m2]) & ~(sc | d->split[m2]))
                    continue;  /* its child fails the pair test */
            }
            else if (d->lone[m2] & tied)
                continue;  /* would need weight zero */
            if (r[p]) {
                int64_t *r3 = store + nkids * WIDTH;
                if (reduce(r3, a, r, r[p], row, div, width) < 0)
                    return -1;
                for (q = 0; q < n && !r3[q]; q++)
                    ;
                if (q == n)
                    continue;  /* dependent: dropped for the whole subtree */
                r = r3;
                div = a;
            }
            kids[nkids].mask = m2;
            kids[nkids].pivot = q;
            kids[nkids].div = div;
            kids[nkids].row = r;
            nkids++;
        }
        if (direct_rec(d, depth + 1, nkids, 0, nkids, sc, lc, a) < 0)
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(direct_search_doc,
"direct_search(n, first=0)\n--\n\n"
"Minimal balanced collections as (masks, numerators, denominator).\n\n"
"With first > 0 only the subtree whose smallest member is `first` is\n"
"searched; first = 0 runs the whole tree. Masks ascend within each tuple\n"
"and the tuples come in ascending order, the pure twin's DFS order.");

static PyObject *
direct_search(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "first", NULL};
    int n, first = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|i:direct_search", kwlist,
                                     &n, &first))
        return NULL;
    if (n < 1 || n > MAXN)
        return PyErr_Format(PyExc_ValueError,
                            "direct kernel supports 1 <= n <= 7, got %d", n);
    if (first < 0 || first >= 1 << n)
        return PyErr_Format(PyExc_ValueError,
                            "first must be in 0..%d, got %d", (1 << n) - 1, first);
    Direct d = {.n = n, .width = 2 * n + 1, .nmasks = 1 << n};
    d.cands = PyMem_Malloc((size_t)(n + 1) * d.nmasks * sizeof *d.cands);
    d.store = PyMem_Malloc((size_t)(n + 1) * d.nmasks * WIDTH * sizeof *d.store);
    d.suf = PyMem_Malloc((size_t)(n + 1) * d.nmasks * sizeof *d.suf);
    if (d.cands == NULL || d.store == NULL || d.suf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int m = 1; m < d.nmasks; m++) {
        int64_t *row = d.store + (size_t)(m - 1) * WIDTH;
        int p = 0;
        memset(row, 0, WIDTH * sizeof *row);
        for (int i = 0; i < n; i++)
            row[i] = (m >> i) & 1;
        while (!row[p])
            p++;
        d.cands[m - 1].mask = m;
        d.cands[m - 1].pivot = p;
        d.cands[m - 1].div = 1;
        d.cands[m - 1].row = row;
        for (int j = 0; j < n; j++)
            for (int i = 0; i < n; i++) {
                uint64_t bit = (uint64_t)1 << (j * n + i);
                if (m >> j & 1 && !(m >> i & 1))
                    d.split[m] |= bit;
                if (m >> i & 1 && !(m >> j & 1))
                    d.lone[m] |= bit;
            }
    }
    for (int i = 0; i <= n; i++)
        d.rhos[i] = 1;
    d.out = PyList_New(0);
    if (d.out != NULL
        && direct_rec(&d, 0, d.nmasks - 1, first ? first - 1 : 0,
                      first ? first : d.nmasks - 1, 0, 0, 1) < 0)
        Py_CLEAR(d.out);
done:
    PyMem_Free(d.cands);
    PyMem_Free(d.store);
    PyMem_Free(d.suf);
    return d.out;
}

/* ------------------------------------------------------------- covers */

typedef struct {
    int n, k, nmasks, nwords;
    int64_t ones;            /* encoding of one copy of every player */
    int64_t off[1 << MAXN];  /* per-mask encoding increment */
    uint64_t *vm;            /* per mask: positions where one more copy is legal */
    uint64_t *dp;            /* subset-sum bitset per depth, then a scratch row */
    int64_t chosen[MAXN], mults[MAXN];
    PyObject *out;
} Cover;

/* dst |= src << off, within a fixed nwords window */
static void
shift_or(uint64_t *dst, const uint64_t *src, int nwords, int64_t off)
{
    int ws = (int)(off >> 6), bs = (int)(off & 63);
    for (int w = nwords - 1; w >= ws; w--) {
        uint64_t x = src[w - ws];
        if (bs) {
            x <<= bs;
            if (w - ws - 1 >= 0)
                x |= src[w - ws - 1] >> (64 - bs);
        }
        dst[w] |= x;
    }
}

/* set bit positions [lo, hi) */
static void
set_range(uint64_t *bits, int64_t lo, int64_t hi)
{
    int64_t wlo = lo >> 6, whi = (hi - 1) >> 6;
    uint64_t lomask = ~(uint64_t)0 << (lo & 63);
    uint64_t himask = ~(uint64_t)0 >> (63 - ((hi - 1) & 63));
    if (wlo == whi) {
        bits[wlo] |= lomask & himask;
        return;
    }
    bits[wlo] |= lomask;
    for (int64_t w = wlo + 1; w < whi; w++)
        bits[w] = ~(uint64_t)0;
    bits[whi] |= himask;
}

/* Add one copy of mask s to the subset-sum bitset dp; 1 if a nonempty proper
   uniform sub-multiset becomes reachable. */
static int
add_copy(const Cover *c, uint64_t *dp, int s)
{
    uint64_t *scratch = c->dp + (size_t)(c->n + 1) * c->nwords;
    int64_t pos = 0;
    for (int w = 0; w < c->nwords; w++)
        scratch[w] = dp[w] & c->vm[(size_t)s * c->nwords + w];
    shift_or(dp, scratch, c->nwords, c->off[s]);
    for (int d = 1; d < c->k; d++) {
        pos += c->ones;
        if (dp[pos >> 6] >> (pos & 63) & 1)
            return 1;
    }
    return 0;
}

/* Branch on p, the lowest uncovered player: its usable masks are the
   subsets of unc that hold p and exceed floor, the last mask chosen for p. */
static int
cover_rec(Cover *c, int depth, int floor, const int *rem, int unc)
{
    int n = c->n, nwords = c->nwords, low = unc & -unc, rest = unc ^ low;
    int rem2[MAXN], t = 0;
    const uint64_t *dp = c->dp + (size_t)depth * nwords;
    uint64_t *dp2 = c->dp + (size_t)(depth + 1) * nwords;
    if (!unc)
        return append_result(c->out, c->chosen, c->mults, depth, 1, -1);
    if (depth == n - 1) {
        /* last support slot: only unc itself can finish */
        int p = 0;
        if (unc <= floor)
            return 0;
        while (!(unc >> p & 1))
            p++;
        for (int i = 0; i < n; i++)
            if (unc >> i & 1 && rem[i] != rem[p])
                return 0;
        memcpy(dp2, dp, nwords * sizeof *dp2);
        for (int j = 0; j < rem[p]; j++)
            if (add_copy(c, dp2, unc))
                return 0;
        c->chosen[depth] = unc;
        c->mults[depth] = rem[p];
        return append_result(c->out, c->chosen, c->mults, depth + 1, 1, -1);
    }
    do {  /* s = t | low over the subsets t of rest, ascending */
        int s = t | low, unc2 = unc;
        t = (t - rest) & rest;
        if (s <= floor)
            continue;
        memcpy(rem2, rem, n * sizeof *rem2);
        memcpy(dp2, dp, nwords * sizeof *dp2);
        c->chosen[depth] = s;
        for (int m = 1; unc2 == unc; m++) {  /* until a player of s is covered */
            for (int i = 0; i < n; i++)
                if (s >> i & 1 && --rem2[i] == 0)
                    unc2 ^= 1 << i;
            if (add_copy(c, dp2, s))
                break;
            c->mults[depth] = m;
            if (cover_rec(c, depth + 1, unc2 & low ? s : 0, rem2, unc2) < 0)
                return -1;
        }
    } while (t);
    return 0;
}

PyDoc_STRVAR(cover_search_doc,
"cover_search(n, k)\n--\n\n"
"Minimally regular exact k-covers as (masks, multiplicities), in the\n"
"order found.");

static PyObject *
cover_search(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "k", NULL};
    int n, k, rem[MAXN];
    int64_t base, npos = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii:cover_search", kwlist,
                                     &n, &k))
        return NULL;
    if (n < 1 || n > MAXN)
        return PyErr_Format(PyExc_ValueError,
                            "cover kernel supports 1 <= n <= 7, got %d", n);
    if (k < 1)
        return PyErr_Format(PyExc_ValueError, "k must be >= 1, got %d", k);
    base = k >= 2 ? k : 2;
    for (int i = 0; i < n; i++) {
        npos *= base;
        if (npos > MAX_STATES)
            return PyErr_Format(PyExc_ValueError,
                                "cover state space too large: base %d, n %d",
                                (int)base, n);
    }
    Cover c = {.n = n, .k = k, .nmasks = 1 << n, .nwords = (int)((npos + 63) >> 6)};
    c.vm = PyMem_Calloc((size_t)c.nmasks * c.nwords, sizeof *c.vm);
    c.dp = PyMem_Calloc((size_t)(n + 2) * c.nwords, sizeof *c.dp);
    c.out = PyList_New(0);
    if (c.vm == NULL || c.dp == NULL || c.out == NULL) {
        PyErr_NoMemory();
        Py_CLEAR(c.out);
        goto done;
    }
    /* a singleton {i} may take one more copy where player i's digit is at
       most k - 2; a larger mask where every member's digit is */
    for (int64_t i = 0, span = 1; i < n; i++, span *= base) {
        int s = 1 << i;
        c.off[s] = span;
        for (int64_t start = 0; k >= 2 && start < npos; start += span * base)
            set_range(c.vm + (size_t)s * c.nwords, start, start + span * (k - 1));
    }
    for (int s = 1; s < c.nmasks; s++) {
        int low = s & -s;
        if (s == low)
            continue;
        c.off[s] = c.off[s - low] + c.off[low];
        for (int w = 0; w < c.nwords; w++)
            c.vm[(size_t)s * c.nwords + w] = c.vm[(size_t)(s - low) * c.nwords + w]
                                           & c.vm[(size_t)low * c.nwords + w];
    }
    c.ones = c.off[c.nmasks - 1];
    c.dp[0] = 1;
    for (int i = 0; i < n; i++)
        rem[i] = k;
    if (cover_rec(&c, 0, 0, rem, c.nmasks - 1) < 0)
        Py_CLEAR(c.out);
done:
    PyMem_Free(c.vm);
    PyMem_Free(c.dp);
    return c.out;
}

static PyMethodDef methods[] = {
    {"direct_search", (PyCFunction)(void (*)(void))direct_search,
     METH_VARARGS | METH_KEYWORDS, direct_search_doc},
    {"cover_search", (PyCFunction)(void (*)(void))cover_search,
     METH_VARARGS | METH_KEYWORDS, cover_search_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled twins of the balanced_forge._mbc_pure search kernels.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
