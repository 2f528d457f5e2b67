/* Compiled twins of five hot kernels in ``_kernels_py``: ``canon_adj``,
 * ``augment``, ``profile_counts``, ``split_bags`` and ``accessible_rows``,
 * the ones whose compiled form moves a campaign's run time.  Every other
 * kernel is pure on both backends.
 *
 * Same functions, same methods, same outputs; graphs arrive as (n, adj-row
 * ints) with n <= 64 so every mask fits a 64-bit word.  A row with a bit at
 * or above n is refused with ValueError, since the kernels index arrays of
 * n entries by row bits.  ``profile_counts`` counts forts on a 2^n-bit
 * table of subsets, so it takes n <= 32.
 * ``augment`` is one parent's step of ``graphs.enumerate_graphs``, its
 * children generated, pruned and canonicalised in C and returned as level
 * records (rows as big-endian uint16), so it takes parents with
 * 1 <= n <= 15.
 * ``split_bags`` runs the whole split recursion of ``splitdec.decompose``
 * in one call and emits finished bags (their ``ordinary`` and ``markers``
 * dicts, whose markers name the tree edges), refusing a disconnected graph
 * by the same ``components`` search that gives ``augment`` its connected
 * flags;
 * ``accessible_rows`` is ``splitdec.reconstruct``'s whole accessibility
 * search, over at most 256 label vertices.  It raises ValueError on
 * unordered or unknown ids, a label vertex that is not exactly one of
 * ordinary and marker, a tree edge without exactly two markers and an
 * alternating path that closes a cycle; the shape of the bag graph is
 * ``splitdec.check_tree``'s job.
 *
 * Build: gcc -O3 -shared -fPIC -I<python include> _kernels_cy.c -o
 * _kernels_cy<EXT_SUFFIX>, or ``pip install .`` through setup.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;

#define CTZ(x) __builtin_ctzll(x)
#define POPCOUNT(x) __builtin_popcountll(x)
#define FULL(n) ((n) < 64 ? ((u64)1 << (n)) - 1 : ~(u64)0)

static PyObject *KIND_CLIQUE, *KIND_STAR, *KIND_PRIME;

/* The first n rows of ``adj`` as words; refuses n outside 0..64 and a row
 * with a bit at or above n. */
static int read_adj(int n, PyObject *adj, u64 *out)
{
    PyObject *seq;
    PyObject **items;
    int i;

    if (n < 0 || n > 64) {
        PyErr_Format(PyExc_OverflowError,
                     "compiled kernels support 0 <= n <= 64 (got %d)", n);
        return -1;
    }
    seq = PySequence_Fast(adj, "adj must be a sequence of ints");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_IndexError, "adj has fewer than n rows");
        return -1;
    }
    items = PySequence_Fast_ITEMS(seq);
    for (i = 0; i < n; i++) {
        out[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (out[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (out[i] & ~FULL(n)) {
            Py_DECREF(seq);
            PyErr_Format(PyExc_ValueError,
                         "adj row %d has a bit at or above n = %d", i, n);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* A tuple of n ints from unsigned words. */
static PyObject *int_tuple(int n, const u64 *words)
{
    PyObject *out = PyTuple_New(n);
    PyObject *item;
    int i;

    if (out == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        item = PyLong_FromUnsignedLongLong(words[i]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, item);
    }
    return out;
}

/* --- profile ------------------------------------------------------------ */

/* Bit f of a word over subsets f of range(6): the f holding vertex u < 6,
 * and the f of size j. */
static const u64 LOW_HAS[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};
static const u64 LOW_LEVEL[7] = {
    0x0000000000000001ULL, 0x0000000100010116ULL, 0x0001011601161668ULL,
    0x0116166816686880ULL, 0x1668688068808000ULL, 0x6880800080000000ULL,
    0x8000000000000000ULL,
};

/* The subsets holding vertex u among the 64 of word i. */
static u64 subsets_with(int u, u64 i)
{
    return u < 6 ? LOW_HAS[u] : -((i >> (u - 6)) & 1);
}

/* The pure kernel's fort count, one word of 64 subsets at a time: bit b of
 * word i stands for the subset (i << 6) | b, so vertex u < 6 is the in-word
 * pattern LOW_HAS[u] and vertex u >= 6 is bit u - 6 of i.  A subset f is a
 * fort iff it is nonempty and every vertex w lies in f or has zero or at
 * least two neighbours in f.  Closing the forts upward gives the subsets
 * holding a fort, the complements of the non-forcing sets, and held[s]
 * counts those of size s, so z(G;k) = C(n,k) - held[n - k].  The table is
 * 2^n bits, refused over 32 vertices (512 MB). */
static PyObject *profile_counts(PyObject *Py_UNUSED(self), PyObject *args,
                                PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", NULL};
    int n, k, w, u, j, low_n;
    PyObject *adj, *out, *item;
    u64 cadj[64], *table, words, i, step, base, f, r, h, some, many;
    long long held[33] = {0}, choose = 1;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO", kwlist, &n, &adj))
        return NULL;
    if (n == 0)
        return Py_BuildValue("[i]", 1);
    if (n > 32) {
        PyErr_SetString(PyExc_OverflowError, "profile_counts supports n <= 32");
        return NULL;
    }
    if (read_adj(n, adj, cadj) < 0)
        return NULL;
    low_n = n < 6 ? n : 6;
    words = n > 6 ? (u64)1 << (n - 6) : 1;
    table = malloc(words * sizeof *table);
    if (table == NULL)
        return PyErr_NoMemory();
    for (i = 0; i < words; i++) {
        f = n < 6 ? ((u64)1 << (1 << n)) - 1 : ~(u64)0;
        for (w = 0; w < n; w++) {
            some = many = 0;
            for (r = cadj[w]; r; r &= r - 1) {
                h = subsets_with(CTZ(r), i);
                many |= some & h;
                some |= h;
            }
            f &= subsets_with(w, i) | ~some | many;
        }
        if (i == 0)
            f &= ~(u64)1; /* the empty set is no fort */
        for (u = 0; u < low_n; u++)
            f |= (f & ~LOW_HAS[u]) << (1 << u);
        table[i] = f;
    }
    for (step = 1; step < words; step <<= 1)
        for (base = 0; base < words; base += 2 * step)
            for (i = base; i < base + step; i++)
                table[i + step] |= table[i];
    for (i = 0; i < words; i++)
        for (j = 0; j <= low_n; j++)
            held[POPCOUNT(i) + j] += POPCOUNT(table[i] & LOW_LEVEL[j]);
    free(table);
    out = PyList_New(n + 1);
    if (out == NULL)
        return NULL;
    for (k = 0; k <= n; k++) {
        item = PyLong_FromLongLong(choose - held[n - k]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, item);
        choose = choose * (n - k) / (k + 1);
    }
    return out;
}

/* --- canonical form ------------------------------------------------------ */

/* The least row-major upper-triangle encoding over all vertex orders, by the
 * same cell-refining search as the pure ``canon_adj``: candidates of the
 * first cell with the least achievable row branch, twins among them
 * collapsed, and a prefix above the best encoding is cut.  The encoding is
 * kept as its row at each depth, the n - 1 - depth bits the placed vertex
 * contributes, so two prefixes compare row by row. */
typedef struct {
    int n;
    u64 adj[64];
    u64 rows[64];
    u64 best_rows[64];
    int best_set;
} Canon;

/* -1, 0 or 1 as rows 0..depth of the current encoding compare with the
 * best one. */
static int prefix_cmp(const Canon *st, int depth)
{
    int d;

    for (d = 0; d <= depth; d++)
        if (st->rows[d] != st->best_rows[d])
            return st->rows[d] < st->best_rows[d] ? -1 : 1;
    return 0;
}

static void canon_dfs(Canon *st, const int *verts, const int *starts,
                      int ncells, int depth)
{
    int n = st->n;
    int i, j, c, u, w, size, ones, nsurv, ntied, pos, nc, dup, have_pat;
    u64 pat, best_pat, au, mu, mw, unplaced;
    int tied[64], surv[64], nverts[64], nstarts[66];

    if (ncells == 0) {
        if (!st->best_set || prefix_cmp(st, n - 1) < 0) {
            st->best_set = 1;
            memcpy(st->best_rows, st->rows, n * sizeof st->rows[0]);
        }
        return;
    }

    best_pat = 0;
    have_pat = 0;
    ntied = 0;
    for (i = starts[0]; i < starts[1]; i++) {
        u = verts[i];
        au = st->adj[u];
        /* the rest of the first cell, then every other cell: zeros, then
         * as many ones as u has neighbours there */
        ones = 0;
        for (j = starts[0]; j < starts[1]; j++) {
            w = verts[j];
            if (w != u && ((au >> w) & 1))
                ones++;
        }
        pat = ((u64)1 << ones) - 1;
        for (c = 1; c < ncells; c++) {
            size = starts[c + 1] - starts[c];
            ones = 0;
            for (j = starts[c]; j < starts[c + 1]; j++)
                if ((au >> verts[j]) & 1)
                    ones++;
            pat = (pat << size) | (((u64)1 << ones) - 1);
        }
        if (!have_pat || pat < best_pat) {
            best_pat = pat;
            have_pat = 1;
            ntied = 0;
            tied[ntied++] = u;
        } else if (pat == best_pat) {
            tied[ntied++] = u;
        }
    }

    st->rows[depth] = best_pat;
    if (st->best_set && prefix_cmp(st, depth) > 0)
        return;

    unplaced = 0;
    for (i = starts[0]; i < starts[ncells]; i++)
        unplaced |= (u64)1 << verts[i];
    nsurv = 0;
    for (i = 0; i < ntied; i++) {
        u = tied[i];
        dup = 0;
        for (j = 0; j < nsurv; j++) {
            w = surv[j];
            mu = st->adj[u] & unplaced & ~((u64)1 << w) & ~((u64)1 << u);
            mw = st->adj[w] & unplaced & ~((u64)1 << u) & ~((u64)1 << w);
            if (mu == mw) {
                dup = 1;
                break;
            }
        }
        if (!dup)
            surv[nsurv++] = u;
    }

    for (i = 0; i < nsurv; i++) {
        u = surv[i];
        au = st->adj[u];
        pos = 0;
        nc = 0;
        nstarts[0] = 0;
        for (c = 0; c < ncells; c++) {
            /* non-neighbours first, then neighbours, cell 0 skipping u */
            size = pos;
            for (j = starts[c]; j < starts[c + 1]; j++) {
                w = verts[j];
                if (w != u && !((au >> w) & 1))
                    nverts[pos++] = w;
            }
            if (pos > size)
                nstarts[++nc] = pos;
            size = pos;
            for (j = starts[c]; j < starts[c + 1]; j++) {
                w = verts[j];
                if (w != u && ((au >> w) & 1))
                    nverts[pos++] = w;
            }
            if (pos > size)
                nstarts[++nc] = pos;
        }
        canon_dfs(st, nverts, nstarts, nc, depth + 1);
    }
}

/* The canonical rows of the graph on ``adj``, n >= 1, into ``rows``. */
static void canon_words(int n, const u64 *adj, u64 *rows)
{
    Canon st;
    int verts[64] = {0}, starts[66];
    int i, j;
    u64 r;

    st.n = n;
    st.best_set = 0;
    memcpy(st.adj, adj, n * sizeof adj[0]);
    for (i = 0; i < n; i++)
        verts[i] = i;
    starts[0] = 0;
    starts[1] = n;
    canon_dfs(&st, verts, starts, 1, 0);
    /* bit n - 1 - j of the row at depth i is the pair ij, j > i */
    memset(rows, 0, n * sizeof rows[0]);
    for (i = 0; i < n; i++)
        for (r = st.best_rows[i]; r; r &= r - 1) {
            j = n - 1 - CTZ(r);
            rows[i] |= (u64)1 << j;
            rows[j] |= (u64)1 << i;
        }
}

static PyObject *canon_adj(PyObject *Py_UNUSED(self), PyObject *args,
                           PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", NULL};
    int n;
    PyObject *adj;
    u64 cadj[64], rows[64];

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO", kwlist, &n, &adj))
        return NULL;
    if (n <= 1)
        return PySequence_Tuple(adj);
    if (read_adj(n, adj, cadj) < 0)
        return NULL;
    canon_words(n, cadj, rows);
    return int_tuple(n, rows);
}

/* The vertex masks of the components into ``comps``, by least vertex, as
 * the pure ``_components``; returns their count. */
static int components(int n, const u64 *adj, u64 *comps)
{
    int count = 0;
    u64 rest, comp, frontier, next, m;

    for (rest = FULL(n); rest; rest &= ~comp) {
        comp = frontier = rest & -rest;
        while (frontier) {
            next = 0;
            for (m = frontier; m; m &= m - 1)
                next |= adj[CTZ(m)];
            frontier = next & ~comp;
            comp |= frontier;
        }
        comps[count++] = comp;
    }
    return count;
}

/* --- enumeration step ---------------------------------------------------- */

/* One parent on n vertices, as the pure ``augment`` reads it: its least
 * degree d, by_deg[j] the vertices of degree j, sig[v] the sum of the
 * degrees of v's neighbours, the twin steps (u, w), u < w adjacent in
 * their twin class, and its components.  ``out`` collects a (record,
 * connected) pair per kept child. */
typedef struct {
    int n, d, nsteps, ncomps;
    u64 adj[16];
    int deg[16], sig[16];
    u64 by_deg[17];
    u64 step_u[16], step_w[16];
    u64 comps[16];
    PyObject *out;
} Augment;

/* Appends the record of the child whose new vertex n has the
 * neighbourhood ``nb``, and whether it is connected (``nb`` meets every
 * component of the parent), unless twin packing or canonical deletion
 * drops it. */
static int augment_child(Augment *a, u64 nb)
{
    int i, k, v, s, new_sig, rc, conn;
    u64 rivals, m, child[16], rows[16];
    unsigned char *rec;
    PyObject *record, *pair;

    for (i = 0; i < a->nsteps; i++)
        if ((nb & a->step_w[i]) && !(nb & a->step_u[i]))
            return 0;
    k = POPCOUNT(nb);
    if (k && k >= a->d) {
        /* the other vertices of degree k in the child */
        rivals = (a->by_deg[k] & ~nb) | (a->by_deg[k - 1] & nb);
        if (rivals) {
            new_sig = k;
            for (m = nb; m; m &= m - 1)
                new_sig += a->deg[CTZ(m)];
            for (; rivals; rivals &= rivals - 1) {
                v = CTZ(rivals);
                s = a->sig[v] + POPCOUNT(a->adj[v] & nb);
                if ((nb >> v) & 1)
                    s += k;
                if (s > new_sig)
                    return 0;
            }
        }
    }
    for (i = 0; i < a->n; i++)
        child[i] = a->adj[i] | (((nb >> i) & 1) << a->n);
    child[a->n] = nb;
    canon_words(a->n + 1, child, rows);
    record = PyBytes_FromStringAndSize(NULL, 2 * (a->n + 1));
    if (record == NULL)
        return -1;
    rec = (unsigned char *)PyBytes_AS_STRING(record);
    for (i = 0; i <= a->n; i++) {
        rec[2 * i] = (unsigned char)(rows[i] >> 8);
        rec[2 * i + 1] = (unsigned char)rows[i];
    }
    conn = 1;
    for (i = 0; i < a->ncomps; i++)
        if (!(nb & a->comps[i]))
            conn = 0;
    pair = PyTuple_Pack(2, record, conn ? Py_True : Py_False);
    Py_DECREF(record);
    if (pair == NULL)
        return -1;
    rc = PyList_Append(a->out, pair);
    Py_DECREF(pair);
    return rc;
}

/* Runs ``augment_child`` on base | {pool[i] : i in c} for every k-subset c
 * of range(m), in ``itertools.combinations`` order. */
static int augment_combinations(Augment *a, const int *pool, int m, int k,
                                u64 base)
{
    int idx[16], i;
    u64 nb;

    if (k > m)
        return 0;
    for (i = 0; i < k; i++)
        idx[i] = i;
    for (;;) {
        nb = base;
        for (i = 0; i < k; i++)
            nb |= (u64)1 << pool[idx[i]];
        if (augment_child(a, nb) < 0)
            return -1;
        for (i = k - 1; i >= 0 && idx[i] == m - k + i; i--)
            ;
        if (i < 0)
            return 0;
        for (idx[i]++, i++; i < k; i++)
            idx[i] = idx[i - 1] + 1;
    }
}

/* The pure ``augment``: the neighbourhoods in which a new vertex n has
 * minimum degree, in the order of ``_min_degree_neighbourhoods`` (every
 * mask of at most d bits, then every mask of d + 1 bits holding the
 * degree-d vertices), pruned, canonicalised and recorded as there. */
static PyObject *augment(PyObject *Py_UNUSED(self), PyObject *args,
                         PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", NULL};
    int n, i, u, w, k, m, pool[16];
    u64 low, r;
    PyObject *adj;
    Augment a;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO", kwlist, &n, &adj))
        return NULL;
    if (n < 1 || n > 15) {
        PyErr_Format(PyExc_ValueError,
                     "augment takes parents with 1 <= n <= 15 (got %d)", n);
        return NULL;
    }
    memset(&a, 0, sizeof a);
    if (read_adj(n, adj, a.adj) < 0)
        return NULL;
    a.n = n;
    a.d = 64;
    for (i = 0; i < n; i++) {
        a.deg[i] = POPCOUNT(a.adj[i]);
        if (a.deg[i] < a.d)
            a.d = a.deg[i];
        a.by_deg[a.deg[i]] |= (u64)1 << i;
    }
    low = 0;
    for (i = 0; i < n; i++) {
        if (a.deg[i] == a.d)
            low |= (u64)1 << i;
        for (r = a.adj[i]; r; r &= r - 1)
            a.sig[i] += a.deg[CTZ(r)];
    }
    /* twins u < w: adj[u] - w == adj[w] - u; the largest such u is w's
     * predecessor in its class */
    for (w = 1; w < n; w++)
        for (u = w - 1; u >= 0; u--)
            if ((a.adj[u] & ~((u64)1 << w)) == (a.adj[w] & ~((u64)1 << u))) {
                a.step_u[a.nsteps] = (u64)1 << u;
                a.step_w[a.nsteps++] = (u64)1 << w;
                break;
            }
    a.ncomps = components(n, a.adj, a.comps);
    a.out = PyList_New(0);
    if (a.out == NULL)
        return NULL;
    for (i = 0; i < n; i++)
        pool[i] = i;
    for (k = 0; k <= a.d; k++)
        if (augment_combinations(&a, pool, n, k, 0) < 0)
            goto fail;
    m = 0;
    for (i = 0; i < n; i++)
        if (!((low >> i) & 1))
            pool[m++] = i;
    k = a.d + 1 - POPCOUNT(low);
    if (k >= 0 && augment_combinations(&a, pool, m, k, low) < 0)
        goto fail;
    return a.out;
fail:
    Py_DECREF(a.out);
    return NULL;
}

/* --- splits -------------------------------------------------------------- */

/* First split of a connected graph as its A-side mask, 0 if none: A-sides
 * hold vertex 0 and are scanned in increasing mask order, so each holds at
 * least two vertices.  A bipartition is a split iff every A-vertex with
 * cross edges sees the same nonempty cross neighbourhood. */
static u64 first_split(int n, const u64 *adj)
{
    u64 full, m, a_mask, b_mask, b1, cross, am, top;
    int ok;

    if (n < 4)
        return 0;
    full = FULL(n);
    top = (u64)1 << (n - 1);
    for (m = 1; m < top; m++) {
        a_mask = (m << 1) | 1;
        if (POPCOUNT(a_mask) > n - 2)
            continue;
        b_mask = full ^ a_mask;
        b1 = 0;
        ok = 1;
        for (am = a_mask; am; am &= am - 1) {
            cross = adj[CTZ(am)] & b_mask;
            if (cross) {
                if (b1 == 0) {
                    b1 = cross;
                } else if (cross != b1) {
                    ok = 0;
                    break;
                }
            }
        }
        if (ok && b1 != 0)
            return a_mask;
    }
    return 0;
}

typedef struct {
    PyObject *bags; /* list of (rows, ordinary, markers, kind, star center) */
    int edges;
} Splitter;

/* Appends the part on ``adj`` as a finished bag: its tokens become the
 * ``ordinary`` and ``markers`` dicts. */
static int emit_bag(Splitter *sp, int n, const u64 *adj, const long long *tok,
                    PyObject *kind, int center)
{
    int i, rc = -1, set;
    PyObject *ordinary = PyDict_New(), *markers = PyDict_New();
    PyObject *rows = NULL, *cobj = NULL, *bag = NULL, *key, *val;

    if (ordinary == NULL || markers == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        if (tok[i] >= 0) {
            key = PyLong_FromLong(i);
            val = PyLong_FromLongLong(tok[i]);
        } else {
            key = PyLong_FromLongLong(~tok[i]);
            val = PyLong_FromLong(i);
        }
        set = key != NULL && val != NULL
              && PyDict_SetItem(tok[i] >= 0 ? ordinary : markers, key, val) == 0;
        Py_XDECREF(key);
        Py_XDECREF(val);
        if (!set)
            goto done;
    }
    rows = int_tuple(n, adj);
    if (rows == NULL)
        goto done;
    if (center < 0) {
        Py_INCREF(Py_None);
        cobj = Py_None;
    } else if ((cobj = PyLong_FromLong(center)) == NULL) {
        goto done;
    }
    bag = PyTuple_Pack(5, rows, ordinary, markers, kind, cobj);
    if (bag != NULL && PyList_Append(sp->bags, bag) == 0)
        rc = 0;
done:
    Py_XDECREF(ordinary);
    Py_XDECREF(markers);
    Py_XDECREF(rows);
    Py_XDECREF(cobj);
    Py_XDECREF(bag);
    return rc;
}

/* Splits the graph on ``adj`` until every part is a clique, a star or has
 * no split, appending the parts as bags.  A split takes the next tree edge
 * e; each side keeps its vertices in ascending order plus a marker, last,
 * adjacent to the side's frontier and tokened ~e.  Side A is split before
 * side B. */
static int split_rec(Splitter *sp, int n, const u64 *adj, const long long *tok)
{
    int deg[64], total = 0, center = -1, i, side, k, local[64], e;
    u64 a_mask = 0, part, marker, marker_row, row, m, r;
    u64 sub[64];
    long long subtok[64];
    PyObject *kind;

    for (i = 0; i < n; i++) {
        deg[i] = POPCOUNT(adj[i]);
        total += deg[i];
    }
    if (total == n * (n - 1)) {
        kind = KIND_CLIQUE;
    } else {
        if (total == 2 * (n - 1))
            for (i = 0; i < n && center < 0; i++)
                if (deg[i] == n - 1)
                    center = i;
        kind = center < 0 ? KIND_PRIME : KIND_STAR;
        if (center < 0)
            a_mask = first_split(n, adj);
    }
    if (!a_mask)
        return emit_bag(sp, n, adj, tok, kind, center);
    e = sp->edges++;
    for (side = 0; side < 2; side++) {
        part = side ? FULL(n) ^ a_mask : a_mask;
        k = 0;
        for (m = part; m; m &= m - 1)
            local[CTZ(m)] = k++;
        marker = (u64)1 << k;
        marker_row = 0;
        k = 0;
        for (m = part; m; m &= m - 1, k++) {
            i = CTZ(m);
            row = 0;
            for (r = adj[i] & part; r; r &= r - 1)
                row |= (u64)1 << local[CTZ(r)];
            if (adj[i] & ~part) {
                row |= marker;
                marker_row |= (u64)1 << k;
            }
            sub[k] = row;
            subtok[k] = tok[i];
        }
        sub[k] = marker_row;
        subtok[k] = ~(long long)e;
        if (split_rec(sp, k + 1, sub, subtok) < 0)
            return -1;
    }
    return 0;
}

static PyObject *split_bags(PyObject *Py_UNUSED(self), PyObject *args,
                            PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", NULL};
    int n, i;
    PyObject *adj;
    u64 cadj[64], comps[64];
    long long tok[64];
    Splitter sp;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO", kwlist, &n, &adj))
        return NULL;
    if (read_adj(n, adj, cadj) < 0)
        return NULL;
    if (components(n, cadj, comps) > 1) {
        PyErr_SetString(PyExc_ValueError,
                        "decompose expects a connected graph");
        return NULL;
    }
    for (i = 0; i < n; i++)
        tok[i] = i;
    sp.bags = PyList_New(0);
    if (sp.bags == NULL)
        return NULL;
    sp.edges = 0;
    if (split_rec(&sp, n, cadj, tok) < 0) {
        Py_DECREF(sp.bags);
        return NULL;
    }
    return sp.bags;
}

/* --- accessibility ------------------------------------------------------- */

/* The represented graph of a graph-labelled tree, as ``_kernels_py``'s
 * ``accessible_rows``: label vertices of all bags are numbered in one flat
 * range, and a marker's ``out`` memoises what it reaches across its edge
 * (an ordinary vertex's ``out`` is its own bit over the ids). */
#define ACCESS_MAX 256

enum { UNSET, ORDINARY, MARKER, BUSY, DONE };

typedef struct {
    u64 row[ACCESS_MAX];   /* label row, over the vertex's own bag */
    u64 out[ACCESS_MAX];
    int base[ACCESS_MAX];  /* first label vertex of the vertex's bag */
    int partner[ACCESS_MAX];
    unsigned char state[ACCESS_MAX];
} Access;

typedef struct {
    long long edge;
    int vertex;
} EdgeMarker;

static int by_edge(const void *a, const void *b)
{
    long long x = ((const EdgeMarker *)a)->edge, y = ((const EdgeMarker *)b)->edge;

    return (x > y) - (x < y);
}

/* What the label neighbourhood ``row`` of the bag starting at ``base``
 * reaches, or -1 when an alternating path returns to a marker it is
 * crossing. */
static int reach(Access *ac, int base, u64 row, u64 *out)
{
    u64 acc = 0;
    int v, p;

    for (; row; row &= row - 1) {
        v = base + CTZ(row);
        if (ac->state[v] == BUSY)
            return -1;
        if (ac->state[v] == MARKER) {
            p = ac->partner[v];
            ac->state[v] = BUSY;
            if (reach(ac, ac->base[p], ac->row[p], &ac->out[v]) < 0)
                return -1;
            ac->state[v] = DONE;
        }
        acc |= ac->out[v];
    }
    *out = acc;
    return 0;
}

/* Reads one (rows, ordinary, markers) bag into label vertices nv.. of
 * ``ac``; returns its size, or -1 with an exception set. */
static int read_bag(Access *ac, int nv, PyObject *item, const long long *ids,
                    int n, EdgeMarker *em, int *nm, int *ordv, int *no)
{
    PyObject *rows_obj, *ordinary, *markers, *rows, *key, *val;
    Py_ssize_t pos;
    long local;
    long long id;
    int k, i, j;

    if (!PyArg_ParseTuple(item, "OO!O!;a bag is (rows, ordinary, markers)",
                          &rows_obj, &PyDict_Type, &ordinary, &PyDict_Type,
                          &markers))
        return -1;
    rows = PySequence_Fast(rows_obj, "label rows must be a sequence of ints");
    if (rows == NULL)
        return -1;
    k = (int)PySequence_Fast_GET_SIZE(rows);
    if (k > 64 || nv + k > ACCESS_MAX) {
        Py_DECREF(rows);
        PyErr_Format(PyExc_OverflowError,
                     "accessible_rows supports labels of <= 64 and trees of "
                     "<= %d label vertices", ACCESS_MAX);
        return -1;
    }
    for (i = 0; i < k; i++) {
        ac->row[nv + i] = PyLong_AsUnsignedLongLong(
            PySequence_Fast_GET_ITEM(rows, i));
        if (ac->row[nv + i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(rows);
            return -1;
        }
        ac->base[nv + i] = nv;
        ac->state[nv + i] = UNSET;
    }
    Py_DECREF(rows);
    for (i = 0; i < k; i++)
        if (ac->row[nv + i] & ~FULL(k))
            goto stray;
    pos = 0;
    while (PyDict_Next(ordinary, &pos, &key, &val)) {
        if ((local = PyLong_AsLong(key)) == -1 && PyErr_Occurred())
            return -1;
        if ((id = PyLong_AsLongLong(val)) == -1 && PyErr_Occurred())
            return -1;
        if (local < 0 || local >= k || ac->state[nv + local] != UNSET)
            goto stray;
        for (j = 0; j < n && ids[j] != id; j++)
            ;
        if (j == n) {
            PyErr_Format(PyExc_ValueError, "unknown id %lld", id);
            return -1;
        }
        ac->state[nv + local] = ORDINARY;
        ac->out[nv + local] = (u64)1 << j;
        ordv[(*no)++] = nv + (int)local;
    }
    pos = 0;
    while (PyDict_Next(markers, &pos, &key, &val)) {
        em[*nm].edge = PyLong_AsLongLong(key);
        if (em[*nm].edge == -1 && PyErr_Occurred())
            return -1;
        if ((local = PyLong_AsLong(val)) == -1 && PyErr_Occurred())
            return -1;
        if (local < 0 || local >= k || ac->state[nv + local] != UNSET)
            goto stray;
        ac->state[nv + local] = MARKER;
        em[(*nm)++].vertex = nv + (int)local;
    }
    for (i = 0; i < k; i++)
        if (ac->state[nv + i] == UNSET)
            goto stray;
    return k;
stray:
    PyErr_SetString(PyExc_ValueError,
                    "label vertices must be ordinary or markers, each "
                    "exactly one");
    return -1;
}

static PyObject *accessible_rows(PyObject *Py_UNUSED(self), PyObject *args,
                                 PyObject *kwargs)
{
    static char *kwlist[] = {"ids", "bags", NULL};
    PyObject *ids_obj, *bags_obj, *seq;
    Access ac;
    EdgeMarker em[ACCESS_MAX];
    long long ids[64];
    u64 adj[64];
    int ordv[ACCESS_MAX];
    int n, i, nb, nv = 0, nm = 0, no = 0, k, v;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &ids_obj,
                                     &bags_obj))
        return NULL;
    seq = PySequence_Fast(ids_obj, "ids must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    n = (int)PySequence_Fast_GET_SIZE(seq);
    if (n > 64) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_OverflowError, "accessible_rows supports <= 64 ids");
        return NULL;
    }
    for (i = 0; i < n; i++) {
        ids[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (ids[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    for (i = 1; i < n; i++)
        if (ids[i - 1] >= ids[i]) {
            PyErr_SetString(PyExc_ValueError, "ids must be strictly increasing");
            return NULL;
        }
    seq = PySequence_Fast(bags_obj, "bags must be a sequence");
    if (seq == NULL)
        return NULL;
    nb = (int)PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < nb; i++) {
        k = read_bag(&ac, nv, PySequence_Fast_GET_ITEM(seq, i), ids, n, em,
                     &nm, ordv, &no);
        if (k < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        nv += k;
    }
    Py_DECREF(seq);
    /* markers sorted by edge pair up two by two */
    qsort(em, nm, sizeof em[0], by_edge);
    for (i = 0; i < nm; i = k) {
        for (k = i + 1; k < nm && em[k].edge == em[i].edge; k++)
            ;
        if (k - i != 2) {
            PyErr_Format(PyExc_ValueError, "tree edge %lld has %d markers, not 2",
                         em[i].edge, k - i);
            return NULL;
        }
        ac.partner[em[i].vertex] = em[i + 1].vertex;
        ac.partner[em[i + 1].vertex] = em[i].vertex;
    }
    memset(adj, 0, sizeof adj);
    for (i = 0; i < no; i++) {
        v = ordv[i];
        if (reach(&ac, ac.base[v], ac.row[v], &adj[CTZ(ac.out[v])]) < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "an alternating path closes a cycle");
            return NULL;
        }
    }
    return int_tuple(n, adj);
}

/* --- module -------------------------------------------------------------- */

#define KERNEL(name, doc)                                                     \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, \
     doc}

static PyMethodDef kernel_methods[] = {
    KERNEL(profile_counts,
           "profile_counts(n, adj): zero forcing sets per size, k = 0..n."),
    KERNEL(canon_adj, "canon_adj(n, adj): canonically relabelled rows."),
    KERNEL(augment,
           "augment(n, adj): a (record, connected) pair per child the "
           "enumeration keeps from one parent."),
    KERNEL(split_bags,
           "split_bags(n, adj): bags of the split recursion, each part's "
           "first split taken with A-sides holding vertex 0, in increasing "
           "mask order."),
    KERNEL(accessible_rows,
           "accessible_rows(ids, bags): rows of the graph a graph-labelled "
           "tree represents."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels_cy",
    "Compiled twins of five hot kernels in zfx._kernels_py.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__kernels_cy(void)
{
    PyObject *module = PyModule_Create(&kernels_module);

    if (module == NULL)
        return NULL;
    KIND_CLIQUE = PyUnicode_InternFromString("clique");
    KIND_STAR = PyUnicode_InternFromString("star");
    KIND_PRIME = PyUnicode_InternFromString("prime");
    if (KIND_CLIQUE == NULL || KIND_STAR == NULL || KIND_PRIME == NULL
        || PyModule_AddStringConstant(module, "BACKEND", "cython") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
