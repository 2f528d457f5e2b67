"""Pure-Python implementations of the hot kernels.

Graphs enter as ``(n, adj)`` where ``adj`` is a sequence of n ints, bit j of
``adj[i]`` set iff ij is an edge.  The compiled backend in ``_kernels_cy``
implements five of these functions with identical outputs: ``canon_adj``,
``augment`` (one parent's step of ``graphs.enumerate_graphs``, its kept
children canonicalised and packed as level records), ``profile_counts``,
``split_bags`` (the canonical split decomposition for
``splitdec.decompose``: the split recursion, ``_split_parts``, reduced by
``reduce_bags`` and returned as ``{bag id: (rows, tokens, kind,
center)}``) and ``accessible_rows`` (the graph a graph-labelled tree
represents, read from each bag's ``(rows, tokens)``, for
``splitdec.reconstruct``).  A token names a label vertex: its original
vertex ``>= 0``, or ``~e`` for the marker of tree edge e.  The four that
read adjacency rows refuse a negative row and a row bit at or above n
with ``ValueError``, on both backends.  ``reduce_bags`` is the one
reduction rule in Python: ``splitdec`` reduces peeled trees with it, and
the compiled ``split_bags`` runs the same rule in C.
``zfx.kernels`` picks those five at import time and takes
``closure_mask``, ``closure_counts``, ``metric_dh`` and ``find_split_mask``
from here on both backends.  ``metric_dh`` runs a polynomial separation
test.  ``find_split_mask`` is the split scan ``_split_parts`` runs on
each part, in its one order.  ``profile_counts`` counts forts on bitsets
indexed by the 2^n subsets, here and in C (which refuses n > 32);
``closure_counts`` gives the same counts by one closure per subset.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import or_
from struct import Struct
from typing import Iterator, Optional

from .errors import InvariantViolation

BACKEND = "python"

# profile_counts counts forts on 2^n-bit bitsets up to this many vertices
# (about 5 MB of tables at n = 20) and runs one closure per subset above it.
BITSET_LIMIT = 20


def closure_mask(n: int, adj, s: int) -> int:
    """Zero forcing closure of the blue set ``s``.

    Work-queue propagation: a blue vertex with exactly one white neighbor
    forces it; after each force only the new vertex and its blue neighbors
    need re-examination.
    """
    full = (1 << n) - 1
    blue = s & full
    white = full ^ blue
    if not white:
        return blue
    stack = []
    b = blue
    while b:
        low = b & -b
        stack.append(low.bit_length() - 1)
        b ^= low
    while stack:
        v = stack.pop()
        w = adj[v] & white
        if w and not (w & (w - 1)):
            blue |= w
            white ^= w
            u = w.bit_length() - 1
            stack.append(u)
            nb = adj[u] & blue
            while nb:
                low = nb & -nb
                stack.append(low.bit_length() - 1)
                nb ^= low
    return blue


def closure_counts(n: int, adj) -> list:
    """Exact count of zero forcing sets per size, index k = 0..n, by one
    closure per subset: the definition, which ``profile_counts`` answers
    through forts instead."""
    full = (1 << n) - 1
    z = [0] * (n + 1)
    for m in range(1 << n):
        if closure_mask(n, adj, m) == full:
            z[m.bit_count()] += 1
    return z


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[list[int], list[int]]:
    """Bitsets over the subsets f of range(n), bit f standing for f:
    ``has[u]`` holds the f containing u and ``level[j]`` the f of size j.

    Built by doubling: the subsets of range(m + 1) are those of range(m)
    followed, 2^m bits up, by the same subsets with m added.
    """
    has: list[int] = []
    level = [1]
    width = 1
    for _ in range(n):
        has = [h | (h << width) for h in has]
        has.append(((1 << width) - 1) << width)
        level = [lo | (hi << width) for lo, hi in zip(level + [0], [0] + level)]
        width <<= 1
    return has, level


def _rows(n: int, adj) -> tuple:
    """The first n rows of ``adj``, refusing a negative row and a bit at or
    above n as the compiled kernels do: neither names vertices of the
    graph."""
    rows = tuple(adj[:n])
    for i, row in enumerate(rows):
        if row < 0:
            raise ValueError(f"adj row {i} is negative")
        if row >> n:
            raise ValueError(f"adj row {i} has a bit at or above n = {n}")
    return rows


def profile_counts(n: int, adj) -> list:
    """Exact count of zero forcing sets per size, index k = 0..n.

    Counts forts: a fort is a nonempty F such that no vertex outside F has
    exactly one neighbour in F, and a set S is forcing iff it meets every
    fort.  Proof:

    1. If S misses a fort F, no vertex of F is ever forced: the first one,
       x, would be forced by a blue u outside F whose neighbours in F are
       all white but x, so u has exactly one neighbour in F.
    2. If S is not forcing, the vertices its closure leaves white form a
       fort disjoint from S: a blue vertex with exactly one white neighbour
       would force it.

    So S of size k is non-forcing iff its complement, of size n - k,
    contains a fort.  Over bitsets indexed by the 2^n subsets f: for each
    vertex w, mark the f holding at least one and at least two neighbours
    of w, and keep the f that contain w or do not hold exactly one; drop
    f = 0.  Closing that fort set upward (n shift-OR steps) gives every set
    containing a fort, and z(G;k) is C(n, k) minus its members of size
    n - k.  Graphs over ``BITSET_LIMIT`` vertices run ``closure_counts``
    instead.
    """
    adj = _rows(n, adj)
    if n > BITSET_LIMIT:
        return closure_counts(n, adj)
    has, level = _subset_tables(n)
    forts = ((1 << (1 << n)) - 1) ^ 1
    for w in range(n):
        some = many = 0
        r = adj[w]
        while r:
            low = r & -r
            r ^= low
            h = has[low.bit_length() - 1]
            many |= some & h
            some |= h
        forts &= has[w] | ~some | many
    up = forts
    for u in range(n):
        up |= (up & ~has[u]) << (1 << u)
    return [comb(n, k) - (up & level[n - k]).bit_count() for k in range(n + 1)]


def canon_adj(n: int, adj) -> tuple:
    """Canonically relabeled adjacency rows.

    The relabeling minimizes the row-major upper-triangle bit string of the
    adjacency matrix over all n! vertex orders.  The search fixes positions
    left to right over an ordered partition of the unplaced vertices into
    cells (int masks with their sizes).  A candidate u of the first cell
    contributes the least row the cells allow: per cell, zeros then
    ``(adj[u] & cell).bit_count()`` ones.  Only candidates with the least
    such row branch, twins among them collapsed (swapping twins is an
    automorphism), and a branch whose prefix already exceeds the best
    encoding is cut.  Placing u splits every cell into ``cell & ~adj[u]``
    then ``cell & adj[u]``; once every cell is a singleton the order is
    forced and the encoding is finished directly.  The rows are decoded
    from the least encoding.  Exactness is checked against the literal
    factorial minimum in the test suite.
    """
    adj = _rows(n, adj)
    return adj if n <= 1 else _canon(n, adj)


def _canon(n: int, adj) -> tuple:
    """``canon_adj`` on n >= 2 rows already checked."""
    best = -1

    def dfs(cells, sizes, unplaced, acc, placed):
        nonlocal best
        while True:
            if len(cells) == n - placed:
                # all singletons: the remaining order is forced
                for k in range(len(cells) - 1):
                    au = adj[cells[k].bit_length() - 1]
                    for c in cells[k + 1:]:
                        acc = (acc << 1) | (au & c != 0)
                if best < 0 or acc < best:
                    best = acc
                return
            rem = n - 1 - placed
            c0 = cells[0]
            rest = list(zip(cells[1:], sizes[1:]))
            # least achievable row over the candidates of the first cell
            best_pat = -1
            c = c0
            while c:
                low = c & -c
                c ^= low
                au = adj[low.bit_length() - 1]
                pat = (1 << (au & c0).bit_count()) - 1
                for cell, size in rest:
                    pat = (pat << size) | ((1 << (au & cell).bit_count()) - 1)
                if best_pat < 0 or pat < best_pat:
                    best_pat = pat
                    tied = [low]
                elif pat == best_pat:
                    tied.append(low)
            acc = (acc << rem) | best_pat
            placed += 1
            if best >= 0 and acc > (best >> (rem * (rem - 1) // 2)):
                return
            # drop tied candidates that are twins of an earlier one
            survivors = []
            for lu in tied:
                au = adj[lu.bit_length() - 1]
                for lw in survivors:
                    both = ~(lu | lw)
                    if au & unplaced & both == adj[lw.bit_length() - 1] & unplaced & both:
                        break
                else:
                    survivors.append(lu)
            last = len(survivors) - 1
            for i, lu in enumerate(survivors):
                au = adj[lu.bit_length() - 1]
                new_cells = []
                new_sizes = []
                for cell, size in [(c0 ^ lu, sizes[0] - 1)] + rest:
                    yes = cell & au
                    k = yes.bit_count()
                    if k < size:
                        new_cells.append(cell ^ yes)
                        new_sizes.append(size - k)
                    if k:
                        new_cells.append(yes)
                        new_sizes.append(k)
                if i < last:
                    dfs(new_cells, new_sizes, unplaced ^ lu, acc, placed)
            # the last survivor's branch goes on in this frame
            cells = new_cells
            sizes = new_sizes
            unplaced ^= lu

    full = (1 << n) - 1
    dfs([full], [n], full, 0, 0)
    out = [0] * n
    bit = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            bit -= 1
            if best >> bit & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return tuple(out)


def _min_degree_neighbourhoods(base: tuple[int, ...]) -> Iterator[int]:
    """Every neighbourhood ``nb`` of a new vertex added to ``base`` in which
    the new vertex has minimum degree.

    With ``d`` the least degree of ``base`` and ``low`` its vertices of that
    degree, these are the masks with at most ``d`` bits, and the masks with
    ``d + 1`` bits that contain ``low``: a new vertex of degree ``d + 1``
    must raise every degree-``d`` vertex to ``d + 1``, and one of degree
    ``d + 2`` or more cannot.
    """
    degrees = [row.bit_count() for row in base]
    d = min(degrees)
    low = sum(1 << i for i, k in enumerate(degrees) if k == d)
    singles = [1 << i for i in range(len(base))]
    for k in range(d + 1):
        for c in combinations(singles, k):
            yield sum(c)
    extra = d + 1 - low.bit_count()
    if extra >= 0:
        for c in combinations([b for b in singles if not b & low], extra):
            yield low | sum(c)


def _twin_classes(adj: tuple[int, ...]) -> list[list[int]]:
    """The classes of two or more twins, each in ascending vertex order.

    Twins u and w have ``adj[u] & ~(1 << w) == adj[w] & ~(1 << u)``: equal
    open neighbourhoods (false twins) or equal closed ones (true twins).
    No vertex has both a true and a false twin, so the classes partition
    the vertices, and each one is all true or all false twins.
    """
    open_nbhd: dict[int, list[int]] = {}
    closed_nbhd: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        open_nbhd.setdefault(row, []).append(v)
        closed_nbhd.setdefault(row | 1 << v, []).append(v)
    return [c for groups in (open_nbhd, closed_nbhd)
            for c in groups.values() if len(c) > 1]


class _Added(dict):
    """``added[nb]``: what joining vertex n to the neighbourhood ``nb`` ORs
    into each row of an n-vertex parent extended by an empty row n, built
    on first use."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, nb: int) -> tuple:
        top = 1 << self.n
        out = self[nb] = tuple(top if nb >> i & 1 else 0
                               for i in range(self.n)) + (nb,)
        return out


@lru_cache(maxsize=None)
def _added(n: int) -> _Added:
    return _Added(n)


@lru_cache(maxsize=None)
def level_record(n: int) -> Struct:
    """The level record of a class on n vertices: its canonical rows as
    big-endian uint16, so records sort as the row tuples do."""
    return Struct(f">{n}H")


def _components(n: int, adj) -> list[int]:
    """The vertex masks of the components, by least vertex."""
    comps = []
    rest = (1 << n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def augment(n: int, adj) -> list:
    """The children that ``graphs.enumerate_graphs`` keeps from one parent
    on n vertices: a ``(record, connected)`` pair per canonicalised
    candidate, in generation order, duplicates kept.  ``record`` is the
    child's canonical rows packed by ``level_record(n + 1)``; the child is
    connected iff the new vertex's neighbourhood meets every component of
    the parent.

    The candidates are the neighbourhoods of a new vertex n in which it has
    minimum degree (``_min_degree_neighbourhoods`` order); twin packing and
    canonical deletion, as ``enumerate_graphs`` states them, drop some
    before ``canon_adj`` runs.  Refuses n < 1 and n > 15, so that the
    child's rows fit in uint16.
    """
    if not 1 <= n <= 15:
        raise ValueError(f"augment takes parents with 1 <= n <= 15 (got {n})")
    adj = _rows(n, adj)
    comps = _components(n, adj)
    pack = level_record(n + 1).pack
    base = adj + (0,)
    added = _added(n)
    deg = [row.bit_count() for row in adj]
    d = min(deg)
    # by_deg[j]: the parent's vertices of degree j; sig[v]: the sum of the
    # parent degrees of v's neighbours
    by_deg = [0] * (n + 1)
    sig = []
    for v, row in enumerate(adj):
        by_deg[deg[v]] |= 1 << v
        s = 0
        while row:
            low = row & -row
            s += deg[low.bit_length() - 1]
            row ^= low
        sig.append(s)
    # (u, w) bits of twins adjacent in their class, u < w
    steps = [(1 << c[i - 1], 1 << c[i])
             for c in _twin_classes(adj) for i in range(1, len(c))]
    out = []
    for nb in _min_degree_neighbourhoods(adj):
        packed = True
        for u, w in steps:
            if nb & w and not nb & u:
                packed = False
                break
        if not packed:
            continue
        k = nb.bit_count()
        if k and k >= d:
            # the other vertices of degree k in the child
            rivals = (by_deg[k] & ~nb) | (by_deg[k - 1] & nb)
            if rivals:
                new_sig = k
                m = nb
                while m:
                    low = m & -m
                    new_sig += deg[low.bit_length() - 1]
                    m ^= low
                while rivals:
                    low = rivals & -rivals
                    v = low.bit_length() - 1
                    s = sig[v] + (adj[v] & nb).bit_count()
                    if nb & low:
                        s += k
                    if s > new_sig:
                        break
                    rivals ^= low
                if rivals:  # the loop stopped at a larger sigma
                    continue
        rows = _canon(n + 1, tuple(map(or_, base, added[nb])))
        out.append((pack(*rows), all(nb & c for c in comps)))
    return out


def metric_dh(n: int, adj) -> bool:
    """True iff every connected induced subgraph preserves distances.

    Separation test, O(n^2) mask BFS runs: the graph is distance-hereditary
    iff every non-adjacent pair a, b with a common neighbour lies in
    different components of G - (N(a) & N(b)).  Proof, for connected G:

    1. Let v not in M.  M is isometric in M+v iff every two non-adjacent
       neighbours of v in M have a common neighbour in M: their distance
       in M+v is 2, and a shortest path through v can be rerouted through
       that common neighbour.
    2. Any connected induced H is reached from G by deleting non-cut
       vertices one at a time (peel the leaves of a spanning tree of G
       that extends one of H).  Isometry is transitive, so G is
       distance-hereditary iff step 1's condition holds for every
       connected M and every v not in M.
    3. Step 1's condition fails iff some non-adjacent a, b in N(v) are
       joined by a path avoiding N(a) & N(b): take M to be that path.

    Pairs a, b always share a component, so on a disconnected graph the
    test holds iff it holds on every component, which is what the literal
    definition gives as well.
    """
    full = (1 << n) - 1
    for a in range(n):
        aa = adj[a]
        later = full & ~aa & ~((2 << a) - 1)  # b > a, not adjacent to a
        while later:
            lb = later & -later
            later ^= lb
            common = aa & adj[lb.bit_length() - 1]
            if not common:
                continue
            allowed = full & ~common
            reach = 1 << a
            frontier = reach
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & allowed & ~reach
                if frontier & lb:
                    return False
                reach |= frontier
    return True


def find_split_mask(n: int, adj) -> int:
    """First valid split of a connected graph, as the A-side mask.

    Scans A-side masks containing vertex 0 and at least one more vertex in
    increasing numeric order; returns 0 when no split exists.  A
    bipartition is a split iff every A-vertex with cross edges sees the
    same nonempty cross neighborhood.
    """
    if n < 4:
        return 0
    full = (1 << n) - 1
    for m in range(1, 1 << (n - 1)):
        a_mask = (m << 1) | 1
        if a_mask.bit_count() > n - 2:
            continue
        b_mask = full ^ a_mask
        b1 = 0
        ok = True
        am = a_mask
        while am:
            low = am & -am
            am ^= low
            cross = adj[low.bit_length() - 1] & b_mask
            if cross:
                if not b1:
                    b1 = cross
                elif cross != b1:
                    ok = False
                    break
        if ok and b1:
            return a_mask
    return 0


def _kind(rows) -> tuple[str, Optional[int]]:
    """The kind of the graph with these rows, and a star's center: "clique"
    (K_2 included), "star" with its first vertex of degree k - 1, or
    "prime" for neither.

    Read off the degrees: a clique on k vertices has degree sum k(k-1); a
    star has degree sum 2(k-1) and a vertex of degree k-1, its center.
    """
    k = len(rows)
    degrees = [row.bit_count() for row in rows]
    total = sum(degrees)
    if total == k * (k - 1):
        return "clique", None
    if total == 2 * (k - 1) and k - 1 in degrees:
        return "star", degrees.index(k - 1)
    return "prime", None


def _induced_rows(rows, keep: int) -> tuple[list[int], list[int]]:
    """The rows of the subgraph induced on the mask ``keep``, its vertices
    relabelled in ascending order, and the kept vertices in that order.

    Each run of dropped vertices below the last kept one is a gap in the
    masked rows; one shift over the rows closes it, from the highest gap
    down, so the gaps below keep their places.
    """
    kept = []
    m = keep
    while m:
        low = m & -m
        kept.append(low.bit_length() - 1)
        m ^= low
    out = [rows[v] & keep for v in kept]
    gap = ((1 << kept[-1]) - 1) & ~keep if kept else 0
    while gap:
        top = gap.bit_length()  # the highest gap is bits start..top-1
        start = (~gap & ((1 << top) - 1)).bit_length()
        low = (1 << start) - 1
        out = [(r & low) | ((r >> (top - start)) & ~low) for r in out]
        gap &= low
    return out, kept


def _split_parts(n: int, adj) -> list:
    """The bags of the split recursion of a connected graph, unreduced.

    A part is a bag when it is a clique, a star or has no split (kind
    "clique", "star" or "prime"; a star carries its center, the first vertex
    of degree n - 1).  Otherwise its first split (``find_split_mask``, the
    one scan order: A-sides hold vertex 0, in increasing mask order) takes
    the next tree edge e, and each side becomes a part of its own: its
    vertices in ascending order, then a marker for e adjacent to the side's
    frontier (the vertices with a neighbour across).  Side A is split before
    side B.  The bags are listed in the order the recursion reaches them.

    Each bag is ``(rows, tokens, kind, center)``, with one token per label
    vertex: its original vertex, or ``~e`` for the marker of tree edge e.
    Tree edge e is held by exactly two bags, one on each side of its split,
    and every bag of a split graph has at least three label vertices.
    Raises ``ValueError`` on a disconnected graph.
    """
    adj = _rows(n, adj)
    if len(_components(n, adj)) > 1:
        raise ValueError("decompose expects a connected graph")
    bags = []
    edges = 0
    todo = [(adj, tuple(range(n)))]
    while todo:
        rows, tokens = todo.pop()
        k = len(rows)
        kind, center = _kind(rows)
        a_mask = find_split_mask(k, rows) if kind == "prime" else 0
        if not a_mask:
            bags.append((rows, tokens, kind, center))
            continue
        e = edges
        edges += 1
        sides = []
        for part in (a_mask, ((1 << k) - 1) ^ a_mask):
            sub, kept = _induced_rows(rows, part)
            marker = 1 << len(kept)
            marker_row = 0
            for i, v in enumerate(kept):
                if rows[v] & ~part:
                    sub[i] |= marker
                    marker_row |= 1 << i
            sub.append(marker_row)
            sides.append((tuple(sub),
                          tuple(tokens[v] for v in kept) + (~e,)))
        todo += reversed(sides)  # A comes off the stack first
    return bags


def _edge_ends(bags: dict) -> dict[int, list[int]]:
    """Each tree edge id with the ids of the bags holding it as a marker,
    in the order ``bags`` lists them."""
    held: dict[int, list[int]] = {}
    for bid, (_, tokens, _, _) in bags.items():
        for tok in tokens:
            if tok < 0:
                held.setdefault(~tok, []).append(bid)
    return held


def _without(rows, tokens, v: int) -> tuple[list[int], int, tuple]:
    """A bag's label without label vertex ``v``: the other rows and ``v``'s
    neighbourhood, in the numbering where locals above ``v`` shift down by
    one, and the other tokens."""
    low = (1 << v) - 1
    rows = [(row & low) | ((row >> 1) & ~low) for row in rows]
    across = rows.pop(v)
    return rows, across, tokens[:v] + tokens[v + 1:]


def _contract(x, y, e: int) -> tuple:
    """The bag that merges bags ``x`` and ``y`` across their tree edge
    ``e``, preserving accessibility; ``x``'s label vertices come first."""
    rows_x, across_x, tokens_x = _without(x[0], x[1], x[1].index(~e))
    rows_y, across_y, tokens_y = _without(y[0], y[1], y[1].index(~e))
    k = len(rows_x)
    adj = [row | (across_y << k if (across_x >> u) & 1 else 0)
           for u, row in enumerate(rows_x)]
    adj += [(row << k) | (across_x if (across_y >> v) & 1 else 0)
            for v, row in enumerate(rows_y)]
    adj = tuple(adj)
    return (adj, tokens_x + tokens_y) + _kind(adj)


def _spsc(x, y, e: int) -> bool:
    """Whether tree edge ``e`` joins one star's center to another's leaf,
    for its two bags ``x`` and ``y`` as ``(rows, tokens, kind, center)``."""
    return (x[2] == "star" and y[2] == "star"
            and (x[1][x[3]] == ~e) != (y[1][y[3]] == ~e))


def _mergeable(bags: dict, ends: dict) -> Optional[int]:
    """The least tree edge that one of the three merge rules contracts, or
    None when the tree is reduced."""
    for e in sorted(ends):
        x, y = ends[e]
        bx, by = bags[x], bags[y]
        if len(bx[0]) <= 2 or len(by[0]) <= 2:
            return e
        if (bx[2] == "clique" and by[2] == "clique") or _spsc(bx, by, e):
            return e
    return None


def reduce_bags(bags: dict) -> dict:
    """The reduced tree of ``{bag id: (rows, tokens, kind, center)}``, in
    the same form: the least mergeable tree edge is contracted into its
    smaller bag id until none is left.  The merge rules contract a
    clique-clique edge, a star edge joined center to leaf, and any edge at a
    bag of at most two label vertices.

    ``bags`` must list its ids in ascending order, and so does the result.
    Each edge's ends are read once, in that order, and patched to the kept
    id as contractions happen; a contraction lists its first end's label
    vertices first, so the order is part of the output.  A two-vertex bag
    of two nonadjacent markers passes nothing between its neighbours, so no
    split decomposition holds one: it is refused with
    ``InvariantViolation`` rather than contracted.
    """
    bags = dict(bags)
    ends = _edge_ends(bags)
    while (e := _mergeable(bags, ends)) is not None:
        x, y = ends.pop(e)
        bx, by = bags[x], bags[y]
        for rows, tokens, _, _ in (bx, by):
            if len(rows) == 2 and max(tokens) < 0 and not rows[0] & 2:
                raise InvariantViolation(
                    "2-vertex pass-through bag with nonadjacent markers"
                )
        keep = min(x, y)
        bags[keep] = _contract(bx, by, e)
        del bags[max(x, y)]
        for tok in bags[keep][1]:
            if tok < 0:
                ends[~tok] = [keep if b in (x, y) else b for b in ends[~tok]]
    return bags


def split_bags(n: int, adj) -> dict:
    """The canonical split decomposition of a connected graph, as its
    reduced tree ``{bag id: (rows, tokens, kind, center)}`` in ascending
    bag ids: ``reduce_bags`` over the bags of the split recursion
    (``_split_parts``), numbered in the order the recursion reaches them.
    Raises ``ValueError`` on a disconnected graph.
    """
    return reduce_bags(dict(enumerate(_split_parts(n, adj))))


def accessible_rows(ids, bags) -> tuple:
    """Rows of the graph a graph-labelled tree represents, over ``ids``.

    ``bags`` lists ``(rows, tokens)`` per bag: the label's adjacency rows
    and, per label vertex, its original id or ``~e`` for the marker of tree
    edge e.  A tree edge is the pair of markers that name it, one in each
    of two bags.  Two ordinary vertices are adjacent iff an alternating
    path of label edges and tree edges joins them.  What a marker reaches
    across its tree edge depends only on that marker, so it is computed
    once and each row is the OR over the label neighbours.  Row i belongs
    to ``ids[i]``, and ``ids`` must be strictly increasing.

    Raises ``ValueError`` on ids that are not strictly increasing, a bag
    without one token per label vertex, a negative row or a row bit outside
    its label, an original id not in ``ids``, a tree edge without exactly
    two markers or with both in one bag, and an alternating path that
    closes a cycle.  The rest of the bag graph's shape is
    ``splitdec.check_tree``'s job: on bags joined by two tree edges, or on
    a forest, the rows come back without an error.
    """
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("ids must be strictly increasing")
    idx = {orig: i for i, orig in enumerate(ids)}
    partner = {}  # tree edge -> its markers as (bag, label vertex)
    for b, (rows, tokens) in enumerate(bags):
        k = len(rows)
        if len(tokens) != k:
            raise ValueError(f"bag {b} has {len(tokens)} tokens for {k} "
                             "label vertices")
        for local, (row, tok) in enumerate(zip(rows, tokens)):
            if row < 0:
                raise ValueError(f"bag {b} has a negative row")
            if row >> k:
                raise ValueError(f"bag {b} has a row bit outside its label")
            if tok < 0:
                partner.setdefault(~tok, []).append((b, local))
            elif tok not in idx:
                raise ValueError(f"unknown id {tok}")
    for e, ends in partner.items():
        if len(ends) != 2:
            raise ValueError(f"tree edge {e} has {len(ends)} markers, not 2")
        if ends[0][0] == ends[1][0]:
            raise ValueError(f"tree edge {e} has both markers in one bag")
    across: dict = {}  # (bag, marker) -> what it reaches; None: busy

    def reached(b: int, row: int) -> int:
        tokens = bags[b][1]
        out = 0
        while row:
            low = row & -row
            w = low.bit_length() - 1
            row ^= low
            tok = tokens[w]
            if tok >= 0:
                out |= 1 << idx[tok]
                continue
            if (b, w) not in across:
                across[b, w] = None
                x, y = partner[~tok]
                far, far_local = y if x[0] == b else x
                across[b, w] = reached(far, bags[far][0][far_local])
            elif across[b, w] is None:
                raise ValueError("an alternating path closes a cycle")
            out |= across[b, w]
        return out

    adj = [0] * len(ids)
    for b, (rows, tokens) in enumerate(bags):
        for local, tok in enumerate(tokens):
            if tok >= 0:
                adj[idx[tok]] = reached(b, rows[local])
    return tuple(adj)
