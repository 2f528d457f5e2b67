"""Pure-Python implementations of the hot kernels.

Graphs enter as ``(n, adj)`` where ``adj`` is a sequence of n ints, bit j of
``adj[i]`` set iff ij is an edge.  The compiled backend in ``_kernels_cy``
implements four of these functions with identical outputs: ``canon_adj``,
``profile_counts``, ``split_bags`` (the whole split recursion of
``splitdec.decompose``, returning finished bags whose markers name the
tree edges between them) and ``accessible_rows`` (the graph a
graph-labelled tree represents, for ``splitdec.reconstruct``).
``zfx.kernels`` picks those four at import time and takes
``closure_mask``, ``metric_dh`` and ``find_split_mask`` from here on both
backends.  ``metric_dh`` runs a
polynomial separation test.  ``profile_counts`` counts forts on bitsets
indexed by the 2^n subsets, here and in C (which refuses n > 32).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

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
    n - k.  Graphs over ``BITSET_LIMIT`` vertices run one closure per
    subset instead.
    """
    if n > BITSET_LIMIT:
        full = (1 << n) - 1
        z = [0] * (n + 1)
        for m in range(1, 1 << n):
            if closure_mask(n, adj, m) == full:
                z[m.bit_count()] += 1
        return z
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
    if n <= 1:
        return tuple(adj)

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


def find_split_mask(n: int, adj, reverse: bool = False) -> int:
    """First valid split of a connected graph, as the A-side mask.

    Scans A-side masks containing vertex 0 and at least one more vertex in
    increasing numeric order (decreasing when ``reverse``); returns 0 when
    no split exists.  A bipartition is a split iff every A-vertex with cross
    edges sees the same nonempty cross neighborhood.
    """
    if n < 4:
        return 0
    full = (1 << n) - 1
    lo, hi = 1, 1 << (n - 1)
    rng = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
    for m in rng:
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


def split_bags(n: int, adj, reverse: bool = False) -> list:
    """The bags of the split recursion of a connected graph.

    A part is a bag when it is a clique, a star or has no split (kind
    "clique", "star" or "prime"; a star carries its center, the first vertex
    of degree n - 1).  Otherwise its first split (``find_split_mask``) takes
    the next tree edge e, and each side becomes a part of its own: its
    vertices in ascending order, then a marker for e adjacent to the side's
    frontier (the vertices with a neighbour across).  Side A is split before
    side B.  Bag ids count the bags in the order the recursion reaches them.

    Each bag is ``(rows, ordinary, markers, kind, center)``, where
    ``ordinary`` maps label vertices to original vertices and ``markers``
    maps tree edges to label vertices, both in ascending label order.  Tree
    edge e is held by exactly two bags, one on each side of its split.
    """
    bags = []
    edges = 0
    # a token is an original vertex, or ~e for a marker of tree edge e
    todo = [(tuple(adj[:n]), tuple(range(n)))]
    while todo:
        rows, tokens = todo.pop()
        k = len(rows)
        degrees = [row.bit_count() for row in rows]
        total = sum(degrees)
        center = None
        a_mask = 0
        if total == k * (k - 1):
            kind = "clique"
        elif total == 2 * (k - 1) and k - 1 in degrees:
            kind, center = "star", degrees.index(k - 1)
        else:
            kind = "prime"
            a_mask = find_split_mask(k, rows, reverse)
        if not a_mask:
            ordinary = {l: tok for l, tok in enumerate(tokens) if tok >= 0}
            markers = {~tok: l for l, tok in enumerate(tokens) if tok < 0}
            bags.append((rows, ordinary, markers, kind, center))
            continue
        e = edges
        edges += 1
        sides = []
        for part in (a_mask, ((1 << k) - 1) ^ a_mask):
            kept = []
            local = {}  # vertex bit -> its bit in the side
            m = part
            while m:
                low = m & -m
                local[low] = 1 << len(kept)
                kept.append(low.bit_length() - 1)
                m ^= low
            marker = 1 << len(kept)
            sub = []
            marker_row = 0
            for v in kept:
                r = rows[v] & part
                row = 0
                while r:
                    low = r & -r
                    row |= local[low]
                    r ^= low
                if rows[v] & ~part:
                    row |= marker
                    marker_row |= 1 << len(sub)
                sub.append(row)
            sub.append(marker_row)
            sides.append((tuple(sub),
                          tuple(tokens[v] for v in kept) + (~e,)))
        todo += reversed(sides)  # A comes off the stack first
    return bags


def accessible_rows(ids, bags) -> tuple:
    """Rows of the graph a graph-labelled tree represents, over ``ids``.

    ``bags`` lists ``(rows, ordinary, markers)`` per bag: the label's
    adjacency rows, ``{label vertex: original id}`` and ``{tree edge:
    label vertex}``.  A tree edge is the pair of markers that name it, one
    in each of two bags.  Two ordinary vertices are adjacent iff an
    alternating path of label edges and tree edges joins them.  What a
    marker reaches across its tree edge depends only on that marker, so it
    is computed once and each row is the OR over the label neighbours.
    Row i belongs to ``ids[i]``, and ``ids`` must be strictly increasing.

    Raises ``ValueError`` on ids that are not strictly increasing, an
    original id not in ``ids``, a label vertex that is not exactly one of
    ordinary and marker (or a row bit outside its label), a tree edge
    without exactly two markers, and an alternating path that closes a
    cycle.  The shape of the bag graph is ``splitdec.check_tree``'s job: on
    bags joined by two tree edges, or on a forest, the rows come back
    without an error.  These checks repeat part of ``check_tree`` so that
    both backends refuse the same inputs with the same message; on the
    trees of the n <= 8 corpus they take about a third of this function's
    time.
    """
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("ids must be strictly increasing")
    idx = {orig: i for i, orig in enumerate(ids)}
    partner = {}  # tree edge -> its markers as (bag, label vertex)
    marker_edge = []  # per bag: label vertex -> tree edge
    for b, (rows, ordinary, markers) in enumerate(bags):
        k = len(rows)
        labels = set(ordinary) | set(markers.values())
        if (len(ordinary) + len(markers) != k or labels != set(range(k))
                or any(row >> k for row in rows)):
            raise ValueError("label vertices must be ordinary or markers, "
                             "each exactly one")
        for orig in ordinary.values():
            if orig not in idx:
                raise ValueError(f"unknown id {orig}")
        for e, local in markers.items():
            partner.setdefault(e, []).append((b, local))
        marker_edge.append({local: e for e, local in markers.items()})
    for e, ends in partner.items():
        if len(ends) != 2:
            raise ValueError(f"tree edge {e} has {len(ends)} markers, not 2")
    across: dict = {}  # (bag, edge) -> what its marker reaches; None: busy

    def reached(b: int, row: int) -> int:
        ordinary = bags[b][1]
        out = 0
        while row:
            low = row & -row
            w = low.bit_length() - 1
            row ^= low
            if w in ordinary:
                out |= 1 << idx[ordinary[w]]
                continue
            e = marker_edge[b][w]
            if (b, e) not in across:
                across[b, e] = None
                x, y = partner[e]
                far, far_local = y if x[0] == b else x
                across[b, e] = reached(far, bags[far][0][far_local])
            elif across[b, e] is None:
                raise ValueError("an alternating path closes a cycle")
            out |= across[b, e]
        return out

    adj = [0] * len(ids)
    for b, (rows, ordinary, _) in enumerate(bags):
        for local, orig in ordinary.items():
            adj[idx[orig]] = reached(b, rows[local])
    return tuple(adj)
