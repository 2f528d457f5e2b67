"""Splits, graph-labelled trees, canonical split decomposition, and the
structural reductions used by the unique-prime-bag arguments.

A decomposition is built by recursive splitting (replace G by G_A + marker
and G_B + marker joined by a tree edge) and then reduced to a fixed point of
three merge rules: contract clique-clique edges, contract star edges joined
center-to-leaf, and absorb bags with at most two label vertices.  All three
are instances of one tree-edge contraction that preserves accessibility, so
reduction never changes the represented graph.

Bags are immutable and classified once, when they are made: building,
reduction and peeling replace bags rather than edit them, so a reduction
gets a fresh dict that shares the tree's bags.  A tree is its bags: a tree
edge is an id that exactly two bags hold as a marker.  It is checked once,
when it is made: ``GraphLabelledTree(bags)`` runs ``check_tree``, which
also derives the tree edges and the vertex ids, so reconstruction,
validation and the reductions read trees that already passed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from . import kernels
from .errors import CapacityError, InvariantViolation, TreeError
from .extremal import attach_pendants
from .graphs import (
    Graph,
    are_isomorphic,
    classify_kind,
    induced_subgraph,
    mask_of,
)

SPLIT_BUDGET_N = 24

CLIQUE = "clique"
STAR = "star"
PRIME = "prime"


@dataclass(frozen=True, slots=True)
class Bag:
    """One node of a graph-labelled tree.

    ``ordinary`` maps label vertices to original graph vertices; ``markers``
    maps incident tree-edge ids to the label vertex standing in for the rest
    of the graph across that edge.
    """

    label: Graph
    kind: str
    ordinary: dict[int, int]
    markers: dict[int, int]
    star_center: Optional[int] = None


def _bag(label: Graph, ordinary: dict[int, int], markers: dict[int, int]) -> Bag:
    """The bag on ``label`` with its kind and star center."""
    kind = classify_kind(label)
    tag = PRIME if kind.tag == "other" else kind.tag
    return Bag(label, tag, ordinary, markers, kind.center)


def _without(
    bag: Bag, v: int, e: int, base: int = 0
) -> tuple[list[int], int, dict[int, int], dict[int, int]]:
    """``bag`` with label vertex ``v`` deleted: the other label rows and
    ``v``'s neighbourhood, in the numbering where locals above ``v`` shift
    down by one, then the ordinary and marker maps in that numbering raised
    by ``base``, without tree edge ``e``."""
    low = (1 << v) - 1
    rows = [(row & low) | ((row >> 1) & ~low) for row in bag.label.adj]
    across = rows.pop(v)
    ordinary = {base + l - (l > v): o for l, o in bag.ordinary.items()}
    markers = {e2: base + l - (l > v) for e2, l in bag.markers.items() if e2 != e}
    return rows, across, ordinary, markers


@dataclass(frozen=True, slots=True)
class GraphLabelledTree:
    """Bags joined by the tree edges their markers name.  ``check_tree``
    runs when one is made, and not again; it derives ``tree_edges`` (each
    edge's ``(min, max)`` bag ids) and the sorted original ``vertex_ids``.
    So the bags are never edited afterwards: reduction and peeling build
    new trees."""

    bags: dict[int, Bag]
    tree_edges: dict[int, tuple[int, int]] = field(init=False)
    vertex_ids: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        edges, ids = check_tree(self)
        object.__setattr__(self, "tree_edges", edges)
        object.__setattr__(self, "vertex_ids", ids)

    def bag_neighbors(self, bag_id: int) -> Iterator[tuple[int, int]]:
        """(edge id, neighbor bag id) pairs, ascending by edge id."""
        for e in sorted(self.bags[bag_id].markers):
            x, y = self.tree_edges[e]
            yield e, (y if x == bag_id else x)

    def bag_degree(self, bag_id: int) -> int:
        return len(self.bags[bag_id].markers)

    def is_leaf_bag(self, bag_id: int) -> bool:
        return self.bag_degree(bag_id) == 1

    def prime_bag_ids(self) -> list[int]:
        return [b for b in sorted(self.bags) if self.bags[b].kind == PRIME]


@dataclass(frozen=True, slots=True)
class DecompositionSummary:
    prime_bag_count: int
    prime_labels: tuple[Graph, ...]
    is_dh: bool
    unique_prime: Optional[int]
    star_centered_at_prime: bool


# --- reduction ----------------------------------------------------------------


def _edge_ends(bags: Mapping[int, Bag]) -> dict[int, list[int]]:
    """Each tree edge id with the ids of the bags holding it as a marker,
    in the order ``bags`` lists them."""
    held: dict[int, list[int]] = {}
    for bid, bag in bags.items():
        for e in bag.markers:
            held.setdefault(e, []).append(bid)
    return held


def _contract(bx: Bag, by: Bag, e: int) -> Bag:
    """The bag that merges ``bx`` and ``by`` across their tree edge ``e``,
    preserving accessibility; ``bx``'s label vertices come first."""
    rows_x, across_x, ordinary, markers = _without(bx, bx.markers[e], e)
    k = len(rows_x)
    rows_y, across_y, ordinary_y, markers_y = _without(by, by.markers[e], e, k)
    adj = [row | (across_y << k if (across_x >> u) & 1 else 0)
           for u, row in enumerate(rows_x)]
    adj += [(row << k) | (across_x if (across_y >> v) & 1 else 0)
            for v, row in enumerate(rows_y)]
    ordinary.update(ordinary_y)
    markers.update(markers_y)
    return _bag(Graph(len(adj), tuple(adj)), ordinary, markers)


def _reduce(bags: dict[int, Bag]) -> GraphLabelledTree:
    """The reduced tree of ``bags``, which it consumes: the least mergeable
    tree edge is contracted into its smaller bag id until none is left.

    ``bags`` must list its ids in ascending order.  Each edge's ends are
    read once, in that order, and patched to the kept id as contractions
    happen; a contraction lists its first end's label vertices first, so
    the order is part of the output.
    """
    ends = _edge_ends(bags)
    while (e := _mergeable(bags, ends)) is not None:
        x, y = ends.pop(e)
        bx, by = bags[x], bags[y]
        for bag in (bx, by):
            if bag.label.n == 2 and len(bag.markers) == 2:
                if not bag.label.has_edge(0, 1):
                    raise InvariantViolation(
                        "2-vertex pass-through bag with nonadjacent markers"
                    )
        keep = min(x, y)
        bags[keep] = _contract(bx, by, e)
        del bags[max(x, y)]
        for e2 in bags[keep].markers:
            ends[e2] = [keep if b in (x, y) else b for b in ends[e2]]
    return GraphLabelledTree(bags)


def _mergeable(bags: Mapping[int, Bag],
               edge_ends: Mapping[int, Sequence[int]]) -> Optional[int]:
    """The least tree edge that one of the three merge rules contracts, or
    None when the tree is reduced."""
    for e in sorted(edge_ends):
        x, y = edge_ends[e]
        bx, by = bags[x], bags[y]
        if bx.label.n <= 2 or by.label.n <= 2:
            return e
        if bx.kind == CLIQUE and by.kind == CLIQUE:
            return e
        if bx.kind == STAR and by.kind == STAR:
            x_center = bx.markers[e] == bx.star_center
            y_center = by.markers[e] == by.star_center
            if x_center != y_center:
                return e
    return None


# --- decomposition ----------------------------------------------------------


def decompose(g: Graph, budget: Optional[int] = None) -> GraphLabelledTree:
    """Canonical split decomposition as a reduced graph-labelled tree.

    ``kernels.split_bags`` splits the graph into finished bags, and
    ``_reduce`` contracts their mergeable tree edges.  The recursion takes
    each part's first split in one fixed scan order (A-sides hold vertex 0,
    in increasing mask order).  The reduced tree is unique (Cunningham 1982),
    so that order cannot show in it; the test suite checks this by
    relabelling.  A disconnected graph gets ``ValueError`` from the kernel,
    after the budget check.
    """
    if g.n < 1:
        raise ValueError("decompose needs a nonempty graph")
    # Only a part that is neither clique nor star is scanned for a split,
    # and every side of a split is smaller than the graph, so the budget
    # holds for the whole recursion iff it holds for the graph.
    limit = SPLIT_BUDGET_N if budget is None else budget
    if g.n > limit and classify_kind(g).tag == "other":
        raise CapacityError(f"split scan over {g.n} vertices exceeds budget {limit}")
    raw = kernels.split_bags(g.n, g.adj)
    return _reduce({
        bid: Bag(Graph(len(rows), rows), kind, ordinary, markers, center)
        for bid, (rows, ordinary, markers, kind, center) in enumerate(raw)
    })


# --- reconstruction and validation -------------------------------------------


def check_tree(
    t: GraphLabelledTree,
) -> tuple[dict[int, tuple[int, int]], tuple[int, ...]]:
    """Structural validity of ``t.bags``; raises TreeError on violation.

    Returns what the bags fix: each tree edge as the ``(min, max)`` ids of
    the two bags holding its markers, and the sorted original vertex ids.
    """
    seen_ids: set[int] = set()
    for bid, bag in t.bags.items():
        n = bag.label.n
        if len(bag.ordinary) + len(bag.markers) != n or (
            bag.ordinary.keys() | bag.markers.values() != set(range(n))
        ):
            raise TreeError(f"bag {bid}: markers and ordinary must partition label")
        for orig in bag.ordinary.values():
            if orig in seen_ids:
                raise TreeError(f"original vertex {orig} appears in two bags")
            seen_ids.add(orig)
    edges = {}
    for e, ends in _edge_ends(t.bags).items():
        if len(ends) != 2:
            raise TreeError(f"tree edge {e} has {len(ends)} markers, not 2")
        x, y = ends
        edges[e] = (x, y) if x < y else (y, x)
    if len(edges) != len(t.bags) - 1:
        raise TreeError("bag graph is not a tree (edge count)")
    stack = [min(t.bags)]  # the edge count leaves at least one bag
    reach = set(stack)
    while stack:
        b = stack.pop()
        for e in t.bags[b].markers:
            x, y = edges[e]
            other = y if x == b else x
            if other not in reach:
                reach.add(other)
                stack.append(other)
    if len(reach) != len(t.bags):
        raise TreeError("bag graph is not connected")
    return edges, tuple(sorted(seen_ids))


def reconstruct(t: GraphLabelledTree) -> Graph:
    """Graph represented by the tree, on vertices compacted from the sorted
    original ids (identity when the ids are 0..n-1).

    Two ordinary vertices are adjacent iff an alternating path of label
    edges and tree edges joins them (``kernels.accessible_rows``)."""
    rows = kernels.accessible_rows(
        t.vertex_ids,
        [(bag.label.adj, bag.ordinary, bag.markers) for bag in t.bags.values()],
    )
    for v, row in enumerate(rows):
        if (row >> v) & 1:
            raise TreeError("accessibility produced a loop")
    return Graph(len(rows), rows)


def validate_reduced(t: GraphLabelledTree) -> list[str]:
    """Reducedness violations; empty list iff the tree is reduced.

    The single-bag tree is exempt from the minimum-size rule: the whole
    graph is one bag there, and 1- or 2-vertex graphs are legitimate.  A
    leaf bag of a larger tree has one marker, so the same rule is what
    refuses a clique or star leaf with fewer than 2 ordinary vertices.
    """
    out = []
    multi = len(t.bags) > 1
    for bid in sorted(t.bags):
        bag = t.bags[bid]
        if multi and bag.kind in (CLIQUE, STAR) and bag.label.n < 3:
            out.append(f"bag {bid}: {bag.kind} bag with fewer than 3 vertices")
    for e in sorted(t.tree_edges):
        x, y = t.tree_edges[e]
        bx, by = t.bags[x], t.bags[y]
        if bx.kind == CLIQUE and by.kind == CLIQUE:
            out.append(f"edge {e}: joins two clique bags (KK)")
        if bx.kind == STAR and by.kind == STAR:
            x_center = bx.markers[e] == bx.star_center
            y_center = by.markers[e] == by.star_center
            if x_center != y_center:
                out.append(f"edge {e}: star center joined to star leaf (SpSc)")
    return out


def summarize(t: GraphLabelledTree) -> DecompositionSummary:
    primes = t.prime_bag_ids()
    unique = primes[0] if len(primes) == 1 else None
    star_centered = False
    if unique is not None:
        star_centered = all(
            t.is_leaf_bag(b) and next(t.bag_neighbors(b))[1] == unique
            for b in t.bags
            if b != unique
        )
    return DecompositionSummary(
        prime_bag_count=len(primes),
        prime_labels=tuple(t.bags[b].label for b in primes),
        is_dh=not primes,
        unique_prime=unique,
        star_centered_at_prime=star_centered,
    )


def dump_tree(t: GraphLabelledTree) -> str:
    """Stable textual dump: one bag per line, then one line per tree edge."""
    lines = []
    for bid in sorted(t.bags):
        bag = t.bags[bid]
        edges = ",".join(f"{u}-{v}" for u, v in bag.label.edges())
        ordinary = ",".join(
            f"{l}:{bag.ordinary[l]}" for l in sorted(bag.ordinary)
        )
        markers = ",".join(f"{e}:{bag.markers[e]}" for e in sorted(bag.markers))
        line = (
            f"bag {bid} kind={bag.kind} n={bag.label.n} "
            f"edges={edges or '-'} ordinary={ordinary or '-'} "
            f"markers={markers or '-'}"
        )
        if bag.kind == STAR:
            line += f" center={bag.star_center}"
        lines.append(line)
    for e in sorted(t.tree_edges):
        x, y = t.tree_edges[e]
        lines.append(f"edge {e} {x}-{y}")
    return "\n".join(lines)


# --- leaf-bag structure -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LeafBagClass:
    kind: str  # "clique" | "star_center_attached" | "star_leaf_attached"
    ordinary_leaves: Optional[int] = None


def classify_leaf_bag(t: GraphLabelledTree, bag_id: int) -> LeafBagClass:
    bag = t.bags[bag_id]
    if not t.is_leaf_bag(bag_id):
        raise ValueError(f"bag {bag_id} is not a leaf bag")
    if bag.kind == PRIME:
        raise ValueError(f"bag {bag_id} is prime")
    if bag.kind == CLIQUE:
        return LeafBagClass("clique")
    (e,) = bag.markers
    marker_local = bag.markers[e]
    if marker_local == bag.star_center:
        return LeafBagClass("star_center_attached", len(bag.ordinary))
    return LeafBagClass("star_leaf_attached", len(bag.ordinary) - 1)


def twin_from_leaf_bag(
    t: GraphLabelledTree, bag_id: int
) -> Optional[tuple[int, int]]:
    """Twin pair of the represented graph read off a non-prime leaf bag.

    The candidates are the bag's ordinary vertices other than a star's
    center (a clique has no center, and a center-attached star's center is
    its marker): true twins in a clique, false twins in a star.  A
    leaf-attached star with exactly one ordinary leaf gives none.  The
    returned pair is verified against the reconstructed graph.
    """
    bag = t.bags[bag_id]
    cls = classify_leaf_bag(t, bag_id)
    cands = sorted(o for l, o in bag.ordinary.items() if l != bag.star_center)
    expected = "true" if bag.kind == CLIQUE else "false"
    if len(cands) < 2:
        if cls.kind == "star_leaf_attached":
            return None
        raise InvariantViolation(
            f"bag {bag_id} violates the reduced leaf-bag facts ({cls.kind})"
        )
    u, v = cands[0], cands[1]
    g = reconstruct(t)
    iu, iv = t.vertex_ids.index(u), t.vertex_ids.index(v)
    nu = g.adj[iu] & ~(1 << iv)
    nv = g.adj[iv] & ~(1 << iu)
    if nu != nv or g.has_edge(iu, iv) != (expected == "true"):
        raise InvariantViolation(
            f"bag {bag_id}: vertices {u},{v} are not {expected} twins"
        )
    return (u, v)


def pick_peelable_bag(t: GraphLabelledTree) -> Optional[int]:
    """A leaf bag at maximum distance >= 2 from the unique prime bag, or
    None when the tree is a star centered at the prime bag."""
    primes = t.prime_bag_ids()
    if len(primes) != 1:
        raise ValueError(f"expected exactly one prime bag, found {len(primes)}")
    root = primes[0]
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for b in frontier:
            for _, other in t.bag_neighbors(b):
                if other not in dist:
                    dist[other] = dist[b] + 1
                    nxt.append(other)
        frontier = nxt
    far = max(dist.values())
    if far <= 1:
        return None
    return min(b for b, d in dist.items() if d == far)


# --- peel and prime-core extraction ------------------------------------------


def _prime_label_keys(t: GraphLabelledTree) -> list:
    return sorted(
        kernels.canon_adj(bag.label.n, bag.label.adj)
        for bag in t.bags.values()
        if bag.kind == PRIME
    )


def peel(t: GraphLabelledTree, bag_id: int) -> tuple[GraphLabelledTree, GraphLabelledTree]:
    """Remove a far leaf-attached star bag with one ordinary leaf x and
    center c; return reduced trees for G-x and G-{x,c}.

    Each result is the tree's other bags, with the neighbour bag replaced
    (its marker for the removed edge becomes c, or is deleted), reduced
    by ``_reduce``.

    Both results are verified on the spot: they must reconstruct to the
    direct vertex deletions, stay reduced, and keep the prime labels.
    """
    bag = t.bags[bag_id]
    if not t.is_leaf_bag(bag_id):
        raise ValueError(f"bag {bag_id} is not a leaf bag")
    if bag.kind != STAR:
        raise ValueError(f"bag {bag_id} is not a star bag")
    (e,) = bag.markers
    if bag.markers[e] == bag.star_center:
        raise ValueError(f"bag {bag_id} is center-attached")
    leaves = [orig for l, orig in bag.ordinary.items() if l != bag.star_center]
    if len(leaves) != 1:
        raise ValueError(f"bag {bag_id} must have exactly one ordinary leaf")
    x_orig = leaves[0]
    c_orig = bag.ordinary[bag.star_center]
    x_edge, y_edge = t.tree_edges[e]
    nbr = y_edge if x_edge == bag_id else x_edge
    nbag = t.bags[nbr]
    if nbag.kind == PRIME:
        raise ValueError(f"neighbor bag {nbr} is prime")
    a_local = nbag.markers[e]
    if nbag.kind == STAR and a_local == nbag.star_center:
        raise InvariantViolation(
            "neighbor star attached through its center (forbidden SpSc edge)"
        )

    markers = {e2: l for e2, l in nbag.markers.items() if e2 != e}
    # ascending ids, as ``_reduce`` needs: a tree may list its bags in any order
    rest = {b: t.bags[b] for b in sorted(t.bags) if b != bag_id}

    # (1) G - x: drop the bag, reinterpret the neighbor marker as c
    as_c = _bag(nbag.label, {**nbag.ordinary, a_local: c_orig}, markers)
    t1 = _reduce({**rest, nbr: as_c})

    # (2) G - {x, c}: drop the bag and delete the neighbor marker vertex
    rows, _, ordinary, markers = _without(nbag, a_local, e)
    without_c = _bag(Graph(len(rows), tuple(rows)), ordinary, markers)
    t2 = _reduce({**rest, nbr: without_c})

    _verify_peel(t, t1, t2, x_orig, c_orig)
    return t1, t2


def _verify_peel(t, t1, t2, x_orig, c_orig):
    g = reconstruct(t)
    without_x = g.full_mask & ~(1 << t.vertex_ids.index(x_orig))
    gx_expect, _ = induced_subgraph(g, without_x)
    gxc_expect, _ = induced_subgraph(g, without_x & ~(1 << t.vertex_ids.index(c_orig)))
    if t1.vertex_ids != tuple(v for v in t.vertex_ids if v != x_orig):
        raise InvariantViolation("peel result (1) has wrong vertex ids")
    if t2.vertex_ids != tuple(
        v for v in t.vertex_ids if v not in (x_orig, c_orig)
    ):
        raise InvariantViolation("peel result (2) has wrong vertex ids")
    if reconstruct(t1) != gx_expect:
        raise InvariantViolation("peel result (1) does not reconstruct G-x")
    if reconstruct(t2) != gxc_expect:
        raise InvariantViolation("peel result (2) does not reconstruct G-{x,c}")
    for tt, name in ((t1, "G-x"), (t2, "G-{x,c}")):
        if validate_reduced(tt):
            raise InvariantViolation(f"peel result for {name} is not reduced")
        if _prime_label_keys(tt) != _prime_label_keys(t):
            raise InvariantViolation(f"peel result for {name} changed a prime label")


@dataclass(frozen=True, slots=True)
class PrimeCoreResult:
    """Either a twin pair of G, or the prime core Q plus the pendant plan."""

    twins: Optional[tuple[int, int]] = None
    core: Optional[Graph] = None
    core_ids: Optional[tuple[int, ...]] = None
    attach: tuple[int, ...] = ()


def extract_prime_core(t: GraphLabelledTree) -> PrimeCoreResult:
    """Resolve a star-centered-at-prime tree into twins or a pendant plan.

    Any attached bag yielding a twin pair short-circuits; otherwise every
    attached bag is a one-leaf star, G is Q plus pendants, and Q is verified
    isomorphic to the prime label with the pendant rebuild matching G.
    """
    primes = t.prime_bag_ids()
    if len(primes) != 1:
        raise ValueError(f"expected exactly one prime bag, found {len(primes)}")
    p = primes[0]
    others = [b for b in sorted(t.bags) if b != p]
    for b in others:
        if not t.is_leaf_bag(b) or next(t.bag_neighbors(b))[1] != p:
            raise ValueError("tree is not a star centered at the prime bag")
    for b in others:
        pair = twin_from_leaf_bag(t, b)
        if pair is not None:
            return PrimeCoreResult(twins=pair)
    pendants = []  # (x_orig, c_orig) per attached bag, ascending bag id
    for b in others:
        bag = t.bags[b]
        x = next(o for l, o in bag.ordinary.items() if l != bag.star_center)
        pendants.append((x, bag.ordinary[bag.star_center]))
    g = reconstruct(t)
    core_origs = [*t.bags[p].ordinary.values(), *(c for _, c in pendants)]
    core, kept = induced_subgraph(g, mask_of(map(t.vertex_ids.index, core_origs)))
    core_ids = tuple(t.vertex_ids[i] for i in kept)
    attach = tuple(core_ids.index(c) for _, c in pendants)
    _verify_prime_core(t, p, g, core, attach)
    return PrimeCoreResult(core=core, core_ids=core_ids, attach=attach)


def _verify_prime_core(t, p, g, core, attach):
    if not are_isomorphic(core, t.bags[p].label):
        raise InvariantViolation("extracted core is not isomorphic to the prime label")
    rebuilt = attach_pendants(core, list(attach))
    if not are_isomorphic(rebuilt, g):
        raise InvariantViolation("core plus pendants does not rebuild the graph")
