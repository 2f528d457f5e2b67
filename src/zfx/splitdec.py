"""Splits, graph-labelled trees, canonical split decomposition, and the
structural reductions used by the unique-prime-bag arguments.

A decomposition is built by recursive splitting (replace G by G_A + marker
and G_B + marker joined by a tree edge) and then reduced to a fixed point of
three merge rules: contract clique-clique edges, contract star edges joined
center-to-leaf, and absorb bags with at most two label vertices.  All three
are instances of one tree-edge contraction that preserves accessibility, so
reduction never changes the represented graph.  Both steps run in the
``kernels.split_bags`` kernel, which returns the reduced tree's bags; the
reduction rule is written once in Python, as ``_kernels_py.reduce_bags``,
and once in C, inside the compiled kernel.

A bag is its label plus one token per label vertex (``Bag``), as
``kernels.split_bags`` emits and ``kernels.accessible_rows`` reads it.
Bags are immutable and classified once, when they are made: peeling
replaces bags rather than edit them, and reduces a fresh dict of bags.  A
tree is its bags: a tree edge is a marker token that exactly two bags hold,
one each.  It is checked once, when it is made: ``GraphLabelledTree(bags)``
runs ``check_tree``, the one pass over the tree's tokens, which also
derives the tree edges and the vertex ids.  Reconstruction, validation,
summaries and the reductions read trees that already passed it, and read
the edges it derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import _kernels_py, kernels
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

    ``tokens[l]`` names label vertex l: the original graph vertex it is
    (``>= 0``), or ``~e`` when it is the marker standing in for the rest of
    the graph across tree edge e.  ``ordinary`` and ``markers`` are dicts
    read off ``tokens`` at each access, for the tree dump and for readers
    of a tree; editing one leaves the bag as it was.
    """

    label: Graph
    kind: str
    tokens: tuple[int, ...]
    star_center: Optional[int] = None

    @property
    def ordinary(self) -> dict[int, int]:  # label vertex -> original vertex
        return {l: tok for l, tok in enumerate(self.tokens) if tok >= 0}

    @property
    def markers(self) -> dict[int, int]:  # tree edge -> label vertex
        return {~tok: l for l, tok in enumerate(self.tokens) if tok < 0}


def _bag(label: Graph, tokens: tuple[int, ...]) -> Bag:
    """The bag on ``label`` with its kind and star center."""
    kind = classify_kind(label)
    tag = PRIME if kind.tag == "other" else kind.tag
    return Bag(label, tag, tokens, kind.center)


def _raw(bag: Bag) -> tuple:
    """``bag`` as the kernels hold one: ``(rows, tokens, kind, center)``."""
    return bag.label.adj, bag.tokens, bag.kind, bag.star_center


def _leaves(bag: Bag) -> list[int]:
    """The original vertices of ``bag`` other than its star center."""
    return [o for l, o in enumerate(bag.tokens) if o >= 0 and l != bag.star_center]


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
        for e in sorted(~tok for tok in self.bags[bag_id].tokens if tok < 0):
            x, y = self.tree_edges[e]
            yield e, (y if x == bag_id else x)

    def bag_degree(self, bag_id: int) -> int:
        return sum(tok < 0 for tok in self.bags[bag_id].tokens)

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


def _tree(bags: dict[int, tuple]) -> GraphLabelledTree:
    """The tree on ``{bag id: (rows, tokens, kind, center)}``."""
    return GraphLabelledTree({
        bid: Bag(Graph(len(rows), rows), kind, tokens, center)
        for bid, (rows, tokens, kind, center) in bags.items()
    })


def _reduce(bags: dict[int, Bag]) -> GraphLabelledTree:
    """The reduced tree of ``bags``, whose ids must be ascending: the pure
    ``_kernels_py.reduce_bags`` contracts the least mergeable tree edge into
    its smaller bag id until none is left, the rule the compiled
    ``split_bags`` runs too."""
    return _tree(_kernels_py.reduce_bags({b: _raw(bag) for b, bag in bags.items()}))


# --- decomposition ----------------------------------------------------------


def decompose(g: Graph, budget: Optional[int] = None) -> GraphLabelledTree:
    """Canonical split decomposition as a reduced graph-labelled tree.

    ``kernels.split_bags`` runs the split recursion and reduces its bags,
    and returns the reduced tree's bags; this checks the budget and wraps
    them.  The recursion takes each part's first split in one fixed scan
    order (A-sides hold vertex 0, in increasing mask order).  The reduced
    tree is unique (Cunningham 1982), so that order cannot show in it; the
    test suite checks this by relabelling.  A disconnected graph gets
    ``ValueError`` from the kernel, after the budget check.
    """
    if g.n < 1:
        raise ValueError("decompose needs a nonempty graph")
    # Only a part that is neither clique nor star is scanned for a split,
    # and every side of a split is smaller than the graph, so the budget
    # holds for the whole recursion iff it holds for the graph.
    limit = SPLIT_BUDGET_N if budget is None else budget
    if g.n > limit and classify_kind(g).tag == "other":
        raise CapacityError(f"split scan over {g.n} vertices exceeds budget {limit}")
    return _tree(kernels.split_bags(g.n, g.adj))


# --- reconstruction and validation -------------------------------------------


def check_tree(
    t: GraphLabelledTree,
) -> tuple[dict[int, tuple[int, int]], tuple[int, ...]]:
    """Structural validity of ``t.bags``; raises TreeError on violation.

    Returns what the bags fix: each tree edge as the ``(min, max)`` ids of
    the two bags holding its markers, and the sorted original vertex ids.
    This is the one pass over the tokens.  It collects the original ids and
    each marker's bags; the ids are sorted once, so a repeated id shows as
    two equal neighbours (the least one is named).  The edge-count and
    connectivity checks then read the derived edges, not the tokens.
    """
    ids: list[int] = []
    held: dict[int, list[int]] = {}
    for bid, bag in t.bags.items():
        tokens = bag.tokens
        if len(tokens) != bag.label.n:
            raise TreeError(f"bag {bid} has {len(tokens)} tokens for "
                            f"{bag.label.n} label vertices")
        for tok in tokens:
            if tok >= 0:
                ids.append(tok)
            else:
                held.setdefault(~tok, []).append(bid)
    ids.sort()
    if len(set(ids)) != len(ids):
        orig = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise TreeError(f"original vertex {orig} appears in two bags")
    edges = {}
    for e, ends in held.items():
        if len(ends) != 2:
            raise TreeError(f"tree edge {e} has {len(ends)} markers, not 2")
        x, y = ends
        if x == y:
            raise TreeError(f"tree edge {e} has both markers in one bag")
        edges[e] = (x, y) if x < y else (y, x)
    if len(edges) != len(t.bags) - 1:
        raise TreeError("bag graph is not a tree (edge count)")
    # With one edge fewer than bags, the bag graph is connected iff no edge
    # joins two bags that the edges before it already connect: a union-find
    # where a bag is its own root until an edge hangs it under another.
    up: dict[int, int] = {}
    for x, y in edges.values():
        while x in up:
            x = up[x]
        while y in up:
            y = up[y]
        if x == y:
            raise TreeError("bag graph is not connected")
        up[y] = x
    return edges, tuple(ids)


def reconstruct(t: GraphLabelledTree) -> Graph:
    """Graph represented by the tree, on vertices compacted from the sorted
    original ids (identity when the ids are 0..n-1).

    Two ordinary vertices are adjacent iff an alternating path of label
    edges and tree edges joins them (``kernels.accessible_rows``)."""
    rows = kernels.accessible_rows(
        t.vertex_ids,
        [(bag.label.adj, bag.tokens) for bag in t.bags.values()],
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
        if _kernels_py._spsc(_raw(bx), _raw(by), e):
            out.append(f"edge {e}: star center joined to star leaf (SpSc)")
    return out


def summarize(t: GraphLabelledTree) -> DecompositionSummary:
    """The tree's prime bags, and whether it is a star centered at its one
    prime bag p, read off ``t.tree_edges``: every tree edge has p as an end
    (in a tree, that makes every other bag a leaf next to p)."""
    primes = t.prime_bag_ids()
    unique = primes[0] if len(primes) == 1 else None
    star_centered = unique is not None and all(
        unique in ends for ends in t.tree_edges.values()
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
        ordinary = ",".join(f"{l}:{o}" for l, o in bag.ordinary.items())
        markers = ",".join(f"{e}:{l}" for e, l in sorted(bag.markers.items()))
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
    # a leaf bag's one marker is its center or one of its leaves
    if bag.tokens[bag.star_center] < 0:
        return LeafBagClass("star_center_attached", bag.label.n - 1)
    return LeafBagClass("star_leaf_attached", bag.label.n - 2)


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
    cands = sorted(_leaves(bag))
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
    c_orig = bag.tokens[bag.star_center]
    if c_orig < 0:
        raise ValueError(f"bag {bag_id} is center-attached")
    leaves = _leaves(bag)
    if len(leaves) != 1:
        raise ValueError(f"bag {bag_id} must have exactly one ordinary leaf")
    x_orig = leaves[0]
    ((e, nbr),) = t.bag_neighbors(bag_id)
    nbag = t.bags[nbr]
    if nbag.kind == PRIME:
        raise ValueError(f"neighbor bag {nbr} is prime")
    a_local = nbag.tokens.index(~e)
    if nbag.kind == STAR and a_local == nbag.star_center:
        raise InvariantViolation(
            "neighbor star attached through its center (forbidden SpSc edge)"
        )

    # ascending ids, as ``_reduce`` needs: a tree may list its bags in any order
    rest = {b: t.bags[b] for b in sorted(t.bags) if b != bag_id}

    # (1) G - x: drop the bag, reinterpret the neighbor marker as c
    as_c = nbag.tokens[:a_local] + (c_orig,) + nbag.tokens[a_local + 1:]
    t1 = _reduce({**rest, nbr: _bag(nbag.label, as_c)})

    # (2) G - {x, c}: drop the bag and delete the neighbor marker vertex
    rows, _, tokens = _kernels_py._without(nbag.label.adj, nbag.tokens, a_local)
    t2 = _reduce({**rest, nbr: _bag(Graph(len(rows), tuple(rows)), tokens)})

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
    if not all(p in ends for ends in t.tree_edges.values()):
        raise ValueError("tree is not a star centered at the prime bag")
    others = [b for b in sorted(t.bags) if b != p]
    for b in others:
        pair = twin_from_leaf_bag(t, b)
        if pair is not None:
            return PrimeCoreResult(twins=pair)
    pendants = []  # (x_orig, c_orig) per attached bag, ascending bag id
    for b in others:
        bag = t.bags[b]
        (x,) = _leaves(bag)
        pendants.append((x, bag.tokens[bag.star_center]))
    g = reconstruct(t)
    core_origs = [*(o for o in t.bags[p].tokens if o >= 0), *(c for _, c in pendants)]
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
