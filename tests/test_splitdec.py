"""splitdec: splits, decomposition, reconstruction, reductions, peel/extract."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import _relabelled

from zfx import _kernels_py as pyk
from zfx import kernels, splitdec
from zfx.dh import dh_metric_oracle
from zfx.errors import CapacityError, InvariantViolation, TreeError
from zfx.extremal import attach_pendants
from zfx.graphs import (
    Graph,
    are_isomorphic,
    bits,
    canonical_form,
    classify_kind,
    enumerate_graphs,
    graph_from_edges,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    write_graph6,
)
from zfx.splitdec import (
    Bag,
    GraphLabelledTree,
    classify_leaf_bag,
    decompose,
    dump_tree,
    extract_prime_core,
    peel,
    pick_peelable_bag,
    reconstruct,
    summarize,
    twin_from_leaf_bag,
    validate_reduced,
)


def c5_pendant() -> Graph:
    return graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])


def c5_tail2() -> Graph:
    return graph_from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)]
    )


# --- the first split ------------------------------------------------------------


def _first_split(g: Graph):
    """``(A, B, A1, B1)`` of the split recursion's first split of ``g``, or
    None: A1 is the A-vertices with a neighbour across, B1 the union of
    their cross neighbourhoods."""
    a = kernels.find_split_mask(g.n, g.adj)
    if not a:
        return None
    b = g.full_mask ^ a
    a1 = mask_of(v for v in bits(a) if g.adj[v] & b)
    b1 = 0
    for v in bits(a):
        b1 |= g.adj[v] & b
    return a, b, a1, b1


def test_find_split_p5():
    s = _first_split(make_path(5))
    assert s == (mask_of([0, 1]), mask_of([2, 3, 4]), mask_of([1]), mask_of([2]))


def test_find_split_none_for_c5_and_small():
    assert _first_split(make_cycle(5)) is None
    assert _first_split(make_path(3)) is None
    assert _first_split(Graph(1, (0,))) is None


def test_find_split_k4_least():
    a, b, a1, b1 = _first_split(make_complete(4))
    assert a == mask_of([0, 1])
    assert a1 == a and b1 == b


def _split_is_sound(g: Graph, s) -> bool:
    a_mask, b_mask, a1_mask, b1_mask = s
    if a_mask | b_mask != g.full_mask or a_mask & b_mask:
        return False
    if a_mask.bit_count() < 2 or b_mask.bit_count() < 2:
        return False
    if not (a1_mask and b1_mask):
        return False
    if a1_mask & ~a_mask or b1_mask & ~b_mask:
        return False
    for a in bits(a_mask):
        for b in bits(b_mask):
            expected = bool((a1_mask >> a) & 1) and bool((b1_mask >> b) & 1)
            if g.has_edge(a, b) != expected:
                return False
    return True


def test_find_split_soundness(connected_by_n):
    for n in range(4, 7):
        for g in connected_by_n[n]:
            s = _first_split(g)
            if s is not None:
                assert _split_is_sound(g, s)


# --- decompose ---------------------------------------------------------------------


P4_DUMP = """\
bag 0 kind=star n=3 edges=0-1,1-2 ordinary=0:0,1:1 markers=0:2 center=1
bag 1 kind=star n=3 edges=0-1,0-2 ordinary=0:2,1:3 markers=0:2 center=0
edge 0 0-1"""


def test_decompose_p4_two_stars():
    t = decompose(make_path(4))
    assert len(t.bags) == 2 and len(t.tree_edges) == 1
    for bag in t.bags.values():
        assert bag.kind == "star" and bag.label.n == 3
        assert bag.tokens[bag.star_center] >= 0  # leaf-marker on both sides
    assert dump_tree(t) == P4_DUMP


def test_decompose_degenerate_singletons():
    for g, kind in (
        (make_complete(4), "clique"),
        (Graph(1, (0,)), "clique"),
        (make_complete(2), "clique"),
        (make_path(3), "star"),
        (make_star(6), "star"),
        (make_cycle(5), "prime"),
    ):
        t = decompose(g)
        assert len(t.bags) == 1
        assert next(iter(t.bags.values())).kind == kind
        assert reconstruct(t) == g
        assert validate_reduced(t) == []


def test_decompose_guards():
    with pytest.raises(ValueError):
        decompose(graph_from_edges(2, []))
    with pytest.raises(ValueError):
        decompose(Graph(0, ()))


def test_decompose_budget_caps_split_scans_only():
    """The split budget refuses a label the recursion would scan (neither
    clique nor star) and no other."""
    with pytest.raises(CapacityError, match="split scan over 5 vertices"):
        decompose(make_cycle(5), budget=4)
    with pytest.raises(CapacityError, match="exceeds budget 5"):
        decompose(make_path(6), budget=5)
    assert reconstruct(decompose(make_path(6), budget=6)) == make_path(6)
    assert reconstruct(decompose(c5_pendant(), budget=6)) == c5_pendant()
    for g in (make_complete(8), make_star(8)):
        assert len(decompose(g, budget=3).bags) == 1


def test_decompose_budget_on_the_compiled_split_kernel(cyk, monkeypatch):
    """The budget is checked before the split kernel runs, so the compiled
    recursion refuses and admits the same graphs."""
    monkeypatch.setattr(kernels, "split_bags", cyk.split_bags)
    test_decompose_budget_caps_split_scans_only()


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_decompose_refuses_a_disconnected_graph(backend, monkeypatch, request):
    """K2 + K1: the split kernel, not ``decompose``, tests connectivity,
    and both backends refuse with the same message."""
    module = pyk if backend == "python" else request.getfixturevalue("cyk")
    monkeypatch.setattr(kernels, "split_bags", module.split_bags)
    with pytest.raises(ValueError, match="decompose expects a connected graph"):
        decompose(graph_from_edges(3, [(0, 1)]))


def test_decompose_c5_pendant():
    t = decompose(c5_pendant())
    summary = summarize(t)
    assert summary.prime_bag_count == 1
    assert summary.star_centered_at_prime
    assert not summary.is_dh
    assert are_isomorphic(summary.prime_labels[0], make_cycle(5))
    assert reconstruct(t) == c5_pendant()


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0),
    st.randoms(use_true_random=False),
)
def test_roundtrip_random_connected(n, edge_bits, rng):
    order = list(range(n))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))  # spanning path forces connectivity
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (edge_bits >> k) & 1:
                edges.append((u, v))
            k += 1
    g = graph_from_edges(n, edges)
    t = decompose(g)
    assert reconstruct(t) == g
    assert validate_reduced(t) == []


def test_roundtrip_reduced_dh_equivalence(connected_by_n):
    for n in range(1, 7):
        for g in connected_by_n[n]:
            t = decompose(g)
            assert reconstruct(t) == g
            assert validate_reduced(t) == []
            assert summarize(t).is_dh == dh_metric_oracle(g)


def test_prime_bags_are_sound(connected_by_n):
    for n in range(4, 7):
        for g in connected_by_n[n]:
            t = decompose(g)
            for bag in t.bags.values():
                if bag.kind == "prime":
                    assert classify_kind(bag.label).tag == "other"
                    assert kernels.find_split_mask(bag.label.n, bag.label.adj) == 0
                    assert bag.label.n >= 5


def test_split_order_invariance(connected_by_n):
    """Relabelling a graph changes which splits the recursion takes, but not
    the reduced tree.  For every connected class with n <= 7, the tree of
    each of three seeded relabellings reconstructs the relabelled graph, is
    reduced, and has the class's own (kind, canonical label) multiset.  The
    relabellings reach other split orders: at least 118 classes (as many as
    a descending mask scan moves) see another raw shape, the multiset of
    (size, kind) over the unreduced bags of ``_split_parts``."""
    rng = random.Random(7)

    def key(t):
        return Counter((b.kind, canonical_form(b.label).adj) for b in t.bags.values())

    def shape(g):
        return Counter((len(bag[0]), bag[2]) for bag in pyk._split_parts(g.n, g.adj))

    classes = moved = 0
    for n in range(1, 8):
        for g in connected_by_n[n]:
            want, raw = key(decompose(g)), shape(g)
            differs = False
            for _ in range(3):
                h = Graph(n, _relabelled(rng, g.adj))
                t = decompose(h)
                assert reconstruct(t) == h
                assert validate_reduced(t) == []
                assert key(t) == want
                differs |= shape(h) != raw
            classes += 1
            moved += differs
    assert classes == 996
    assert moved >= 118


# --- reduction against the Bag-level oracle ------------------------------------------


def _oracle_without(bag: Bag, v: int) -> tuple[list[int], int, tuple[int, ...]]:
    """``bag`` without label vertex ``v``: the other rows and ``v``'s
    neighbourhood, locals above ``v`` shifted down by one, and the other
    tokens."""
    low = (1 << v) - 1
    rows = [(row & low) | ((row >> 1) & ~low) for row in bag.label.adj]
    across = rows.pop(v)
    return rows, across, bag.tokens[:v] + bag.tokens[v + 1:]


def _oracle_contract(bx: Bag, by: Bag, e: int) -> Bag:
    """The bag merging ``bx`` and ``by`` across tree edge ``e``, ``bx``'s
    label vertices first, classified by ``classify_kind``."""
    rows_x, across_x, tokens_x = _oracle_without(bx, bx.tokens.index(~e))
    rows_y, across_y, tokens_y = _oracle_without(by, by.tokens.index(~e))
    k = len(rows_x)
    adj = [row | (across_y << k if (across_x >> u) & 1 else 0)
           for u, row in enumerate(rows_x)]
    adj += [(row << k) | (across_x if (across_y >> v) & 1 else 0)
            for v, row in enumerate(rows_y)]
    label = Graph(len(adj), tuple(adj))
    kind = classify_kind(label)
    return Bag(label, "prime" if kind.tag == "other" else kind.tag,
               tokens_x + tokens_y, kind.center)


def _oracle_mergeable(bags: dict[int, Bag], ends: dict[int, list[int]]):
    """The least tree edge a merge rule contracts, or None."""
    for e in sorted(ends):
        bx, by = (bags[b] for b in ends[e])
        if bx.label.n <= 2 or by.label.n <= 2:
            return e
        if bx.kind == by.kind == "clique":
            return e
        if bx.kind == by.kind == "star" and (
                (bx.tokens[bx.star_center] == ~e) != (by.tokens[by.star_center] == ~e)):
            return e
    return None


def _oracle_reduce(parts) -> GraphLabelledTree:
    """The reduction run on ``Bag``s, one contraction at a time, over the
    unreduced bags of the split recursion: the least mergeable tree edge is
    contracted into its smaller bag id, each edge's ends kept in the order
    the bags list them and patched to the kept id."""
    bags = {bid: Bag(Graph(len(rows), rows), kind, tokens, center)
            for bid, (rows, tokens, kind, center) in enumerate(parts)}
    ends: dict[int, list[int]] = {}
    for bid, bag in bags.items():
        for tok in bag.tokens:
            if tok < 0:
                ends.setdefault(~tok, []).append(bid)
    while (e := _oracle_mergeable(bags, ends)) is not None:
        x, y = ends.pop(e)
        keep = min(x, y)
        bags[keep] = _oracle_contract(bags[x], bags[y], e)
        del bags[max(x, y)]
        for tok in bags[keep].tokens:
            if tok < 0:
                ends[~tok] = [keep if b in (x, y) else b for b in ends[~tok]]
    return GraphLabelledTree(bags)


@pytest.fixture(scope="module")
def oracle_trees() -> list[tuple[Graph, GraphLabelledTree, bool]]:
    """Each connected graph with n <= 8, then 400 seeded random connected
    graphs with n = 9..16 (prime-rich and split-rich), with the oracle's
    tree and whether reduction contracted an edge."""
    rng = random.Random(2816)
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(n, connected_only=True)]
    for i in range(400):
        n, family = 9 + i % 8, i // 8 % 4
        if family < 2:
            graphs.append(_random_connected(rng, n, (0.15, 0.4)[family]))
        else:
            graphs.append(_grown(rng, _random_connected(rng, (4, 6)[family - 2], 0.5), n))
    out = []
    for g in graphs:
        parts = pyk._split_parts(g.n, g.adj)
        want = _oracle_reduce(parts)
        out.append((g, want, len(want.bags) < len(parts)))
    return out


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_decompose_matches_the_bag_level_oracle(backend, oracle_trees, monkeypatch,
                                                request):
    """``decompose`` on either backend gives the oracle's tree: the same bag
    ids, tree dump, tree edges and vertex ids.  1,307 of the 12,113 graphs
    with n <= 8, and 155 of the random ones, need a contraction."""
    module = pyk if backend == "python" else request.getfixturevalue("cyk")
    monkeypatch.setattr(kernels, "split_bags", module.split_bags)
    contracted = Counter()
    for g, want, reduced in oracle_trees:
        t = decompose(g)
        assert list(t.bags) == list(want.bags)
        assert dump_tree(t) == dump_tree(want)
        assert t.tree_edges == want.tree_edges
        assert t.vertex_ids == want.vertex_ids
        contracted[g.n > 8] += reduced
    assert len(oracle_trees) == 12113 + 400
    assert contracted == {False: 1307, True: 155}


# --- reconstruct against the literal accessibility search -----------------------------


def _reconstruct_dfs(t: GraphLabelledTree) -> Graph:
    """The reconstruction before memoisation, kept as the oracle: from each
    ordinary vertex, a depth-first search across the tree that crosses a
    marker into the neighbouring bag's marker row."""
    idx = {orig: i for i, orig in enumerate(t.vertex_ids)}
    adj = [0] * len(t.vertex_ids)
    for bid, bag in t.bags.items():
        for u_local, u_orig in enumerate(bag.tokens):
            if u_orig < 0:
                continue
            src = idx[u_orig]
            stack = [(bid, bag.label.adj[u_local])]
            while stack:
                b2, active = stack.pop()
                for w in bits(active):
                    tok = t.bags[b2].tokens[w]
                    if tok >= 0:
                        adj[src] |= 1 << idx[tok]
                    else:
                        x, y = t.tree_edges[~tok]
                        other = y if x == b2 else x
                        m2 = t.bags[other].tokens.index(tok)
                        stack.append((other, t.bags[other].label.adj[m2]))
    return Graph(len(adj), tuple(adj))


@pytest.fixture(scope="module")
def access_kernels(request):
    """The pure ``accessible_rows``, and the compiled one when it builds."""
    found = [pyk.accessible_rows]
    try:
        found.append(request.getfixturevalue("cyk").accessible_rows)
    except pytest.skip.Exception:
        pass
    return found


def _agree_with_dfs(t: GraphLabelledTree, access_kernels) -> Graph:
    """``reconstruct``, the oracle and every ``accessible_rows`` backend give
    the same graph, which is returned."""
    g = _reconstruct_dfs(t)
    assert reconstruct(t) == g
    bags = [(bag.label.adj, bag.tokens) for bag in t.bags.values()]
    for accessible_rows in access_kernels:
        assert accessible_rows(t.vertex_ids, bags) == g.adj
    return g


def test_reconstruct_matches_dfs_oracle(connected_by_n, access_kernels):
    """Every connected n <= 8 decomposition, and that of a seeded
    relabelling of each, and both peel results of every peelable bag of
    every unique-prime tree."""
    rng = random.Random(8)
    peels = 0
    for n in range(1, 9):
        graphs = connected_by_n[n] if n < 8 else enumerate_graphs(8, connected_only=True)
        for g in graphs:
            t = decompose(g)
            assert _agree_with_dfs(t, access_kernels) == g
            h = Graph(n, _relabelled(rng, g.adj))
            assert _agree_with_dfs(decompose(h), access_kernels) == h
            if len(t.prime_bag_ids()) != 1:
                continue
            (p,) = t.prime_bag_ids()
            for b in sorted(t.bags):
                if b == p or not t.is_leaf_bag(b):
                    continue
                (e,) = t.bags[b].markers
                if p in t.tree_edges[e]:
                    continue  # neighbor is prime: not peelable
                cls = classify_leaf_bag(t, b)
                if cls.kind == "star_leaf_attached" and cls.ordinary_leaves == 1:
                    for tt in peel(t, b):
                        _agree_with_dfs(tt, access_kernels)
                        peels += 1
    assert peels == 2 * 532  # 532 peelable bags at n <= 8


def _random_connected(rng: random.Random, n: int, p: float) -> Graph:
    """A random spanning tree plus G(n, p) edges."""
    adj = [0] * n
    for v in range(1, n):
        for u in [rng.randrange(v)] + [u for u in range(v) if rng.random() < p]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _grown(rng: random.Random, g: Graph, n: int) -> Graph:
    """``g`` grown to n vertices by random pendant and twin additions, which
    hang ever more bags off its tree."""
    adj = list(g.adj)
    for v in range(g.n, n):
        a = rng.randrange(v)
        nb = rng.choice((1 << a, adj[a], adj[a] | 1 << a))
        for u in range(v):
            if nb >> u & 1:
                adj[u] |= 1 << v
        adj.append(nb)
    return Graph(n, tuple(adj))


def test_accessible_rows_random_n9_to_n16(access_kernels):
    """Seeded random connected graphs past the exhaustive range, prime-rich
    and split-rich, each also under a seeded relabelling."""
    rng = random.Random(916)
    relabel = random.Random(17)
    bag_counts = set()
    for n in range(9, 17):
        graphs = [_random_connected(rng, n, 0.15), _random_connected(rng, n, 0.4)]
        graphs += [_grown(rng, _random_connected(rng, k, 0.5), n) for k in (4, 6)]
        for g in graphs:
            for h in (g, Graph(n, _relabelled(relabel, g.adj))):
                t = decompose(h)
                assert _agree_with_dfs(t, access_kernels) == h
                bag_counts.add(len(t.bags))
    assert 1 in bag_counts and max(bag_counts) >= 8


# (ids, bags, message) that no graph-labelled tree gives
MALFORMED = [
    ((0, 1), [((2, 1), (0, ~5))], "tree edge 5 has 1 markers, not 2"),
    ((0, 1, 2), [((2, 1), (0, ~0)), ((2, 1), (1, ~0)), ((2, 1), (2, ~0))],
     "tree edge 0 has 3 markers, not 2"),
    ((0, 1), [((2, 1), (0,))], "bag 0 has 1 tokens for 2 label vertices"),
    ((0, 1), [((2, 1), (0, 1, ~0))], "bag 0 has 3 tokens for 2 label vertices"),
    ((0, 1), [((2, 1), (0, 7))], "unknown id 7"),
    ((1, 0), [((2, 1), (0, 1))], "strictly increasing"),
    # the path o - m0 - m1 in both bags: crossing m0 leads back to m0
    ((0, 1), [((2, 5, 2), (0, ~0, ~1)), ((2, 5, 2), (1, ~0, ~1))], "closes a cycle"),
    # the path o - m0 - m0: both markers of tree edge 0 in one bag
    ((0,), [((2, 5, 2), (0, ~0, ~0))], "tree edge 0 has both markers in one bag"),
    ((0, 1), [((4, 1), (0, 1))], "bag 0 has a row bit outside its label"),
    ((0,), [((1 << 70,), (0,))], "bag 0 has a row bit outside its label"),
    ((0,), [((-1,), (0,))], "bag 0 has a negative row"),
    # a token or id outside 64 bits is compared as the int it is
    ((0,), [((0,), (1 << 70,))], f"unknown id {1 << 70}"),
    ((1 << 70,), [((0,), (0,))], "unknown id 0"),
    ((0,), [((0,), (-(1 << 70),))], f"tree edge {(1 << 70) - 1} has 1 markers, not 2"),
]


@pytest.mark.parametrize("backend", ["python", "cython"])
@pytest.mark.parametrize("ids,bags,message", MALFORMED)
def test_accessible_rows_refuses_malformed(backend, ids, bags, message, request):
    module = pyk if backend == "python" else request.getfixturevalue("cyk")
    with pytest.raises(ValueError, match=message):
        module.accessible_rows(ids, bags)


def test_check_tree_runs_once_per_graph(monkeypatch):
    """One graph through decompose, reconstruct, validate_reduced and
    summarize checks its tree once, whether or not reduction contracts an
    edge."""
    calls = []
    check = splitdec.check_tree
    monkeypatch.setattr(splitdec, "check_tree", lambda t: calls.append(t) or check(t))
    spider = graph_from_edges(5, [(0, 4), (1, 4), (3, 4), (2, 3)])
    # three bags out of the split recursion, two after a star-star merge
    assert len(pyk._split_parts(spider.n, spider.adj)) == 3
    assert len(decompose(spider).bags) == 2
    for g in (make_path(5), c5_pendant(), spider, make_complete(4)):
        calls.clear()
        t = decompose(g)
        assert reconstruct(t) == g
        assert validate_reduced(t) == []
        summarize(t)
        assert calls == [t]


def test_reconstruct_refuses_dangling_marker():
    """A tree is checked when it is made, so a dangling marker never
    reaches ``reconstruct``."""
    t = _kk_tree()
    bag = t.bags[1]
    with pytest.raises(TreeError, match="tree edge 5 has 1 markers, not 2"):
        GraphLabelledTree(
            bags={0: t.bags[0],
                  1: Bag(bag.label, bag.kind, (2, ~5, ~0), bag.star_center)},
        )


# --- hand-built trees -----------------------------------------------------------------


def star_label(leaves: int) -> Graph:
    """Star label with center at local 0."""
    return make_star(leaves + 1)


def _clique_bag(*tokens: int) -> Bag:
    """A clique bag with one label vertex per token."""
    return Bag(make_complete(len(tokens)), "clique", tokens)


def test_reconstruct_hand_built_p4():
    t = GraphLabelledTree(
        bags={
            0: Bag(label=make_path(3), kind="star", tokens=(0, 1, ~0), star_center=1),
            1: Bag(label=star_label(2), kind="star", tokens=(~0, 2, 3), star_center=0),
        },
    )
    assert t.tree_edges == {0: (0, 1)} and t.vertex_ids == (0, 1, 2, 3)
    assert GraphLabelledTree(dict(reversed(t.bags.items()))).tree_edges == {0: (0, 1)}
    # bag 1 is attached through its center, so ordinary 2 sits at a leaf:
    # accessibility gives 1~2 (through markers) and 2~3 inside bag 1... the
    # center is the marker, so leaves 2 and 3 are both adjacent only across.
    g = reconstruct(t)
    assert g.n == 4
    assert g.has_edge(0, 1)
    assert g == _reconstruct_dfs(t)


def test_reconstruct_single_clique_bag():
    t = GraphLabelledTree({0: _clique_bag(0, 1, 2)})
    assert t.tree_edges == {} and t.vertex_ids == (0, 1, 2)
    assert reconstruct(t) == make_complete(3) == _reconstruct_dfs(t)


def test_reconstruct_two_leaf_stars_is_p4():
    t = GraphLabelledTree(
        bags={
            0: Bag(label=make_path(3), kind="star", tokens=(0, 1, ~0), star_center=1),
            1: Bag(label=make_path(3), kind="star", tokens=(~0, 2, 3), star_center=1),
        },
    )
    assert reconstruct(t) == make_path(4) == _reconstruct_dfs(t)
    assert validate_reduced(t) == []


def _kk_tree() -> GraphLabelledTree:
    return GraphLabelledTree({0: _clique_bag(0, 1, ~0), 1: _clique_bag(2, 3, ~0)})


def test_validate_reduced_flags_kk():
    violations = validate_reduced(_kk_tree())
    assert len(violations) == 1 and "KK" in violations[0]
    assert reconstruct(_kk_tree()) == make_complete(4) == _reconstruct_dfs(_kk_tree())


def test_validate_reduced_small_leaf_bag_is_one_violation():
    """A leaf bag of a multi-bag tree has one marker, so a clique leaf with
    one ordinary vertex, or a center-attached star leaf with one leaf, breaks
    the size rule and nothing else."""
    c5 = Bag(make_cycle(5), "prime", (1, 2, 3, 4, ~0))
    for leaf in (Bag(make_complete(2), "clique", (0, ~0)),
                 Bag(make_complete(2), "star", (~0, 0), 0)):
        t = GraphLabelledTree({0: leaf, 1: c5})
        assert validate_reduced(t) == [
            f"bag 0: {leaf.kind} bag with fewer than 3 vertices"
        ]


def test_validate_reduced_flags_spsc():
    t = GraphLabelledTree(
        bags={
            0: Bag(label=star_label(2), kind="star", tokens=(0, 1, ~0), star_center=0),
            1: Bag(label=star_label(2), kind="star", tokens=(~0, 2, 3), star_center=0),
        },
    )
    violations = validate_reduced(t)
    assert len(violations) == 1 and "SpSc" in violations[0]
    assert are_isomorphic(reconstruct(t), make_star(4))
    assert reconstruct(t) == _reconstruct_dfs(t)


def test_reduce_refuses_a_nonadjacent_pass_through_bag():
    """A 2-vertex bag whose two markers are not adjacent passes nothing
    between its neighbours, so no split decomposition holds one; the
    reducer refuses it rather than contract it."""
    through = Bag(Graph(2, (0, 0)), "prime", (~0, ~1))
    bags = {0: _clique_bag(0, 1, ~0), 1: through, 2: _clique_bag(2, 3, ~1)}
    with pytest.raises(InvariantViolation,
                       match="2-vertex pass-through bag with nonadjacent markers"):
        splitdec._reduce(bags)


def test_check_tree_rejects_malformed():
    """The shape of a tree is what its bags' markers say, so each malformed
    tree is malformed bags."""
    t = _kk_tree()
    with pytest.raises(TreeError, match="tree edge 0 has 3 markers, not 2"):
        GraphLabelledTree({**t.bags, 2: _clique_bag(4, 5, ~0)})
    with pytest.raises(TreeError, match="edge count"):  # two edges join bags 0, 1
        GraphLabelledTree({0: _clique_bag(0, ~0, ~1), 1: _clique_bag(1, ~0, ~1)})
    with pytest.raises(TreeError, match="not connected"):  # a cycle and a bag apart
        GraphLabelledTree({0: _clique_bag(0, ~0, ~2), 1: _clique_bag(1, ~0, ~1),
                           2: _clique_bag(2, ~1, ~2), 3: _clique_bag(3)})
    with pytest.raises(TreeError, match="original vertex 0 appears in two bags"):
        GraphLabelledTree({0: t.bags[0], 1: _clique_bag(0, 3, ~0)})
    # the ids are checked once sorted, so of two repeated ids the least is
    # named, whichever the bags reach first
    with pytest.raises(TreeError, match="original vertex 1 appears in two bags"):
        GraphLabelledTree({0: _clique_bag(1, 3, ~0), 1: _clique_bag(3, 1, ~0)})
    with pytest.raises(TreeError, match="tree edge 1 has both markers in one bag"):
        GraphLabelledTree({**t.bags, 2: _clique_bag(4, ~1, ~1)})
    for tokens in ((), (0, 1)):  # one token per label vertex, not 0 or 2
        with pytest.raises(TreeError,
                           match=f"bag 0 has {len(tokens)} tokens for 1 label vertices"):
            GraphLabelledTree({0: Bag(make_complete(1), "clique", tokens)})


# --- leaf-bag classification and twins ---------------------------------------------


def test_classify_leaf_bag_star_cases():
    t = decompose(c5_pendant())
    star_bags = [b for b, bag in t.bags.items() if bag.kind == "star"]
    assert len(star_bags) == 1
    cls = classify_leaf_bag(t, star_bags[0])
    assert cls.kind == "star_leaf_attached" and cls.ordinary_leaves == 1
    assert twin_from_leaf_bag(t, star_bags[0]) is None


def test_classify_leaf_bag_guards():
    t = decompose(c5_pendant())
    (prime,) = [b for b, bag in t.bags.items() if bag.kind == "prime"]
    with pytest.raises(ValueError):
        classify_leaf_bag(t, prime)
    t2 = decompose(c5_tail2())
    internal = [b for b in t2.bags if not t2.is_leaf_bag(b)]
    for b in internal:
        with pytest.raises(ValueError):
            classify_leaf_bag(t2, b)


def test_clique_leaf_bag_yields_true_twins():
    # K4 with a pendant path: the K4 side becomes a clique leaf bag
    g = graph_from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    )
    t = decompose(g)
    clique_leafs = [
        b
        for b in t.bags
        if t.bags[b].kind == "clique" and t.is_leaf_bag(b)
    ]
    assert clique_leafs
    cls = classify_leaf_bag(t, clique_leafs[0])
    assert cls.kind == "clique"
    pair = twin_from_leaf_bag(t, clique_leafs[0])
    assert pair is not None
    u, v = pair
    assert g.has_edge(u, v)  # true twins


def test_center_attached_star_yields_false_twins():
    t = GraphLabelledTree(
        bags={
            0: Bag(label=star_label(2), kind="star", tokens=(~0, 10, 11), star_center=0),
            1: _clique_bag(12, 13, ~0),
        },
    )
    assert t.tree_edges == {0: (0, 1)} and t.vertex_ids == (10, 11, 12, 13)
    cls = classify_leaf_bag(t, 0)
    assert cls.kind == "star_center_attached" and cls.ordinary_leaves == 2
    assert twin_from_leaf_bag(t, 0) == (10, 11)


def test_multi_leaf_star_yields_false_twins():
    g = attach_pendants(make_cycle(5), [0, 0])
    t = decompose(g)
    star_bags = [b for b in t.bags if t.bags[b].kind == "star"]
    assert len(star_bags) == 1
    cls = classify_leaf_bag(t, star_bags[0])
    assert cls.kind == "star_leaf_attached" and cls.ordinary_leaves == 2
    assert twin_from_leaf_bag(t, star_bags[0]) == (5, 6)


# --- peeling ----------------------------------------------------------------------


def test_pick_peelable_examples():
    assert pick_peelable_bag(decompose(c5_tail2())) is not None
    assert pick_peelable_bag(decompose(c5_pendant())) is None
    assert pick_peelable_bag(decompose(make_cycle(5))) is None
    with pytest.raises(ValueError):
        pick_peelable_bag(decompose(make_path(6)))  # no prime bag


def test_peel_far_bag():
    g = c5_tail2()
    t = decompose(g)
    before = dump_tree(t)
    b = pick_peelable_bag(t)
    t_x, t_xc = peel(t, b)  # verifies reconstructions and reducedness inside
    assert dump_tree(t) == before  # peel leaves its input tree untouched
    # the same bags listed in another order are the same tree, peeled alike
    shuffled = GraphLabelledTree(dict(reversed(t.bags.items())))
    assert [dump_tree(r) for r in peel(shuffled, b)] == [dump_tree(t_x),
                                                         dump_tree(t_xc)]
    assert t_x.vertex_ids == (0, 1, 2, 3, 4, 5)
    assert t_xc.vertex_ids == (0, 1, 2, 3, 4)
    assert are_isomorphic(reconstruct(t_xc), make_cycle(5))
    assert summarize(t_x).prime_bag_count == 1
    assert summarize(t_xc).prime_bag_count == 1


def test_peel_absorbs_small_clique_bag():
    # C5 with vertex 0 duplicated as a true twin (5) plus a pendant 6 on 5:
    # the tree is star -- K3 clique bag -- prime C5, and peeling the star
    # shrinks the clique bag to 2 vertices, which reduction absorbs
    g = graph_from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 4), (6, 5)],
    )
    t = decompose(g)
    kinds = sorted(bag.kind for bag in t.bags.values())
    assert kinds == ["clique", "prime", "star"]
    b = pick_peelable_bag(t)
    assert t.bags[b].kind == "star" and twin_from_leaf_bag(t, b) is None
    t_x, t_xc = peel(t, b)
    assert sorted(bag.kind for bag in t_x.bags.values()) == ["clique", "prime"]
    assert [bag.kind for bag in t_xc.bags.values()] == ["prime"]
    assert are_isomorphic(reconstruct(t_xc), make_cycle(5))
    assert validate_reduced(t_x) == [] and validate_reduced(t_xc) == []


def test_peel_guards():
    t = decompose(c5_pendant())
    star_bag = next(b for b in t.bags if t.bags[b].kind == "star")
    with pytest.raises(ValueError):
        peel(t, star_bag)  # neighbor is the prime bag
    with pytest.raises(ValueError):
        peel(decompose(make_complete(4)), 0)  # single clique bag, no leaf


def test_peel_p4_smallest_case():
    t = decompose(make_path(4))
    leafs = sorted(t.bags)
    t_x, t_xc = peel(t, leafs[0])
    assert reconstruct(t_x) == make_path(3)
    assert are_isomorphic(reconstruct(t_xc), make_complete(2))


# --- prime core extraction -----------------------------------------------------------


def test_extract_prime_core_c5_pendant():
    res = extract_prime_core(decompose(c5_pendant()))
    assert res.twins is None
    assert are_isomorphic(res.core, make_cycle(5))
    assert res.core_ids == (0, 1, 2, 3, 4)
    assert res.attach == (0,)


def test_extract_prime_core_bare_prime():
    res = extract_prime_core(decompose(make_cycle(5)))
    assert res.twins is None
    assert res.core == make_cycle(5)
    assert res.attach == ()


def test_extract_prime_core_twin_path():
    res = extract_prime_core(decompose(attach_pendants(make_cycle(5), [0, 0])))
    assert res.twins == (5, 6)
    assert res.core is None


def test_extract_prime_core_guards():
    with pytest.raises(ValueError):
        extract_prime_core(decompose(make_path(5)))  # no prime bag
    with pytest.raises(ValueError):
        extract_prime_core(decompose(c5_tail2()))  # not star-centered


def test_every_peelable_configuration(connected_by_n):
    """Peel every far one-leaf star bag of every unique-prime graph n <= 7;
    peel() verifies both reconstructions, reducedness, and the prime label
    on each call."""
    peels = 0
    for n in range(5, 8):
        for g in connected_by_n[n]:
            t = decompose(g)
            if len(t.prime_bag_ids()) != 1:
                continue
            (p,) = t.prime_bag_ids()
            for b in sorted(t.bags):
                if b == p or not t.is_leaf_bag(b):
                    continue
                (e,) = t.bags[b].markers
                x, y = t.tree_edges[e]
                if (y if x == b else x) == p:
                    continue  # neighbor is prime: not peelable
                cls = classify_leaf_bag(t, b)
                if cls.kind == "star_leaf_attached" and cls.ordinary_leaves == 1:
                    peel(t, b)
                    peels += 1
    assert peels >= 20  # 21 such configurations exist at n <= 7


def _star_centered_by_bags(t: GraphLabelledTree) -> bool:
    """The oracle for the star test of ``summarize`` and
    ``extract_prime_core``, bag by bag: one prime bag p, and every other
    bag a leaf whose one neighbour is p."""
    primes = t.prime_bag_ids()
    if len(primes) != 1:
        return False
    (p,) = primes
    return all(t.is_leaf_bag(b) and next(t.bag_neighbors(b))[1] == p
               for b in t.bags if b != p)


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_star_test_matches_the_per_bag_oracle(backend, monkeypatch, request):
    """On the tree of every connected graph with n <= 8, ``summarize`` and
    ``extract_prime_core`` read a tree as star-centered at its prime bag
    (every tree edge has the prime bag as an end) exactly when the oracle
    does."""
    module = pyk if backend == "python" else request.getfixturevalue("cyk")
    monkeypatch.setattr(kernels, "split_bags", module.split_bags)
    monkeypatch.setattr(kernels, "accessible_rows", module.accessible_rows)
    kinds = Counter()
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected_only=True):
            t = decompose(g)
            star = _star_centered_by_bags(t)
            assert summarize(t).star_centered_at_prime == star
            if len(t.prime_bag_ids()) != 1:
                continue
            kinds[star] += 1
            if star:
                extract_prime_core(t)
            else:
                with pytest.raises(ValueError, match="not a star centered"):
                    extract_prime_core(t)
    assert kinds == {True: 8792, False: 1400}


def test_tree_digests_n8():
    """Every tree dump, and every peel/extract outcome, of the connected
    corpus n <= 8 is pinned by sha256; a refactor may not move one byte."""
    trees = hashlib.sha256()
    reductions = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected_only=True):
            g6 = write_graph6(g)
            t = decompose(g)
            trees.update(f"{g6}\n{dump_tree(t)}\n".encode())
            summary = summarize(t)
            if summary.prime_bag_count != 1:
                continue
            if summary.star_centered_at_prime:
                r = extract_prime_core(t)
                core = write_graph6(r.core) if r.core is not None else None
                line = f"{g6} X {r.twins} {core} {r.core_ids} {r.attach}\n"
            else:
                b = pick_peelable_bag(t)
                tw = twin_from_leaf_bag(t, b)
                if tw is not None:
                    line = f"{g6} T {b} {tw}\n"
                else:
                    t1, t2 = peel(t, b)
                    line = f"{g6} P {b}\n{dump_tree(t1)}\n{dump_tree(t2)}\n"
            reductions.update(line.encode())
    assert trees.hexdigest() == (
        "c1664a58ed15b8c1ac763bb81e281441d667fbd8c234da45b45b8f56d333ef67"
    )
    assert reductions.hexdigest() == (
        "e1e89a2ddf58b8ff7a7eee5ccc619d8f0d5d6fd24c31adb2c9babd331ee55e66"
    )
