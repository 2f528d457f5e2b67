"""splitdec: splits, decomposition, reconstruction, reductions, peel/extract."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfx.dh import dh_metric_oracle
from zfx.errors import CapacityError, TreeError
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
    find_split,
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


# --- find_split -----------------------------------------------------------------


def test_find_split_p5():
    s = find_split(make_path(5))
    assert s is not None
    assert s.a_mask == mask_of([0, 1]) and s.b_mask == mask_of([2, 3, 4])
    assert s.a1_mask == mask_of([1]) and s.b1_mask == mask_of([2])


def test_find_split_none_for_c5_and_small():
    assert find_split(make_cycle(5)) is None
    assert find_split(make_path(3)) is None
    assert find_split(Graph(1, (0,))) is None


def test_find_split_k4_least():
    s = find_split(make_complete(4))
    assert s.a_mask == mask_of([0, 1])
    assert s.a1_mask == s.a_mask and s.b1_mask == s.b_mask


def test_find_split_guards():
    with pytest.raises(ValueError):
        find_split(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(CapacityError):
        find_split(make_path(30))
    find_split(make_path(30), budget=30)


def _split_is_sound(g: Graph, s) -> bool:
    if s.a_mask | s.b_mask != g.full_mask or s.a_mask & s.b_mask:
        return False
    if s.a_mask.bit_count() < 2 or s.b_mask.bit_count() < 2:
        return False
    if not (s.a1_mask and s.b1_mask):
        return False
    if s.a1_mask & ~s.a_mask or s.b1_mask & ~s.b_mask:
        return False
    for a in bits(s.a_mask):
        for b in bits(s.b_mask):
            expected = bool((s.a1_mask >> a) & 1) and bool((s.b1_mask >> b) & 1)
            if g.has_edge(a, b) != expected:
                return False
    return True


def test_find_split_soundness(connected_by_n):
    for n in range(4, 7):
        for g in connected_by_n[n]:
            s = find_split(g)
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
        (marker_local,) = bag.markers.values()
        assert marker_local != bag.star_center  # leaf-marker on both sides
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
    with pytest.raises(ValueError):
        decompose(make_path(4), split_order="weird")


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
                    assert find_split(bag.label) is None
                    assert bag.label.n >= 5


def test_split_order_invariance(connected_by_n):
    """The reduced tree's bag-label multiset must not depend on which split
    the recursion picks."""
    for n in range(1, 8):
        for g in connected_by_n[n]:
            t_min = decompose(g, split_order="min")
            t_max = decompose(g, split_order="max")
            assert reconstruct(t_max) == g
            assert validate_reduced(t_max) == []
            key = lambda t: Counter(
                (b.kind, canonical_form(b.label).adj) for b in t.bags.values()
            )
            assert key(t_min) == key(t_max)


# --- hand-built trees -----------------------------------------------------------------


def star_label(leaves: int) -> Graph:
    """Star label with center at local 0."""
    return make_star(leaves + 1)


def test_reconstruct_hand_built_p4():
    t = GraphLabelledTree(
        bags={
            0: Bag(
                label=make_path(3),
                kind="star",
                ordinary={0: 0, 1: 1},
                markers={0: 2},
                star_center=1,
            ),
            1: Bag(
                label=star_label(2),
                kind="star",
                ordinary={1: 2, 2: 3},
                markers={0: 0},
                star_center=0,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(0, 1, 2, 3),
    )
    # bag 1 is attached through its center, so ordinary 2 sits at a leaf:
    # accessibility gives 1~2 (through markers) and 2~3 inside bag 1... the
    # center is the marker, so leaves 2 and 3 are both adjacent only across.
    g = reconstruct(t)
    assert g.n == 4
    assert g.has_edge(0, 1)


def test_reconstruct_single_clique_bag():
    t = GraphLabelledTree(
        bags={
            0: Bag(
                label=make_complete(3),
                kind="clique",
                ordinary={0: 0, 1: 1, 2: 2},
                markers={},
                star_center=None,
            )
        },
        tree_edges={},
        vertex_ids=(0, 1, 2),
    )
    assert reconstruct(t) == make_complete(3)


def test_reconstruct_two_leaf_stars_is_p4():
    t = GraphLabelledTree(
        bags={
            0: Bag(
                label=make_path(3),
                kind="star",
                ordinary={0: 0, 1: 1},
                markers={0: 2},
                star_center=1,
            ),
            1: Bag(
                label=make_path(3),
                kind="star",
                ordinary={1: 2, 2: 3},
                markers={0: 0},
                star_center=1,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(0, 1, 2, 3),
    )
    assert reconstruct(t) == make_path(4)
    assert validate_reduced(t) == []


def _kk_tree() -> GraphLabelledTree:
    return GraphLabelledTree(
        bags={
            0: Bag(
                label=make_complete(3),
                kind="clique",
                ordinary={0: 0, 1: 1},
                markers={0: 2},
                star_center=None,
            ),
            1: Bag(
                label=make_complete(3),
                kind="clique",
                ordinary={0: 2, 1: 3},
                markers={0: 2},
                star_center=None,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(0, 1, 2, 3),
    )


def test_validate_reduced_flags_kk():
    violations = validate_reduced(_kk_tree())
    assert len(violations) == 1 and "KK" in violations[0]
    assert reconstruct(_kk_tree()) == make_complete(4)


def test_validate_reduced_flags_spsc():
    t = GraphLabelledTree(
        bags={
            0: Bag(
                label=star_label(2),
                kind="star",
                ordinary={0: 0, 1: 1},
                markers={0: 2},
                star_center=0,
            ),
            1: Bag(
                label=star_label(2),
                kind="star",
                ordinary={1: 2, 2: 3},
                markers={0: 0},
                star_center=0,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(0, 1, 2, 3),
    )
    violations = validate_reduced(t)
    assert len(violations) == 1 and "SpSc" in violations[0]
    assert are_isomorphic(reconstruct(t), make_star(4))


def test_check_tree_rejects_malformed():
    t = _kk_tree()
    broken = GraphLabelledTree(
        bags=t.bags, tree_edges={0: (0, 1), 1: (0, 1)}, vertex_ids=t.vertex_ids
    )
    with pytest.raises(TreeError):
        reconstruct(broken)
    dup = GraphLabelledTree(
        bags={
            0: t.bags[0],
            1: Bag(
                label=make_complete(3),
                kind="clique",
                ordinary={0: 0, 1: 3},  # original 0 appears twice
                markers={0: 2},
                star_center=None,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(0, 1, 3),
    )
    with pytest.raises(TreeError):
        reconstruct(dup)


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
            0: Bag(
                label=star_label(2),
                kind="star",
                ordinary={1: 10, 2: 11},
                markers={0: 0},
                star_center=0,
            ),
            1: Bag(
                label=make_complete(3),
                kind="clique",
                ordinary={0: 12, 1: 13},
                markers={0: 2},
                star_center=None,
            ),
        },
        tree_edges={0: (0, 1)},
        vertex_ids=(10, 11, 12, 13),
    )
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


def test_tree_digests_n8():
    """Every tree dump, and every peel/extract outcome, of the connected
    corpus n <= 8 is pinned by sha256; a refactor may not move one byte."""
    trees = hashlib.sha256()
    trees_max = hashlib.sha256()
    reductions = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected_only=True):
            g6 = write_graph6(g)
            t = decompose(g)
            trees.update(f"{g6}\n{dump_tree(t)}\n".encode())
            if n <= 7:
                t_max = decompose(g, split_order="max")
                trees_max.update(f"{g6}\n{dump_tree(t_max)}\n".encode())
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
    assert trees_max.hexdigest() == (
        "c1656b576503beb160cffeb7dc6d674015c7523ce9a34bbe2e151980b0e82fd9"
    )
    assert reductions.hexdigest() == (
        "e1e89a2ddf58b8ff7a7eee5ccc619d8f0d5d6fd24c31adb2c9babd331ee55e66"
    )
