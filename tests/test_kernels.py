"""Backend parity: the compiled kernels must match the pure-Python ones
bit for bit, and both must match the literal definitions."""

from __future__ import annotations

import inspect
import os
import random
import re
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfx import _kernels_py as pyk
from zfx import kernels
from zfx.errors import CapacityError
from zfx.extremal import path_z
from zfx.forcing import zf_profile
from zfx.graphs import (
    Graph,
    bits,
    enumerate_graphs,
    graph_from_edges,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "zfx"


def _graph_from_bits(n, bits_):
    return graph_from_edges(
        n,
        [
            (u, v)
            for k, (u, v) in enumerate(combinations(range(n), 2))
            if (bits_ >> k) & 1
        ],
    )


random_graph = st.builds(
    _graph_from_bits,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0),
)

# Up to 14 vertices, any edge set reachable: the pure kernels, the slower
# twins, are still cheap there.
wide_graph = st.integers(min_value=0, max_value=14).flatmap(
    lambda n: st.builds(
        _graph_from_bits, st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
    )
)


def _row_major_encoding(n, adj):
    acc = 0
    for i in range(n):
        for j in range(i + 1, n):
            acc = (acc << 1) | ((adj[i] >> j) & 1)
    return acc


def _factorial_minimum(n, adj):
    best = None
    for perm in permutations(range(n)):
        acc = 0
        for i in range(n):
            for j in range(i + 1, n):
                acc = (acc << 1) | ((adj[perm[i]] >> perm[j]) & 1)
        if best is None or acc < best:
            best = acc
    return best if best is not None else 0


def _random_adj(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def test_canon_is_the_factorial_minimum(graphs_by_n):
    for n in range(0, 6):
        for g in graphs_by_n[n]:
            rows = pyk.canon_adj(g.n, g.adj)
            assert _row_major_encoding(g.n, rows) == _factorial_minimum(g.n, g.adj)
    # labelled graphs at n = 7 reach deeper searches than the class
    # representatives above
    rng = random.Random(7)
    for k in range(20):
        adj = _random_adj(rng, 7, 0.2 + 0.03 * k)
        rows = pyk.canon_adj(7, adj)
        assert _row_major_encoding(7, rows) == _factorial_minimum(7, adj)


def test_backend_parity_on_enumerated_graphs(cyk):
    """Every class with n <= 8, disconnected ones included."""
    classes = [g for n in range(9) for g in enumerate_graphs(n)]
    assert len(classes) == 13599
    for g in classes:
        assert pyk.canon_adj(g.n, g.adj) == cyk.canon_adj(g.n, g.adj)
        assert pyk.profile_counts(g.n, g.adj) == cyk.profile_counts(g.n, g.adj)


def test_metric_dh_parity_on_connected_classes_to_n8():
    """The separation test agrees with the literal definition on every
    connected class with n <= 8."""
    dh = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected_only=True):
            got = pyk.metric_dh(g.n, g.adj)
            assert got == _metric_dh_literal(g.n, g.adj)
            dh += got
    assert dh == 1893


def test_split_bags_parity_on_connected_classes_to_n8(cyk):
    """The reduced split tree, bag for bag: the C reduction gives the pure
    ``reduce_bags`` tree, the same ids in the same order."""
    bags = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n, connected_only=True):
            got = cyk.split_bags(g.n, g.adj)
            assert list(got.items()) == list(pyk.split_bags(g.n, g.adj).items())
            bags += len(got)
    assert bags == 30034


def test_metric_dh_backend_parity(cyk):
    """The compiled separation test gives the pure one's answer on every
    class with n <= 8, disconnected ones included, and on seeded random
    labelled graphs with 9 <= n <= 64.  At n = 64 the pairs past vertex 63
    are empty, the mask the pure kernel writes as ``(2 << a) - 1``."""
    classes = [g for n in range(9) for g in enumerate_graphs(n)]
    assert len(classes) == 13599
    dh = 0
    for g in classes:
        got = cyk.metric_dh(g.n, g.adj)
        assert got == pyk.metric_dh(g.n, g.adj)
        dh += got
    assert dh == 2696
    rng = random.Random(964)
    verdicts = set()
    for n in list(range(9, 17)) + [24, 32, 48, 63, 64]:
        graphs = [_random_dh_adj(rng, n), _random_adj(rng, n, 0.1),
                  _random_adj(rng, n, 0.5)]
        for adj in graphs:
            got = cyk.metric_dh(n, adj)
            assert got == pyk.metric_dh(n, adj)
            verdicts.add(got)
    assert verdicts == {True, False}
    for g, dh in ((make_path(64), True), (make_cycle(64), False),
                  (make_complete(64), True)):
        assert cyk.metric_dh(64, g.adj) == pyk.metric_dh(64, g.adj) == dh


def _random_connected_adj(rng, n, p):
    """G(n, p) plus a random spanning tree, randomly labelled."""
    adj = list(_random_adj(rng, n, p))
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _relabelled(rng, adj)


def _relabelled(rng, adj):
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for u in range(n):
        for w in range(n):
            if adj[u] >> w & 1:
                out[perm[u]] |= 1 << perm[w]
    return tuple(out)


def _grown_adj(rng, adj, n):
    """The connected graph ``adj`` grown to n vertices by random pendant,
    false-twin and true-twin additions, randomly relabelled."""
    adj = list(adj)
    for v in range(len(adj), n):
        a = rng.randrange(v)
        op = rng.choice(("pendant", "false", "true") if adj[a] else ("pendant", "true"))
        nb = 1 << a if op == "pendant" else adj[a] | (1 << a if op == "true" else 0)
        for u in range(v):
            if nb >> u & 1:
                adj[u] |= 1 << v
        adj.append(nb)
    return _relabelled(rng, adj)


def test_split_bags_parity_random_n9_to_n16(cyk):
    rng = random.Random(916)
    edge_counts = set()
    for n in range(9, 17):
        grown = [_grown_adj(rng, _random_connected_adj(rng, k, 0.5), n)
                 for k in (4, 6)]
        for adj in [_random_connected_adj(rng, n, 0.15),
                    _random_connected_adj(rng, n, 0.4)] + grown:
            got = pyk.split_bags(n, adj)
            assert list(got.items()) == list(cyk.split_bags(n, adj).items())
            edge_counts.add(len(got) - 1)
    assert 0 in edge_counts and max(edge_counts) >= 8


@settings(max_examples=200, deadline=None)
@given(wide_graph)
def test_backend_parity_random(cyk, g):
    assert pyk.canon_adj(g.n, g.adj) == cyk.canon_adj(g.n, g.adj)
    assert pyk.profile_counts(g.n, g.adj) == cyk.profile_counts(g.n, g.adj)


@settings(max_examples=100, deadline=None)
@given(random_graph, st.randoms(use_true_random=False))
def test_canon_relabeling_invariance(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                adj[perm[u]] |= 1 << perm[v]
                adj[perm[v]] |= 1 << perm[u]
    assert kernels.canon_adj(g.n, g.adj) == kernels.canon_adj(g.n, tuple(adj))


def _layers(adj, src, within):
    """The BFS layers from src inside the mask ``within``, as masks."""
    layers = []
    seen = frontier = 1 << src
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return layers


def _metric_dh_literal(n, adj):
    """The definition (Bandelt & Mulder 1986): every connected induced
    subgraph keeps the distances of the graph.  For every connected subset
    and every u in it, each BFS layer from u inside the subset must be u's
    layer in the graph cut to the subset."""
    full = (1 << n) - 1
    glayers = [_layers(adj, u, full) for u in range(n)]
    for mask in range(1, full + 1):
        if mask.bit_count() < 3:
            continue
        for i, u in enumerate(bits(mask)):
            sub = _layers(adj, u, mask)
            if i == 0 and sum(sub) != mask:  # the layers are disjoint
                break  # not connected
            if any(layer != glayer & mask for layer, glayer in zip(sub, glayers[u])):
                return False
    return True


def test_metric_dh_matches_the_definition(graphs_by_n, connected_by_n):
    """Every graph with n <= 6, disconnected ones included, and every
    connected class at n = 7."""
    for graphs in graphs_by_n.values():
        for g in graphs:
            assert pyk.metric_dh(g.n, g.adj) == _metric_dh_literal(g.n, g.adj)
    for g in connected_by_n[7]:
        assert pyk.metric_dh(g.n, g.adj) == _metric_dh_literal(g.n, g.adj)


@settings(max_examples=150, deadline=None)
@given(random_graph)
def test_metric_dh_matches_the_definition_random(g):
    assert pyk.metric_dh(g.n, g.adj) == _metric_dh_literal(g.n, g.adj)


def _random_dh_adj(rng, n):
    """A connected DH graph from K1 by random pendant, false-twin and
    true-twin additions, randomly relabelled."""
    return _grown_adj(rng, [0], n)


def test_metric_dh_matches_the_definition_at_n10_and_n11():
    """Past the exhaustive range: seeded random labelled graphs, DH ones
    built by one-vertex additions and G(n, p) ones."""
    rng = random.Random(1011)
    verdicts = set()
    for n in (10, 11):
        for _ in range(3):
            for adj in (_random_dh_adj(rng, n), _random_adj(rng, n, 0.3)):
                got = pyk.metric_dh(n, adj)
                assert got == _metric_dh_literal(n, adj)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_canon_parity_n10_to_n20(cyk):
    """Seeded labelled graphs: the compiled search equals the pure one and
    is invariant under relabelling."""
    rng = random.Random(11)
    for n in range(10, 21):
        for p in (0.15, 0.4, 0.7):
            adj = _random_adj(rng, n, p)
            rows = cyk.canon_adj(n, adj)
            assert rows == pyk.canon_adj(n, adj)
            assert cyk.canon_adj(n, _relabelled(rng, adj)) == rows


def test_canon_compiled_at_n64(cyk):
    """P_64 and C_64, each under four relabellings, at the word size."""
    rng = random.Random(64)
    for adj in (make_path(64).adj, make_cycle(64).adj):
        rows = cyk.canon_adj(64, adj)
        assert sorted(map(int.bit_count, rows)) == sorted(map(int.bit_count, adj))
        assert cyk.canon_adj(64, rows) == rows
        for _ in range(4):
            assert cyk.canon_adj(64, _relabelled(rng, adj)) == rows


def _check_children(cyk, n, children):
    """Each (record, connected) pair that ``augment`` gave for a parent on
    n vertices decodes to canonical rows, and the child is connected as
    flagged."""
    record = pyk.level_record(n + 1)
    for rec, connected in children:
        rows = record.unpack(rec)
        assert cyk.canon_adj(n + 1, rows) == rows
        assert connected is is_connected(Graph(n + 1, rows))


def test_augment_parity_to_n7(cyk):
    """Every parent with n <= 7: the same (record, connected) pairs, in the
    same order, duplicates included."""
    parents = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(parents) == 1252
    for g in parents:
        assert pyk.augment(g.n, g.adj) == cyk.augment(g.n, g.adj)


def test_augment_random_n9_to_n12(cyk):
    """Seeded random labelled parents past the enumeration, connected or
    not: both backends agree, and every child decodes to canonical rows
    with its connectivity flag right."""
    rng = random.Random(912)
    for n in range(9, 13):
        for p in (0.2, 0.45):
            adj = _random_adj(rng, n, p)
            children = cyk.augment(n, adj)
            assert children and children == pyk.augment(n, adj)
            _check_children(cyk, n, children)
    two_parts = graph_from_edges(10, [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8), (8, 9)])
    children = cyk.augment(10, two_parts.adj)
    assert children == pyk.augment(10, two_parts.adj)
    assert {connected for _, connected in children} == {False}
    _check_children(cyk, 10, children)


def test_augment_at_n15(cyk):
    """The largest parent: its children have 16 uint16 rows, and only the
    one with an isolated new vertex is disconnected."""
    for g in (make_path(15), make_cycle(15), make_complete(15)):
        children = cyk.augment(15, g.adj)
        assert children and children == pyk.augment(15, g.adj)
        assert {len(rec) for rec, _ in children} == {32}
        assert [rec for rec, connected in children if not connected] == [
            pyk.level_record(16).pack(*cyk.canon_adj(16, g.adj + (0,)))]
        _check_children(cyk, 15, children)


def test_augment_refuses_n0_and_n16(cyk):
    """A parent needs a vertex, and its child's rows must fit in uint16."""
    for module in (pyk, cyk):
        for n in (0, 16):
            with pytest.raises(ValueError, match=rf"1 <= n <= 15 \(got {n}\)"):
                module.augment(n, (0,) * n)


def test_compiled_kernels_refuse_row_bits_at_or_above_n(cyk):
    """A row bit at or above n would index the compiled kernels' arrays of
    n entries, and names no vertex of the graph, so every kernel that reads
    rows refuses it, the pure twins with the same message.  So does a row
    too wide for a 64-bit word."""
    for module in (pyk, cyk):
        for kernel in (module.canon_adj, module.augment, module.profile_counts,
                       module.split_bags, module.metric_dh):
            for n, adj in ((2, (4, 0)), (1, (2,)), (2, (1 << 64, 0)),
                           (2, (1 << 70, 0))):
                with pytest.raises(ValueError,
                                   match=f"adj row 0 has a bit at or above n = {n}"):
                    kernel(n, adj)


def test_kernels_refuse_a_negative_row_by_name(cyk):
    """A negative row names no vertices either, and both backends refuse it
    with the same ``ValueError``, as negative: its bits above n, which a
    negative int has, are not what is wrong with it."""
    for module in (pyk, cyk):
        for kernel in (module.canon_adj, module.augment, module.profile_counts,
                       module.split_bags, module.metric_dh):
            for adj in ((-1, 0), (-(1 << 70), 0)):
                with pytest.raises(ValueError, match="adj row 0 is negative"):
                    kernel(2, adj)


def test_pure_closure_kernels_refuse_invalid_rows():
    """The closure kernels, pure on both backends, refuse the rows the
    compiled kernels refuse, with the same messages, rather than answer for
    another graph; ``metric_dh`` once answered True on both of these."""
    kernels_ = (pyk.closure_counts, pyk.metric_dh,
                lambda n, adj: pyk.closure_mask(n, adj, 1))
    for kernel in kernels_:
        with pytest.raises(ValueError, match="adj row 0 has a bit at or above n = 2"):
            kernel(2, (4, 0))
        with pytest.raises(ValueError, match="adj row 0 is negative"):
            kernel(3, (-1, 0, 0))


def test_compiled_fort_count_on_paths_n19_to_n24(cyk):
    """From P_19, where the pure kernel's path test stops, to P_24, past its
    ``BITSET_LIMIT``, against the path formula."""
    for n in range(19, 25):
        assert cyk.profile_counts(n, make_path(n).adj) == [path_z(n, k) for k in range(n + 1)]


def test_profile_refuses_n33(cyk):
    """The compiled fort table stops at 32 vertices, and ``zf_profile``
    refuses larger graphs by name on either backend, before any kernel
    runs."""
    with pytest.raises(OverflowError):
        cyk.profile_counts(33, make_path(33).adj)
    with pytest.raises(CapacityError, match="exceeds budget 32"):
        zf_profile(make_path(33), budget=40)


def _profile_by_closure(n, adj):
    """z(G;k) by one closure per subset, in increasing mask order so that a
    forcing subset settles each superset without its closure."""
    if n == 0:
        return [1]
    full = (1 << n) - 1
    z = [0] * (n + 1)
    memo = bytearray(1 << n)
    for m in range(1, 1 << n):
        forcing = False
        mm = m
        while mm:
            low = mm & -mm
            if memo[m ^ low]:
                forcing = True
                break
            mm ^= low
        if not forcing:
            forcing = pyk.closure_mask(n, adj, m) == full
        if forcing:
            memo[m] = 1
            z[m.bit_count()] += 1
    return z


def test_fort_count_matches_closure_oracle(graphs_by_n):
    """The fort count and the kernel ``closure_counts`` against the memoised
    closure loop: every class with n <= 7, disconnected ones included, and
    seeded random labelled graphs with n = 9..14."""
    classes = [g for graphs in graphs_by_n.values() for g in graphs]
    classes += enumerate_graphs(7)
    assert len(classes) == 1253
    for g in classes:
        assert (pyk.profile_counts(g.n, g.adj) == pyk.closure_counts(g.n, g.adj)
                == _profile_by_closure(g.n, g.adj))
    rng = random.Random(914)
    for n in range(9, 15):
        for p in (0.15, 0.3, 0.5):
            adj = _random_adj(rng, n, p)
            assert (pyk.profile_counts(n, adj) == pyk.closure_counts(n, adj)
                    == _profile_by_closure(n, adj))


def test_fort_count_on_paths_to_n18():
    for n in range(19):
        g = make_path(n)
        assert pyk.profile_counts(n, g.adj) == [path_z(n, k) for k in range(n + 1)]


def test_profile_bitset_boundary_agrees(monkeypatch):
    """Forts on bitsets and one closure per subset agree on the same graph,
    on either side of the cutoff."""
    g = graph_from_edges(9, [(i, i + 1) for i in range(8)] + [(0, 4)])
    monkeypatch.setattr(pyk, "BITSET_LIMIT", g.n)
    forts = pyk.profile_counts(g.n, g.adj)
    monkeypatch.setattr(pyk, "BITSET_LIMIT", g.n - 1)
    closures = pyk.profile_counts(g.n, g.adj)
    assert forts == closures == _profile_by_closure(g.n, g.adj)


def test_kernels_c_builds_warning_free(built_kernels):
    """The hand-written extension compiles under -Wall -Wextra -Werror and
    exports the backend tag and exactly the kernels ``kernels.py`` takes
    from it, so a compiled kernel that nothing dispatches cannot linger."""
    assert built_kernels.BACKEND == "cython"
    bound = set(re.findall(r"_impl\.(\w+)", (SRC / "kernels.py").read_text()))
    assert bound == {"BACKEND", "canon_adj", "augment", "profile_counts",
                     "split_bags", "accessible_rows", "tree_index", "metric_dh"}
    exported = {name for name in dir(built_kernels)
                if callable(getattr(built_kernels, name))}
    assert exported == bound - {"BACKEND"}


def test_compiled_signatures_match_the_pure_twins(cyk):
    """Each compiled kernel's docstring opens with its signature, naming the
    parameters of its pure twin in the same order, so a parameter cannot
    live on one backend only."""
    names = [name for name in dir(cyk) if callable(getattr(cyk, name))]
    assert names
    for name in names:
        head = re.match(rf"{name}\(([^)]*)\)", getattr(cyk, name).__doc__)
        assert head is not None, name
        params = [p.strip() for p in head.group(1).split(",") if p.strip()]
        assert params == list(inspect.signature(getattr(pyk, name)).parameters), name


# Runs every compiled kernel on each class with n <= 7 (split_bags,
# tree_index and accessible_rows on the connected ones, augment on those
# with 1 <= n <= 6), on P_15 (augment's largest parent), P_24, P_64 and
# C_64, and through the refusals of split_bags on disconnected graphs, of
# every row-reading kernel on a row bit at or above n and of
# accessible_rows and tree_index on an id or token outside 64 bits, at and
# past the signed word's ends, and the accessible_rows and tree_index of
# trees on the largest id and the least token.  Each split_bags tree,
# tree_index result, metric_dh answer and augment record list is checked
# against the pure kernel's, so the split tree's fixed arrays are filled and
# reduced under the sanitizer, and a 200-bag chain grows every buffer of
# tree_index onto the heap.
_UBSAN_DRIVER = """
import importlib.util, sys
from zfx import _kernels_py as pyk
from zfx.graphs import enumerate_graphs, is_connected, make_cycle, make_path
spec = importlib.util.spec_from_file_location("zfx._kernels_cy", sys.argv[1])
cyk = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cyk)
graphs = [g for n in range(8) for g in enumerate_graphs(n)]
graphs += [make_path(15), make_path(24)]
def same_index(bags):
    edges, ids = cyk.tree_index(bags)
    pure_edges, pure_ids = pyk.tree_index(bags)
    assert list(edges.items()) == list(pure_edges.items()) and ids == pure_ids
for g in graphs:
    cyk.canon_adj(g.n, g.adj)
    cyk.profile_counts(g.n, g.adj)
    assert cyk.metric_dh(g.n, g.adj) == pyk.metric_dh(g.n, g.adj)
    if 1 <= g.n <= 6 or g.n == 15:
        assert cyk.augment(g.n, g.adj) == pyk.augment(g.n, g.adj)
    if g.n and is_connected(g):
        tree = cyk.split_bags(g.n, g.adj)
        assert list(tree.items()) == list(pyk.split_bags(g.n, g.adj).items())
        same_index(tree)
        rows = cyk.accessible_rows(range(g.n), [bag[:2] for bag in tree.values()])
        assert rows == tuple(g.adj)
chain = {0: ((0, 0), (0, ~0))}
chain.update({b: ((0, 0, 0), (b, ~(b - 1), ~b)) for b in range(1, 199)})
chain[199] = ((0, 0), (199, ~198))
same_index(chain)
refused = [(g.n, g.adj) for g in graphs if g.n <= 7 and not is_connected(g)]
for n, adj in refused + [(64, (0,) * 64)]:
    try:
        cyk.split_bags(n, adj)
    except ValueError:
        continue
    sys.exit(f"split_bags took a disconnected graph on {n} vertices")
for kernel in (cyk.canon_adj, cyk.augment, cyk.profile_counts, cyk.split_bags,
               cyk.metric_dh):
    try:
        kernel(2, (4, 0))
    except ValueError:
        continue
    sys.exit(f"{kernel.__name__} took a row bit at or above n")
for ids, tokens in (((0,), (1 << 70,)), ((1 << 70,), (0,)), ((0,), (-(1 << 70),)),
                    ((1 << 63,), (0,)), ((0,), (-(1 << 63) - 1,)),
                    ((0,), (-(1 << 63),))):
    try:
        cyk.accessible_rows(ids, [((0,), tokens)])
    except ValueError:
        continue
    sys.exit(f"accessible_rows took {tokens} over {ids}")
top = (1 << 63) - 1
assert cyk.accessible_rows((top,), [((0,), (top,))]) == (0,)
edge = [((2, 1), (top, -(1 << 63))), ((2, 1), (-(1 << 63), 0))]
assert cyk.accessible_rows((0, top), edge) == (2, 1)
least = -(1 << 63)
for bags in ({1 << 63: ((0,), (0,))}, {least - 1: ((0,), (0,))},
             {0: ((0,), (1 << 63,))}, {0: ((0,), (least - 1,))}):
    try:
        cyk.tree_index(bags)
    except ValueError:
        continue
    sys.exit(f"tree_index took {bags}")
assert cyk.tree_index({top: ((0,), (top,))}) == ({}, (top,))
ends = {least: ((2, 1), (top, least)), top: ((2, 1), (least, 0))}
assert cyk.tree_index(ends) == ({top: (least, top)}, (0, top))
cyk.canon_adj(64, make_cycle(64).adj)
for g in (make_path(64), make_cycle(64)):
    assert cyk.metric_dh(64, g.adj) == pyk.metric_dh(64, g.adj)
"""


def test_kernels_c_clean_under_ubsan(ubsan_kernels):
    """The extension built with UndefinedBehaviorSanitizer runs every kernel
    without a report."""
    done = subprocess.run(
        [sys.executable, "-c", _UBSAN_DRIVER, str(ubsan_kernels)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert "runtime error" not in done.stderr
    assert done.returncode == 0, done.stderr
