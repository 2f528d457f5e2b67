"""graph-core: constructors, ingestion, isomorphism utilities, enumeration."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfx.errors import CapacityError, Graph6ParseError
from zfx.graphs import (
    Graph,
    GraphKind,
    are_isomorphic,
    bits,
    canonical_form,
    check_graph,
    classify_kind,
    enumerate_graphs,
    find_leaf,
    find_twin_pair,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    parse_graph6,
    write_graph6,
    KNOWN_GRAPH_COUNTS,
)

random_graph = st.builds(
    lambda n, bits_: graph_from_edges(
        n,
        [
            (u, v)
            for k, (u, v) in enumerate(combinations(range(n), 2))
            if (bits_ >> k) & 1
        ],
    ),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0),
)


# --- constructors ------------------------------------------------------------


def test_make_path_examples():
    assert make_path(1) == Graph(1, (0,))
    assert set(make_path(4).edges()) == {(0, 1), (1, 2), (2, 3)}
    assert make_path(0) == Graph(0, ())


def test_make_complete_star_cycle():
    assert make_complete(3).edge_count() == 3
    star = make_star(4)
    assert set(bits(star.adj[0])) == {1, 2, 3}
    cyc = make_cycle(5)
    assert cyc.edge_count() == 5
    assert all(cyc.degree(v) == 2 for v in range(5))


def test_constructor_domain_errors():
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_star(1)
    with pytest.raises(CapacityError):
        make_path(65)
    with pytest.raises(CapacityError):
        make_complete(100)


def test_constructor_outputs_pass_validator(graphs_by_n):
    for builder in (make_path, make_complete):
        for n in range(0, 9):
            check_graph(builder(n))
    for n in range(3, 9):
        check_graph(make_cycle(n))
        check_graph(make_star(n))
    for n, graphs in graphs_by_n.items():
        for g in graphs[: 40]:
            check_graph(g)


# --- induced subgraphs ---------------------------------------------------------


def test_induced_subgraph_examples():
    sub, kept = induced_subgraph(make_path(4), mask_of([0, 1, 2]))
    assert sub == make_path(3) and kept == (0, 1, 2)
    sub, _ = induced_subgraph(make_cycle(5), mask_of([0, 1, 2, 3]))
    assert sub == make_path(4)
    sub, _ = induced_subgraph(make_complete(4), mask_of([0, 2]))
    assert sub == make_complete(2)


def test_induced_subgraph_full_set_is_isomorphic(graphs_by_n):
    for g in graphs_by_n[5]:
        sub, kept = induced_subgraph(g, g.full_mask)
        assert sub == g and kept == tuple(range(5))


def test_induced_subgraph_bad_mask():
    with pytest.raises(ValueError):
        induced_subgraph(make_path(3), 0b1000)


# --- leaves and twins -----------------------------------------------------------


def test_find_leaf_examples():
    assert find_leaf(make_path(4)) == 0
    assert find_leaf(make_cycle(4)) is None
    assert find_leaf(make_star(4)) == 1  # leaves are 1,2,3


def test_find_twin_pair_examples():
    assert find_twin_pair(make_cycle(4)) == (0, 2, "false")
    assert find_twin_pair(make_complete(3)) == (0, 1, "true")
    assert find_twin_pair(make_cycle(5)) is None


def _twin_scan_oracle(g: Graph):
    """Independent set-based scan in the same lexicographic order."""
    nbrs = [set(bits(g.adj[v])) for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v in nbrs[u]:
                if nbrs[u] - {v} == nbrs[v] - {u}:
                    return (u, v, "true")
            elif nbrs[u] == nbrs[v]:
                return (u, v, "false")
    return None


def test_find_twin_pair_matches_oracle(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            assert find_twin_pair(g) == _twin_scan_oracle(g)


# --- isomorphism ---------------------------------------------------------------


def test_are_isomorphic_basic():
    g = graph_from_edges(4, [(2, 3), (1, 2), (0, 3)])  # a relabeled P4
    assert are_isomorphic(g, make_path(4))
    assert not are_isomorphic(make_path(5), make_cycle(5))
    assert are_isomorphic(Graph(0, ()), Graph(0, ()))


@settings(max_examples=150, deadline=None)
@given(random_graph, st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    h = Graph(g.n, tuple(adj))
    assert canonical_form(g) == canonical_form(h)
    assert are_isomorphic(g, h)


def _classify_kind_by_definition(g: Graph) -> GraphKind:
    """Reference: every vertex of degree n-1, else the first vertex of degree
    n-1 whose other vertices all have degree 1."""
    n = g.n
    if all(g.degree(v) == n - 1 for v in range(n)):
        return GraphKind("clique")
    for c in range(n):
        if g.degree(c) == n - 1 and all(g.degree(v) == 1 for v in range(n) if v != c):
            return GraphKind("star", center=c)
    return GraphKind("other")


def test_classify_kind():
    assert classify_kind(make_complete(4)).tag == "clique"
    assert classify_kind(make_complete(2)).tag == "clique"
    k = classify_kind(make_star(4))
    assert k.tag == "star" and k.center == 0
    p3 = classify_kind(make_path(3))
    assert p3.tag == "star" and p3.center == 1
    assert classify_kind(make_cycle(5)).tag == "other"
    checked = 0
    for n in range(7):  # every labelled graph, not one per class
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, (p for k, p in enumerate(pairs) if mask >> k & 1))
            assert classify_kind(g) == _classify_kind_by_definition(g)
            checked += 1
    assert checked == 33868


# --- graph6 ----------------------------------------------------------------------


def test_graph6_known_decodings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count() == 6  # per the 6-bit byte layout
    g = parse_graph6("D?{")
    assert g.n == 5
    assert are_isomorphic(g, make_star(5))


def test_graph6_round_trip(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            assert parse_graph6(write_graph6(g)) == g
    p5 = make_path(5)
    assert parse_graph6(write_graph6(p5)) == p5


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")


def test_graph6_long_form_round_trip():
    for n in (63, 64):
        g = make_path(n)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("D?")  # truncated
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError):
        parse_graph6("C~~")  # trailing bytes
    with pytest.raises(Graph6ParseError):
        parse_graph6("C" + chr(62))  # byte below the graph6 range
    with pytest.raises(Graph6ParseError):
        parse_graph6("A`")  # nonzero padding bits
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("A\u00e9")  # non-ASCII, not read as "?"
    assert exc.value.offset == 1
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("~??A_")  # K2 in the long form, which is kept for n >= 63
    assert exc.value.offset == 1
    assert parse_graph6("A_") == make_complete(2)


@settings(max_examples=80, deadline=None)
@given(random_graph)
def test_graph6_round_trip_property(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_graph6_fuzz(line):
    """Any text is refused with a graph6 or capacity error, or is made of
    graph6 bytes 63..126 and comes back byte for byte from write_graph6."""
    try:
        g = parse_graph6(line)
    except (Graph6ParseError, CapacityError):
        return
    body = line.strip().removeprefix(">>graph6<<")
    assert all(63 <= ord(c) <= 126 for c in body)
    assert parse_graph6(write_graph6(g)) == g
    assert write_graph6(g) == body


# --- enumeration -------------------------------------------------------------------


def test_enumeration_counts(graphs_by_n):
    for n in range(1, 7):
        assert len(graphs_by_n[n]) == KNOWN_GRAPH_COUNTS[n - 1]
    assert len(list(enumerate_graphs(7))) == KNOWN_GRAPH_COUNTS[6]


def test_enumeration_examples(graphs_by_n):
    assert len(graphs_by_n[3]) == 4
    assert len(graphs_by_n[4]) == 11
    assert sum(1 for g in graphs_by_n[4] if is_connected(g)) == 6


def test_enumeration_capacity_error():
    with pytest.raises(CapacityError):
        list(enumerate_graphs(9))


def _naive_min_encoding(g: Graph) -> int:
    best = None
    for perm in permutations(range(g.n)):
        acc = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                acc = (acc << 1) | ((g.adj[perm[i]] >> perm[j]) & 1)
        if best is None or acc < best:
            best = acc
    return best or 0


def _encoding_of(g: Graph) -> int:
    acc = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
    return acc


def test_enumeration_against_edge_mask_brute_force(graphs_by_n):
    """Independent oracle: dedup all edge masks by the literal factorial
    minimum encoding, for n <= 5."""
    for n in range(0, 6):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for em in range(1 << len(pairs)):
            g = graph_from_edges(n, [p for k, p in enumerate(pairs) if (em >> k) & 1])
            seen.add(_naive_min_encoding(g))
        ours = {_encoding_of(g) for g in graphs_by_n[n]}
        assert ours == seen
        for g in graphs_by_n[n]:
            assert _encoding_of(g) == _naive_min_encoding(g)


def test_enumeration_is_sorted_and_deterministic(graphs_by_n):
    rows = [g.adj for g in graphs_by_n[5]]
    assert rows == sorted(rows)
    again = [g.adj for g in enumerate_graphs(5)]
    assert rows == again
