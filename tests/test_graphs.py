"""graph-core: constructors, ingestion, isomorphism utilities, enumeration."""

from __future__ import annotations

import hashlib
import random
from functools import partial
from itertools import combinations, permutations
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import _random_adj

from zfx import _kernels_py as pyk
from zfx import graphs, kernels
from zfx._kernels_py import level_record
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
        make_cycle(65)
    with pytest.raises(CapacityError):
        make_complete(100)
    with pytest.raises(CapacityError):
        make_star(65)


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


def _induced_rows_by_relabelling(rows, keep):
    """The oracle for ``_induced_rows``: each kept vertex's bit relabelled
    through a dict, one neighbour at a time."""
    kept = [v for v in range(len(rows)) if keep >> v & 1]
    local = {v: i for i, v in enumerate(kept)}
    return [mask_of(local[w] for w in bits(rows[v] & keep)) for v in kept], kept


def test_induced_rows_match_the_relabelling_oracle(graphs_by_n):
    """Every keep mask of every graph with n <= 6, and seeded random graphs
    and masks up to n = 16."""
    for n, level in graphs_by_n.items():
        for g in level:
            for keep in range(1 << n):
                assert pyk._induced_rows(g.adj, keep) == (
                    _induced_rows_by_relabelling(g.adj, keep))
    rng = random.Random(716)
    for n in range(7, 17):
        for _ in range(40):
            g = Graph(n, _random_adj(rng, n, rng.random()))
            keep = rng.getrandbits(n)
            assert pyk._induced_rows(g.adj, keep) == (
                _induced_rows_by_relabelling(g.adj, keep))


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


def _twin_double_loop(g: Graph):
    """The scan ``find_twin_pair`` ran before it read the twin classes."""
    for u in range(g.n):
        au = g.adj[u]
        for v in range(u + 1, g.n):
            av = g.adj[v]
            if (au >> v) & 1:
                if au & ~(1 << v) == av & ~(1 << u):
                    return (u, v, "true")
            elif au == av:
                return (u, v, "false")
    return None


def test_find_twin_pair_matches_oracle():
    """Every class with n <= 7, disconnected ones included."""
    classes = [g for n in range(8) for g in enumerate_graphs(n)]
    assert len(classes) == 1253
    for g in classes:
        assert find_twin_pair(g) == _twin_scan_oracle(g) == _twin_double_loop(g)


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


# Every refusal of parse_graph6: (line, message, byte offset).
G6_REFUSALS = [
    ("", "empty graph6 line", 0),
    ("D?", "truncated edge data", 2),
    ("C~~", "trailing bytes after edge data", 2),
    ("E?@A@", "trailing bytes after edge data", 4),
    ("C" + chr(62), "bad edge byte", 1),  # below the graph6 range
    ("D?" + chr(127), "bad edge byte", 2),  # above it
    ("A`", "nonzero padding bits", 1),
    ("D~}", "nonzero padding bits", 2),
    ("A\u00e9", "non-ASCII character", 1),  # not read as "?"
    ("~?@", "truncated long-form vertex count", 3),
    ("~??A_", "long-form vertex count below 63", 1),  # kept for n >= 63
    (chr(62), "bad vertex-count byte", 0),
]


def test_graph6_errors_carry_offsets():
    for line, message, offset in G6_REFUSALS:
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(line)
        assert str(exc.value) == f"{message} (byte {offset})"
        assert exc.value.offset == offset
    assert parse_graph6("A_") == make_complete(2)


def _write_graph6_bitloop(g):
    """The encoder before the column-wise one, kept as the oracle: one bit
    of the column-order stream per loop step."""
    n = g.n
    out = [n + 63] if n <= 62 else [126, ((n >> 12) & 63) + 63,
                                    ((n >> 6) & 63) + 63, (n & 63) + 63]
    val = 0
    nb = 0
    for v in range(1, n):
        for u in range(v):
            val = (val << 1) | ((g.adj[u] >> v) & 1)
            nb += 1
            if nb == 6:
                out.append(val + 63)
                val = 0
                nb = 0
    if nb:
        out.append((val << (6 - nb)) + 63)
    return bytes(out).decode("ascii")


def test_graph6_matches_bitloop_oracle():
    for n in range(8):
        for g in enumerate_graphs(n):
            line = _write_graph6_bitloop(g)
            assert write_graph6(g) == line
            assert parse_graph6(line) == g
    for n in (63, 64):
        g = make_path(n)
        assert write_graph6(g) == _write_graph6_bitloop(g)


@settings(max_examples=200, deadline=None)
@given(st.builds(
    lambda n, bits_: graph_from_edges(
        n, [uv for k, uv in enumerate(combinations(range(n), 2)) if (bits_ >> k) & 1]),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=(1 << 2016) - 1),
))
def test_graph6_bitloop_oracle_property(g):
    assert write_graph6(g) == _write_graph6_bitloop(g)
    assert parse_graph6(_write_graph6_bitloop(g)) == g


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


def test_enumeration_digest_to_n8():
    """Every class with 1 <= n <= 8 (13,598 graphs), in enumeration order,
    as graph6 lines: pins the canonical rows and their order."""
    lines = [write_graph6(g) for n in range(1, 9) for g in enumerate_graphs(n)]
    assert len(lines) == 13598
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "430b19930d7e7ad67ee81acdd827def015ea3e0004080f99c9b6f23073c11002"


def level_graphs(n: int, records: bytes) -> Iterator[Graph]:
    """The classes of a level buffer on n >= 1 vertices, decoded in order."""
    return map(partial(Graph, n), level_record(n).iter_unpack(records))


def _levels_to_n9(level9):
    """(n, records, flags) of every level with 1 <= n <= 9."""
    return [(n, *graphs._enum_level(n)) for n in range(1, 9)] + [(9, *level9)]


def test_enumeration_n9_on_compiled_canon(level9):
    """All 274,668 classes at n = 9, built with the compiled ``augment``
    (which canonicalises the children itself)."""
    records, connected = level9
    assert len(connected) == len(records) // 18 == KNOWN_GRAPH_COUNTS[8]
    assert sum(connected) == 261080
    lines = map(write_graph6, level_graphs(9, records))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1534d7af27eadd7885f6959476e15044f16cc7d7459dfea0f95571454f91faca"


def test_level_records_sort_as_row_tuples(level9):
    """For every class with 1 <= n <= 9, the records of a level are in
    increasing order of the classes' row tuples, and each record decodes
    to rows that pack back to it."""
    for n, records, flags in _levels_to_n9(level9):
        record = level_record(n)
        assert len(records) == record.size * len(flags)
        rows = list(record.iter_unpack(records))
        assert all(a < b for a, b in zip(rows, rows[1:])), n
        assert b"".join(record.pack(*r) for r in rows) == records


def test_connected_flags_match_is_connected(level9):
    """The connected byte ``augment`` gives each class is ``is_connected``
    of the class, for every class with 1 <= n <= 9, and ``connected_only``
    yields exactly those classes, in enumeration order."""
    for n, records, flags in _levels_to_n9(level9):
        assert bytes(map(is_connected, level_graphs(n, records))) == flags, n
    for n in range(1, 9):
        assert (list(enumerate_graphs(n, connected_only=True))
                == [g for g in enumerate_graphs(n) if is_connected(g)])
    assert [sum(graphs._enum_level(n)[1]) for n in range(1, 9)] == [
        1, 1, 2, 6, 21, 112, 853, 11117]


def test_levels_0_and_1():
    """Level 0 holds one zero-width record, the empty graph; level 1 holds
    K1.  Both are connected."""
    for connected_only in (False, True):
        assert list(enumerate_graphs(0, connected_only)) == [Graph(0, ())]
        assert list(enumerate_graphs(1, connected_only)) == [Graph(1, (0,))]
    assert graphs._enum_level(0) == (b"", b"\1")


def test_level_view_slices_decode_their_own_records():
    """``LevelView`` gives the same graphs as ``enumerate_graphs`` level by
    level, by iteration, index and slice, connected or not."""
    for connected_only in (False, True):
        every = [g for n in range(1, 7)
                 for g in enumerate_graphs(n, connected_only=connected_only)]
        view = graphs.LevelView(6, connected_only)
        assert len(view) == len(every) and list(view) == every
        assert [view[i] for i in range(-len(every), len(every))] == every + every
        for start, stop in [(0, 0), (0, 5), (3, 40), (40, 3), (100, 10**6)]:
            assert view[start:stop] == every[start:stop]
        with pytest.raises(IndexError):
            view[len(every)]
    assert len(graphs.LevelView(0)) == 0
    with pytest.raises(CapacityError):
        graphs.LevelView(10)


def test_enumeration_capacity_error():
    with pytest.raises(CapacityError):
        list(enumerate_graphs(10))


def test_enumeration_rejects_negative_n():
    with pytest.raises(ValueError):
        list(enumerate_graphs(-1))


def test_enumeration_refuses_at_the_call():
    """The refusals fire when ``enumerate_graphs`` is called, not at the
    first ``next()`` of what it returns."""
    with pytest.raises(CapacityError):
        enumerate_graphs(10)
    with pytest.raises(ValueError):
        enumerate_graphs(-1)


def test_enumeration_canon_calls_to_n8(cyk, monkeypatch):
    """Twin packing and the canonical-deletion test leave 18,058
    canonicalised children for n <= 8 (min-degree augmentation alone made
    32,886), counted per child level as the number of (record, connected)
    pairs ``augment`` returns, on each backend, from an empty private
    level cache."""
    for module in (pyk, cyk):
        calls = dict.fromkeys(range(2, 9), 0)

        def counting(n, adj, augment=module.augment):
            children = augment(n, adj)
            calls[n + 1] += len(children)
            return children

        monkeypatch.setattr(kernels, "augment", counting)
        monkeypatch.setattr(graphs, "_levels", {})
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_GRAPH_COUNTS[n - 1]
        assert calls == {2: 2, 3: 4, 4: 11, 5: 39, 6: 193, 7: 1436, 8: 16373}


def test_twin_classes_true_and_false():
    """A true-twin triangle {0, 1, 2} and false twins {4, 5} around a
    hub 3, plus a pendant 6 on 4 that breaks 4's twin with 5 once added."""
    hub = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4), (3, 5)]
    g = graph_from_edges(6, hub)
    assert sorted(graphs._twin_classes(g.adj)) == [[0, 1, 2], [4, 5]]
    g = graph_from_edges(7, hub + [(4, 6)])
    assert graphs._twin_classes(g.adj) == [[0, 1, 2]]
    assert graphs._twin_classes(make_complete(4).adj) == [[0, 1, 2, 3]]
    assert graphs._twin_classes((0, 0, 0)) == [[0, 1, 2]]
    assert graphs._twin_classes(make_path(4).adj) == []


def _automorphisms(g: Graph):
    for perm in permutations(range(g.n)):
        if all(g.adj[perm[v]] == mask_of(perm[u] for u in bits(g.adj[v]))
               for v in range(g.n)):
            yield perm


def _twin_packed(nb: int, classes) -> bool:
    """No twins u < w with w in ``nb`` and u not."""
    return all(not (nb >> w & 1 and not nb >> u & 1)
               for c in classes for u, w in combinations(c, 2))


def test_twin_packing_keeps_an_image_of_every_pruned_neighbourhood(graphs_by_n):
    """For every parent with 1 <= n <= 6, each min-degree neighbourhood
    that twin packing drops is mapped by an automorphism of the parent to
    one it keeps, so the child's class is still reached."""
    pruned = 0
    for n in range(1, 7):
        for g in graphs_by_n[n]:
            classes = graphs._twin_classes(g.adj)
            candidates = set(pyk._min_degree_neighbourhoods(g.adj))
            dropped = [nb for nb in candidates if not _twin_packed(nb, classes)]
            if not dropped:
                continue
            autos = list(_automorphisms(g))
            for nb in dropped:
                images = {mask_of(perm[v] for v in bits(nb)) for perm in autos}
                assert any(_twin_packed(im, classes) and im in candidates
                           for im in images)
            pruned += len(dropped)
    assert pruned > 0


def _full_augmentation(level):
    """The enumerator's previous step, kept as the oracle: every class on
    n - 1 vertices with every neighbourhood of a new vertex."""
    seen = set()
    for g in level:
        for nb in range(1 << g.n):
            adj = [g.adj[i] | (((nb >> i) & 1) << g.n) for i in range(g.n)]
            adj.append(nb)
            seen.add(kernels.canon_adj(g.n + 1, adj))
    return seen


def test_min_degree_augmentation_matches_full_augmentation():
    """Level by level to n = 7: the same canonical rows as the full
    augmentation, and the generated neighbourhoods are exactly those where
    the new vertex has minimum degree, each once."""
    for n in range(2, 8):
        prev = list(enumerate_graphs(n - 1))
        assert {g.adj for g in enumerate_graphs(n)} == _full_augmentation(prev)
        for g in prev:
            wanted = [
                nb for nb in range(1 << g.n)
                if all(nb.bit_count() <= row.bit_count() + (nb >> i & 1)
                       for i, row in enumerate(g.adj))
            ]
            assert sorted(pyk._min_degree_neighbourhoods(g.adj)) == wanted


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
