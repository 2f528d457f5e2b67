"""dh: greedy recognition, metric oracle, trace replay."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import compress
from typing import Optional

import pytest
from test_kernels import _metric_dh_literal

from zfx.dh import (
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    EliminationTrace,
    TraceStep,
    dh_metric_oracle,
    recognize_dh,
    replay_trace,
)
from zfx.errors import TraceError
from zfx.graphs import (
    Graph,
    enumerate_graphs,
    are_isomorphic,
    bits,
    canonical_form,
    find_leaf,
    find_twin_pair,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    make_cycle,
    make_path,
    make_star,
)


def test_recognize_path():
    trace = recognize_dh(make_path(5))
    assert trace is not None
    assert [s.op for s in trace.steps] == ["pendant"] * 4
    assert replay_trace(trace) == make_path(5)


def test_recognize_c4():
    trace = recognize_dh(make_cycle(4))
    assert trace is not None
    assert trace.steps[0].op == "false_twin"
    assert all(s.op == "pendant" for s in trace.steps[1:])
    assert replay_trace(trace) == make_cycle(4)


def test_recognize_c5_fails():
    assert recognize_dh(make_cycle(5)) is None


def test_recognize_rejects_bad_input():
    with pytest.raises(ValueError):
        recognize_dh(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        recognize_dh(Graph(0, ()))


def test_replay_empty_trace_is_k1():
    assert replay_trace(EliminationTrace(())) == Graph(1, (0,))


def test_replay_rejects_malformed_traces():
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("pendant", 0, 0),)))
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("pendant", 2, 0),)))
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("mystery", 1, 0),)))


def test_replay_reconstructs_each_op():
    # one addition of each kind on top of P_2
    for op, expect in (
        ("pendant", make_path(3)),
        ("false_twin", graph_from_edges(3, [(0, 2), (1, 2)])),  # relabeled P_3
        ("true_twin", graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])),
    ):
        trace = EliminationTrace((TraceStep(op, 2, 1), TraceStep("pendant", 1, 0)))
        got = replay_trace(trace)
        assert are_isomorphic(got, expect), op


def test_metric_oracle_examples():
    assert dh_metric_oracle(make_path(6))
    assert not dh_metric_oracle(make_cycle(5))
    assert not dh_metric_oracle(make_cycle(6))
    assert dh_metric_oracle(make_cycle(4))
    assert dh_metric_oracle(make_star(7))


def test_metric_oracle_guards():
    """No connectivity guard: the oracle is the literal definition on all
    256 disconnected classes with n <= 7, a graph being distance-hereditary
    iff each of its components is."""
    assert dh_metric_oracle(make_path(9))
    assert dh_metric_oracle(graph_from_edges(3, [(0, 1)]))
    c5_k1 = Graph(6, make_cycle(5).adj + (0,))
    assert not dh_metric_oracle(c5_k1)
    disconnected = [g for n in range(8) for g in enumerate_graphs(n)
                    if g.n and not is_connected(g)]
    assert len(disconnected) == 256
    for g in disconnected:
        assert dh_metric_oracle(g) == _metric_dh_literal(g.n, g.adj)


def test_certificate_soundness_small(connected_by_n):
    for n in range(1, 7):
        for g in connected_by_n[n]:
            trace = recognize_dh(g)
            if trace is not None:
                assert replay_trace(trace) == g


def test_recognizers_agree(connected_by_n):
    for n in range(1, 8):
        for g in connected_by_n[n]:
            assert (recognize_dh(g) is not None) == dh_metric_oracle(g)


def test_dh_dichotomy_leaf_or_twin(connected_by_n):
    for n in range(2, 8):
        for g in connected_by_n[n]:
            if dh_metric_oracle(g):
                assert find_leaf(g) is not None or find_twin_pair(g) is not None


def test_dh_hereditary(connected_by_n):
    """Connected induced subgraphs of DH graphs stay DH (n <= 7, deduped)."""
    seen_dh = set()
    for n in range(1, 8):
        for g in connected_by_n[n]:
            if not dh_metric_oracle(g):
                continue
            for mask in range(1, g.full_mask + 1):
                sub, _ = induced_subgraph(g, mask)
                if not is_connected(sub):
                    continue
                key = canonical_form(sub).adj
                if key in seen_dh:
                    continue
                seen_dh.add(key)
                assert dh_metric_oracle(sub)


def _recognize_dh_reference(g: Graph) -> Optional[EliminationTrace]:
    """The literal greedy, the reference ``recognize_dh`` must match: one
    induced subgraph per step, searched with ``find_leaf`` and
    ``find_twin_pair``."""
    if g.n < 1:
        raise ValueError("recognize_dh needs at least one vertex")
    if not is_connected(g):
        raise ValueError("recognize_dh expects a connected graph")
    steps = []
    cur = g
    while cur.n > 1:
        leaf = find_leaf(cur)
        if leaf is not None:
            removed = leaf
            anchor = cur.adj[leaf].bit_length() - 1
            op = PENDANT
        else:
            pair = find_twin_pair(cur)
            if pair is None:
                return None
            u, v, kind = pair
            removed, anchor = v, u
            op = TRUE_TWIN if kind == "true" else FALSE_TWIN
        steps.append(TraceStep(op, removed, anchor))
        cur, _ = induced_subgraph(cur, cur.full_mask & ~(1 << removed))
    return EliminationTrace(steps=tuple(steps))


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


def _random_dh(rng: random.Random, n: int) -> Graph:
    """A connected DH graph grown from K_1 by random pendant, false-twin and
    true-twin additions, randomly relabelled."""
    adj = [0]
    for v in range(1, n):
        a = rng.randrange(v)
        op = rng.choice((PENDANT, FALSE_TWIN, TRUE_TWIN) if adj[a] else (PENDANT, TRUE_TWIN))
        nbrs = 1 << a if op == PENDANT else adj[a] | (1 << a if op == TRUE_TWIN else 0)
        for u in bits(nbrs):
            adj[u] |= 1 << v
        adj.append(nbrs)
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[w]) for u in range(n)
                                for w in bits(adj[u]) if u < w])


def _assert_matches_reference(g: Graph) -> bool:
    trace = recognize_dh(g)
    assert trace == _recognize_dh_reference(g), g
    if trace is not None:
        assert replay_trace(trace) == g, g
    return trace is not None


def test_recognizer_matches_the_reference_to_n8():
    """Every connected class with n <= 8 (1,893 of them DH)."""
    dh = sum(_assert_matches_reference(g)
             for n in range(1, 9) for g in enumerate_graphs(n, connected_only=True))
    assert dh == 1893


def test_recognizer_matches_the_reference_random_to_n16():
    """Seeded random connected labelled graphs with 9 <= n <= 16: G(n, p),
    DH graphs grown by one-vertex additions, and the same with one random
    edge added, which may leave a graph that fails late."""
    rng = random.Random(1116)
    verdicts = []
    for n in range(9, 17):
        for _ in range(12):
            dh = _random_dh(rng, n)
            u, w = rng.sample(range(n), 2)
            cases = [_random_graph(rng, n, rng.uniform(0.25, 0.6)), dh,
                     graph_from_edges(n, [*dh.edges(), (u, w)])]
            verdicts += [_assert_matches_reference(g) for g in cases if is_connected(g)]
    assert len(verdicts) > 260 and 0 < sum(verdicts) < len(verdicts)


def test_traces_pinned_to_n9(level9):
    """Every trace, or None, of the connected classes with n <= 9 (273,193
    graphs) in enumeration order, over one sha256."""
    level, connected = level9
    corpus = [g for n in range(1, 9) for g in enumerate_graphs(n, connected_only=True)]
    corpus += compress(level, connected)
    out = []
    for g in corpus:
        trace = recognize_dh(g)
        out.append(None if trace is None
                   else [[s.op, s.removed, s.anchor] for s in trace.steps])
    assert len(out) == 273193
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "9595ef4cf2e7085e9db8592d878bf1c4ff87b1d203955e475b334b2be243a255")
