"""dh: greedy recognition, metric oracle, trace replay."""

from __future__ import annotations

import pytest

from zfx.dh import (
    EliminationTrace,
    TraceStep,
    dh_metric_oracle,
    recognize_dh,
    replay_trace,
)
from zfx.errors import TraceError
from zfx.graphs import (
    Graph,
    are_isomorphic,
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
    assert trace is not None and trace.final_ok
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
    assert replay_trace(EliminationTrace((), True)) == Graph(1, (0,))


def test_replay_rejects_malformed_traces():
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((), False))
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("pendant", 0, 0),), True))
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("pendant", 2, 0),), True))
    with pytest.raises(TraceError):
        replay_trace(EliminationTrace((TraceStep("mystery", 1, 0),), True))


def test_replay_reconstructs_each_op():
    # one addition of each kind on top of P_2
    for op, expect in (
        ("pendant", make_path(3)),
        ("false_twin", graph_from_edges(3, [(0, 2), (1, 2)])),  # relabeled P_3
        ("true_twin", graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])),
    ):
        trace = EliminationTrace(
            (TraceStep(op, 2, 1), TraceStep("pendant", 1, 0)), True
        )
        got = replay_trace(trace)
        assert are_isomorphic(got, expect), op


def test_metric_oracle_examples():
    assert dh_metric_oracle(make_path(6))
    assert not dh_metric_oracle(make_cycle(5))
    assert not dh_metric_oracle(make_cycle(6))
    assert dh_metric_oracle(make_cycle(4))
    assert dh_metric_oracle(make_star(7))


def test_metric_oracle_guards():
    assert dh_metric_oracle(make_path(9))
    with pytest.raises(ValueError):
        dh_metric_oracle(graph_from_edges(3, [(0, 1)]))


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
