"""Distance-hereditary recognition by greedy leaf/twin elimination, the
metric oracle, and construction replay.

A successful elimination is a certificate: replaying it in reverse as
pendant / false-twin / true-twin additions rebuilds the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .errors import TraceError
from .graphs import Graph, find_leaf, find_twin_pair, induced_subgraph, is_connected

PENDANT = "pendant"
FALSE_TWIN = "false_twin"
TRUE_TWIN = "true_twin"


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One removal: ids are relative to the graph at removal time."""

    op: str
    removed: int
    anchor: int


@dataclass(frozen=True, slots=True)
class EliminationTrace:
    steps: tuple[TraceStep, ...]
    final_ok: bool


def recognize_dh(g: Graph) -> Optional[EliminationTrace]:
    """Greedily strip the least leaf, else the least twin pair.

    Success (reaching K_1) certifies distance-hereditariness; the trace
    replays to the input.  Returns None when a graph with neither leaf nor
    twin is reached.
    """
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
    return EliminationTrace(steps=tuple(steps), final_ok=True)


def _shift_up(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | ((mask >> pos) << (pos + 1))


def _insert_vertex(g: Graph, pos: int, nbrs_new: int) -> Graph:
    """Insert a vertex at index pos with the given (new-label) neighborhood."""
    adj = []
    for w in range(g.n + 1):
        if w == pos:
            adj.append(nbrs_new)
        else:
            old = w if w < pos else w - 1
            row = _shift_up(g.adj[old], pos)
            if (nbrs_new >> w) & 1:
                row |= 1 << pos
            adj.append(row)
    return Graph(g.n + 1, tuple(adj))


def replay_trace(trace: EliminationTrace) -> Graph:
    """Rebuild the recognized graph from K_1 by reversing the removals."""
    if not trace.final_ok:
        raise TraceError("trace did not reach K_1")
    g = Graph(1, (0,))
    for step in reversed(trace.steps):
        m = g.n + 1
        r, a = step.removed, step.anchor
        if not (0 <= r < m and 0 <= a < m) or r == a:
            raise TraceError(f"step ({step.op},{r},{a}) invalid for size {m}")
        a_small = a if a < r else a - 1
        if step.op == PENDANT:
            nbrs = 1 << a
        elif step.op == FALSE_TWIN:
            nbrs = _shift_up(g.adj[a_small], r)
        elif step.op == TRUE_TWIN:
            nbrs = _shift_up(g.adj[a_small], r) | (1 << a)
        else:
            raise TraceError(f"unknown operation {step.op!r}")
        g = _insert_vertex(g, r, nbrs)
    return g


def dh_metric_oracle(g: Graph) -> bool:
    """Independent recognizer: every connected induced subgraph must
    preserve pairwise distances.  Decided on both backends by the
    polynomial separation test of ``_kernels_py.metric_dh``, so no vertex
    count is capped."""
    if not is_connected(g):
        raise ValueError("dh_metric_oracle expects a connected graph")
    return kernels.metric_dh(g.n, g.adj)
