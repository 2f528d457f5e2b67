"""Distance-hereditary recognition by greedy leaf/twin elimination, the
metric oracle, and construction replay.

The elimination runs on a mask of live vertices over the input's rows, so
no graph is built per step.  A successful elimination is a certificate:
replaying it in reverse as pendant / false-twin / true-twin additions
rebuilds the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .errors import TraceError
from .graphs import Graph, bits, is_connected

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

    The graph at each step is the subgraph induced by the mask ``live`` of
    the vertices not yet removed; no graph is built per step.

    - The least leaf is the lowest live vertex with one live neighbour.  It
      is removed, and that neighbour is the anchor.
    - Otherwise the least twin pair (u, v), u < v, has the least u, then
      the least v.  One pass over the live vertices looks up each v's
      ``adj[v] & live`` (equal for false twins) and the same with v's bit
      added (equal for true twins) among the keys of the earlier vertices
      that met no key.  The first hit in a twin class is its two lowest
      vertices, and the pair kept has the least u.  v is removed and u is
      the anchor.  One dict holds both kinds of key, since no open
      neighbourhood equals a closed one.
    - A vertex's id in a step is ``(live & (bit - 1)).bit_count()``, its
      rank among the live vertices: the index it has in the
      order-preserving induced subgraph on ``live`` at removal time.

    Success (reaching K_1) certifies distance-hereditariness; the trace
    replays to the input.  Returns None when a graph with neither leaf nor
    twin is reached.
    """
    if g.n < 1:
        raise ValueError("recognize_dh needs at least one vertex")
    if not is_connected(g):
        raise ValueError("recognize_dh expects a connected graph")
    adj = g.adj
    live = g.full_mask
    steps = []
    while live & (live - 1):  # two or more live vertices
        m = live
        while m:
            low = m & -m
            nbrs = adj[low.bit_length() - 1] & live
            if nbrs.bit_count() == 1:
                break
            m ^= low
        if m:
            op, removed, anchor = PENDANT, low, nbrs
        else:
            first: dict[int, int] = {}  # open or closed key -> its class's first bit
            pair = None  # (op, removed bit, anchor bit)
            m = live
            while m:
                low = m & -m
                m ^= low
                row = adj[low.bit_length() - 1] & live
                u = first.get(row)
                op = FALSE_TWIN
                if u is None:
                    u = first.get(row | low)
                    op = TRUE_TWIN
                if u is None:
                    first[row] = first[row | low] = low
                elif pair is None or u < pair[2]:
                    pair = (op, low, u)
            if pair is None:
                return None
            op, removed, anchor = pair
        steps.append(TraceStep(op, (live & (removed - 1)).bit_count(),
                               (live & (anchor - 1)).bit_count()))
        live ^= removed
    return EliminationTrace(steps=tuple(steps), final_ok=True)


def _shift_up(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | ((mask >> pos) << (pos + 1))


def replay_trace(trace: EliminationTrace) -> Graph:
    """Rebuild the recognized graph from K_1 by reversing the removals.

    Works on a list of rows, one vertex inserted per step at its recorded
    id, and builds one ``Graph`` at the end.  Each step is checked on its
    own (ids in range and distinct, a known operation), independently of
    how the recognizer chose it.
    """
    if not trace.final_ok:
        raise TraceError("trace did not reach K_1")
    rows = [0]
    for step in reversed(trace.steps):
        m = len(rows) + 1
        r, a = step.removed, step.anchor
        if not (0 <= r < m and 0 <= a < m) or r == a:
            raise TraceError(f"step ({step.op},{r},{a}) invalid for size {m}")
        a_small = a if a < r else a - 1
        if step.op == PENDANT:
            nbrs = 1 << a
        elif step.op == FALSE_TWIN:
            nbrs = _shift_up(rows[a_small], r)
        elif step.op == TRUE_TWIN:
            nbrs = _shift_up(rows[a_small], r) | (1 << a)
        else:
            raise TraceError(f"unknown operation {step.op!r}")
        rows = [_shift_up(row, r) for row in rows]
        rows.insert(r, nbrs)
        bit = 1 << r
        for w in bits(nbrs):
            rows[w] |= bit
    return Graph(len(rows), tuple(rows))


def dh_metric_oracle(g: Graph) -> bool:
    """Independent recognizer: every connected induced subgraph must
    preserve pairwise distances.  Decided on both backends by the
    polynomial separation test of ``_kernels_py.metric_dh``, so no vertex
    count is capped; the test is exact on disconnected graphs as well, where
    it holds iff it holds on every component."""
    return kernels.metric_dh(g.n, g.adj)
