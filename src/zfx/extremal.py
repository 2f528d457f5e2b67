"""Path profile formulas and path-extremality checks.

A graph G on n vertices is path-extremal when z(G;k) <= z(P_n;k) for every
k, equivalently z'(G;k) >= z'(P_n;k).  All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import InvariantViolation
from .forcing import zf_profile
from .graphs import Graph, find_twin_pair, induced_subgraph, write_graph6


def _c(a: int, b: int) -> int:
    if b < 0 or b > a or a < 0:
        return 0
    return comb(a, b)


def path_zprime(n: int, k: int) -> int:
    """Number of non-forcing k-subsets of the n-path: C(n-k-1, k)."""
    return _c(n - k - 1, k)


def path_z(n: int, k: int) -> int:
    """Number of forcing k-subsets of the n-path."""
    if k < 0 or k > n:
        return 0
    return comb(n, k) - path_zprime(n, k)


@dataclass(frozen=True, slots=True)
class ExtremalVerdict:
    """Outcome of comparing a graph's profile against the n-path.

    ``margins[k]`` is z'(G;k) - z'(P_n;k) when ``method`` is "enumeration";
    for certified shortcut verdicts it is a proven lower bound instead.
    """

    graph6: str
    n: int
    is_path_extremal: bool
    witness_k: Optional[int]
    margins: tuple[int, ...]
    method: str = "enumeration"


def check_path_extremal(g: Graph, budget: Optional[int] = None) -> ExtremalVerdict:
    profile = zf_profile(g, budget)
    margins = tuple(
        profile.zprime[k] - path_zprime(g.n, k) for k in range(g.n + 1)
    )
    witness = None
    for k, m in enumerate(margins):
        if m < 0:
            witness = k
            break
    return ExtremalVerdict(
        graph6=write_graph6(g),
        n=g.n,
        is_path_extremal=witness is None,
        witness_k=witness,
        margins=margins,
    )


def twin_shortcut(g: Graph) -> Optional[ExtremalVerdict]:
    """Certified extremality from a twin pair, without enumeration.

    A twin pair is a 2-vertex fort, so every subset avoiding it is
    non-forcing: z'(G;k) >= C(n-2,k) >= C(n-k-1,k) for k >= 1 (and the k=0
    values agree), which already dominates the path profile.
    """
    if find_twin_pair(g) is None:
        return None
    n = g.n
    margins = [0]  # k = 0: both z' values equal 1 (n >= 2 when twins exist)
    for k in range(1, n + 1):
        margins.append(_c(n - 2, k) - path_zprime(n, k))
    if any(m < 0 for m in margins):
        raise InvariantViolation("twin fort bound fell below the path profile")
    return ExtremalVerdict(
        graph6=write_graph6(g),
        n=n,
        is_path_extremal=True,
        witness_k=None,
        margins=tuple(margins),
        method="twin_fort",
    )


@dataclass(frozen=True, slots=True)
class LeafAuditRow:
    k: int
    zprime_g: int
    zprime_without_leaf: int
    zprime_without_both: int

    @property
    def holds(self) -> bool:
        return self.zprime_g >= self.zprime_without_leaf + self.zprime_without_both


@dataclass(frozen=True, slots=True)
class LeafAudit:
    leaf: int
    neighbor: int
    rows: tuple[LeafAuditRow, ...]

    @property
    def holds(self) -> bool:
        return all(r.holds for r in self.rows)


def audit_leaf_recurrence(g: Graph, x: int, *,
                          budget: Optional[int] = None) -> LeafAudit:
    """Exact check of z'(G;k) >= z'(G-x;k) + z'(G-{x,v};k-1) for all k >= 1,
    where v is the neighbour of the leaf x."""
    if g.degree(x) != 1:
        raise ValueError(f"vertex {x} is not a leaf")
    v = g.adj[x].bit_length() - 1
    p_g = zf_profile(g, budget)
    g_x, _ = induced_subgraph(g, g.full_mask & ~(1 << x))
    g_xv, _ = induced_subgraph(g, g.full_mask & ~(1 << x) & ~(1 << v))
    p_x = zf_profile(g_x, budget)
    p_xv = zf_profile(g_xv, budget)
    rows = tuple(
        LeafAuditRow(k, p_g.zprime_at(k), p_x.zprime_at(k), p_xv.zprime_at(k - 1))
        for k in range(1, g.n + 1)
    )
    return LeafAudit(leaf=x, neighbor=v, rows=rows)


def attach_pendants(q: Graph, attach: list[int]) -> Graph:
    """New graph: q plus one pendant vertex per list entry, appended in order."""
    n = q.n + len(attach)
    adj = list(q.adj) + [0] * len(attach)
    for i, target in enumerate(attach):
        if not 0 <= target < q.n:
            raise ValueError(f"attachment target {target} outside the base graph")
        p = q.n + i
        adj[p] |= 1 << target
        adj[target] |= 1 << p
    return Graph(n, tuple(adj))
