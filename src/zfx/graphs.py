"""Immutable bitset graphs: constructors, graph6 I/O, isomorphism tools,
and exhaustive small-graph enumeration.

Vertices are 0..n-1 with n capped at 64 so every row and every vertex set
fits in one machine word.  Vertex sets travel as plain int masks throughout
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import kernels
from .errors import CapacityError, Graph6ParseError, InvariantViolation

MAX_VERTICES = 64

# unlabeled graph counts for n = 1..8, used to sanity-check the enumerator
KNOWN_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; ``adj[i]`` has bit j set iff ij is an edge."""

    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for j in bits(rest):
                yield (u, u + 1 + j)

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2


@dataclass(frozen=True, slots=True)
class GraphKind:
    """Degenerate-label classification: clique, star (with center), or other."""

    tag: str
    center: Optional[int] = None


def check_graph(g: Graph) -> None:
    """Raise unless adjacency is symmetric, irreflexive, and within range."""
    if not 0 <= g.n <= MAX_VERTICES:
        raise InvariantViolation(f"vertex count {g.n} out of range")
    if len(g.adj) != g.n:
        raise InvariantViolation("adjacency row count differs from n")
    full = g.full_mask
    for u in range(g.n):
        row = g.adj[u]
        if row & ~full:
            raise InvariantViolation(f"row {u} has bits beyond n")
        if (row >> u) & 1:
            raise InvariantViolation(f"loop at {u}")
        for v in bits(row):
            if not (g.adj[v] >> u) & 1:
                raise InvariantViolation(f"asymmetric pair {u},{v}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices (got {n})")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u},{v}) for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def make_path(n: int) -> Graph:
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices (got {n})")
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices (got {n})")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return graph_from_edges(n, edges)


def make_complete(n: int) -> Graph:
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices (got {n})")
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def make_star(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices (got {n})")
    return graph_from_edges(n, ((0, i) for i in range(1, n)))


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the mask ``keep`` plus the order-preserving map
    from new index to original vertex."""
    if keep & ~g.full_mask:
        raise ValueError("keep mask exceeds the vertex universe")
    kept = tuple(bits(keep))
    index = {v: i for i, v in enumerate(kept)}
    adj = []
    for v in kept:
        row = 0
        for w in bits(g.adj[v] & keep):
            row |= 1 << index[w]
        adj.append(row)
    return Graph(len(kept), tuple(adj)), kept


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    comp = component_mask(g, 0)
    return comp == g.full_mask


def component_mask(g: Graph, start: int) -> int:
    """Connected component of ``start``."""
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def classify_kind(g: Graph) -> GraphKind:
    """Clique / star / other, preferring clique for the ambiguous K_2.

    Read off the degrees: a clique has degree sum n(n-1); a star has degree
    sum 2(n-1) and a vertex of degree n-1, its center.
    """
    n = g.n
    degrees = [row.bit_count() for row in g.adj]
    total = sum(degrees)
    if total == n * (n - 1):
        return GraphKind("clique")
    if total == 2 * (n - 1) and n - 1 in degrees:
        return GraphKind("star", center=degrees.index(n - 1))
    return GraphKind("other")


def find_leaf(g: Graph) -> Optional[int]:
    for v in range(g.n):
        if g.degree(v) == 1:
            return v
    return None


def find_twin_pair(g: Graph) -> Optional[tuple[int, int, str]]:
    """Lexicographically least twin pair (u, v, kind) with u < v, or None."""
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


def canonical_form(g: Graph) -> Graph:
    """The graph relabeled to minimize its adjacency-matrix encoding."""
    return Graph(g.n, kernels.canon_adj(g.n, g.adj))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.adj[v].bit_count() for v in range(g.n)) != sorted(
        h.adj[v].bit_count() for v in range(h.n)
    ):
        return False
    return kernels.canon_adj(g.n, g.adj) == kernels.canon_adj(h.n, h.adj)


# --- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` prefix tolerated)."""
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 line", 0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII character", exc.start) from None
    pos = 0
    c = data[pos]
    if c == 126:  # '~': long form
        if len(data) < 4:
            raise Graph6ParseError("truncated long-form vertex count", len(data))
        if data[1] == 126:
            raise Graph6ParseError("graph6 >68719476735 vertices unsupported", 1)
        n = 0
        for i in range(1, 4):
            if not 63 <= data[i] <= 126:
                raise Graph6ParseError("bad byte in vertex count", i)
            n = (n << 6) | (data[i] - 63)
        if n < 63:  # graph6 keeps the long form for n >= 63
            raise Graph6ParseError("long-form vertex count below 63", 1)
        pos = 4
    else:
        if not 63 <= c <= 126:
            raise Graph6ParseError("bad vertex-count byte", 0)
        n = c - 63
        pos = 1
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 input has {n} vertices (max {MAX_VERTICES})")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError("truncated edge data", len(data))
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after edge data", pos + nbytes)
    adj = [0] * n
    bit = 0
    for i in range(nbytes):
        b = data[pos + i]
        if not 63 <= b <= 126:
            raise Graph6ParseError("bad edge byte", pos + i)
        val = b - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if (val >> k) & 1:
                    raise Graph6ParseError("nonzero padding bits", pos + i)
                continue
            if (val >> k) & 1:
                u, v = _g6_bit_to_pair(bit)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
    return Graph(n, tuple(adj))


def _g6_bit_to_pair(bit: int) -> tuple[int, int]:
    # column order: (0,1), (0,2), (1,2), (0,3), ...
    v = 1
    while v * (v - 1) // 2 <= bit:
        v += 1
    v -= 1
    return bit - v * (v - 1) // 2, v


def write_graph6(g: Graph) -> str:
    n = g.n
    out = []
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
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


# --- exhaustive enumeration -----------------------------------------------

ENUM_MAX = 8

_levels: dict[int, tuple[Graph, ...]] = {}


def _enum_level(n: int) -> tuple[Graph, ...]:
    if n in _levels:
        return _levels[n]
    if n == 0:
        reps: tuple[Graph, ...] = (Graph(0, ()),)
    elif n == 1:
        reps = (Graph(1, (0,)),)
    else:
        prev = _enum_level(n - 1)
        seen = set()
        for g in prev:
            base = g.adj
            for nb in range(1 << (n - 1)):
                adj = [base[i] | (((nb >> i) & 1) << (n - 1)) for i in range(n - 1)]
                adj.append(nb)
                seen.add(kernels.canon_adj(n, adj))
        reps = tuple(Graph(n, rows) for rows in sorted(seen))
    _levels[n] = reps
    return reps


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One canonical representative per isomorphism class on n vertices.

    Augments the (n-1)-vertex classes by every possible new-vertex
    neighborhood and dedups on the minimum adjacency-matrix encoding.
    Deterministic order (sorted encodings).
    """
    if n > ENUM_MAX:
        raise CapacityError(
            f"built-in enumeration stops at n={ENUM_MAX}; "
            "supply larger corpora as graph6 files"
        )
    for g in _enum_level(n):
        if connected_only and not is_connected(g):
            continue
        yield g
