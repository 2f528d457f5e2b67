"""Immutable bitset graphs: constructors, graph6 I/O, isomorphism tools,
and exhaustive small-graph enumeration.

Vertices are 0..n-1 with n capped at 64 so every row and every vertex set
fits in one machine word.  Vertex sets travel as plain int masks throughout
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Optional

from . import kernels
from .errors import CapacityError, Graph6ParseError, InvariantViolation

MAX_VERTICES = 64

# unlabeled graph counts for n = 1..9, used to sanity-check the enumerator
KNOWN_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


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
    kept = []
    local = {}  # vertex bit -> its bit in the subgraph
    m = keep
    while m:
        low = m & -m
        local[low] = 1 << len(kept)
        kept.append(low.bit_length() - 1)
        m ^= low
    adj = []
    for v in kept:
        r = g.adj[v] & keep
        row = 0
        while r:
            low = r & -r
            row |= local[low]
            r ^= low
        adj.append(row)
    return Graph(len(kept), tuple(adj)), tuple(kept)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    comp = component_mask(g, 0)
    return comp == g.full_mask


def component_mask(g: Graph, start: int) -> int:
    """Connected component of ``start``."""
    comp = 1 << start
    frontier = comp
    adj = g.adj
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
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


# _G6_REV[x]: the 6 bits of x in reverse order.  The graph6 bit stream
# runs column by column, (0,1), (0,2), (1,2), (0,3), ..., with the first bit
# of each byte its most significant.  Packed least significant bit first,
# the stream is the integer whose bit v(v-1)/2 + u is set iff uv is an edge,
# so column v is the low v bits of adj[v] shifted by v(v-1)/2, and byte i
# carries bits 6i..6i+5 of it, reversed.
_G6_REV = [int(format(x, "06b")[::-1], 2) for x in range(64)]


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
    stream = 0
    for i, b in enumerate(data[pos:]):
        if not 63 <= b <= 126:
            raise Graph6ParseError("bad edge byte", pos + i)
        stream |= _G6_REV[b - 63] << (6 * i)
    if stream >> nbits:
        raise Graph6ParseError("nonzero padding bits", pos + nbytes - 1)
    adj = [0] * n
    for v in range(1, n):
        col = (stream >> (v * (v - 1) // 2)) & ((1 << v) - 1)
        adj[v] |= col
        bit = 1 << v
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(adj))


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
    stream = 0
    for v in range(1, n):
        stream |= (g.adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
    out.extend(_G6_REV[(stream >> s) & 63] + 63 for s in range(0, n * (n - 1) // 2, 6))
    return bytes(out).decode("ascii")


# --- exhaustive enumeration -----------------------------------------------

ENUM_MAX = 9

_levels: dict[int, tuple[Graph, ...]] = {}


def _min_degree_neighbourhoods(base: tuple[int, ...]) -> Iterator[int]:
    """Every neighbourhood ``nb`` of a new vertex added to ``base`` in which
    the new vertex has minimum degree.

    With ``d`` the least degree of ``base`` and ``low`` its vertices of that
    degree, these are the masks with at most ``d`` bits, and the masks with
    ``d + 1`` bits that contain ``low``: a new vertex of degree ``d + 1``
    must raise every degree-``d`` vertex to ``d + 1``, and one of degree
    ``d + 2`` or more cannot.
    """
    degrees = [row.bit_count() for row in base]
    d = min(degrees)
    low = sum(1 << i for i, k in enumerate(degrees) if k == d)
    singles = [1 << i for i in range(len(base))]
    for k in range(d + 1):
        for c in combinations(singles, k):
            yield sum(c)
    extra = d + 1 - low.bit_count()
    if extra >= 0:
        for c in combinations([b for b in singles if not b & low], extra):
            yield low | sum(c)


def _twin_classes(adj: tuple[int, ...]) -> list[list[int]]:
    """The classes of two or more twins, each in ascending vertex order.

    Twins u and w have ``adj[u] & ~(1 << w) == adj[w] & ~(1 << u)``: equal
    open neighbourhoods (false twins) or equal closed ones (true twins).
    No vertex has both a true and a false twin, so the classes partition
    the vertices, and each one is all true or all false twins.
    """
    open_nbhd: dict[int, list[int]] = {}
    closed_nbhd: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        open_nbhd.setdefault(row, []).append(v)
        closed_nbhd.setdefault(row | 1 << v, []).append(v)
    return [c for groups in (open_nbhd, closed_nbhd)
            for c in groups.values() if len(c) > 1]


def _enum_level(n: int) -> tuple[Graph, ...]:
    if n in _levels:
        return _levels[n]
    if n == 0:
        reps: tuple[Graph, ...] = (Graph(0, ()),)
    elif n == 1:
        reps = (Graph(1, (0,)),)
    else:
        prev = _enum_level(n - 1)
        top = 1 << (n - 1)
        # added[nb]: what joining a new vertex to nb ORs into each row
        added = [tuple(top if nb >> i & 1 else 0 for i in range(n - 1)) + (nb,)
                 for nb in range(top)]
        seen = set()
        for g in prev:
            adj = g.adj
            base = adj + (0,)
            deg = [row.bit_count() for row in adj]
            d = min(deg)
            # by_deg[j]: the parent's vertices of degree j; sig[v]: the sum
            # of the parent degrees of v's neighbours
            by_deg = [0] * n
            for v, k in enumerate(deg):
                by_deg[k] |= 1 << v
            sig = [sum(deg[u] for u in bits(row)) for row in adj]
            # (u, w) bits of twins adjacent in their class, u < w
            steps = [(1 << c[i - 1], 1 << c[i])
                     for c in _twin_classes(adj) for i in range(1, len(c))]
            for nb in _min_degree_neighbourhoods(adj):
                packed = True
                for u, w in steps:
                    if nb & w and not nb & u:
                        packed = False
                        break
                if not packed:
                    continue
                k = nb.bit_count()
                if k and k >= d:
                    # the other vertices of degree k in the child
                    rivals = (by_deg[k] & ~nb) | (by_deg[k - 1] & nb)
                    if rivals:
                        new_sig = k
                        m = nb
                        while m:
                            low = m & -m
                            new_sig += deg[low.bit_length() - 1]
                            m ^= low
                        while rivals:
                            low = rivals & -rivals
                            v = low.bit_length() - 1
                            s = sig[v] + (adj[v] & nb).bit_count()
                            if nb & low:
                                s += k
                            if s > new_sig:
                                break
                            rivals ^= low
                        if rivals:  # the loop stopped at a larger sigma
                            continue
                seen.add(kernels.canon_adj(n, tuple(map(or_, base, added[nb]))))
        reps = tuple(Graph(n, rows) for rows in sorted(seen))
    _levels[n] = reps
    return reps


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One canonical representative per isomorphism class on n vertices.

    Augments each (n-1)-vertex class by every new-vertex neighborhood in
    which the new vertex has minimum degree, and dedups on the minimum
    adjacency-matrix encoding.  That reaches every class: deleting a
    minimum-degree vertex of any n-vertex graph leaves an (n-1)-vertex
    class, and adding the vertex back is one of the augmentations kept.
    Two prunings drop a neighbourhood before it is canonicalized, and every
    class is still reached (McKay 1998, isomorph-free generation):

    1. Twin packing.  A neighbourhood holding a twin w of the parent but
       not a smaller twin u is dropped.  No vertex has both a true and a
       false twin, so the twin classes partition the vertices, and any
       permutation inside a class is an automorphism of the parent.  It
       maps the neighbourhood to the packed one, which holds the least
       members of each class, and keeps the new vertex of minimum degree.
    2. Canonical deletion.  With sigma(v) the sum of the degrees of v's
       neighbours, a child is dropped when another vertex of the new
       vertex's degree k has a strictly larger sigma; ties are kept.  Every
       class G has a minimum-degree vertex x of largest sigma among them,
       and adding x back to the class of G - x puts the new vertex in x's
       place, so that child, or by 1 its packed image, is kept.  Below the
       parent's least degree the new vertex is the only one of degree k,
       so no sigma is computed.

    Deterministic order (sorted encodings).  Raises ``ValueError`` for
    n < 0 and ``CapacityError`` above ``ENUM_MAX`` at the call, not at the
    first item.
    """
    if n < 0:
        raise ValueError(f"no graphs on {n} vertices")
    if n > ENUM_MAX:
        raise CapacityError(
            f"built-in enumeration stops at n={ENUM_MAX}; "
            "supply larger corpora as graph6 files"
        )
    return (g for g in _enum_level(n) if not connected_only or is_connected(g))
