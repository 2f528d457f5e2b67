"""Immutable bitset graphs: constructors, graph6 I/O, isomorphism tools,
and exhaustive small-graph enumeration.

Vertices are 0..n-1 with n capped at 64 so every row and every vertex set
fits in one machine word.  Vertex sets travel as plain int masks throughout
the package.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, repeat
from typing import Iterable, Iterator, Optional

from . import kernels
from ._kernels_py import _components, _twin_classes, level_record
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
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return graph_from_edges(n, edges)


def make_complete(n: int) -> Graph:
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def make_star(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
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
    return len(_components(g.n, g.adj)) <= 1


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
    """Lexicographically least twin pair (u, v, kind) with u < v, or None:
    the first two vertices of the twin class with the least first vertex,
    true twins iff adjacent."""
    classes = _twin_classes(g.adj)
    if not classes:
        return None
    u, v = min((c[0], c[1]) for c in classes)
    return (u, v, "true" if g.has_edge(u, v) else "false")


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

# n -> (records, flags): every class on n vertices as one buffer of
# ``level_record(n)`` records in sorted order, and one is_connected byte per
# class.  Level 0 holds one zero-width record, so a level's size is the
# length of its flags.
_levels: dict[int, tuple[bytes, bytes]] = {}


def _enum_level(n: int) -> tuple[bytes, bytes]:
    if n not in _levels:
        if n <= 1:
            _levels[n] = (bytes(2 * n), b"\1")
        else:
            seen: dict[bytes, bool] = {}  # record -> connected
            for rows in _level_rows(n - 1):
                seen.update(kernels.augment(n - 1, rows))
            order = sorted(seen)
            _levels[n] = (b"".join(order), bytes(map(seen.__getitem__, order)))
    return _levels[n]


def _check_level(n: int) -> None:
    if n < 0:
        raise ValueError(f"no graphs on {n} vertices")
    if n > ENUM_MAX:
        raise CapacityError(
            f"built-in enumeration stops at n={ENUM_MAX}; "
            "supply larger corpora as graph6 files"
        )


def _level_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The rows of each class on n vertices, decoded in level order."""
    records, flags = _enum_level(n)
    if n == 0:
        return repeat((), len(flags))
    return level_record(n).iter_unpack(records)


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One canonical representative per isomorphism class on n vertices.

    Augments each (n-1)-vertex class by every new-vertex neighborhood in
    which the new vertex has minimum degree, and dedups on the minimum
    adjacency-matrix encoding.  That reaches every class: deleting a
    minimum-degree vertex of any n-vertex graph leaves an (n-1)-vertex
    class, and adding the vertex back is one of the augmentations kept.
    ``kernels.augment`` runs that step for one parent: it generates the
    neighbourhoods, applies two prunings that drop a neighbourhood before
    it is canonicalized, and canonicalizes the rest.  Every class is still
    reached (McKay 1998, isomorph-free generation):

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

    ``augment`` returns each kept child as a record, its canonical rows
    packed as big-endian uint16 (``level_record``), and whether it is
    connected: it is iff the new vertex's neighbourhood meets every
    component of the parent.  Records of one n have one width and sort as
    the row tuples do, so a level is cached for the process in ``_levels``
    as one sorted buffer of records (4.9 MB at n = 9) with one connected
    byte per class, and each ``Graph`` is decoded from its record when the
    iterator reaches it.  Deterministic order (sorted encodings).  Raises
    ``ValueError`` for n < 0 and ``CapacityError`` above ``ENUM_MAX`` at
    the call, not at the first item.
    """
    _check_level(n)
    rows = _level_rows(n)
    if connected_only:
        rows = compress(rows, _enum_level(n)[1])
    return map(partial(Graph, n), rows)


class LevelView(Sequence):
    """The classes on 1..n_max vertices, or the connected ones, in
    enumeration order: a sized, sliceable sequence of ``Graph``s decoded
    from the level buffers on demand.  It holds the buffers and the
    positions of its items in each, so a slice decodes only its own
    records; a pool worker that inherits the view decodes its own index
    ranges.  Refuses n_max as ``enumerate_graphs`` does."""

    def __init__(self, n_max: int, connected_only: bool = False):
        _check_level(n_max)
        self._levels = []  # (n, records, positions of the items in records)
        self._ends = []  # the number of items up to and including each level
        size = 0
        for n in range(1, n_max + 1):
            records, flags = _enum_level(n)
            positions = range(len(flags))
            if connected_only:
                positions = array("I", compress(positions, flags))
            size += len(positions)
            self._levels.append((n, records, positions))
            self._ends.append(size)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[Graph]:
        return self._from(0)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a level view slices with step 1 only")
            return list(islice(self._from(start), max(0, stop - start)))
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("level view index out of range")
        return next(self._from(index))

    def _from(self, start: int) -> Iterator[Graph]:
        """The items from position ``start`` on."""
        first = bisect_right(self._ends, start)
        skip = start - (self._ends[first - 1] if first else 0)
        for n, records, positions in self._levels[first:]:
            unpack, width = level_record(n).unpack_from, 2 * n
            for i in positions[skip:]:
                yield Graph(n, unpack(records, width * i))
            skip = 0
