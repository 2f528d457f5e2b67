"""The zero forcing process, exact counts of forcing sets by size, and forts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

from . import kernels
from .errors import CapacityError
from .graphs import Graph, bits

DEFAULT_SUBSET_BUDGET = 20
# The largest budget honoured: the compiled fort table holds 2^n bits.
PROFILE_MAX_N = 32


def closure(g: Graph, s: int) -> int:
    """Least fixed point of the color-change rule containing the blue mask."""
    if s & ~g.full_mask:
        raise ValueError("blue set exceeds the vertex universe")
    return kernels.closure_mask(g.n, g.adj, s)


def is_forcing(g: Graph, s: int) -> bool:
    return closure(g, s) == g.full_mask


@dataclass(frozen=True, slots=True)
class ZfProfile:
    """Counts of forcing (z) and non-forcing (zprime) k-subsets, k = 0..n."""

    n: int
    z: tuple[int, ...]
    zprime: tuple[int, ...]

    @property
    def zf_number(self) -> Optional[int]:
        """Z(G): least k with a forcing k-set; None for the empty graph."""
        if self.n == 0:
            return None
        for k, v in enumerate(self.z):
            if v:
                return k
        return None  # unreachable: z[n] = 1 for n >= 1

    def z_at(self, k: int) -> int:
        if 0 <= k <= self.n:
            return self.z[k]
        return 0

    def zprime_at(self, k: int) -> int:
        if 0 <= k <= self.n:
            return self.zprime[k]
        return 0

    @property
    def poly_coeffs(self) -> tuple[int, ...]:
        """Zero forcing polynomial coefficients for x^1..x^n."""
        return self.z[1:]


@lru_cache(maxsize=65536)
def _profile_cached(n: int, adj: tuple[int, ...]) -> ZfProfile:
    z = tuple(kernels.profile_counts(n, adj))
    zprime = tuple(comb(n, k) - z[k] for k in range(n + 1))
    return ZfProfile(n, z, zprime)


def zf_profile(g: Graph, budget: Optional[int] = None) -> ZfProfile:
    """Exact profile by subset enumeration; refuses graphs over the budget."""
    limit = DEFAULT_SUBSET_BUDGET if budget is None else min(budget, PROFILE_MAX_N)
    if g.n > limit:
        raise CapacityError(
            f"subset enumeration over {g.n} vertices exceeds budget {limit}"
        )
    return _profile_cached(g.n, g.adj)


def is_fort(g: Graph, f: int) -> bool:
    """True iff every outside vertex has 0 or >= 2 neighbors in f."""
    if f & ~g.full_mask:
        raise ValueError("fort candidate exceeds the vertex universe")
    outside = g.full_mask & ~f
    for w in bits(outside):
        k = (g.adj[w] & f).bit_count()
        if k == 1:
            return False
    return True


def fort_avoidance_floor(g: Graph, f: int) -> tuple[int, ...]:
    """Lower bounds C(n-|f|, k) on the non-forcing counts from a fort."""
    if f == 0 or not is_fort(g, f):
        raise ValueError("fort_avoidance_floor needs a nonempty fort")
    outside = g.n - f.bit_count()
    return tuple(comb(outside, k) for k in range(g.n + 1))
