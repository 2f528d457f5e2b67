"""forcing: closure, exact profiles, forts."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfx.errors import CapacityError
from zfx.forcing import closure, is_forcing, zf_profile
from zfx.graphs import (
    Graph,
    bits,
    find_twin_pair,
    graph_from_edges,
    make_complete,
    make_cycle,
    make_path,
    mask_of,
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


def _naive_closure(g: Graph, s: int) -> int:
    """Oracle: rescan all vertices in descending order until stable."""
    blue = s
    changed = True
    while changed:
        changed = False
        for v in reversed(range(g.n)):
            if (blue >> v) & 1:
                white = g.adj[v] & ~blue
                if white and not (white & (white - 1)):
                    blue |= white
                    changed = True
    return blue


def _naive_profile(g: Graph) -> list[int]:
    if g.n == 0:
        return [1]
    z = [0] * (g.n + 1)
    for m in range(1 << g.n):
        if _naive_closure(g, m) == g.full_mask:
            z[bin(m).count("1")] += 1
    return z


# --- closure -------------------------------------------------------------------


def test_closure_examples():
    assert closure(make_path(3), 0b001) == 0b111
    assert closure(make_complete(3), 0b001) == 0b001
    assert closure(make_cycle(4), 0b0011) == 0b1111


def test_closure_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        closure(make_path(3), 0b1000)


def test_is_forcing_examples():
    assert is_forcing(make_path(4), 0b0001)
    assert not is_forcing(make_cycle(4), 0b0101)
    for n in range(1, 6):
        assert not is_forcing(make_path(n), 0)
    assert is_forcing(Graph(0, ()), 0)  # vacuous


def test_closure_confluence_exhaustive(graphs_by_n):
    """Queue-order closure equals the reverse-rescan oracle on every subset."""
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            for m in range(1 << g.n):
                assert closure(g, m) == _naive_closure(g, m)


def test_closure_monotone_exhaustive(graphs_by_n):
    for n in range(0, 6):
        for g in graphs_by_n[n]:
            closures = [closure(g, m) for m in range(1 << g.n)]
            for m in range(1 << g.n):
                sub = m
                while True:
                    assert closures[sub] & closures[m] == closures[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & m


@settings(max_examples=120, deadline=None)
@given(random_graph, st.integers(min_value=0))
def test_closure_properties(g, seed):
    s = seed & g.full_mask
    cl = closure(g, s)
    assert cl & s == s
    assert closure(g, cl) == cl


# --- profiles --------------------------------------------------------------------


def test_profile_frozen_examples():
    # z(P_4;k) from the closed-form path formula
    assert zf_profile(make_path(4)).z == (0, 2, 6, 4, 1)
    # brute-forced small graphs
    assert zf_profile(make_complete(3)).z == (0, 0, 3, 1)
    assert zf_profile(make_cycle(4)).z == (0, 0, 4, 4, 1)
    assert zf_profile(make_complete(4)).z == (0, 0, 0, 4, 1)


def test_profile_matches_unpruned_enumeration(graphs_by_n):
    for n in range(0, 7):
        for g in graphs_by_n[n]:
            assert list(zf_profile(g).z) == _naive_profile(g)


def test_profile_self_consistency(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            p = zf_profile(g)
            for k in range(n + 1):
                assert p.z[k] + p.zprime[k] == comb(n, k)
            if n >= 1:
                assert p.z[n] == 1
                zf = p.zf_number
                assert all(v == 0 for v in p.z[:zf])
                assert all(v > 0 for v in p.z[zf:])


def test_profile_out_of_range_accessors():
    p = zf_profile(make_path(3))
    assert p.z_at(-1) == 0 and p.z_at(4) == 0
    assert p.zprime_at(-2) == 0 and p.zprime_at(17) == 0


def test_profile_degenerates():
    empty = zf_profile(Graph(0, ()))
    assert empty.z == (1,) and empty.zf_number is None
    k1 = zf_profile(Graph(1, (0,)))
    assert k1.z == (0, 1) and k1.zf_number == 1


def test_zf_numbers():
    assert zf_profile(make_complete(4)).zf_number == 3
    assert zf_profile(make_path(7)).zf_number == 1
    assert zf_profile(make_cycle(6)).zf_number == 2


def test_profile_budget():
    with pytest.raises(CapacityError):
        zf_profile(make_path(10), budget=9)
    zf_profile(make_path(10), budget=10)


def test_poly_coeffs():
    p = zf_profile(make_path(4))
    assert p.poly_coeffs == (2, 6, 4, 1)


# --- forts --------------------------------------------------------------------------


def is_fort(g: Graph, f: int) -> bool:
    """Oracle: every outside vertex has 0 or >= 2 neighbours in f."""
    return all((g.adj[w] & f).bit_count() != 1 for w in bits(g.full_mask & ~f))


def fort_avoidance_floor(g: Graph, f: int) -> tuple[int, ...]:
    """Oracle: the lower bounds C(n - |f|, k) on the non-forcing counts that
    a nonempty fort f gives, since every k-set avoiding f is non-forcing."""
    if f == 0 or not is_fort(g, f):
        raise ValueError("fort_avoidance_floor needs a nonempty fort")
    outside = g.n - f.bit_count()
    return tuple(comb(outside, k) for k in range(g.n + 1))


def test_is_fort_examples():
    assert is_fort(make_cycle(4), mask_of([1, 3]))
    assert not is_fort(make_path(3), mask_of([2]))
    assert is_fort(make_path(3), 0)  # vacuous


def test_twin_pairs_are_forts(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            pair = find_twin_pair(g)
            if pair is not None:
                u, v, _ = pair
                assert is_fort(g, mask_of([u, v]))


def test_fort_obstruction_exhaustive(graphs_by_n):
    """Every subset avoiding a nonempty fort is non-forcing (n <= 5)."""
    for n in range(1, 6):
        for g in graphs_by_n[n]:
            for f in range(1, 1 << n):
                if not is_fort(g, f):
                    continue
                outside = g.full_mask & ~f
                sub = outside
                while True:
                    assert not is_forcing(g, sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & outside


def test_fort_avoidance_floor_examples():
    assert fort_avoidance_floor(make_cycle(4), mask_of([1, 3])) == (1, 2, 1, 0, 0)
    k4 = make_complete(4)
    floor = fort_avoidance_floor(k4, mask_of([0, 1]))
    assert floor[2] == 1
    assert zf_profile(k4).zprime[2] == 6
    g = make_path(3)
    assert fort_avoidance_floor(g, g.full_mask) == (1, 0, 0, 0)


def test_fort_avoidance_floor_below_zprime(graphs_by_n):
    for n in range(1, 6):
        for g in graphs_by_n[n]:
            p = zf_profile(g)
            for f in range(1, 1 << n):
                if is_fort(g, f):
                    floor = fort_avoidance_floor(g, f)
                    assert all(floor[k] <= p.zprime[k] for k in range(n + 1))


def test_fort_avoidance_floor_rejects_non_forts():
    with pytest.raises(ValueError):
        fort_avoidance_floor(make_path(3), mask_of([2]))
    with pytest.raises(ValueError):
        fort_avoidance_floor(make_path(3), 0)
