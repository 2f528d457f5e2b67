"""extremal: path formulas, dominance verdicts, recurrence, twin shortcut."""

from __future__ import annotations

from math import comb

import pytest

from zfx.extremal import (
    attach_pendants,
    audit_leaf_recurrence,
    check_path_extremal,
    path_margins,
    path_z,
    path_zprime,
    path_zprime_row,
    twin_shortcut,
)
from zfx.forcing import zf_profile
from zfx.graphs import (
    Graph,
    find_twin_pair,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)


def test_path_zprime_examples():
    assert path_zprime(4, 1) == 2  # C(2,1)
    assert path_zprime(5, 2) == 1  # C(2,2)
    assert path_zprime(3, 3) == 0  # C(-1,3) = 0
    assert path_zprime(6, -1) == 0
    assert path_zprime(0, 0) == 0 and path_z(0, 0) == 1
    assert path_zprime(5, 0) == 1 and path_z(5, 5) == 1


def test_path_formula_matches_enumeration():
    for n in range(2, 11):
        profile = zf_profile(make_path(n))
        for k in range(n + 1):
            assert profile.zprime[k] == path_zprime(n, k)
            assert profile.z[k] == path_z(n, k)


def test_pascal_recombination():
    for n in range(2, 31):
        for k in range(1, n + 1):
            assert (
                path_zprime(n - 1, k) + path_zprime(n - 2, k - 1)
                == path_zprime(n, k)
            )


def test_twin_bound_dominates_path():
    for n in range(2, 31):
        for k in range(1, n + 1):
            bound = comb(n - 2, k) if k <= n - 2 else 0
            assert bound >= path_zprime(n, k)


def test_check_path_extremal_examples():
    v = check_path_extremal(make_path(6))
    assert v.is_path_extremal and all(m == 0 for m in v.margins)
    v = check_path_extremal(make_cycle(5))
    assert v.is_path_extremal and v.witness_k is None
    assert zf_profile(make_cycle(5)).z[2] == 5 and path_z(5, 2) == 9
    assert check_path_extremal(make_complete(4)).is_path_extremal


def test_check_path_extremal_degenerates():
    assert check_path_extremal(Graph(0, ())).is_path_extremal
    assert check_path_extremal(Graph(1, (0,))).is_path_extremal


def test_path_row_is_cached_per_n():
    for n in range(0, 31):
        assert path_zprime_row(n) == tuple(path_zprime(n, k) for k in range(n + 1))
        assert path_zprime_row(n) is path_zprime_row(n)
    assert path_margins(5, zf_profile(make_cycle(5)).zprime) == (0, 2, 4, 0, 0, 0)


def test_verdict_writes_graph6_when_read():
    """A verdict holds its graph; its graph6 is derived from it on demand."""
    g = make_cycle(5)
    v = check_path_extremal(g)
    assert v.graph is g and v.n == 5 and v.graph6 == "Dhc"
    assert twin_shortcut(make_cycle(4)).graph6 == "Cl"


def test_witness_is_least_violation():
    # No graph violates path-extremality at this scale, so synthesize the
    # comparison: a verdict against a *shorter* path profile must flag the
    # least bad k.  Use margins of K_2 vs P_2 shifted by hand instead.
    v = check_path_extremal(make_complete(2))
    assert v.witness_k is None and v.margins == (0, 0, 0)


# --- leaf recurrence -------------------------------------------------------------


def test_leaf_recurrence_path_is_tight():
    audit = audit_leaf_recurrence(make_path(4), 0)
    assert audit.neighbor == 1 and audit.holds
    for row in audit.rows:
        assert row.zprime_g == row.zprime_without_leaf + row.zprime_without_both


def test_leaf_recurrence_star():
    audit = audit_leaf_recurrence(make_star(4), 1)
    assert audit.holds


def test_leaf_recurrence_degenerate_p2():
    audit = audit_leaf_recurrence(make_path(2), 0)
    assert audit.holds
    assert audit.rows[0].zprime_without_both == 0  # z'(P_0; 0) = 0


def test_leaf_recurrence_rejects_non_leaves():
    with pytest.raises(ValueError):
        audit_leaf_recurrence(make_cycle(4), 0)


def test_leaf_recurrence_budget_is_keyword_only():
    with pytest.raises(TypeError):
        audit_leaf_recurrence(make_path(4), 0, 1)
    assert audit_leaf_recurrence(make_path(4), 0, budget=4).holds


def test_leaf_recurrence_exhaustive(connected_by_n):
    for n in range(2, 7):
        for g in connected_by_n[n]:
            for x in range(n):
                if g.degree(x) == 1:
                    assert audit_leaf_recurrence(g, x).holds


# --- pendant extensions -------------------------------------------------------------


def test_attach_pendants_shapes():
    g = attach_pendants(make_cycle(5), [0])
    assert g.n == 6 and g.degree(5) == 1 and g.has_edge(0, 5)
    assert attach_pendants(Graph(1, (0,)), [0]) == make_path(2)
    with pytest.raises(ValueError):
        attach_pendants(make_path(3), [3])


def check_pendant_extension(q: Graph, attach: list[int]):
    """Extremality of q with pendants attached, cross-checking the twin
    shortcut (two pendants on one vertex are false twins) against the
    enumerated verdict whenever the shortcut applies."""
    g = attach_pendants(q, attach)
    verdict = check_path_extremal(g)
    if len(set(attach)) < len(attach):
        short = twin_shortcut(g)
        assert short is not None, "repeated pendant targets must create false twins"
        assert short.is_path_extremal == verdict.is_path_extremal
    return verdict


def test_check_pendant_extension_examples():
    assert check_pendant_extension(make_cycle(5), [0]).is_path_extremal
    v = check_pendant_extension(make_cycle(5), [0, 0])
    assert v.is_path_extremal  # shortcut cross-checked inside
    assert check_pendant_extension(Graph(1, (0,)), [0]).is_path_extremal


# --- twin shortcut ---------------------------------------------------------------------


def test_twin_shortcut_examples():
    v = twin_shortcut(make_cycle(4))
    assert v is not None and v.is_path_extremal and v.method == "twin_fort"
    assert twin_shortcut(make_cycle(5)) is None
    for n in range(2, 7):
        assert twin_shortcut(make_complete(n)) is not None


def test_twin_shortcut_margins_are_lower_bounds():
    v = twin_shortcut(make_cycle(4))
    exact = check_path_extremal(make_cycle(4))
    assert all(lo <= hi for lo, hi in zip(v.margins, exact.margins))
    assert all(m >= 0 for m in v.margins)


def test_twin_shortcut_never_contradicts_enumeration(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        for g in graphs:
            if find_twin_pair(g) is None:
                continue
            short = twin_shortcut(g)
            assert short is not None and short.is_path_extremal
            assert check_path_extremal(g).is_path_extremal
