"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
exact (zero tolerance): formula equality, zero counterexamples, zero
violations, byte-identical normalized reports.
"""

from __future__ import annotations

import hashlib
import time
from math import comb

import pytest
from test_forcing import is_fort

from zfx.campaigns import (
    audit_peel_extract,
    verify_dh,
    verify_split_roundtrip,
    verify_unique_prime,
)
from zfx.extremal import audit_leaf_recurrence, path_zprime
from zfx.forcing import is_forcing, zf_profile
from zfx.graphs import (
    are_isomorphic,
    enumerate_graphs,
    find_twin_pair,
    make_cycle,
    make_path,
    mask_of,
)

NMAX = 8

# sha256 of each n <= 8 report's normalized_json(); any change to a count,
# a reason string or a record order moves these.
GOLDEN = {
    "verify_dh": "1dca8e2e058a6474a1dc2d839ff2d09e7e36825ce7e86daf0e18d1e4e073e48a",
    "verify_split_roundtrip":
        "65f684a0b45335a44d8e1bbca7fa6bbc1b0d760344a248a00e0f70eed93c87c2",
    "verify_unique_prime":
        "c6594ab48000aad674284c6286a4dcb793af85e85d7bf85a4a0c2a98b74339fa",
    "audit_peel_extract":
        "1620201266efc47bfd6644cf9b189d7c29bf769c3f31b93a37dc704a7e0f9301",
}


def _golden(report, name: str) -> bool:
    return hashlib.sha256(report.normalized_json().encode()).hexdigest() == GOLDEN[name]


def _announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def report_dh():
    return verify_dh(n_max=NMAX, jobs=1)


@pytest.fixture(scope="module")
def report_roundtrip():
    return verify_split_roundtrip(n_max=NMAX, jobs=1)


@pytest.fixture(scope="module")
def report_unique_prime():
    return verify_unique_prime(n_max=NMAX, m=5, jobs=1)


def test_criterion_1_path_formula_exactness():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 15):
        profile = zf_profile(make_path(n))
        for k in range(n + 1):
            if profile.zprime[k] != path_zprime(n, k):
                bad.append((n, k))
    _announce(
        1,
        "path-formula-exactness",
        not bad,
        f"n=2..14 exact, {time.perf_counter() - t0:.1f}s"
        + (f", violations={bad[:3]}" if bad else ""),
    )


def test_criterion_2_dh_graphs_path_extremal(report_dh):
    r = report_dh
    ok = (
        r.clean
        and r.scanned == 12113  # connected graphs on 1..8 vertices
        and r.verified == 1893  # the distance-hereditary ones
        and _golden(r, "verify_dh")
    )
    _announce(
        2,
        "dh-path-extremal",
        ok,
        f"scanned={r.scanned} dh_verified={r.verified} "
        f"counterexamples={len(r.counterexamples)} anomalies={len(r.anomalies)} "
        f"{r.timing_seconds:.1f}s",
    )


def test_criterion_3_leaf_recurrence():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            for x in range(n):
                if g.degree(x) != 1:
                    continue
                checked += 1
                audit = audit_leaf_recurrence(g, x)
                if not audit.holds:
                    bad.append((n, x))
    _announce(
        3,
        "leaf-recurrence",
        checked > 0 and not bad,
        f"{checked} (graph, leaf) pairs on n<=6, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_4_twin_fort_machinery():
    t0 = time.perf_counter()
    twin_checked = 0
    bad = []
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            pair = find_twin_pair(g)
            if pair is None:
                continue
            twin_checked += 1
            u, v, _ = pair
            fort = mask_of([u, v])
            if not is_fort(g, fort):
                bad.append(("fort", n))
                continue
            profile = zf_profile(g)
            for k in range(n + 1):
                if profile.zprime[k] < comb(n - 2, k):
                    bad.append(("bound", n, k))
    avoid_checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for f in range(1, 1 << n):
                if not is_fort(g, f):
                    continue
                outside = g.full_mask & ~f
                sub = outside
                while True:
                    avoid_checked += 1
                    if is_forcing(g, sub):
                        bad.append(("avoid", n, f, sub))
                        break
                    if sub == 0:
                        break
                    sub = (sub - 1) & outside
    _announce(
        4,
        "twin-fort-machinery",
        not bad,
        f"{twin_checked} twin graphs n<=6, {avoid_checked} fort-avoiding "
        f"sets n<=5, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_split_roundtrip(report_roundtrip):
    r = report_roundtrip
    ok = (
        r.clean
        and r.scanned == 12113
        and r.verified == 12113
        and _golden(r, "verify_split_roundtrip")
    )
    _announce(
        5,
        "split-roundtrip-reduced-dh",
        ok,
        f"scanned={r.scanned} verified={r.verified} "
        f"counterexamples={len(r.counterexamples)} {r.timing_seconds:.1f}s",
    )


def test_criterion_6_bounded_prime_core(report_unique_prime):
    r = report_unique_prime
    p1 = r.phases["phase1"]
    p2 = r.phases["phase2"]
    primes = p1["prime_graphs"]
    ok = (
        r.clean
        and p1["scanned"] == p1["verified"] == 3  # C_5, house, gem
        and p2["scanned"] == 12113
        and p2["verified"] > 0
        and _golden(r, "verify_unique_prime")
    )
    _announce(
        6,
        "bounded-prime-core-m5",
        ok,
        f"phase1 primes={primes} subgraph_classes={p1['subgraph_classes']}, "
        f"phase2 verified={p2['verified']} of {p2['scanned']}, "
        f"{r.timing_seconds:.1f}s",
    )


def test_criterion_6_includes_c5():
    found = False
    for line in verify_unique_prime(n_max=5, m=5).phases["phase1"]["prime_graphs"]:
        from zfx.graphs import parse_graph6

        if are_isomorphic(parse_graph6(line), make_cycle(5)):
            found = True
    assert found


def test_criterion_7_peel_extract():
    r = audit_peel_extract(n_max=NMAX, jobs=1)
    ok = r.clean and r.verified > 0 and _golden(r, "audit_peel_extract")
    _announce(
        7,
        "appendix-peel-extract",
        ok,
        f"unique-prime graphs verified={r.verified} of scanned={r.scanned} "
        f"counterexamples={len(r.counterexamples)} {r.timing_seconds:.1f}s",
    )


def test_criterion_8_determinism(report_dh, report_roundtrip, report_unique_prime):
    t0 = time.perf_counter()
    pairs = [
        (report_dh, verify_dh(n_max=NMAX, jobs=8)),
        (report_roundtrip, verify_split_roundtrip(n_max=NMAX, jobs=8)),
        (report_unique_prime, verify_unique_prime(n_max=NMAX, m=5, jobs=8)),
    ]
    mismatches = [
        a.campaign
        for a, b in pairs
        if a.normalized_json() != b.normalized_json()
    ]
    _announce(
        8,
        "jobs-determinism",
        not mismatches,
        f"jobs=1 vs jobs=8 byte-identical normalized reports for "
        f"{[a.campaign for a, _ in pairs]}, {time.perf_counter() - t0:.1f}s"
        + (f", mismatches={mismatches}" if mismatches else ""),
    )
