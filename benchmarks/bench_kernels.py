#!/usr/bin/env python3
"""Benchmark the pure-Python kernels against the compiled extension.

Usage: python benchmarks/bench_kernels.py [--heavy]

Each row times one kernel on a representative workload with both backends
and reports the speedup.  --heavy adds the n=8 exhaustive-augmentation
canonical-form workload (about 7 s of pure-Python canon_adj on one core of
a 2-vCPU VM).  That is every n=7 class with every new-vertex neighbourhood,
kept as a kernel workload; ``enumerate_graphs`` no longer does this, it
augments only where the new vertex has minimum degree.
"""

from __future__ import annotations

import argparse
import sys
import time

from zfx import _kernels_py as pyk
from zfx.graphs import enumerate_graphs, make_path

try:
    from zfx import _kernels_cy as cyk
except ImportError:
    cyk = None


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench(name: str, workload, rows: list) -> None:
    t_py = timed(lambda: workload(pyk))
    if cyk is not None:
        t_cy = timed(lambda: workload(cyk))
        rows.append((name, t_py, t_cy, t_py / t_cy if t_cy > 0 else float("inf")))
    else:
        rows.append((name, t_py, None, None))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--heavy", action="store_true",
                    help="include the n=8 canonical-enumeration workload")
    args = ap.parse_args()

    if cyk is None:
        print("compiled kernels not available; timing the pure backend only\n")

    graphs7 = [(g.n, g.adj) for g in enumerate_graphs(7, connected_only=True)]
    graphs6_all = [(g.n, g.adj) for g in enumerate_graphs(6)]
    p16 = make_path(16)
    p18 = make_path(18)

    rows: list = []

    def closure_workload(k):
        for n, adj in graphs7:
            full = (1 << n) - 1
            for s in range(0, full + 1, 7):
                k.closure_mask(n, adj, s)

    bench("closure (853 graphs n=7, ~19k subsets)", closure_workload, rows)

    def profile_small(k):
        for n, adj in graphs7:
            k.profile_counts(n, adj)

    bench("profile_counts (853 graphs n=7)", profile_small, rows)

    def profile_big(k):
        k.profile_counts(p16.n, p16.adj)

    bench("profile_counts (P_16, 65k subsets)", profile_big, rows)

    if args.heavy:
        def profile_huge(k):
            k.profile_counts(p18.n, p18.adj)

        bench("profile_counts (P_18, 262k subsets)", profile_huge, rows)

    def canon_workload(k):
        for n, adj in graphs7:
            k.canon_adj(n, adj)

    bench("canon_adj (853 graphs n=7)", canon_workload, rows)

    if args.heavy:
        def canon_augment(k):
            seen = set()
            for n, adj in [(g.n, g.adj) for g in enumerate_graphs(7)]:
                for nb in range(1 << 7):
                    rows8 = [adj[i] | (((nb >> i) & 1) << 7) for i in range(7)]
                    rows8.append(nb)
                    seen.add(k.canon_adj(8, rows8))

        bench("canon_adj (n=8 exhaustive augmentation, 134k candidates)",
              canon_augment, rows)

    def metric_workload(k):
        for n, adj in graphs7:
            k.metric_dh(n, adj)

    bench("metric_dh (853 graphs n=7)", metric_workload, rows)

    def split_workload(k):
        for n, adj in graphs6_all:
            k.find_split_mask(n, adj)

    bench("find_split_mask (208 graphs n<=6)", split_workload, rows)

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel workload':<{width}}  {'python':>9}  {'cython':>9}  {'speedup':>8}")
    for name, t_py, t_cy, speedup in rows:
        if t_cy is None:
            print(f"{name:<{width}}  {t_py:>8.3f}s  {'-':>9}  {'-':>8}")
        else:
            print(f"{name:<{width}}  {t_py:>8.3f}s  {t_cy:>8.3f}s  {speedup:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
