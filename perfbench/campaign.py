"""One zfx campaign in a fresh process: set up, run, report what happened.

``run.py`` starts one of these per timed run, so the ``_profile_cached``
LRU and the ``_levels`` enumeration cache always start empty.

    python3 perfbench/campaign.py --function verify_dh --backend python \\
        --jobs 1 --t-spawn SECONDS [--ext PATH] [--trace]

``--t-spawn`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from process start until zfx is
imported and the n <= 8 corpus is enumerated.  ``--ext`` preloads the
compiled kernels from that file as ``zfx._kernels_cy`` before zfx is
imported.  ``--trace`` wraps the functions named in ``layers.json`` and
records their calls and self time; it needs ``--jobs 1``.

The last line of stdout is one JSON record.  A record with an ``error``
key (exit code 1) means the campaign did not run on the expected backend
or raised.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_MAX = 8
# Backend modules keep their own references; callers reach the kernels
# through ``zfx.kernels``, which is where those wrappers go.
UNTRACED_MODULES = {"zfx._kernels_py", "zfx._kernels_cy"}


class Tracer:
    """Calls and self time per wrapped function.  Self time is a call's
    duration minus the time spent in wrapped calls it made; unwrapped
    helpers (``graphs.bits``, ``Graph.degree``) stay in their caller's."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._inner = [0.0]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        inner, clock = self._inner, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = inner.pop()
                inner[-1] += dt
                stat[0] += 1
                stat[1] += dt - child

        return traced


def install(tracer: Tracer, names, subsets: list) -> None:
    """Wrap each ``module.function`` on every zfx namespace that binds it,
    since ``campaigns`` and others import functions by name."""
    modules = [m for k, m in sys.modules.items()
               if (k == "zfx" or k.startswith("zfx.")) and k not in UNTRACED_MODULES]
    for qual in names:
        module_name, fn_name = qual.split(".")
        orig = getattr(sys.modules["zfx." + module_name], fn_name)
        fn = orig
        if qual == "kernels.profile_counts":
            def fn(n, adj, _count=orig):
                subsets[0] += 1 << n
                return _count(n, adj)
        wrapped = tracer.wrap(qual, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)


def time_scans(campaigns, per_item: bool) -> dict:
    """Time ``campaigns._run_scan`` (three calls at most per campaign) and,
    when ``per_item``, each worker call and ``_fold`` too."""
    acc = {"scan_s": 0.0, "fold_s": 0.0, "worker_s": []}
    run_scan, fold, clock = campaigns._run_scan, campaigns._fold, time.perf_counter

    def timed_scan(items, worker, jobs):
        if per_item:
            inner = worker

            def worker(item):
                t0 = clock()
                try:
                    return inner(item)
                finally:
                    acc["worker_s"].append(clock() - t0)

        t0 = clock()
        try:
            return run_scan(items, worker, jobs)
        finally:
            acc["scan_s"] += clock() - t0

    def timed_fold(report, records):
        t0 = clock()
        try:
            return fold(report, records)
        finally:
            acc["fold_s"] += clock() - t0

    campaigns._run_scan = timed_scan
    if per_item:
        campaigns._fold = timed_fold
    return acc


def preload_extension(path: str) -> None:
    spec = importlib.util.spec_from_file_location("zfx._kernels_cy", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["zfx._kernels_cy"] = module
    spec.loader.exec_module(module)


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    if args.ext:
        preload_extension(args.ext)
    import zfx
    import zfx.campaigns as campaigns
    from zfx.forcing import _profile_cached
    from zfx.graphs import enumerate_graphs

    problems = gates.check_backend(zfx.KERNEL_BACKEND, args.backend)
    if problems:
        return {"error": "; ".join(problems)}
    tracer, subsets = None, [0]
    if args.trace:
        layers = json.loads((HERE / "layers.json").read_text())
        tracer = Tracer()
        install(tracer, layers["functions"], subsets)

    t0 = time.perf_counter()
    for n in range(1, N_MAX + 1):
        for _ in enumerate_graphs(n, connected_only=True):
            pass
    enumerate_s = time.perf_counter() - t0
    setup_s = time.monotonic() - args.t_spawn

    scans = time_scans(campaigns, per_item=args.trace)
    cache0 = _profile_cached.cache_info()
    cpu0 = child_cpu_s()
    t0 = time.perf_counter()
    report = getattr(campaigns, args.function)(n_max=N_MAX, jobs=args.jobs)
    campaign_s = time.perf_counter() - t0
    pool_cpu_s = child_cpu_s() - cpu0
    cache1 = _profile_cached.cache_info()

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "backend": zfx.KERNEL_BACKEND,
        "report": report.normalized_json(),
        "setup_s": setup_s,
        "enumerate_s": enumerate_s,
        "campaign_s": campaign_s,
        "scan_s": scans["scan_s"],
        "pool_cpu_s": pool_cpu_s,
        "peak_rss_mb": rss_kb / 1024,
        "cache": {"hits": cache1.hits - cache0.hits,
                  "misses": cache1.misses - cache0.misses},
    }
    if tracer is not None:
        worker_ms = [s * 1e3 for s in scans["worker_s"]]
        record["trace"] = {
            "functions": tracer.stats,
            "subsets": subsets[0],
            "fold_s": scans["fold_s"],
            "worker_p50_ms": statistics.median(worker_ms),
            "worker_p99_ms": statistics.quantiles(worker_ms, n=100)[98],
        }
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--function", required=True, choices=sorted(gates.PINS))
    ap.add_argument("--backend", required=True, choices=["python", "cython"])
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--ext", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.trace and args.jobs != 1:
        ap.error("--trace needs --jobs 1: pool workers would not report their calls")
    try:
        record = run(args)
    except Exception:  # the campaign's failure becomes the run's failure
        record = {"error": traceback.format_exc()}
    print(json.dumps(record))
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
