#!/usr/bin/env python3
"""Campaign benchmark: zfx's n <= 8 campaigns, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zfx source tree.  Workloads (closed loop: one
campaign process at a time, each fresh, driving ``zfx.campaigns``):

  dh-pure             verify_dh(n_max=8), pure-Python kernels, jobs=1
  roundtrip-compiled  verify_split_roundtrip(n_max=8), compiled, jobs=1
  lemmas-compiled-j2  audit_lemmas(n_max=8), compiled, jobs=2

The corpus is every connected graph with n <= 8, so the inputs are fixed;
``--seed`` sets the campaign processes' PYTHONHASHSEED.  The compiled
kernels are built once from ``src/zfx/_kernels_cy.c`` with gcc into
``.bench_build/perfbench/ext`` and rebuilt when that file changes; build
time is not part of any metric.

``--trace 0`` starts campaign processes until about S seconds have passed
and prints the end-to-end metrics, each the median over the processes.
``--trace 1`` runs one untraced process at the workload's jobs, one
untraced at jobs=1 when that differs, and one traced at jobs=1 (see
``campaign.py``), and prints the per-layer metrics.

Every process's report must match its pins (``gates.py``) before a number
is printed.  Otherwise the last line has ``"correct": false``, every check
of a failed process counts as failed, no metric is printed, and the exit
code is 1.  The line before the last records the machine and the samples.
Metric names and units come from ``BENCHMARK.json``; ``layers.json`` maps
each per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Bytecode goes to the build directory, never into perfbench/ or src/.
sys.pycache_prefix = str(BUILD / "pycache")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import gates  # noqa: E402

# A run, builds excluded, must end well within the 180 s a caller allows.
RUN_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    function: str  # in zfx.campaigns, called with n_max=8
    backend: str  # the zfx.KERNEL_BACKEND it must run on
    jobs: int


WORKLOADS = {
    "dh-pure": Workload("verify_dh", "python", 1),
    "roundtrip-compiled": Workload("verify_split_roundtrip", "cython", 1),
    "lemmas-compiled-j2": Workload("audit_lemmas", "cython", 2),
}


def run_child(w: Workload, jobs: int, seed: int, ext, trace: bool,
              deadline: float) -> dict:
    """One campaign process; its record, or ``{"error": ...}``."""
    # Bytecode is cached, as for an installed package, whatever the caller's
    # environment says; ZFX_* settings would change the campaign.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ZFX_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    if w.backend == "python":
        env["ZFX_PURE"] = "1"
    cmd = [sys.executable, str(HERE / "campaign.py"), "--function", w.function,
           "--backend", w.backend, "--jobs", str(jobs)]
    if ext is not None:
        cmd += ["--ext", str(ext)]
    if trace:
        cmd.append("--trace")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "campaign process timed out"}
    lines = out.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"campaign process exited {proc.returncode}: {err[-2000:]}"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"campaign process exited {proc.returncode}"
    return record


def gate(w: Workload, record: dict) -> list[str]:
    if "error" in record:
        return [record["error"]]
    return (gates.check_backend(record["backend"], w.backend)
            + gates.check_report(w.function, record["report"]))


def end_to_end(records: list[dict], scanned: int) -> dict:
    """Medians over the run's processes, which all passed their gates."""
    median = statistics.median
    return {
        "setup_s": median(r["setup_s"] for r in records),
        "graphs_per_s": median(scanned / r["campaign_s"] for r in records),
        "wall_s": median(r["setup_s"] + r["campaign_s"] for r in records),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
        "pass_ratio": 1.0,
    }


def per_layer(layers: dict, traced: dict, untraced: dict, base: dict,
              jobs: int) -> dict:
    """``traced`` ran at jobs=1 with wrappers, ``untraced`` at the
    workload's jobs, ``base`` untraced at jobs=1."""
    trace = traced["trace"]
    out = {}
    for name in layers["functions"]:
        calls, self_s = trace["functions"][name]
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    hits, misses = traced["cache"]["hits"], traced["cache"]["misses"]
    out.update({
        "kernels.profile_counts.subsets": trace["subsets"],
        "graphs.enumerate_s": traced["enumerate_s"],
        "forcing.profile_cache.hits": hits,
        "forcing.profile_cache.misses": misses,
        "forcing.profile_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "campaigns.scan_s": traced["scan_s"],
        "campaigns.fold_s": trace["fold_s"],
        "campaigns.worker_p50_ms": trace["worker_p50_ms"],
        "campaigns.worker_p99_ms": trace["worker_p99_ms"],
        "campaigns.pool_cpu_s": untraced["pool_cpu_s"],
        "campaigns.pool_utilization": untraced["pool_cpu_s"] / (jobs * untraced["scan_s"]),
        "trace.overhead_ratio": traced["campaign_s"] / base["campaign_s"] - 1.0,
    })
    return out


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(w: Workload) -> dict:
    kernels_c = ROOT / gates.KERNELS_C
    digest = hashlib.sha256()
    for path in sorted(kernels_c.parent.glob("*.py")) + [kernels_c]:
        if path.is_file():
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "kernels_c_sha256": gates.sha256_file(kernels_c) if kernels_c.is_file() else None,
        "backend": w.backend,
        "jobs": w.jobs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "zfx" / "__init__.py").is_file():
        print(f"perfbench: no zfx source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    layers = json.loads((HERE / "layers.json").read_text())
    w = WORKLOADS[args.workload]
    scanned = gates.PINS[w.function]["totals"]["scanned"]
    info = {"workload": args.workload, "seed": args.seed, "machine": machine(w)}

    ext = None
    if w.backend == "cython":
        try:
            ext = gates.ensure_extension(BUILD / "ext", ROOT / gates.KERNELS_C)
        except gates.BuildError as exc:
            return fail(scanned, scanned, [f"build: {exc}"], info)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    records: list[dict] = []

    def sample(jobs: int, trace: bool) -> dict:
        record = run_child(w, jobs, args.seed, ext, trace, deadline)
        records.append(record)
        return record

    if args.trace:
        untraced = sample(w.jobs, False)
        base = untraced if w.jobs == 1 else sample(1, False)
        traced = sample(1, True)
    else:
        # Stop before the process that would end past --seconds.
        while not gate(w, sample(w.jobs, False)):
            elapsed = time.monotonic() - start
            if elapsed * (len(records) + 1) / len(records) > min(args.seconds, RUN_LIMIT_S):
                break

    info["samples"] = [{k: v for k, v in r.items() if k != "report"} for r in records]
    verdicts = [gate(w, r) for r in records]
    if any(verdicts):
        problems = [p for v in verdicts for p in v]
        return fail(scanned * len(records), scanned * sum(map(bool, verdicts)),
                    problems, info)
    print(json.dumps(info))

    if args.trace:
        metrics = per_layer(layers, traced, untraced, base, w.jobs)
    else:
        metrics = end_to_end(records, scanned)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": True,
        "attempted": scanned * len(records),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def fail(attempted: int, failed: int, problems: list[str], info: dict) -> int:
    """Report a run that failed a gate: no metric, exit code 1."""
    for p in problems:
        print(f"perfbench gate: {p}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
