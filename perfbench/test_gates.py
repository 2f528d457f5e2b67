"""Self-tests of the benchmark: a doctored report, a wrong backend and a
stale build each fail their gate, and a tree without zfx gives no result.

    python3 -m pytest -q perfbench/test_gates.py

Needs gcc; takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import campaign
import gates
import run

DH_COMPILED = run.Workload("verify_dh", "cython", 1)


def deadline() -> float:
    return time.monotonic() + 120


@pytest.fixture(scope="module")
def ext_dir(tmp_path_factory):
    build = tmp_path_factory.mktemp("ext")
    gates.ensure_extension(build, run.ROOT / gates.KERNELS_C)
    return build


@pytest.fixture(scope="module")
def dh_report(ext_dir):
    record = run.run_child(DH_COMPILED, 1, 0, ext_dir / gates.EXT_NAME, False,
                           deadline())
    assert run.gate(DH_COMPILED, record) == []
    return record["report"]


def _reason(report):
    report["skipped"][0]["reason"] = "disconnected"


def _verified_not_skipped(report):
    report["skipped"].pop()
    report["totals"]["skipped"] -= 1
    report["totals"]["verified"] += 1


def _anomaly(report):
    report["anomalies"].append({"graph6": "A_", "reason": "injected"})


@pytest.mark.parametrize("doctor", [_reason, _verified_not_skipped, _anomaly])
def test_doctored_report_fails(dh_report, doctor):
    report = json.loads(dh_report)
    assert json.dumps(report, sort_keys=True) == dh_report
    doctor(report)
    assert gates.check_report("verify_dh", json.dumps(report, sort_keys=True))


def test_wrong_backend_fails():
    if list((run.ROOT / "src" / "zfx").glob("_kernels_cy*.so")):
        pytest.skip("an in-place compiled build would satisfy the backend")
    # No extension preloaded: zfx falls back to the pure-Python kernels.
    record = run.run_child(DH_COMPILED, 1, 0, None, False, deadline())
    problems = run.gate(DH_COMPILED, record)
    assert problems and "kernel backend is 'python'" in problems[0]


def test_stale_build_fails_and_is_rebuilt(ext_dir, tmp_path):
    source = tmp_path / "_kernels_cy.c"
    shutil.copy(run.ROOT / gates.KERNELS_C, source)
    build = tmp_path / "build"
    shutil.copytree(ext_dir, build)
    assert gates.check_build(build, source) == []
    with source.open("a") as fh:
        fh.write("/* edited */\n")
    problems = gates.check_build(build, source)
    assert problems and problems[0].startswith("stale extension")
    gates.ensure_extension(build, source)
    assert gates.check_build(build, source) == []


def test_tracer_self_time_excludes_wrapped_callees():
    tracer = campaign.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    (inner_calls, inner_s), (outer_calls, outer_s) = (
        tracer.stats["inner"], tracer.stats["outer"])
    assert (inner_calls, outer_calls) == (2, 1)
    assert inner_s >= 0.04 and outer_s < 0.02


def test_bare_tree_gives_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dh-pure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
