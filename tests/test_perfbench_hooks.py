"""The names perfbench/campaign.py looks up in zfx still exist, and take
the calls it makes.

The benchmark finds its hooks by name and lives outside ``testpaths``, so a
rename in zfx would only show when the benchmark runs.  This reads
perfbench/ and changes nothing there.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

import zfx.campaigns
import zfx.forcing

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.json"


def _from_text(name: str) -> types.ModuleType:
    """perfbench/<name>.py run from its text: no .pyc is written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_traced_functions_resolve():
    functions = json.loads(LAYERS.read_text())["functions"]
    assert functions
    for qual in functions:
        module_name, fn_name = qual.split(".")
        module = importlib.import_module("zfx." + module_name)
        assert callable(getattr(module, fn_name, None)), qual


def test_campaign_hooks_resolve():
    for name in ("verify_dh", "verify_split_roundtrip", "audit_lemmas",
                 "_run_scan", "_fold"):
        assert callable(getattr(zfx.campaigns, name, None)), name
    info = zfx.forcing._profile_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_pinned_campaigns_take_the_benchmark_call():
    """perfbench calls each campaign in ``gates.PINS`` as
    ``fn(n_max=..., jobs=...)``; that call shape must keep working."""
    gates = _from_text("gates")
    assert gates.PINS
    for name in gates.PINS:
        report = getattr(zfx.campaigns, name)(n_max=3, jobs=1)
        assert isinstance(report, zfx.campaigns.VerificationReport), name


def test_scan_and_fold_wrappers_see_every_phase(monkeypatch):
    """perfbench replaces ``_run_scan`` with ``(items, worker, jobs)`` and
    passes the third argument on positionally, and ``_fold`` with
    ``(report, records)``; one call each per phase, same report."""
    plain = zfx.campaigns.audit_lemmas(n_max=4, jobs=2).normalized_json()
    run_scan, fold = zfx.campaigns._run_scan, zfx.campaigns._fold
    calls = {"scan": 0, "fold": 0}

    def timed_scan(items, worker, jobs):
        calls["scan"] += 1
        return run_scan(items, worker, jobs)

    def timed_fold(report, records):
        calls["fold"] += 1
        return fold(report, records)

    monkeypatch.setattr(zfx.campaigns, "_run_scan", timed_scan)
    monkeypatch.setattr(zfx.campaigns, "_fold", timed_fold)
    wrapped = zfx.campaigns.audit_lemmas(n_max=4, jobs=2).normalized_json()
    assert calls == {"scan": 3, "fold": 3}
    assert wrapped == plain


@pytest.mark.parametrize("jobs,per_item", [(1, True), (2, False)])
def test_benchmark_timers_run(monkeypatch, jobs, per_item):
    """perfbench's own ``time_scans``: traced (jobs=1), it wraps each
    ``worker(item)`` call, and sees one per scanned item."""
    monkeypatch.setitem(sys.modules, "gates", _from_text("gates"))
    bench = _from_text("campaign")
    plain = zfx.campaigns.audit_lemmas(n_max=4, jobs=jobs)
    # saved, so the timers time_scans installs are taken out afterwards
    monkeypatch.setattr(zfx.campaigns, "_run_scan", zfx.campaigns._run_scan)
    monkeypatch.setattr(zfx.campaigns, "_fold", zfx.campaigns._fold)
    acc = bench.time_scans(zfx.campaigns, per_item)
    report = zfx.campaigns.audit_lemmas(n_max=4, jobs=jobs)
    assert report.normalized_json() == plain.normalized_json()
    assert acc["scan_s"] > 0
    assert len(acc["worker_s"]) == (report.scanned if per_item else 0)
