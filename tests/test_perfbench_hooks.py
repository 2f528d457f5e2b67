"""The names perfbench/campaign.py looks up in zfx still exist, and take
the calls it makes.

The benchmark finds its hooks by name and lives outside ``testpaths``, so a
rename in zfx would only show when the benchmark runs.  This reads
perfbench/ and changes nothing there.
"""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import zfx.campaigns
import zfx.forcing

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.json"
GATES = PERFBENCH / "gates.py"


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
    gates = types.ModuleType("gates")  # run from its text: no .pyc beside it
    exec(compile(GATES.read_text(), str(GATES), "exec"), vars(gates))
    assert gates.PINS
    for name in gates.PINS:
        report = getattr(zfx.campaigns, name)(n_max=3, jobs=1)
        assert isinstance(report, zfx.campaigns.VerificationReport), name
