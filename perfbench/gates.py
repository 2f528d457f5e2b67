"""Gates a campaign run must pass before the benchmark reports a number.

- Correctness: the report's totals, phase counts and the sha256 of its
  ``normalized_json()`` equal the values pinned below, and it lists no
  counterexample and no anomaly.  The pins hold for both kernel backends
  and for every ``jobs`` value.
- Backend: the campaign process runs on the kernel backend its workload
  names; a compiled workload that fell back to pure Python is a failure.
- Build: the compiled extension is built from the committed
  ``src/zfx/_kernels_cy.c``.  A stamp beside it holds the source's sha256;
  a stamp that differs from the current source forces a rebuild, and an
  extension whose stamp still differs is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sysconfig
from pathlib import Path

KERNELS_C = Path("src") / "zfx" / "_kernels_cy.c"
EXT_NAME = "_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX")
STAMP_NAME = "kernels_c.sha256"

# Pinned at the commit that added the benchmark; n <= 8, builtin corpus.
PINS = {
    "verify_dh": {
        "totals": {"scanned": 12113, "verified": 1893, "skipped": 10220,
                   "counterexamples": 0},
        "phases": None,
        "sha256": "1dca8e2e058a6474a1dc2d839ff2d09e7e36825ce7e86daf0e18d1e4e073e48a",
    },
    "verify_split_roundtrip": {
        "totals": {"scanned": 12113, "verified": 12113, "skipped": 0,
                   "counterexamples": 0},
        "phases": None,
        "sha256": "65f684a0b45335a44d8e1bbca7fa6bbc1b0d760344a248a00e0f70eed93c87c2",
    },
    "audit_lemmas": {
        "totals": {"scanned": 24278, "verified": 14331, "skipped": 9947,
                   "counterexamples": 0},
        "phases": {
            "leaf_recurrence": {"scanned": 12113, "verified": 4087},
            "fort_avoidance": {"scanned": 52, "verified": 52},
            "peel_extract": {"scanned": 12113, "verified": 10192},
        },
        "sha256": "8c994811a420d1eae960ed4bc8ae2efd69e4c1c3eb62d23f7a8aaaebde869763",
    },
}


class BuildError(RuntimeError):
    pass


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_report(function: str, normalized: str) -> list[str]:
    """Problems with a campaign report, given its ``normalized_json()``;
    an empty list means the report matches its pins."""
    pin = PINS[function]
    try:
        report = json.loads(normalized)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("totals") != pin["totals"]:
        problems.append(f"totals {report.get('totals')} != pinned {pin['totals']}")
    if report.get("phases") != pin["phases"]:
        problems.append(f"phases {report.get('phases')} != pinned {pin['phases']}")
    for key in ("counterexamples", "anomalies"):
        if report.get(key):
            problems.append(f"{len(report[key])} {key}")
    digest = sha256_text(normalized)
    if digest != pin["sha256"]:
        problems.append(f"normalized report sha256 {digest} != pinned {pin['sha256']}")
    return problems


def check_backend(actual: str, expected: str) -> list[str]:
    if actual != expected:
        return [f"kernel backend is {actual!r}, workload needs {expected!r}"]
    return []


def check_build(build_dir: Path, source: Path) -> list[str]:
    """Problems with the extension in ``build_dir`` as a build of ``source``."""
    ext, stamp = build_dir / EXT_NAME, build_dir / STAMP_NAME
    if not source.is_file():
        return [f"no kernel source {source}"]
    if not ext.is_file() or not stamp.is_file():
        return [f"no extension built in {build_dir}"]
    built_from = stamp.read_text().strip()
    current = sha256_file(source)
    if built_from != current:
        return [f"stale extension: built from {built_from[:12]}, source is {current[:12]}"]
    return []


def ensure_extension(build_dir: Path, source: Path) -> Path:
    """Build ``source`` into ``build_dir`` unless a fresh build is there;
    return the extension's path."""
    ext = build_dir / EXT_NAME
    if not check_build(build_dir, source):
        return ext
    if not source.is_file():
        raise BuildError(f"no kernel source {source}")
    build_dir.mkdir(parents=True, exist_ok=True)
    digest = sha256_file(source)
    tmp = build_dir / (EXT_NAME + ".tmp")
    cmd = ["gcc", "-O3", "-shared", "-fPIC",
           "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(tmp)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BuildError(f"cannot run gcc: {exc}") from exc
    if proc.returncode != 0:
        raise BuildError(f"gcc exited {proc.returncode}: {proc.stderr[-2000:]}")
    os.replace(tmp, ext)
    (build_dir / STAMP_NAME).write_text(digest + "\n")
    problems = check_build(build_dir, source)
    if problems:
        raise BuildError("; ".join(problems))
    return ext
