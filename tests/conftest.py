from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from zfx import graphs, kernels
from zfx.graphs import Graph, enumerate_graphs

SRC = Path(__file__).resolve().parents[1] / "src" / "zfx"


@pytest.fixture(scope="session")
def graphs_by_n() -> dict[int, list[Graph]]:
    """All isomorphism classes (including disconnected) for n <= 6."""
    return {n: list(enumerate_graphs(n)) for n in range(0, 7)}


@pytest.fixture(scope="session")
def connected_by_n() -> dict[int, list[Graph]]:
    """Connected isomorphism classes for n <= 7."""
    return {n: list(enumerate_graphs(n, connected_only=True)) for n in range(1, 8)}


def compile_kernels(out_dir: Path, *flags: str) -> Path:
    """The committed ``_kernels_cy.c`` built with gcc and ``flags``, warnings
    as errors, into ``out_dir``; skips the test when there is no gcc."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc to build the compiled kernels")
    ext = out_dir / ("_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [gcc, *flags, "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"], str(SRC / "_kernels_cy.c"),
         "-o", str(ext)],
        check=True,
    )
    return ext


@pytest.fixture(scope="session")
def built_kernels(tmp_path_factory):
    """The compiled kernels built with ``-O3`` into a temporary directory."""
    ext = compile_kernels(tmp_path_factory.mktemp("kernels"), "-O3")
    spec = importlib.util.spec_from_file_location("zfx._kernels_cy", ext)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ubsan_kernels(tmp_path_factory) -> Path:
    """The compiled kernels built with UndefinedBehaviorSanitizer, aborting
    on the first report; their path, for loading in a subprocess."""
    return compile_kernels(tmp_path_factory.mktemp("ubsan"), "-O1", "-g",
                           "-fsanitize=undefined", "-fno-sanitize-recover=all")


@pytest.fixture(scope="session")
def cyk(request):
    """The compiled kernels: the installed extension, else ``built_kernels``."""
    try:
        from zfx import _kernels_cy

        return _kernels_cy
    except ImportError:
        return request.getfixturevalue("built_kernels")


@pytest.fixture(scope="session")
def level9(cyk) -> tuple[bytes, bytes]:
    """The level of every class on 9 vertices (274,668) as ``_levels``
    holds one: a buffer of sorted ``level_record(9)`` records and one
    is_connected byte per class.  Built once, with the compiled
    ``augment``, in a private level cache: ``graphs._levels`` never holds a
    level built on the other backend's kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "augment", cyk.augment)
        mp.setattr(graphs, "_levels", dict(graphs._levels))
        return graphs._enum_level(9)
