from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

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


@pytest.fixture(scope="session")
def built_kernels(tmp_path_factory):
    """The committed ``_kernels_cy.c`` built with gcc, warnings as errors,
    into a temporary directory."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc to build the compiled kernels")
    ext = tmp_path_factory.mktemp("kernels") / (
        "_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [gcc, "-O3", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"], str(SRC / "_kernels_cy.c"),
         "-o", str(ext)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("zfx._kernels_cy", ext)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cyk(request):
    """The compiled kernels: the installed extension, else ``built_kernels``."""
    try:
        from zfx import _kernels_cy

        return _kernels_cy
    except ImportError:
        return request.getfixturevalue("built_kernels")
