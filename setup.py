"""Build script: compiles the kernel extension when a toolchain is present.

The extension builds from the committed ``src/zfx/_kernels_cy.c``, so no
Cython is needed at install time; regenerate that file with
``cython -3 src/zfx/_kernels_cy.pyx`` after editing the ``.pyx``.  The
extension is optional; the package falls back to the pure-Python kernels
at import time, so a failed compile only costs speed.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            print(f"warning: skipping compiled kernels ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name} ({exc})", file=sys.stderr)


setup(
    ext_modules=[
        Extension(
            "zfx._kernels_cy",
            ["src/zfx/_kernels_cy.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
