"""Build script: compiles the kernel extension when a toolchain is present.

The extension is one hand-written CPython-API C file,
``src/zfx/_kernels_cy.c``, so a C compiler is all it needs.  It is
optional; the package falls back to the pure-Python kernels at import
time, so a failed compile only costs speed.
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
