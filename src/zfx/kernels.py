"""Backend selection for the hot kernels.

The compiled extension (``zfx._kernels_cy``) is preferred when importable;
``ZFX_PURE=1`` in the environment forces the pure-Python fallback.  Both
backends provide ``closure_mask``, ``profile_counts``, ``canon_adj``,
``find_split_mask`` and ``split_bags`` (the whole split recursion of
``splitdec.decompose`` in one call) with identical outputs; parity is
enforced by the test suite.  ``metric_dh`` is the pure polynomial
separation test on both backends: the compiled twin checks the definition
on every connected subset, which is exponential and measured no faster, so
only the parity tests call it, as a compiled literal oracle.  ``profile_counts`` takes the
same counts two ways: the compiled one runs one closure per subset, and the
pure one counts the sets that contain a fort on bitsets indexed by the 2^n
subsets (one closure per subset above 20 vertices).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("ZFX_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND

closure_mask = _impl.closure_mask
profile_counts = _impl.profile_counts
metric_dh = _kernels_py.metric_dh
find_split_mask = _impl.find_split_mask
split_bags = _impl.split_bags

# The compiled canonical search packs the upper-triangle encoding into a
# 64-bit accumulator, which caps it at n = 11; larger graphs fall back to
# the big-int Python search.
_CY_CANON_MAX = 11


def canon_adj(n: int, adj) -> tuple:
    if _impl is not _kernels_py and n > _CY_CANON_MAX:
        return _kernels_py.canon_adj(n, adj)
    return _impl.canon_adj(n, adj)
