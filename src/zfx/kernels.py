"""Backend selection for the hot kernels.

The compiled extension (``zfx._kernels_cy``) is preferred when importable;
``ZFX_PURE=1`` in the environment forces the pure-Python fallback.  A kernel
has a compiled twin only where it moves a campaign's run time:
``canon_adj`` (corpus enumeration), ``profile_counts``, ``split_bags``
(the whole split recursion of ``splitdec.decompose`` in one call, up to
finished bags) and ``accessible_rows`` (all of ``splitdec.reconstruct``'s
accessibility search in one call), with outputs identical to the pure
ones; parity is enforced by the test suite.
``closure_mask``, ``metric_dh`` (the polynomial separation test) and
``find_split_mask`` are pure on both backends.  ``profile_counts`` takes the
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

profile_counts = _impl.profile_counts
split_bags = _impl.split_bags
accessible_rows = _impl.accessible_rows
closure_mask = _kernels_py.closure_mask
metric_dh = _kernels_py.metric_dh
find_split_mask = _kernels_py.find_split_mask

# The compiled canonical search packs the upper-triangle encoding into a
# 64-bit accumulator, which caps it at n = 11; larger graphs fall back to
# the big-int Python search.
_CY_CANON_MAX = 11


def canon_adj(n: int, adj) -> tuple:
    if _impl is not _kernels_py and n > _CY_CANON_MAX:
        return _kernels_py.canon_adj(n, adj)
    return _impl.canon_adj(n, adj)
