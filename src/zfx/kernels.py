"""Backend selection for the hot kernels.

The compiled extension (``zfx._kernels_cy``) is preferred when importable;
``ZFX_PURE=1`` in the environment forces the pure-Python fallback.  A kernel
has a compiled twin only where it moves a campaign's run time, five in
all: ``canon_adj``, ``augment`` (one parent's step of the corpus
enumeration, canonical forms included, each child returned as its level
record and whether it is connected), ``profile_counts``, ``split_bags``
(the whole split recursion of ``splitdec.decompose`` and the reduction of
its bags in one call, returning the reduced tree as ``{bag id: (rows,
tokens, kind, center)}``; the reduction rule is ``_kernels_py.reduce_bags``,
and the compiled twin runs it in C) and ``accessible_rows`` (all of
``splitdec.reconstruct``'s accessibility search in one call, over
``(rows, tokens)`` bags).  A token names a label vertex: its original
vertex ``>= 0``, or ``~e`` for the marker of tree edge e.
Each twin runs its pure kernel's method with identical outputs and is
bound here directly, with no fallback by n; parity is enforced by the
test suite.  ``closure_mask``, ``closure_counts`` (the per-size counts of
``profile_counts`` by one closure per subset), ``metric_dh`` (the
polynomial separation test) and ``find_split_mask`` are pure on both
backends.  ``find_split_mask`` (the first split, as its A-side mask) is
the scan the pure ``split_bags`` runs on each part, from its own module;
the compiled ``split_bags`` runs its own scan, so the binding here has no
caller in the library.  It stays bound because ``perfbench/layers.json``
traces it by this name and the tests use it as the split-primality oracle.
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

canon_adj = _impl.canon_adj
augment = _impl.augment
profile_counts = _impl.profile_counts
split_bags = _impl.split_bags
accessible_rows = _impl.accessible_rows
closure_mask = _kernels_py.closure_mask
closure_counts = _kernels_py.closure_counts
metric_dh = _kernels_py.metric_dh
find_split_mask = _kernels_py.find_split_mask
