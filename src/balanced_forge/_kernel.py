"""Kernel selection: compiled extension when available, else pure Python.

The extension is balanced_forge._speedups, built from _speedups.c by
`python3 setup.py build_ext --inplace`. Set BALANCED_FORGE_PURE=1 to force
the interpreted kernels even when the extension is built.
"""
import os

from . import _mbc_pure

if os.environ.get("BALANCED_FORGE_PURE") == "1":
    _impl = _mbc_pure
    KERNEL = "pure"
else:
    try:
        from . import _speedups as _impl

        KERNEL = "compiled"
    except ImportError:
        _impl = _mbc_pure
        KERNEL = "pure"

direct_search = _impl.direct_search
cover_search = _impl.cover_search
