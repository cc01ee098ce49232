"""Kernel selection: compiled extension when available, else pure Python.

The extension is balanced_forge._speedups, built from _speedups.c by
`python3 setup.py build_ext --inplace`. KERNEL names the kernels in use,
"compiled" or "pure"; a checkout without the build runs the pure ones.
"""
try:
    from . import _speedups as _impl

    KERNEL = "compiled"
except ImportError:
    from . import _mbc_pure as _impl

    KERNEL = "pure"

direct_search = _impl.direct_search
cover_search = _impl.cover_search
