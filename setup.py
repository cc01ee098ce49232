"""Builds the optional C speedups.

The package is pure Python first: if the extension cannot be compiled
(no C compiler, or one that fails), setuptools warns and the interpreted
kernels, which return identical results, stay in use. Set
BALANCED_FORGE_NO_EXT=1 to skip the extension. Offline build in place:
`python3 setup.py build_ext --inplace`.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("BALANCED_FORGE_NO_EXT") != "1":
    ext_modules = [
        Extension(
            "balanced_forge._speedups",
            ["src/balanced_forge/_speedups.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
