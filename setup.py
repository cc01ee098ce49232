"""Builds the optional C speedups.

The package is pure Python first: if the extension cannot be compiled
(no C compiler, or one that fails), setuptools warns and the interpreted
kernels, which return identical results, stay in use. Offline build in
place: `python3 setup.py build_ext --inplace`.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "balanced_forge._speedups",
            ["src/balanced_forge/_speedups.c"],
            optional=True,
        )
    ]
)
