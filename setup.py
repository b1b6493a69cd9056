"""Setuptools shim.

There is no ``pyproject.toml`` and no packaging metadata: the package
is used straight from the checkout with ``PYTHONPATH=src``.  This shim
only makes a development install possible where the ``wheel`` package
is missing (``pip install -e . --no-use-pep517 --no-build-isolation``
runs the legacy ``setup.py develop`` path).
"""

from setuptools import setup

setup()
