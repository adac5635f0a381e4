"""Setuptools entry point.

It declares no metadata and no packages: the library is not installed but
run from the checkout with ``PYTHONPATH=src``, and it needs only the
Python 3.9+ standard library (see README.md).
"""

from setuptools import setup

setup()
