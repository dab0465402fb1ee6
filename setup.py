"""Minimal setuptools entry point for an editable install.

There is no ``pyproject.toml`` and no package metadata here: setuptools
finds the ``repro`` package through its ``src/`` layout discovery, so
``pip install -e .`` works (the distribution name is ``UNKNOWN``).  The
tests and tools run without installing anything, with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
