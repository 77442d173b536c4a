"""The ``>>>`` examples in ``src/`` docstrings run as tests.

``docs/API.md`` is checked by ``python -m doctest``; these are the
modules whose own docstrings carry examples (``server.client``'s need a
running server and stay prose).
"""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = [
    "repro.api",
    "repro.stats",
    "repro.core.patterns",
    "repro.engine.parallel",
    "repro.lang.parser",
    "repro.lang.repl",
    "repro.utils.timing",
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_run(name):
    results = doctest.testmod(importlib.import_module(name), verbose=False)
    assert results.attempted > 0, f"{name} carries no examples"
    assert results.failed == 0
