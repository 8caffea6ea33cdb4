"""Shared test fixtures.

Unit-test isolation for the experiment cache layers: every test gets a
private, initially empty on-disk cache under its tmp dir, and starts
from empty in-memory memoization.  Tests that need warm or shared cache
state build it themselves; nothing can leak between tests or into the
developer's real ``~/.cache/repro-arc``.

The real-tree lint model (``real_tree_ctx``) is parsed once per
session: the static halves of the ``REPRO_SANITIZE`` cross-checks and
the real-tree analysis pins all read it, and ``ctx.shared`` caches each
rule family's analyses on it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.experiments import diskcache
from repro.experiments.runner import clear_caches
from repro.lint.engine import (
    LintConfig,
    LintContext,
    collect_files,
    parse_module,
)


@pytest.fixture(autouse=True)
def isolated_experiment_caches(tmp_path):
    clear_caches()
    with diskcache.isolated(tmp_path / "repro-cache"):
        yield
    clear_caches()


@pytest.fixture(scope="session")
def real_tree_ctx() -> LintContext:
    """A lint context over the shipped ``repro`` package."""
    modules = []
    for path, file_root in collect_files([Path(repro.__file__).parent]):
        module, error = parse_module(path, file_root)
        if error is None:
            modules.append(module)
    return LintContext(LintConfig(), modules)
