"""Shared test helpers."""

from contextlib import contextmanager

import pytest

from edgesep import tree_or_sep


@contextmanager
def _counting_contract_checks():
    """Count the exact contract re-checks of the tree-or-separator routines.

    Yields a live dict of calls to ``_verify_edge`` and ``_verify_vertex``,
    by flavor, made inside the ``with`` block.
    """
    counts = {"edge": 0, "vertex": 0}
    with pytest.MonkeyPatch.context() as mp:
        for flavor in counts:
            check = getattr(tree_or_sep, f"_verify_{flavor}")

            def counted(*args, _check=check, _flavor=flavor):
                counts[_flavor] += 1
                return _check(*args)

            mp.setattr(tree_or_sep, f"_verify_{flavor}", counted)
        yield counts


@pytest.fixture(scope="session")
def contract_checks():
    """``with contract_checks() as counts:`` counts the contract re-checks."""
    return _counting_contract_checks
