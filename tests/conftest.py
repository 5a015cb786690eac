"""The rows of the ``verify`` property suites at seed 3, shared by the unit
tests and the acceptance criteria, so each property has one implementation."""

import pytest

from splitopt.verification import equivalence_suite, operator_suite, prox_suite


def suite_rows(suite):
    """A suite's rows at seed 3 as ``{name: (ok, detail)}``."""
    return {name: (ok, detail) for name, ok, detail in suite(seed=3)}


def assert_row(rows, name):
    ok, detail = rows[name]
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def prox_rows():
    return suite_rows(prox_suite)


@pytest.fixture(scope="session")
def operator_rows():
    return suite_rows(operator_suite)


@pytest.fixture(scope="session")
def equivalence_rows():
    return suite_rows(equivalence_suite)
