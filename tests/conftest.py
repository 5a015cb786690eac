"""The rows of the ``verify`` property suites at seed 3, shared by the unit
tests and the acceptance criteria, so each property has one implementation.

Every warning raised by a test in this directory is an error, so a 0/0 or an
overflow in a vectorised kernel fails the suite instead of leaking a NaN."""

from pathlib import Path

import pytest

from splitopt.verification import equivalence_suite, operator_suite, prox_suite

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # hooks see the whole session, so leave tests outside this directory alone
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


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
