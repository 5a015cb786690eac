"""The rows of the ``verify`` property suites at seed 3, shared by the unit
tests and the acceptance criteria, so each property has one implementation
and the equivalence suite runs once per session, the helpers that
compare a kernel with its oracle bit for bit, and one call-recording spy.

Every warning raised by a test in this directory is an error, so a 0/0 or an
overflow in a vectorised kernel fails the suite instead of leaking a NaN."""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from splitopt.operators import DenseMatrix, Identity
from splitopt.verification import equivalence_suite, operator_suite, prox_suite

HERE = Path(__file__).parent

#: image grids of the kernel oracle tests: the smallest, two with a side of
#: 2, a prime width and the benchmark's
GRID_SHAPES = [(2, 2), (2, 5), (5, 2), (3, 17), (64, 64)]


def pytest_collection_modifyitems(items):
    # hooks see the whole session, so leave tests outside this directory alone
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


class NanDense(DenseMatrix):
    """A user's dense operator whose spectral constant ``norm_sq`` reads NaN."""

    norm_sq = float("nan")


class NanIdentity(Identity):
    """A user's identity whose spectral constant ``norm_sq`` reads NaN."""

    norm_sq = float("nan")


class NegDense(DenseMatrix):
    """A user's dense operator whose spectral constant ``norm_sq`` reads -1."""

    norm_sq = -1.0


class NegIdentity(Identity):
    """A user's identity whose spectral constant ``norm_sq`` reads -1."""

    norm_sq = -1.0


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
def equivalence_run():
    """The equivalence rows and the seconds the suite took to produce them."""
    t0 = time.monotonic()
    rows = suite_rows(equivalence_suite)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="session")
def equivalence_rows(equivalence_run):
    return equivalence_run[0]


def signed_zeros(rng, size, scale=1.0):
    """``scale`` times normal draws, with about a quarter of the entries +0.0
    and a quarter -0.0, so that sums and differences give zeros of both signs."""
    x = scale * rng.standard_normal(size)
    pick = rng.integers(0, 4, size)
    x[pick == 0] = 0.0
    x[pick == 1] = -0.0
    return x


def assert_same_bits(got, want):
    """Equal arrays, NaNs in the same places, and zeros of the same sign."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def record_calls(monkeypatch, owner, name):
    """Replace ``owner``'s attribute, or mapping entry, ``name`` by a spy that passes each
    call through; return the list of (args, kwargs) the calls append to."""
    calls = []
    mapping = isinstance(owner, dict)
    real = owner[name] if mapping else getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    (monkeypatch.setitem if mapping else monkeypatch.setattr)(owner, name, spy)
    return calls


def raised_warnings(call, *args):
    """The (category, message) of every warning that ``call(*args)`` raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(*args)
    return {(w.category, str(w.message)) for w in caught}
