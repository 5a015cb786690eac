"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts, each read from its row of
``equivalence_suite``."""

from types import SimpleNamespace

import numpy as np
import pytest

from splitopt.verification import _identity_row, equivalence_suite


@pytest.fixture(scope="module")
def rows():
    return {name: (ok, detail) for name, ok, detail in equivalence_suite(seed=3)}


def assert_row(rows, name):
    ok, detail = rows[name]
    assert ok, f"{name}: {detail}"


def test_fb_dual_one_inner_step_is_pdfp(rows):
    assert_row(rows, "fb-dual(J=1,warm) == pdfp")


def test_tos_dual_one_inner_step_is_pd3o(rows):
    assert_row(rows, "tos-dual(J=1) == pd3o")


def test_tos_pd_one_inner_step_is_single_loop(rows):
    assert_row(rows, "tos-pd(J=1) == tos-pd-single")


def test_fb_pd_one_inner_step_is_condat_vu(rows):
    assert_row(rows, "fb-pd(J=1) == condat-vu(reparameterized)")


def test_pd3o_identity_operator_is_davis_yin(rows):
    assert_row(rows, "pd3o(lam=1,B=I) == davis-yin")


def test_pdfp_matches_pd3o_x_iterates(rows):
    assert_row(rows, "pdfp == pd3o (x-iterates, matched start)")


def test_short_trajectory_fails_its_row():
    # identical iterates, but one run stopped before the iterations asked for
    full = SimpleNamespace(iterates=[np.zeros(3)] * 10)
    short = SimpleNamespace(iterates=[np.zeros(3)] * 9)
    assert _identity_row("a == b", full, full, 10) == ("a == b", True, "max gap 0.00e+00")
    for tr_a, tr_b in ((full, short), (short, full)):
        name, ok, detail = _identity_row("a == b", tr_a, tr_b, 10)
        assert not ok and detail == "stopped after 9 of 10 iterations"
