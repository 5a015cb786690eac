"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts, each read from its row of
``equivalence_suite``: on the fused lasso, and the four J = 1 rows again on
the CT and lrtv-sr families, whose rows carry the family's tag.  Every row but
the matched-start ``pdfp == pd3o`` one also compares the two runs' final
states, the dual y of h included, which every solver carries at unit scale."""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import assert_row

from splitopt.verification import _identity_row


def test_fb_dual_one_inner_step_is_pdfp(equivalence_rows):
    assert_row(equivalence_rows, "fb-dual(J=1) == pdfp")


def test_tos_dual_one_inner_step_is_pd3o(equivalence_rows):
    assert_row(equivalence_rows, "tos-dual(J=1) == pd3o")


def test_tos_pd_one_inner_step_is_single_loop(equivalence_rows):
    assert_row(equivalence_rows, "tos-pd(J=1) == tos-pd-single")


def test_fb_pd_one_inner_step_is_condat_vu(equivalence_rows):
    assert_row(equivalence_rows, "fb-pd(J=1) == condat-vu")


def test_pd3o_identity_operator_is_davis_yin(equivalence_rows):
    assert_row(equivalence_rows, "pd3o(lam=1,B=I) == davis-yin")


def test_pdfp_matches_pd3o_x_iterates(equivalence_rows):
    assert_row(equivalence_rows, "pdfp == pd3o (x-iterates, matched start)")


FAMILIES = ["ct", "lrtv-sr"]


@pytest.mark.parametrize("family", FAMILIES)
def test_fb_dual_one_inner_step_is_pdfp_on_family(equivalence_rows, family):
    assert_row(equivalence_rows, f"fb-dual(J=1) == pdfp [{family}]")


@pytest.mark.parametrize("family", FAMILIES)
def test_tos_dual_one_inner_step_is_pd3o_on_family(equivalence_rows, family):
    assert_row(equivalence_rows, f"tos-dual(J=1) == pd3o [{family}]")


@pytest.mark.parametrize("family", FAMILIES)
def test_tos_pd_one_inner_step_is_single_loop_on_family(equivalence_rows, family):
    assert_row(equivalence_rows, f"tos-pd(J=1) == tos-pd-single [{family}]")


@pytest.mark.parametrize("family", FAMILIES)
def test_fb_pd_one_inner_step_is_condat_vu_on_family(equivalence_rows, family):
    assert_row(equivalence_rows, f"fb-pd(J=1) == condat-vu [{family}]")


def test_short_trajectory_fails_its_row():
    # identical iterates, but one run stopped before the iterations asked for
    state = {"x": np.zeros(3), "y": np.zeros(2)}
    full = SimpleNamespace(iterates=[np.zeros(3)] * 10, final_state=state)
    short = SimpleNamespace(iterates=[np.zeros(3)] * 9, final_state=state)
    assert _identity_row("a == b", full, full, 10) == ("a == b", True, "max gap 0.00e+00")
    for tr_a, tr_b in ((full, short), (short, full)):
        name, ok, detail = _identity_row("a == b", tr_a, tr_b, 10)
        assert not ok and detail == "stopped after 9 of 10 iterations"


def test_final_state_gap_fails_its_row():
    # identical iterates, but the final duals differ by 1e-9
    state = {"x": np.zeros(3), "y": np.zeros(2)}
    a = SimpleNamespace(iterates=[np.zeros(3)] * 10, final_state=state)
    b = SimpleNamespace(iterates=[np.zeros(3)] * 10, final_state={**state, "y": np.full(2, 1e-9)})
    assert _identity_row("a == b", a, b, 10) == ("a == b", False, "max gap 1.00e-09")
