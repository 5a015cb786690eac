"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts, each read from its row of
``equivalence_suite``: on the fused lasso, and the four J = 1 rows again on
the CT and lrtv-sr families, whose rows carry the family's tag.  Every row but
the matched-start ``pdfp == pd3o`` one also compares the two runs' final
states, the dual y of h included, which every solver carries at unit scale.
The two pairs that evaluate the same expressions in the same order are also
compared bit for bit, x and every state variable at every step, through the
solvers' ``observe`` hook."""

import numpy as np
import pytest
from conftest import assert_row

from splitopt.problems import build_ct_problem, build_fused_lasso, build_lrtv_problem
from splitopt.solvers import _TABLE, SOLVERS, SolverConfig
from splitopt.verification import _identity_row, _observed


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
    step = (np.zeros(3), {"x": np.zeros(3), "y": np.zeros(2)})
    full, short = [step] * 10, [step] * 9
    assert _identity_row("a == b", full, full, 10) == ("a == b", True, "max gap 0.00e+00")
    for tr_a, tr_b in ((full, short), (short, full)):
        name, ok, detail = _identity_row("a == b", tr_a, tr_b, 10)
        assert not ok and detail == "stopped after 9 of 10 iterations"


def test_final_state_gap_fails_its_row():
    # identical iterates, but the final duals differ by 1e-9
    state = {"x": np.zeros(3), "y": np.zeros(2)}
    a = [(np.zeros(3), state)] * 10
    b = a[:-1] + [(np.zeros(3), {**state, "y": np.full(2, 1e-9)})]
    assert _identity_row("a == b", a, b, 10) == ("a == b", False, "max gap 1.00e-09")


#: equivalence_suite's three small instances, at seed 0
INSTANCES = {
    "fused-lasso": lambda: build_fused_lasso(m=30, n=60, seed=0),
    "ct": lambda: build_ct_problem(img_side=16, views=6, rays=24, seed=0),
    "lrtv-sr": lambda: build_lrtv_problem(rows=16, cols=16, seed=0),
}


@pytest.mark.parametrize("family", INSTANCES)
@pytest.mark.parametrize("nested", ["fb-dual", "tos-pd"])
def test_exact_pair_is_bitwise_equal_at_every_step(nested, family):
    # fb-dual(J=1) == pdfp and tos-pd(J=1) == tos-pd-single evaluate the same expressions
    # in the same order, so they agree to the bit, which the suite's 1e-12 row cannot see
    p, row = INSTANCES[family](), _TABLE[nested]
    assert row.to_single is None
    c = SolverConfig(gamma=1.9 / p.f.lipschitz, eps=1e-16, max_outer=200,
                     **{name: 1.0 if name == "tau" else 0.9 / p.B.norm_sq
                        for name in row.steps if name != "gamma"})
    a, b = _observed(SOLVERS[nested], p, c), _observed(SOLVERS[row.single], p, c)
    assert len(a) == len(b) == 200
    for k, ((x_a, state_a), (x_b, state_b)) in enumerate(zip(a, b), 1):
        assert np.array_equal(x_a, x_b), f"x differs at step {k}"
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), f"{key} differs at step {k}"
