"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts, each read from its row of
``equivalence_suite``: the four J = 1 rows on a small instance of each family,
the CT and lrtv-sr rows tagged with the family, each pair at its type-II preset
steps.  Every row but the matched-start ``pdfp == pd3o`` one also compares the
two runs' final states, the dual y of h included, which every solver carries at
unit scale.  The two pairs that evaluate the same expressions in the same order
are also compared bit for bit, x and every state variable at every step, through
the solvers' ``observe`` hook."""

import numpy as np
import pytest
from conftest import assert_row

from splitopt.solvers import _TABLE, SOLVERS
from splitopt.verification import _identity_row, _observed, _pair_cases

FAMILIES = ["fused-lasso", "ct", "lrtv-sr"]


def pair_row(nested, family):
    """The name of ``nested``'s J = 1 row on ``family``'s instance."""
    tag = "" if family == "fused-lasso" else f" [{family}]"
    return f"{nested}(J=1) == {_TABLE[nested].single}{tag}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("nested", [name for name, row in _TABLE.items() if row.single])
def test_one_inner_step_is_the_single_loop_scheme(equivalence_rows, nested, family):
    assert_row(equivalence_rows, pair_row(nested, family))


def test_pd3o_identity_operator_is_davis_yin(equivalence_rows):
    assert_row(equivalence_rows, "pd3o(lam=1,B=I) == davis-yin")


def test_pdfp_matches_pd3o_x_iterates(equivalence_rows):
    assert_row(equivalence_rows, "pdfp == pd3o (x-iterates, matched start)")


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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("nested", ["fb-dual", "tos-pd"])
def test_exact_pair_is_bitwise_equal_at_every_step(nested, family):
    # fb-dual(J=1) == pdfp and tos-pd(J=1) == tos-pd-single evaluate the same expressions
    # in the same order, so they agree to the bit, which the suite's 1e-12 row cannot see
    p, runs = next((p, runs) for name, p, runs in _pair_cases(0)
                   if name == pair_row(nested, family))
    a, b = (_observed(SOLVERS[solver], p, c) for solver, c in runs)
    assert len(a) == len(b) == 200
    for k, ((x_a, state_a), (x_b, state_b)) in enumerate(zip(a, b), 1):
        assert np.array_equal(x_a, x_b), f"x differs at step {k}"
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), f"{key} differs at step {k}"
