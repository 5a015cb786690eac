"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts, each read from its row of
``equivalence_suite``: the four J = 1 rows on a small instance of each family,
the CT and lrtv-sr rows tagged with the family, each pair at its type-II preset
steps.  Every row but the matched-start ``pdfp == pd3o`` one also compares the
two runs' final states, the dual y of h included, which every solver carries at
unit scale.  The two pairs that evaluate the same expressions in the same order
are also compared bit for bit, x and every state variable at every step, through
the solvers' ``observe`` hook.  A property test draws random small instances and
steps and checks every J = 1 pair on them in the same way."""

import numpy as np
import pytest
from conftest import assert_row
from hypothesis import given, settings
from hypothesis import strategies as st

from splitopt.operators import (BlurDownsample, DenseMatrix, Difference1D, Gradient2D, Identity,
                                SparseMatrix)
from splitopt.problems import SplitProblem
from splitopt.proxfuncs import (BoxIndicator, GroupL21, L1Norm, NonnegativeIndicator,
                                NuclearNorm, ZeroFunction)
from splitopt.smooth import LeastSquares
from splitopt.solvers import _TABLE, SOLVERS, SolverConfig
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


#: outer steps of each drawn pair
DRAWN_STEPS = 40
#: the pairs that evaluate the same expressions in the same order
EXACT = {"fb-dual", "tos-pd"}
#: the prox kinds drawn for g, and for h on the vector instances
G_KINDS = {"l1": lambda: L1Norm(0.3), "nonnegative": NonnegativeIndicator,
           "zero": ZeroFunction, "box": lambda: BoxIndicator(-0.5, 0.5)}
H_KINDS = {"l1": lambda: L1Norm(0.5), "box": lambda: BoxIndicator(-0.2, 0.2)}


def _random_b(kind, n, rng):
    if kind == "difference-1d":
        return Difference1D(n)
    if kind == "dense":
        return DenseMatrix(rng.standard_normal((int(rng.integers(2, 12)), n)))
    if kind == "identity":
        return Identity(n)
    nnz = int(rng.integers(1, 3 * n))
    rows = int(rng.integers(2, 12))
    return SparseMatrix(rows, n, rng.integers(0, rows, nnz), rng.integers(0, n, nnz),
                        rng.standard_normal(nnz))


@st.composite
def drawn_instances(draw):
    """A small problem of one of three shapes, with steps strictly inside their conditions:
    a vector instance (dense A; B a 1-d difference, dense, identity or sparse), a TV image
    (dense A, B the 2-d gradient, h grouped l21) and a low-rank TV image (A a blur with
    downsampling, g the nuclear norm, B the 2-d gradient, h grouped l21)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["vector", "tv", "low-rank-tv"]))
    if shape == "vector":
        n = draw(st.integers(4, 15))
        a = DenseMatrix(rng.standard_normal((draw(st.integers(2, 12)), n)))
        b = _random_b(draw(st.sampled_from(["difference-1d", "dense", "identity", "sparse"])),
                      n, rng)
        g = G_KINDS[draw(st.sampled_from(sorted(G_KINDS)))]()
        h = H_KINDS[draw(st.sampled_from(sorted(H_KINDS)))]()
    else:
        factor = draw(st.integers(1, 2))
        rows, cols = (factor * draw(st.integers(2, 4)) for _ in range(2))
        if shape == "tv":
            a = DenseMatrix(rng.standard_normal((draw(st.integers(2, 12)), rows * cols)))
            g = G_KINDS[draw(st.sampled_from(sorted(G_KINDS)))]()
        else:
            a = BlurDownsample(rows, cols, draw(st.sampled_from([0.0, 0.7, 1.0])), factor)
            g = NuclearNorm(0.1, (rows, cols))
        b, h = Gradient2D(rows, cols), GroupL21(0.2)
    p = SplitProblem(f=LeastSquares(a, rng.standard_normal(a.out_dim)), g=g, h=h, B=b)
    inside = st.floats(0.05, 0.95)
    tau = draw(st.floats(0.1, 2.0))
    steps = {"gamma": draw(inside) * 2.0 / p.f.lipschitz, "lam": draw(inside) * 2.0 / b.norm_sq,
             "sigma": draw(inside) / (tau * b.norm_sq), "tau": tau}
    return p, steps


def _stopped_converged(run, eps):
    """Whether a run's last step met the stopping rule, read from its own last two iterates."""
    (x_prev, _), (x, _) = run[-2:]
    return np.linalg.norm(x - x_prev) / max(np.linalg.norm(x_prev), 1e-30) <= eps


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drawn_instances())
def test_every_pair_agrees_on_drawn_instances(instance):
    """Each J = 1 pair's x and state agree at every step both runs ran, to 1e-12 of the
    largest entry, and bit for bit for the exact pairs.  With eps 1e-16 a rel_change at
    rounding level may stop one run first: a run shorter than DRAWN_STEPS is accepted only
    if it stopped converged, and an exact pair must stop at the same step."""
    p, steps = instance
    config = SolverConfig(**steps, eps=1e-16, max_outer=DRAWN_STEPS)
    for nested, row in _TABLE.items():
        if not row.single:
            continue
        single = row.to_single(config) if row.to_single else config
        a, b = _observed(SOLVERS[nested], p, config), _observed(SOLVERS[row.single], p, single)
        for run in (a, b):
            assert len(run) == DRAWN_STEPS or _stopped_converged(run, config.eps), nested
        pairs = [(u, v) for (x_a, s_a), (x_b, s_b) in zip(a, b)
                 for u, v in [(x_a, x_b), *((s_a[key], s_b[key]) for key in s_a)]]
        if nested in EXACT:
            assert len(a) == len(b), nested
            assert all(np.array_equal(u, v) for u, v in pairs), nested
        largest = max(max(np.abs(u).max(), np.abs(v).max()) for u, v in pairs)
        gap = max(np.abs(u - v).max() for u, v in pairs)
        assert gap <= 1e-12 * largest, f"{nested}: max gap {gap:.2e} of {largest:.2e}"
