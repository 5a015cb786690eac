"""Pointwise trajectory identities between the nested schemes at one inner
iteration and their single-loop counterparts."""

import numpy as np
import pytest

from splitopt.operators import DenseMatrix, Identity
from splitopt.problems import SplitProblem, build_fused_lasso
from splitopt.proxfuncs import L1Norm
from splitopt.smooth import LeastSquares
from splitopt.solvers import (
    SolverConfig,
    solve_condat_vu,
    solve_davis_yin,
    solve_fb_dual,
    solve_fb_primal_dual,
    solve_pd3o,
    solve_pdfp,
    solve_tos_dual,
    solve_tos_pd_single,
    solve_tos_primal_dual,
)

ITERS = 150
TOL = 1e-12


@pytest.fixture(scope="module")
def problem():
    return build_fused_lasso(m=30, n=60, seed=3)


def config(problem, **kw):
    base = dict(gamma=1.9 / problem.f.lipschitz, eps=1e-16, max_outer=ITERS,
                record_iterates=True)
    base.update(kw)
    return SolverConfig(**base)


def max_gap(tr_a, tr_b, skip_a=0, skip_b=0):
    pairs = zip(tr_a.iterates[skip_a:], tr_b.iterates[skip_b:])
    return max(float(np.abs(a - b).max()) for a, b in pairs)


def test_fb_dual_one_inner_step_is_pdfp(problem):
    c = config(problem, lam=0.25)
    assert len(solve_fb_dual(problem, c).iterates) >= 100
    assert max_gap(solve_fb_dual(problem, c), solve_pdfp(problem, c)) < TOL


def test_tos_dual_one_inner_step_is_pd3o(problem):
    c = config(problem, lam=0.25)
    assert max_gap(solve_tos_dual(problem, c), solve_pd3o(problem, c)) < TOL


def test_tos_pd_one_inner_step_is_single_loop(problem):
    c = config(problem, sigma=0.25, tau=1.0)
    assert max_gap(solve_tos_primal_dual(problem, c), solve_tos_pd_single(problem, c)) < TOL


def test_fb_pd_one_inner_step_is_condat_vu(problem):
    # reparameterization: sigma' = sigma/gamma, tau' = tau*gamma/(1+tau)
    gamma = 1.9 / problem.f.lipschitz
    sigma, tau = 0.25, 1.0
    tr_nested = solve_fb_primal_dual(problem, config(problem, sigma=sigma, tau=tau))
    tr_cv = solve_condat_vu(
        problem, config(problem, sigma=sigma / gamma, tau=tau * gamma / (1 + tau))
    )
    assert max_gap(tr_nested, tr_cv) < TOL


def test_pd3o_identity_operator_is_davis_yin():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 40))
    p = SplitProblem(
        f=LeastSquares(DenseMatrix(a), rng.standard_normal(30)),
        g=L1Norm(0.3), h=L1Norm(0.5), B=Identity(40),
    )
    c = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=1.0, eps=1e-16,
                     max_outer=ITERS, record_iterates=True)
    assert max_gap(solve_pd3o(p, c), solve_davis_yin(p, c)) < TOL


def test_pdfp_matches_pd3o_x_iterates():
    # The two single-loop schemes coincide pointwise when the first prox term
    # vanishes; start both at a stationary point of f so the matched shadow
    # start z0 = x0 - gamma grad f(x0) - gamma B^T y0 equals x0, and compare
    # with the shadow sequence read one step later.
    p = build_fused_lasso(m=30, n=60, mu1=0.0, seed=3)
    gamma = 1.9 / p.f.lipschitz
    x0 = np.linalg.lstsq(p.f.op.matrix, p.f.target, rcond=None)[0]
    y0 = np.zeros(p.B.out_dim)
    z0 = x0 - gamma * p.f.gradient(x0) - gamma * p.B.adjoint_apply(y0)
    c = SolverConfig(gamma=gamma, lam=0.25, eps=1e-16, max_outer=201, record_iterates=True)
    tr_pdfp = solve_pdfp(p, c, x0=x0, y0=y0)
    tr_pd3o = solve_pd3o(p, c, z0=z0, y0=y0)
    assert len(tr_pdfp.iterates) >= 200
    assert max_gap(tr_pdfp, tr_pd3o, skip_b=1) < TOL
