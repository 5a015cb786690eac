import dataclasses
import inspect
import itertools
import re
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import NanDense, NanIdentity, NegDense, NegIdentity, record_calls

from splitopt import operators, solvers
from splitopt.operators import DenseMatrix, Identity, SparseMatrix
from splitopt.problems import SplitProblem, build_ct_problem, build_fused_lasso, build_lrtv_problem
from splitopt.proxfuncs import (L1Norm, NonnegativeIndicator, NuclearNorm, QuadraticDistance,
                                ZeroFunction)
from splitopt.smooth import LeastSquares
from splitopt.solvers import (
    PRESETS,
    SOLVERS,
    ConfigError,
    DivergenceError,
    SolverConfig,
    check_steps,
    preset_config,
    solve_condat_vu,
    solve_davis_yin,
    solve_fb_dual,
    solve_fb_primal_dual,
    solve_pd3o,
    solve_pdfp,
    solve_tos_dual,
    solve_tos_pd_single,
)
from splitopt.verification import _identity_b_problem, _observed


def quadratic_identity_problem(n=8, seed=0):
    # f = 0.5 ||x - b||^2 with g = h = 0 and B = I
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    return SplitProblem(
        f=LeastSquares(Identity(n), b),
        g=ZeroFunction(), h=ZeroFunction(), B=Identity(n),
    ), b


def small_lasso(seed=3):
    return build_fused_lasso(m=30, n=60, seed=seed)


def x_iterates(solve, problem, config, **start):
    """A run's x at each outer step, read through the ``observe`` hook."""
    return [x for x, _ in _observed(solve, problem, config, **start)]


class TestSmoothFunctions:
    def test_least_squares_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        op = DenseMatrix(rng.standard_normal((7, 5)))
        f = LeastSquares(op, rng.standard_normal(7))
        x = rng.standard_normal(5)
        grad = f.gradient(x)
        num = np.empty(5)
        h = 1e-6
        for i in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num[i] = (f.value(xp) - f.value(xm)) / (2 * h)
        assert np.linalg.norm(grad - num) / np.linalg.norm(num) < 1e-6

    def test_lipschitz_constant_is_operator_norm_squared(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((10, 6))
        f = LeastSquares(DenseMatrix(m), rng.standard_normal(10))
        true = np.linalg.svd(m, compute_uv=False)[0] ** 2
        assert abs(f.lipschitz - true) <= 1e-12 * true

    def test_shared_residual_is_thread_safe(self):
        # four threads (more than the cores) share one LeastSquares; the op
        # yields the interpreter lock inside every A x, so the threads interleave
        # there and keep replacing each other's remembered residual
        class YieldingMatrix(DenseMatrix):
            def _apply(self, x):
                time.sleep(0)
                return super()._apply(x)

        rng = np.random.default_rng(4)
        m, b = rng.standard_normal((9, 6)), rng.standard_normal(9)
        points = [rng.standard_normal(6) for _ in range(4)]
        fresh = LeastSquares(DenseMatrix(m), b)
        expected = [(fresh.value(x), fresh.gradient(x)) for x in points]
        shared = LeastSquares(YieldingMatrix(m), b)
        seen = {t: [] for t in range(4)}

        def evaluate(t):  # every thread visits every point, each at its own offset
            for k in range(400):
                i = (k + t) % 4
                seen[t].append((i, shared.value(points[i]), shared.gradient(points[i])))

        threads = [threading.Thread(target=evaluate, args=(t,)) for t in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in seen:
            assert len(seen[t]) == 400
            for i, value, grad in seen[t]:
                assert value == expected[i][0]
                assert np.array_equal(grad, expected[i][1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        # it was reported as a divergence at outer iteration 1
        with pytest.raises(ValueError, match=f"^target must be finite, got 1 that are not: {bad} at 2$"):
            LeastSquares(Identity(4), [0.0, 1.0, bad, 3.0])


class TestDegenerateReductions:
    def test_fb_dual_h_zero_is_one_gradient_step(self):
        # f = 0.5||x - b||^2, g = h = 0, gamma = 1: the first iterate is b
        p, b = quadratic_identity_problem()
        c = SolverConfig(gamma=1.0, lam=1.0, eps=1e-14, max_outer=10)
        np.testing.assert_allclose(x_iterates(solve_fb_dual, p, c)[0], b, atol=1e-12)

    def test_fb_pd_h_zero_matches_fb_dual(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 15))
        p = SplitProblem(
            f=LeastSquares(DenseMatrix(a), rng.standard_normal(20)),
            g=L1Norm(0.4), h=ZeroFunction(), B=Identity(15),
        )
        gamma = 1.9 / p.f.lipschitz
        dual = solve_fb_dual(p, SolverConfig(gamma=gamma, lam=1.0, eps=1e-12, max_outer=20000))
        pd = solve_fb_primal_dual(
            p, SolverConfig(gamma=gamma, sigma=0.5, tau=1.0, eps=1e-12, max_outer=20000)
        )
        assert dual.converged and pd.converged
        rel = np.linalg.norm(dual.final_x - pd.final_x) / np.linalg.norm(dual.final_x)
        assert rel < 1e-8

    def test_tos_dual_all_zero_terms_is_gradient_descent(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 6))
        b = rng.standard_normal(12)
        p = SplitProblem(f=LeastSquares(DenseMatrix(a), b), g=ZeroFunction(),
                         h=ZeroFunction(), B=Identity(6))
        gamma = 1.0 / p.f.lipschitz
        c = SolverConfig(gamma=gamma, lam=1.0, eps=1e-16, max_outer=60)
        xs = x_iterates(solve_tos_dual, p, c)
        # oracle: plain gradient descent from the same start; the scheme records
        # the prox of the shadow variable before updating it, so iterate k is
        # the k-th gradient-descent point counting from the start
        x = np.zeros(6)
        for k in range(60):
            np.testing.assert_allclose(xs[k], x, atol=1e-10)
            x = x - gamma * a.T @ (a @ x - b)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        long_run = solve_tos_dual(p, SolverConfig(gamma=gamma, lam=1.0, eps=1e-13,
                                                  max_outer=20000))
        assert long_run.converged
        assert np.linalg.norm(long_run.final_x - x_star) < 1e-6

    @pytest.mark.parametrize("fb, tos", [("fb-dual", "tos-dual"), ("fb-pd", "tos-pd")],
                             ids=["dual", "pd"])
    def test_tos_g_zero_is_fb_one_step_later(self, fb, tos):
        # with g = 0 the three-operator step hands its inner solver the point
        # x - gamma grad f(x) at x = z, as the forward-backward step does, and
        # records x = z before the step: tos iterate k+1 is fb iterate k
        p = build_fused_lasso(m=30, n=60, mu1=0.0, seed=7)
        c = preset_config(p, "type-II", fb, inner_iters=3, eps=1e-300, max_outer=201)
        fb_iterates = x_iterates(SOLVERS[fb], p, dataclasses.replace(c, max_outer=200))
        tos_iterates = x_iterates(SOLVERS[tos], p, c)
        gaps = [np.abs(a - b).max() for a, b in zip(tos_iterates[1:], fb_iterates, strict=True)]
        assert max(gaps) < 1e-12

    def test_pdfp_h_zero_keeps_dual_at_zero_and_is_proximal_gradient(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 10))
        p = SplitProblem(
            f=LeastSquares(DenseMatrix(a), rng.standard_normal(20)),
            g=L1Norm(0.3), h=ZeroFunction(), B=Identity(10),
        )
        gamma = 1.0 / p.f.lipschitz
        c = SolverConfig(gamma=gamma, lam=0.05, eps=1e-16, max_outer=50)
        steps = _observed(solve_pdfp, p, c)
        assert len(steps) == 50
        x = np.zeros(10)
        for x_k, state in steps:
            assert np.abs(state["y"]).max() < 1e-12
            x = p.g.prox(gamma, x - gamma * p.f.gradient(x))
            np.testing.assert_allclose(x_k, x, atol=1e-10)

    def test_condat_vu_small_sigma_is_proximal_gradient(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 10))
        p = SplitProblem(
            f=LeastSquares(DenseMatrix(a), rng.standard_normal(20)),
            g=L1Norm(0.3), h=ZeroFunction(), B=Identity(10),
        )
        tau_p = 1.0 / p.f.lipschitz
        c = SolverConfig(gamma=1.0, sigma=1e-12, tau=tau_p, eps=1e-16, max_outer=50)
        xs = x_iterates(solve_condat_vu, p, c)
        x = np.zeros(10)
        for k in range(50):
            x = p.g.prox(tau_p, x - tau_p * p.f.gradient(x))
            np.testing.assert_allclose(xs[k], x, atol=1e-9)

    def test_davis_yin_projected_gradient_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 8))
        b = rng.standard_normal(15)
        p = SplitProblem(f=LeastSquares(DenseMatrix(a), b), g=NonnegativeIndicator(),
                         h=ZeroFunction(), B=Identity(8))
        gamma = 1.0 / p.f.lipschitz
        c = SolverConfig(gamma=gamma, eps=1e-14, max_outer=5000)
        tr = solve_davis_yin(p, c)
        # independent projected-gradient solve
        x = np.zeros(8)
        for _ in range(20000):
            x_new = np.maximum(x - gamma * a.T @ (a @ x - b), 0.0)
            if np.linalg.norm(x_new - x) < 1e-14:
                break
            x = x_new
        assert np.abs(tr.final_x - x).max() < 1e-10

    def test_davis_yin_pure_gradient_descent(self):
        p, b = quadratic_identity_problem()
        c = SolverConfig(gamma=1.0, eps=1e-15, max_outer=100)
        tr = solve_davis_yin(p, c)
        np.testing.assert_allclose(tr.final_x, b, atol=1e-12)

    def test_davis_yin_rejects_non_identity(self):
        p = small_lasso()
        with pytest.raises(ConfigError, match="identity"):
            solve_davis_yin(p, SolverConfig(gamma=1.9 / p.f.lipschitz))

    def test_pd3o_f_zero_matches_reference_primal_dual(self):
        # strongly convex g pins a unique solution; compare against an
        # independently coded primal-dual (proximal saddle-point) iteration
        rng = np.random.default_rng(9)
        n, m = 6, 4
        bmat = rng.standard_normal((m, n))
        center = rng.standard_normal(n)
        p = SplitProblem(f=LeastSquares(DenseMatrix(np.zeros((1, n))), np.zeros(1)),
                         g=QuadraticDistance(1.0, center),
                         h=L1Norm(1.0), B=DenseMatrix(bmat))
        nb2 = np.linalg.svd(bmat, compute_uv=False)[0] ** 2
        c = SolverConfig(gamma=1.0, lam=0.9 / nb2, eps=1e-14, max_outer=20000)
        tr = solve_pd3o(p, c)
        tau, sigma = 0.5, 0.9 / (0.5 * nb2)
        x = np.zeros(n)
        y = np.zeros(m)
        for _ in range(20000):
            x_new = p.g.prox(tau, x - tau * bmat.T @ y)
            y = p.h.prox_conjugate(sigma, y + sigma * bmat @ (2 * x_new - x))
            if np.linalg.norm(x_new - x) < 1e-15:
                x = x_new
                break
            x = x_new
        assert np.linalg.norm(tr.final_x - x) / np.linalg.norm(x) < 1e-6

    def test_single_loop_tos_pd_quadratic_minimizer(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        p = SplitProblem(f=LeastSquares(DenseMatrix(a), b), g=ZeroFunction(),
                         h=ZeroFunction(), B=Identity(5))
        c = SolverConfig(gamma=1.9 / p.f.lipschitz, sigma=0.5, tau=1.0,
                         eps=1e-14, max_outer=20000)
        tr = solve_tos_pd_single(p, c)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(tr.final_state["y"]).max() < 1e-10
        assert np.linalg.norm(tr.final_x - x_star) < 1e-8


class TestObjective:
    def test_all_zero(self):
        p, _ = quadratic_identity_problem()
        f = LeastSquares(DenseMatrix(np.zeros((1, 4))), np.zeros(1))
        p2 = SplitProblem(f=f, g=ZeroFunction(), h=ZeroFunction(), B=Identity(4))
        assert p2.objective(np.ones(4)) == 0.0

    def test_fused_lasso_at_zero(self):
        p = small_lasso()
        assert p.objective(np.zeros(p.dim)) == pytest.approx(0.5 * p.f.target @ p.f.target)

    def test_termwise_recomputation(self):
        rng = np.random.default_rng(11)
        p = small_lasso()
        x = rng.standard_normal(p.dim)
        a = p.f.op.matrix
        expected = (0.5 * np.sum((a @ x - p.f.target) ** 2)
                    + 0.2 * np.sum(np.abs(x))
                    + 0.8 * np.sum(np.abs(np.diff(x))))
        assert p.objective(x) == expected


class TestConfigValidation:
    def test_gamma_range_enforced(self):
        p = small_lasso()
        bad = SolverConfig(gamma=2.1 / p.f.lipschitz, lam=0.25)
        with pytest.raises(ConfigError, match="gamma"):
            solve_fb_dual(p, bad)

    def test_gamma_message_shows_the_full_bound(self):
        # rounded to 6 digits, L makes a gamma just past 2/L look admissible
        p = small_lasso()
        lip = p.f.lipschitz
        bad = SolverConfig(gamma=2.0 / lip, lam=0.25, max_outer=1)
        with pytest.raises(ConfigError, match=re.escape(f"= (0, {2.0 / lip}) with L={lip}")):
            solve_fb_dual(p, bad)

    def test_lam_range_enforced(self):
        p = small_lasso()
        bad = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.51)
        with pytest.raises(ConfigError, match="lam"):
            solve_tos_dual(p, bad)

    def test_sigma_tau_product_enforced(self):
        p = small_lasso()
        bad = SolverConfig(gamma=1.9 / p.f.lipschitz, sigma=0.3, tau=1.0)
        with pytest.raises(ConfigError, match="sigma"):
            solve_fb_primal_dual(p, bad)

    def test_lam_checked_against_the_exact_lambda_max(self):
        # 2/lambda_max(D^T D) = 0.5000308 for n = 200; power iteration's lower
        # lambda_max = 3.999731 would admit lam = 0.500032
        p = build_fused_lasso()
        bad = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.500032, max_outer=1)
        with pytest.raises(ConfigError, match=r"lam=0\.500032 outside .* = \(0, 0\.500030"):
            solve_tos_dual(p, bad)

    def test_sigma_tau_checked_against_the_exact_norm(self):
        # sigma tau ||D||^2 = 1.0000033 with the exact ||D||^2 = 3.999753; the
        # message shows enough digits to see that it is not below 1
        p = build_fused_lasso()
        bad = SolverConfig(gamma=1.9 / p.f.lipschitz, sigma=1 / 3.99974, tau=1.0, max_outer=1)
        with pytest.raises(ConfigError, match=r"= 1\.000003\d* must be < 1"):
            solve_fb_primal_dual(p, bad)

    def test_overflowing_power_iteration_fails_the_step_check(self):
        # 1e200 squared overflows in the first sweep; gamma L = inf fails gamma L < 2
        a = SparseMatrix(2, 2, [0, 1], [0, 1], [1e200, 1.0])
        assert a.norm_sq == np.inf
        p = SplitProblem(f=LeastSquares(a, np.zeros(2)), g=L1Norm(0.1), h=L1Norm(0.1),
                         B=Identity(2))
        with pytest.raises(ConfigError, match="with L=inf"):
            check_steps("fb-dual", p, SolverConfig(gamma=1e300, lam=0.5))

    def test_overflowing_svd_constant_fails_the_preset_and_the_step_check(self):
        # a singular value of 1e200 squares past the float range: L reads inf
        a = DenseMatrix([[1e200, 0.0], [0.0, 1.0]])
        assert a.norm_sq == np.inf
        p = SplitProblem(f=LeastSquares(a, np.zeros(2)), g=L1Norm(0.1), h=L1Norm(0.1),
                         B=Identity(2))
        with pytest.raises(ConfigError, match=r"^L \(pass gamma=\) must be positive and finite, "
                                              r"got inf$"):
            preset_config(p, "type-II", "fb-dual")
        with pytest.raises(ConfigError, match="with L=inf"):
            check_steps("fb-dual", p, SolverConfig(gamma=1.0, lam=0.5))

    @pytest.mark.parametrize("case, name", [
        (case, name) for case in ("nan-l", "nan-b", "neg-l", "neg-b") for name in sorted(SOLVERS)
        if case.endswith("l") or name != "davis-yin"  # davis-yin reads no constant of B
    ])
    def test_nan_spectral_constant_rejects_every_step(self, case, name):
        # a user operator's NaN norm_sq: every bound that reads it is a negated product, so
        # none admits gamma = 1000 (L = NaN) or lam = sigma = tau = 1000 (||B||^2 = NaN);
        # a norm_sq of -1 makes those products negative, so it is rejected by name
        nan = case.startswith("nan")
        dense, identity = (NanDense, NanIdentity) if nan else (NegDense, NegIdentity)
        if case.endswith("l"):  # B = I, so every solver reads L
            p = SplitProblem(f=LeastSquares(dense(np.eye(3)), np.zeros(3)), g=L1Norm(0.1),
                             h=L1Norm(0.1), B=Identity(3))
            c = SolverConfig(gamma=1000.0, lam=0.5, sigma=0.25, tau=1.0, max_outer=1)
        else:
            p = SplitProblem(f=LeastSquares(Identity(3), np.zeros(3)), g=L1Norm(0.1),
                             h=L1Norm(0.1), B=identity(3))
            c = SolverConfig(gamma=0.1, lam=1000.0, sigma=1000.0, tau=1000.0, max_outer=1)
        with pytest.raises(ConfigError):
            SOLVERS[name](p, c)

    def test_no_step_past_its_exact_bound_is_admitted(self):
        # gamma and lam at fl(2/c) and its two neighbours, for seeded constants c in
        # [1e-3, 1e4]: a step the rounded product admits is admitted by exact arithmetic
        rng = np.random.default_rng(35)
        admitted = 0
        for c in 10.0 ** rng.uniform(-3.0, 4.0, 2000):
            bound = 2.0 / c
            for step in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
                for steps, lip, lam_max in (({"gamma": step, "lam": 1.0}, c, 1.0),
                                            ({"gamma": 1.0, "lam": step}, 1.0, c)):
                    p = types.SimpleNamespace(f=types.SimpleNamespace(lipschitz=lip), g=None,
                                              h=None, B=types.SimpleNamespace(norm_sq=lam_max))
                    try:
                        check_steps("fb-dual", p, SolverConfig(**steps))
                    except ConfigError:
                        continue
                    admitted += 1
                    assert Fraction(step) * Fraction(c) < 2
        assert admitted > 2000

    def test_condat_vu_standard_condition(self):
        p = small_lasso()
        bad = SolverConfig(gamma=1.9 / p.f.lipschitz, sigma=1.0, tau=1.0)
        with pytest.raises(ConfigError):
            solve_condat_vu(p, bad)

    def test_positivity_checked_at_construction(self):
        with pytest.raises(ConfigError):
            SolverConfig(gamma=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(gamma=1.0, eps=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(gamma=1.0, inner_iters=0)

    @pytest.mark.parametrize("name", ["gamma", "eps", "lam", "sigma", "tau"])
    def test_nan_rejected_at_construction(self, name):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(**{"gamma": 1.0, name: float("nan")})

    @pytest.mark.parametrize("name", ["gamma", "eps", "lam", "sigma", "tau"])
    def test_inf_rejected_at_construction(self, name):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(**{"gamma": 1.0, name: float("inf")})

    @pytest.mark.parametrize("name, value", [
        ("inner_iters", 2.5), ("max_outer", 3.5), ("max_outer", float("inf")),
    ], ids=["inner_iters-2.5", "max_outer-3.5", "max_outer-inf"])
    def test_non_integer_loop_count_rejected_at_construction(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(**{"gamma": 1.0, "lam": 0.25, name: value})

    def test_presets_match_their_step_rules(self):
        p = small_lasso()
        c1 = preset_config(p, "type-I", "fb-pd")
        assert c1.lam == pytest.approx(1.9 / 4.0)
        assert c1.sigma == pytest.approx(0.25) and c1.tau == 1.0
        c2 = preset_config(p, "type-II", "fb-pd")
        assert c2.lam == pytest.approx(0.25)
        assert c2.sigma == pytest.approx(0.5) and c2.tau == pytest.approx(0.5)
        assert c2.gamma == pytest.approx(1.9 / p.f.lipschitz)
        with pytest.raises(ConfigError):
            preset_config(p, "type-III", "fb-pd")
        # the 2-d gradient's conventional lambda_max = 8, pinned to the bit:
        # ||B|| = sqrt(8) and ||B||^2 = 8.000000000000002, not 8
        for build in (build_ct_problem, build_lrtv_problem):
            p = build()
            assert p.b_lam_max == 8.0
            c1 = preset_config(p, "type-I", "fb-pd", gamma=0.1)
            assert (c1.lam, c1.sigma, c1.tau) == (0.2375, 0.12499999999999997, 1.0)
            c2 = preset_config(p, "type-II", "fb-pd", gamma=0.1)
            assert (c2.lam, c2.sigma, c2.tau) == (0.125, 0.35355339059327373, 0.35355339059327373)
        # gamma = 1.9/L on every problem, lrtv-sr included, and for every solver
        p = build_lrtv_problem()
        for preset in ("type-I", "type-II"):
            for solver in SOLVERS:
                assert preset_config(p, preset, solver).gamma == 1.9 / p.f.lipschitz


class TestStoppingAndTrace:
    def test_rel_change_definition(self):
        p = small_lasso()
        xs = []
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-6,
                                            observe=lambda k, x, state: xs.append(x.copy())))
        assert len(xs) == tr.total_outer
        for k in range(1, len(xs)):
            expected = np.linalg.norm(xs[k] - xs[k - 1]) / max(np.linalg.norm(xs[k - 1]), 1e-30)
            assert tr.records[k].rel_change == pytest.approx(expected, rel=1e-12)

    def test_converged_trace_ends_below_eps(self):
        p = small_lasso()
        for preset in ("type-I", "type-II"):
            tr = solve_fb_primal_dual(p, preset_config(p, preset, "fb-pd", eps=1e-7))
            assert tr.converged
            assert tr.records[-1].rel_change <= 1e-7

    def test_rel_change_equal_to_eps_stops(self):
        p = small_lasso()
        # the stopping test is rel_change <= eps: a rerun with eps set to the
        # rel_change it stopped at stops at the same iteration, every earlier
        # rel_change being above 1e-6 and so above that eps
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-6))
        k, rel = tr.total_outer, tr.records[-1].rel_change
        again = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=rel))
        assert again.converged and again.total_outer == k and again.records[k - 1].rel_change == rel

    def test_maxiter_leaves_converged_false(self):
        p = small_lasso()
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-14, max_outer=20))
        assert not tr.converged
        assert tr.total_outer == 20

    def test_trace_objective_is_monotone_enough(self):
        # not a theorem, but the recorded objective should head downhill overall
        p = small_lasso()
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-10))
        objs = [r.objective for r in tr.records]
        assert objs[-1] < objs[0]

    def test_metrics_recorded_with_ground_truth(self):
        p = small_lasso()
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-8))
        assert tr.records[-1].snr is not None and tr.records[-1].nmsd is not None
        assert tr.records[-1].ssim is None  # no dynamic range

    def test_constant_ground_truth_rejected_before_the_first_step(self, monkeypatch):
        p = small_lasso()
        p = SplitProblem(f=p.f, g=p.g, h=p.h, B=p.B, ground_truth=np.ones(p.dim))
        monkeypatch.setattr(p.f, "gradient", lambda x: pytest.fail("a step was taken"))
        with pytest.raises(ValueError, match="constant"):
            solve_fb_dual(p, preset_config(p, "type-II", "fb-dual"))

    def test_non_finite_ground_truth_rejected_before_the_first_step(self, monkeypatch):
        # a NaN truth wrote snr = nan and nmsd = nan in every trace row
        p = small_lasso()
        truth = p.ground_truth.copy()
        truth[5] = np.nan
        p = SplitProblem(f=p.f, g=p.g, h=p.h, B=p.B, ground_truth=truth)
        monkeypatch.setattr(p.f, "gradient", lambda x: pytest.fail("a step was taken"))
        with pytest.raises(ValueError, match="^ground truth must be finite, got 1 that are not: nan at 5$"):
            solve_fb_dual(p, preset_config(p, "type-II", "fb-dual"))

    def test_ssim_recorded_with_dynamic_range(self):
        # a ground truth and a dynamic range are all SSIM needs: it is taken over flat vectors
        p = small_lasso()
        p = SplitProblem(f=p.f, g=p.g, h=p.h, B=p.B, ground_truth=p.ground_truth,
                         dynamic_range=3.0)
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-4))
        assert all(np.isfinite(r.ssim) for r in tr.records)

    def test_fixed_point_property(self):
        p = small_lasso()
        eps = 1e-9
        for name, solver in SOLVERS.items():
            if name == "davis-yin":
                continue
            c = preset_config(p, "type-II", name, eps=eps, max_outer=20000)
            tr = solver(p, c)
            assert tr.converged, name
            one_more = solver(p, preset_config(p, "type-II", name, eps=eps, max_outer=1),
                              **{k + "0": v for k, v in tr.final_state.items()})
            moved = np.linalg.norm(one_more.final_x - tr.final_x)
            assert moved < 10 * eps * max(np.linalg.norm(tr.final_x), 1.0), name


class TestCrossAlgorithmAgreement:
    def test_all_solvers_reach_the_same_point(self):
        p = small_lasso()
        eps = 1e-8
        finals = {}
        for name in ("fb-dual", "tos-dual", "pdfp", "pd3o"):
            finals[name] = SOLVERS[name](p, preset_config(p, "type-II", name, eps=eps)).final_x
        for name in ("fb-pd", "tos-pd", "tos-pd-single", "condat-vu"):
            finals[name] = SOLVERS[name](p, preset_config(p, "type-I", name, eps=eps)).final_x
        names = sorted(finals)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rel = np.linalg.norm(finals[a] - finals[b]) / np.linalg.norm(finals[b])
                assert rel < 1e-5, (a, b, rel)

    def test_every_solver_ends_at_a_dual_certificate_of_h(self):
        # y is the dual of h at unit scale in every solver: y = prox_{h*}(y + B x)
        p = small_lasso()
        resids = {}
        for name in sorted(set(SOLVERS) - {"davis-yin"}):  # davis-yin needs B = I
            tr = SOLVERS[name](p, preset_config(p, "type-II", name, eps=1e-10))
            assert tr.converged, name
            x, y = tr.final_x, tr.final_state["y"]
            resid = np.linalg.norm(y - p.h.prox_conjugate(1.0, y + p.B.apply(x)))
            resids[name] = resid / max(np.linalg.norm(y), 1.0)
        assert max(resids.values()) < 1e-6, resids

    def test_pdfp_and_pd3o_agree_in_the_limit_with_nonzero_g(self):
        # with g != 0 the trajectories differ transiently but reach the same point
        p = small_lasso()
        c = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.25, eps=1e-12, max_outer=5000)
        xa = solve_pdfp(p, c).final_x
        xb = solve_pd3o(p, c).final_x
        assert np.linalg.norm(xa - xb) / np.linalg.norm(xb) < 1e-8

    def test_pdfp_preset_behavior_on_desk_instance(self):
        # the conservative step rule converges; the aggressive dual step may
        # stall at the iteration cap on the reference instance
        p = build_fused_lasso(seed=0)
        assert solve_pdfp(p, preset_config(p, "type-II", "pdfp", eps=1e-8)).converged
        assert not solve_pdfp(p, preset_config(p, "type-I", "pdfp", eps=1e-8)).converged


class TestStartState:
    """Omitted start values: the first state key takes ``problem.x0``, else
    zeros; ``y`` takes zeros in B's range; ``v`` copies the first key."""

    @staticmethod
    def _problem(x0=None):
        rng = np.random.default_rng(12)
        n = 9
        return SplitProblem(f=LeastSquares(Identity(n), rng.standard_normal(n)),
                            g=L1Norm(0.3), h=L1Norm(0.5), B=Identity(n), x0=x0)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_omitted_start_values_follow_one_rule(self, name):
        solve = SOLVERS[name]
        keys = [k for k in inspect.signature(solve).parameters if k.endswith("0")]
        first = keys[0]
        c = SolverConfig(gamma=1.0, lam=0.5, sigma=0.25, tau=1.0, eps=1e-16, max_outer=6)
        start = np.random.default_rng(13).standard_normal(9)
        kept = start.copy()

        def explicit(x):
            return {k: x if k in (first, "v0") else np.zeros(9) for k in keys}

        given = _observed(solve, self._problem(), c, **explicit(start))
        runs = [
            (given, _observed(solve, self._problem(), c, **{first: start})),
            (given, _observed(solve, self._problem(x0=start), c)),
            (_observed(solve, self._problem(), c, **explicit(np.zeros(9))),
             _observed(solve, self._problem(), c)),
        ]
        for want, got in runs:
            assert len(want) == len(got)
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(want, got))
            assert want[-1][1].keys() == got[-1][1].keys()
        assert np.array_equal(start, kept)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_non_finite_start_value_is_bad_input_not_divergence(self, name):
        # each was reported as a DivergenceError at outer iteration 1
        solve = SOLVERS[name]
        keys = [k for k in inspect.signature(solve).parameters if k.endswith("0")]
        c = SolverConfig(gamma=1.0, lam=0.5, sigma=0.25, tau=1.0, max_outer=3)
        bad = np.zeros(9)
        bad[4] = np.inf
        for key in keys:
            with pytest.raises(ValueError, match=f"^{key} must be finite, got 1 that are not: inf at 4$"):
                solve(self._problem(), c, **{key: bad})
        with pytest.raises(ValueError, match="^problem.x0 must be finite, got 1 that are not: inf at 4$"):
            solve(self._problem(x0=bad), c)


class TestObserveHook:
    """``config.observe(k, x, state)``: called once per outer step, after its record,
    with the state ``final_state`` would hold at a stop there; it cannot steer the run."""

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_observer_sees_every_step_and_changes_nothing(self, name):
        p = TestStartState._problem()
        c = SolverConfig(gamma=1.0, lam=0.5, sigma=0.25, tau=1.0, eps=1e-10, max_outer=500)
        calls = []

        def observe(k, x, state):
            calls.append((k, x.copy(), {key: value.copy() for key, value in state.items()}))
            return True  # ignored

        plain = SOLVERS[name](p, c)
        tr = SOLVERS[name](p, dataclasses.replace(c, observe=observe))
        assert [k for k, _, _ in calls] == list(range(1, tr.total_outer + 1))
        _, x, state = calls[-1]
        assert np.array_equal(x, tr.final_x)
        assert state.keys() == tr.final_state.keys()
        assert all(np.array_equal(state[key], tr.final_state[key]) for key in state)
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(tr.records) == repr(plain.records)
        assert np.array_equal(tr.final_x, plain.final_x)
        assert all(np.array_equal(tr.final_state[key], plain.final_state[key]) for key in state)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_observer_exception_propagates_unchanged(self, name):
        error = LookupError("observer failed at step 2")

        def observe(k, x, state):
            if k == 2:  # the first step that could stop the run
                raise error

        c = SolverConfig(gamma=1.0, lam=0.5, sigma=0.25, tau=1.0, eps=1e-16, max_outer=6,
                         observe=observe)
        with pytest.raises(LookupError) as info:
            SOLVERS[name](TestStartState._problem(), c)
        assert info.value is error


class TestStepTable:
    """Each solver reads exactly the steps its row of the solver table lists."""

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_listed_steps_suffice_and_each_is_required(self, name):
        steps = solvers._TABLE[name].steps
        p = TestStartState._problem()  # B = I and L = 1: every solver applies
        values = {"gamma": 1.0, "lam": 0.5, "sigma": 0.25, "tau": 1.0}
        c = SolverConfig(**{k: values[k] for k in steps}, eps=1e-16, max_outer=2)
        assert SOLVERS[name](p, c).total_outer == 2  # an unlisted step would be None here
        for step in steps:
            dropped = dataclasses.replace(c, **{step: None})
            for call in (SOLVERS[name], lambda *args: check_steps(name, *args)):
                with pytest.raises(ConfigError, match=f"^{name} needs {step}$"):
                    call(p, dropped)

    def test_readme_table_is_the_solver_table(self):
        # the README copies each row's steps, J = 1 solver and calls by hand: each calls
        # entry reads a + b J (J+1, J, 2, ...), with a * on A when the row makes a start call
        def split(line):  # on unescaped |
            return [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]

        def count(a, b):
            if b == 0:
                return str(a)
            j = "J" if b == 1 else f"{b}J"
            return f"{j}+{a}" if a else j

        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if "| calls per outer step" in line)
        body = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
        rows = [dict(zip(split(lines[start]), split(line))) for line in body]
        table = {row["solver"].strip("`"): row for row in rows}
        assert sorted(table) == sorted(solvers._TABLE)
        for name, row in solvers._TABLE.items():
            cells = table[name]
            assert tuple(re.findall(r"`([^`]*)`", cells["steps"])) == row.steps, name
            single = re.findall(r"`([^`]*)`", cells["equals at J = 1"])
            assert (single[0] if single else None) == row.single, name
            a, b, start_calls = row.calls
            calls = [count(*ab) for ab in zip(a, b)]
            calls[0] += "*" * start_calls
            assert cells["calls per outer step"] == f"`{', '.join(calls)}`", name


#: each step condition -> (steps exactly at its bound, the same steps one ulp inside),
#: on TestStartState._problem(), whose B = I and L = 1 make every bound exact
BOUNDS = {
    "gamma": ({"gamma": 2.0}, {"gamma": np.nextafter(2.0, 0.0)}),  # gamma < 2/L
    "_lam_condition": ({"lam": 2.0}, {"lam": np.nextafter(2.0, 0.0)}),  # lam < 2/lambda_max
    "_sigma_tau_condition": ({"sigma": 1.0, "tau": 1.0},  # sigma tau ||B||^2 < 1
                             {"sigma": np.nextafter(1.0, 0.0), "tau": 1.0}),
    # 1/tau - sigma ||B||^2 > L/2; tau moves, as 1 - (0.5 - ulp) rounds back to 0.5
    "_condat_vu_condition": ({"sigma": 0.5, "tau": 1.0},
                             {"sigma": 0.5, "tau": np.nextafter(1.0, 0.0)}),
}


def _bound_cases():
    """(solver, condition) for every condition in BOUNDS that a row of the table applies."""
    for name, row in sorted(solvers._TABLE.items()):
        if "gamma" in row.steps:
            yield name, "gamma"
        if row.condition.__name__ in BOUNDS:
            yield name, row.condition.__name__


class TestStepBounds:
    """Each step condition of the solver table rejects a step at its bound and
    admits the step one ulp inside."""

    @pytest.mark.parametrize("name, condition", list(_bound_cases()))
    def test_condition_is_strict_at_its_bound(self, name, condition):
        p = TestStartState._problem()
        c = SolverConfig(gamma=1.0, lam=0.5, sigma=0.25, tau=1.0, eps=1e-16, max_outer=1)
        at_bound, inside = BOUNDS[condition]
        with pytest.raises(ConfigError):
            SOLVERS[name](p, dataclasses.replace(c, **at_bound))
        assert SOLVERS[name](p, dataclasses.replace(c, **inside)).total_outer == 1


def _without_b_lam_max():
    p = build_fused_lasso(m=30, n=60, seed=1)
    return SplitProblem(f=p.f, g=p.g, h=p.h, B=p.B)


#: instance -> its builder: every built-in family, B = I, and one without b_lam_max
PRESET_PROBLEMS = {
    "fused-lasso": build_fused_lasso,
    "constrained-tv-ct": build_ct_problem,
    "lrtv-sr": build_lrtv_problem,
    "identity-b": lambda: _identity_b_problem(seed=4),
    "no-b-lam-max": _without_b_lam_max,
}


class TestPresetSteps:
    @pytest.mark.parametrize("preset", ["type-I", "type-II"])
    @pytest.mark.parametrize("instance", sorted(PRESET_PROBLEMS))
    def test_every_solver_admits_its_preset_steps(self, instance, preset):
        # where b_lam_max is absent, sigma tau ||B||^2 was exactly 1 (B = I, and type-I
        # here without b_lam_max); condat-vu read fb-pd's steps unmapped, 1/tau - sigma
        # ||B||^2 near 0 against L/2
        p = PRESET_PROBLEMS[instance]()
        rejected = {}
        for name in SOLVERS:
            if name == "davis-yin" and not isinstance(p.B, Identity):
                continue
            try:
                check_steps(name, p, preset_config(p, preset, name))
            except ConfigError as exc:
                rejected[name] = str(exc)
        assert rejected == {}

    @pytest.mark.parametrize("preset", ["type-I", "type-II"])
    @pytest.mark.parametrize("b, shown", [
        (DenseMatrix(np.zeros((2, 3))), "0.0"), (SparseMatrix(2, 3, [], [], []), "0.0"),
        (DenseMatrix([[1e200, 0, 0], [0, 1, 0]]), "inf"),
    ], ids=["dense-zero", "sparse-zero", "dense-overflow"])
    def test_a_lambda_max_that_is_zero_or_inf_is_named(self, b, shown, preset):
        # named, rather than a ZeroDivisionError or a bad lam of 1 / inf = 0.0
        p = SplitProblem(f=LeastSquares(Identity(3), np.zeros(3)), g=L1Norm(0.1), h=L1Norm(0.1),
                         B=b)
        with pytest.raises(ConfigError) as excinfo:
            preset_config(p, preset, "fb-dual")
        assert type(excinfo.value) is ConfigError
        assert str(excinfo.value) == ("lambda_max(B B^T) (pass the steps under custom) must be "
                                      f"positive and finite, got {shown}")

    def test_every_spectral_constant_gives_steps_or_a_config_error(self):
        # A = a I and B = b I, dense and sparse, with a, b zero, underflowing to 0,
        # subnormal when squared, unit and overflowing to inf; only a = b = 1 gets steps
        def scaled_identities():
            for v in (0.0, 1e-200, 1e-160, 1.0, 1e160, 1e200):
                yield v, DenseMatrix(v * np.eye(3))
                yield v, SparseMatrix(3, 3, [0, 1, 2], [0, 1, 2], [v] * 3)

        admitted = set()
        for (a, op_a), (b, op_b) in itertools.product(scaled_identities(), repeat=2):
            p = SplitProblem(f=LeastSquares(op_a, np.zeros(3)), g=L1Norm(0.1), h=L1Norm(0.1),
                             B=op_b)
            for preset, name in itertools.product(PRESETS, SOLVERS):
                try:
                    check_steps(name, p, preset_config(p, preset, name))
                except ConfigError:
                    continue
                admitted.add((a, b, preset))
        assert admitted == {(1.0, 1.0, "type-I"), (1.0, 1.0, "type-II")}


class TestDivergenceDetection:
    class _BadGradient:
        # concave stub: gradient pushes the iterates to exponential blow-up
        lipschitz = 10.0

        def value(self, x):
            return -5.0 * float(x @ x)

        def gradient(self, x):
            return -10.0 * x

    class _ExplodingValue(_BadGradient):
        def value(self, x):
            return 5.0 * float(x @ x)

    def _problem(self, f):
        n = 4
        return SplitProblem(f=f, g=ZeroFunction(), h=ZeroFunction(), B=Identity(n))

    def test_nonfinite_iterate_names_iteration(self):
        p = self._problem(self._BadGradient())
        c = SolverConfig(gamma=0.19, lam=1.0, eps=1e-30, max_outer=5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"iteration \d+"):
                solve_fb_dual(p, c, x0=np.ones(4))

    @pytest.mark.parametrize("name", ["fb-dual", "pdfp"])
    def test_non_finite_svd_input_is_named_at_its_step(self, name):
        # the inner step's g-prox meets the non-finite point before the step's check does;
        # it stops where it would with g = L1Norm(0.1)
        p = SplitProblem(f=self._BadGradient(), g=NuclearNorm(0.1, (2, 2)), h=ZeroFunction(),
                         B=Identity(4))
        c = SolverConfig(gamma=0.19, lam=1.0, eps=1e-30, max_outer=5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="outer iteration 666: non-finite x$"):
                SOLVERS[name](p, c, x0=np.ones(4))

    @pytest.mark.parametrize("name", sorted(set(SOLVERS) - {"davis-yin"}))
    def test_nonfinite_state_named_at_the_step_that_made_it(self, name):
        # h*'s prox turns to NaN at its 5th call, in outer step 5 at J = 1; the
        # solvers whose x takes the NaN only later must still stop at step 5
        p = small_lasso()
        prox, calls = p.h.prox_conjugate, []

        def nan_from_the_fifth_call(step, v):
            calls.append(step)
            return prox(step, v) if len(calls) < 5 else np.full(len(v), np.nan)

        p.h.prox_conjugate = nan_from_the_fifth_call
        c = preset_config(p, "type-II", name, eps=1e-30, max_outer=20)
        with pytest.raises(DivergenceError, match=r"outer iteration 5: non-finite [xyzv]$"):
            SOLVERS[name](p, c)

    def test_objective_blowup_detected_early(self):
        p = self._problem(self._ExplodingValue())
        c = SolverConfig(gamma=0.19, lam=1.0, eps=1e-30, max_outer=5000)
        with pytest.raises(DivergenceError, match="objective") as excinfo:
            solve_fb_dual(p, c, x0=np.ones(4))
        # x grows 2.9-fold per step and the objective 8.41-fold, so the objective
        # first exceeds 1e12 times its first value at iteration 14 (8.41^13 = 1.05e12)
        assert excinfo.value.iteration == 14


class TestInnerIterationCounts:
    def test_increasing_inner_iterations_never_inflates_outer_count(self):
        p = build_fused_lasso(seed=0)
        counts = {}
        for j in (1, 2, 10, 20):
            tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-8, inner_iters=j))
            assert tr.converged
            counts[j] = tr.total_outer
        js = sorted(counts)
        for i, j_small in enumerate(js):
            for j_big in js[i + 1:]:
                assert counts[j_big] <= 1.05 * counts[j_small], counts


class TestCallCounts:
    """Public calls over 7 outer steps at J = 1 and at J = 3, on a B = I instance that every
    solver admits, against the ``calls`` of the solver's row of ``_TABLE``: the two values
    of J pin both the per-outer-step and the per-inner-step counts."""

    @pytest.mark.parametrize("J", [1, 3], ids=["J1", "J3"])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_calls_per_outer_iteration(self, monkeypatch, name, J):
        p = _identity_b_problem(4)
        c = preset_config(p, "type-II", name, inner_iters=J, eps=1e-16, max_outer=7)
        calls = [record_calls(monkeypatch, obj, method) for obj, method in (
            (p.f.op, "apply"), (p.f.op, "adjoint_apply"), (p.B, "apply"),
            (p.B, "adjoint_apply"), (p.g, "prox"), (p.h, "prox_conjugate"))]
        assert SOLVERS[name](p, c).total_outer == 7
        per_step, per_inner_step, start = solvers._TABLE[name].calls
        expected = [7 * (a + J * b) for a, b in zip(per_step, per_inner_step)]
        expected[0] += start
        assert [len(layer) for layer in calls] == expected

    @pytest.mark.parametrize("build, estimates_a", [
        (build_fused_lasso, False),
        (lambda: build_ct_problem(img_side=16, views=4, rays=12, seed=1), True),
        (lambda: build_lrtv_problem(rows=16, cols=16), False),
    ], ids=["fused-lasso", "ct", "lrtv-sr"])
    def test_power_iteration_runs_once_for_a(self, monkeypatch, build, estimates_a):
        # B's spectral constant is closed-form, and so is A's, except for the
        # sparse CT projector's, which is estimated once
        estimated = record_calls(monkeypatch, operators, "estimate_norm")
        p = build()
        for name in ("fb-dual", "fb-pd"):
            SOLVERS[name](p, preset_config(p, "type-II", name, max_outer=1))
        p.exact_b_norm()
        assert [args for args, _ in estimated] == ([(p.f.op,)] if estimates_a else [])
