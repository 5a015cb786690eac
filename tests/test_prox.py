import numpy as np
import pytest
from conftest import assert_row, suite_rows

from splitopt.proxfuncs import (
    BoxIndicator,
    GroupL21,
    L1Norm,
    NonnegativeIndicator,
    NuclearNorm,
    QuadraticDistance,
    ZeroFunction,
)
from splitopt.verification import _PROX_DIM as DIM, _prox_library, prox_suite

# the kinds of prox_suite's library, in order; parametrized tests index them
KINDS = [f.kind for f in _prox_library(np.random.default_rng())]


def grid_prox_1d(step, v, penalty, lo=-6.0, hi=6.0, h=1e-5):
    """Brute-force per-scalar prox oracle on a fine grid."""
    grid = np.arange(lo, hi, h)
    return grid[np.argmin(0.5 * (grid - v) ** 2 + step * penalty(grid))]


def refine_prox(step, v, penalty, rounds=8, width=6.0, pts=81):
    """Derivative-free coarse-to-fine grid minimizer for vector proxes."""
    center = np.asarray(v, dtype=float).copy()
    for _ in range(rounds):
        best = center.copy()
        best_val = 0.5 * np.sum((best - v) ** 2) + step * penalty(best)
        for i in range(center.size):
            cand = np.tile(center, (pts, 1))
            cand[:, i] += np.linspace(-width, width, pts)
            vals = [0.5 * np.sum((c - v) ** 2) + step * penalty(c) for c in cand]
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = vals[j]
                best = cand[j]
        center = best
        width /= 8.0
    return center


class TestProxValues:
    def test_l1_soft_threshold_vs_grid_oracle(self):
        f = L1Norm(1.0)
        v = np.array([3.0, -1.0, 0.5])
        out = f.prox(1.0, v)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0], atol=1e-12)
        for vi, oi in zip(v, out):
            assert abs(grid_prox_1d(1.0, vi, np.abs) - oi) < 2e-5

    def test_nonneg_projection(self):
        out = NonnegativeIndicator().prox(3.7, [-2.0, 3.0])
        np.testing.assert_array_equal(out, [0.0, 3.0])

    def test_nuclear_svd_soft_threshold_oracle(self):
        f = NuclearNorm(1.0, (2, 2))
        v = np.diag([3.0, 1.0]).ravel()
        out = f.prox(1.0, v)
        np.testing.assert_allclose(out.reshape(2, 2), np.diag([2.0, 0.0]), atol=1e-12)
        # oracle: independent SVD + per-singular-value scalar prox on a grid
        u, s, vt = np.linalg.svd(v.reshape(2, 2))
        s_or = np.array([grid_prox_1d(1.0, si, np.abs, lo=0.0) for si in s])
        np.testing.assert_allclose(out.reshape(2, 2), (u * s_or) @ vt, atol=2e-5)

    def test_group_l21_radial_shrink_vs_refine_oracle(self):
        f = GroupL21(1.0)
        v = np.array([3.0, 4.0])
        out = f.prox(1.0, v)
        np.testing.assert_allclose(out, [2.4, 3.2], atol=1e-12)
        oracle = refine_prox(1.0, v, lambda c: np.hypot(c[0], c[1]))
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_quadratic_distance_closed_form(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(5)
        f = QuadraticDistance(1.0, u)
        v = rng.standard_normal(5)
        tau = 0.7
        np.testing.assert_allclose(f.prox(tau, v), (v + tau * u) / (1 + tau), atol=1e-14)

    def test_box_clamp(self):
        out = BoxIndicator(-1.0, 2.0).prox(1.0, [-3.0, 0.5, 9.0])
        np.testing.assert_array_equal(out, [-1.0, 0.5, 2.0])

    def test_nuclear_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            NuclearNorm(1.0, (2, 2)).prox(1.0, np.zeros(6))

    @pytest.mark.parametrize("shape", [(3.7, 4), (3, 4.0), (0, 4), (3, float("nan"))],
                             ids=["float-rows", "integral-float-cols", "zero-rows", "nan-cols"])
    def test_nuclear_shape_must_be_integers(self, shape):
        # a float shape is not truncated: (3.7, 4) must not become a 3x4 matrix
        with pytest.raises(ValueError, match="integers"):
            NuclearNorm(1.0, shape)
        assert NuclearNorm(1.0, (np.int64(3), 4)).shape == (3, 4)

    def test_step_must_be_positive(self):
        f = L1Norm(1.0)
        methods = (f.prox, f.prox_conjugate, f.scaled_conjugate_prox,
                   f.envelope_gradient, f.envelope_value)
        for step in (0.0, float("nan"), float("inf")):
            for method in methods:
                with pytest.raises(ValueError, match="must be positive"):
                    method(step, np.zeros(3))


class TestValue:
    def test_l1(self):
        assert L1Norm(0.2).value(np.array([1.0, -2.0])) == pytest.approx(0.6)

    def test_indicator_sentinel(self):
        assert NonnegativeIndicator().value(np.array([-1.0, 0.0])) == np.inf
        assert NonnegativeIndicator().value(np.array([0.0, 2.0])) == 0.0

    def test_nuclear_vs_svd_oracle(self):
        m = np.diag([3.0, 1.0])
        expected = np.sum(np.linalg.svd(m, compute_uv=False))
        assert NuclearNorm(1.0, (2, 2)).value(m.ravel()) == pytest.approx(expected)
        assert expected == pytest.approx(4.0)

    def test_inf_propagates_in_sums(self):
        total = NonnegativeIndicator().value(np.array([-1.0])) + 3.0
        assert total == np.inf and np.isfinite(3.0)


class TestConjugate:
    def test_l1_conjugate_is_linf_ball_projection(self):
        f = L1Norm(1.0)
        out = f.prox_conjugate(1.0, np.array([0.5, -2.0]))
        np.testing.assert_allclose(out, [0.5, -1.0], atol=1e-14)

    def test_zero_function_conjugate_collapses_to_zero(self):
        out = ZeroFunction().prox_conjugate(0.7, np.array([3.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-14)

    def test_moreau_identity_all_kinds(self, prox_rows):
        for kind in KINDS:
            assert_row(prox_rows, f"moreau-identity[{kind}]")

    def test_scaling_identity_lambda_one(self):
        rng = np.random.default_rng(6)
        for f in _prox_library(rng):
            v = rng.standard_normal(DIM)
            np.testing.assert_allclose(
                f.scaled_conjugate_prox(1.0, v), f.prox_conjugate(1.0, v), atol=1e-12
            )

    def test_scaled_conjugate_l1_is_scaled_ball_projection(self):
        out = L1Norm(1.0).scaled_conjugate_prox(2.0, np.array([3.0, -0.5]))
        np.testing.assert_allclose(out, [2.0, -0.5], atol=1e-12)
        # oracle: the same point through the plain Moreau route
        v = np.array([3.0, -0.5])
        np.testing.assert_allclose(out, v - L1Norm(1.0).prox(2.0, v), atol=1e-12)

    def test_scaling_identity_consistency_random(self, prox_rows):
        for kind in KINDS:
            assert_row(prox_rows, f"conjugate-scaling[{kind}]")

    def test_closed_form_conjugate_oracles(self):
        # independent conjugate proxes for kinds with known closed forms
        rng = np.random.default_rng(8)
        s = 0.9
        v = 2.0 * rng.standard_normal(DIM)
        # (w l1)* = indicator of the inf-ball of radius w
        w = 0.7
        np.testing.assert_allclose(L1Norm(w).prox_conjugate(s, v), np.clip(v, -w, w), atol=1e-12)
        # (nonneg indicator)* = indicator of the nonpositive orthant
        np.testing.assert_allclose(
            NonnegativeIndicator().prox_conjugate(s, v), np.minimum(v, 0.0), atol=1e-12
        )
        # (w group-l21)* = per-group projection onto the 2-ball of radius w
        w = 0.9
        a, b = v[: DIM // 2], v[DIM // 2 :]
        norms = np.hypot(a, b)
        scale = np.minimum(1.0, w / norms)
        expected = np.concatenate([a * scale, b * scale])
        np.testing.assert_allclose(GroupL21(w).prox_conjugate(s, v), expected, atol=1e-12)
        # (w nuclear)* = indicator of the spectral-norm ball of radius w
        w = 0.8
        u, sv, vt = np.linalg.svd(v.reshape(3, 4), full_matrices=False)
        expected = (u * np.minimum(sv, w)) @ vt
        np.testing.assert_allclose(
            NuclearNorm(w, (3, 4)).prox_conjugate(s, v).reshape(3, 4), expected, atol=1e-12
        )

    @pytest.mark.parametrize("cls", [L1Norm, GroupL21], ids=["l1", "group-l21"])
    def test_zero_weight_gives_exact_zeros(self, cls):
        # the ball of radius 0 is a point; no 0/0 on a zero pair either
        v = np.array([3.0, 0.0, -0.0, -2.5])
        for step in (0.3, 1.0, 7.0):
            assert np.array_equal(cls(0.0).prox_conjugate(step, v), np.zeros(4))
            assert np.array_equal(cls(0.0).scaled_conjugate_prox(step, v), np.zeros(4))

    def test_group_conjugate_edge_pairs(self):
        # pairs (0, 0), (3, 4) and (0, -5) on the circle of radius 5, (6, 8)
        # outside it and (1, 0) inside; every value below is exact
        v = np.array([0.0, 3.0, 0.0, 6.0, 1.0, 0.0, 4.0, -5.0, 8.0, 0.0])
        out = GroupL21(5.0).prox_conjugate(1.0, v)
        np.testing.assert_array_equal(out, [0.0, 3.0, 0.0, 3.0, 1.0, 0.0, 4.0, -5.0, 4.0, 0.0])

    @pytest.mark.parametrize("f", [L1Norm(0.7), GroupL21(0.9)], ids=["l1", "group-l21"])
    def test_closed_form_is_independent_of_step(self, f):
        # the conjugate is an indicator, so its prox is a projection for every step
        v = 2.0 * np.random.default_rng(9).standard_normal(DIM)
        ref = f.prox_conjugate(1.0, v)
        for step in (1e-6, 0.37, 5.0, 1e6):
            np.testing.assert_array_equal(f.prox_conjugate(step, v), ref)

    def test_group_conjugate_rejects_odd_length(self):
        with pytest.raises(ValueError, match="even-length"):
            GroupL21(0.9).prox_conjugate(1.0, np.zeros(5))

    def test_rows_fail_for_a_wrong_closed_form(self, monkeypatch):
        # the closed forms make these rows a check of two independent codes,
        # so projecting onto radius 2w instead of w must fail them
        def l1_ball_2w(self, step, v):
            return np.clip(v, -2 * self.weight, 2 * self.weight)

        def discs_2w(self, step, v):
            pairs, radius = v.reshape(2, -1), 2 * self.weight
            return (pairs * (radius / np.maximum(np.hypot(*pairs), radius))).ravel()

        monkeypatch.setattr(L1Norm, "_prox_conjugate", l1_ball_2w)
        monkeypatch.setattr(GroupL21, "_prox_conjugate", discs_2w)
        rows = suite_rows(prox_suite)
        for prop in ("moreau-identity", "conjugate-scaling"):
            for kind in ("l1", "group-l21"):
                assert not rows[f"{prop}[{kind}]"][0]
            assert_row(rows, f"{prop}[nuclear]")


class TestEnvelope:
    def test_zero_gradient_at_fixed_point(self):
        f = NonnegativeIndicator()
        x = np.array([0.5, 2.0])
        np.testing.assert_array_equal(f.envelope_gradient(1.0, x), [0.0, 0.0])

    def test_l1_gradient_saturates(self):
        g = L1Norm(1.0).envelope_gradient(1.0, np.array([3.0]))
        np.testing.assert_allclose(g, [1.0], atol=1e-14)
        # central-difference oracle on the envelope value
        f = L1Norm(1.0)
        h = 1e-6
        num = (f.envelope_value(1.0, np.array([3.0 + h]))
               - f.envelope_value(1.0, np.array([3.0 - h]))) / (2 * h)
        assert abs(num - g[0]) < 1e-6

    @pytest.mark.parametrize("kind", range(7))
    def test_matches_central_differences(self, prox_rows, kind):
        assert_row(prox_rows, f"envelope-gradient[{KINDS[kind]}]")

    @pytest.mark.parametrize("kind", range(7))
    def test_gradient_is_lipschitz(self, kind):
        rng = np.random.default_rng(60 + kind)
        f = _prox_library(rng)[kind]
        for _ in range(100):
            lam = float(rng.uniform(0.2, 2.0))
            x, y = 2.0 * rng.standard_normal(DIM), 2.0 * rng.standard_normal(DIM)
            gx, gy = f.envelope_gradient(lam, x), f.envelope_gradient(lam, y)
            assert np.linalg.norm(gx - gy) <= (1 / lam + 1e-8) * np.linalg.norm(x - y)


class TestProxProperties:
    @pytest.mark.parametrize("kind", range(7))
    def test_firm_nonexpansiveness(self, prox_rows, kind):
        assert_row(prox_rows, f"firm-nonexpansive[{KINDS[kind]}]")

    @pytest.mark.parametrize("kind", range(7))
    def test_local_optimality_under_perturbation(self, kind):
        rng = np.random.default_rng(100 + kind)
        f = _prox_library(rng)[kind]
        step = 0.8
        v = 2.0 * rng.standard_normal(DIM)
        p = f.prox(step, v)
        base = 0.5 * np.sum((p - v) ** 2) + step * f.value(p)
        for _ in range(20):
            delta = rng.standard_normal(DIM)
            delta *= 1e-3 * rng.uniform() / np.linalg.norm(delta)
            perturbed = 0.5 * np.sum((p + delta - v) ** 2) + step * f.value(p + delta)
            assert base <= perturbed + 1e-15

    @pytest.mark.parametrize("kind", range(7))
    def test_beats_1000_random_candidates(self, prox_rows, kind):
        assert_row(prox_rows, f"prox-optimality[{KINDS[kind]}]")

    @pytest.mark.parametrize("kind", range(7))
    def test_small_step_limit_is_identity(self, kind):
        rng = np.random.default_rng(140 + kind)
        f = _prox_library(rng)[kind]
        v = rng.uniform(0.1, 1.0, DIM)  # interior of every constraint set used here
        np.testing.assert_allclose(f.prox(1e-12, v), v, atol=1e-9)

    def test_rows_fail_for_a_broken_prox(self, monkeypatch):
        # prox_suite is the only check of these properties, so show it can fail
        monkeypatch.setattr(L1Norm, "_prox", lambda self, step, v: 2 * v)
        rows = suite_rows(prox_suite)
        for prop in ("firm-nonexpansive", "prox-optimality", "envelope-gradient"):
            assert not rows[f"{prop}[l1]"][0]
            assert_row(rows, f"{prop}[group-l21]")
