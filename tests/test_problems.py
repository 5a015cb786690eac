import json
import os

import numpy as np
import pytest

from splitopt.operators import Difference1D
from splitopt.problems import (
    build_ct_problem,
    build_fused_lasso,
    build_lrtv_problem,
    export_instance,
    fan_beam_matrix,
    fan_beam_rays,
    fused_lasso_signal,
    shepp_logan,
)
from splitopt.solvers import SolverConfig, preset_config, solve_fb_dual


def clip_segment_length(sx, sy, dx, dy, x_lo, x_hi, y_lo, y_hi):
    """Liang-Barsky oracle: length of a line's intersection with a rectangle."""
    t0, t1 = -np.inf, np.inf
    for p, d, lo, hi in ((sx, dx, x_lo, x_hi), (sy, dy, y_lo, y_hi)):
        if abs(d) < 1e-15:
            if p < lo or p > hi:
                return 0.0
        else:
            ta, tb = (lo - p) / d, (hi - p) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    return max(0.0, t1 - t0)


class TestFusedLassoInstance:
    def test_signal_recipe_blocks(self):
        x = fused_lasso_signal(200)
        assert np.all(x[0:20] == 2.0)
        assert x[40] == 3.0
        assert np.all(x[70:85] == 1.0)
        assert np.all(x[120:125] == 2.0)
        assert np.count_nonzero(x) == 20 + 1 + 15 + 5

    def test_ground_truth_total_variation_by_direct_summation(self):
        x = fused_lasso_signal(200)
        # brute-force oracle: sum the absolute jumps one by one
        tv = sum(abs(x[i + 1] - x[i]) for i in range(199))
        assert tv == 14.0
        d = Difference1D(200)
        assert np.sum(np.abs(d.apply(x))) == tv

    def test_scaled_signal_below_126(self):
        x = fused_lasso_signal(60)
        assert set(np.unique(x)) == {0.0, 1.0, 2.0, 3.0}
        assert np.count_nonzero(x) < 60

    def test_defaults(self):
        p = build_fused_lasso()
        assert p.f.op.matrix.shape == (100, 200)
        assert p.g.weight == 0.2 and p.h.weight == 0.8
        assert p.meta["noise_var"] == 0.01
        assert p.b_lam_max == 4.0

    def test_same_seed_bit_identical(self):
        a = build_fused_lasso(seed=42)
        b = build_fused_lasso(seed=42)
        assert np.array_equal(a.f.op.matrix, b.f.op.matrix)
        assert np.array_equal(a.f.target, b.f.target)
        c = build_fused_lasso(seed=43)
        assert not np.array_equal(a.f.target, c.f.target)

    def test_noiseless_unregularized_overdetermined_recovers_exactly(self):
        p = build_fused_lasso(m=40, n=30, mu1=0.0, mu2=0.0, noise_var=0.0, seed=1)
        tr = solve_fb_dual(p, SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.25,
                                           eps=1e-13, max_outer=50000))
        assert tr.converged
        residual = np.linalg.norm(p.f.op.apply(tr.final_x) - p.f.target)
        assert residual < 1e-8
        np.testing.assert_allclose(tr.final_x, p.ground_truth, atol=1e-7)

    def test_ground_truth_objective_close_to_converged(self):
        p = build_fused_lasso(seed=0)
        tr = solve_fb_dual(p, preset_config(p, "type-II", eps=1e-8))
        ratio = p.objective(p.ground_truth) / tr.final_record.objective
        assert 1.0 <= ratio <= 1.10


class TestPhantom:
    def test_range_and_shape(self):
        ph = shepp_logan(64)
        assert ph.shape == (64, 64)
        assert ph.min() >= 0.0 and ph.max() <= 1.0

    def test_background_zero_skull_bright(self):
        ph = shepp_logan(64)
        assert ph[0, 0] == 0.0
        assert ph.max() == pytest.approx(1.0)


class TestProjector:
    def test_matrix_shape(self):
        a = fan_beam_matrix(16, np.array([0.0, 1.0]), 8)
        assert (a.out_dim, a.in_dim) == (16, 256)

    def test_zero_image_zero_projection(self):
        a = fan_beam_matrix(16, np.array([0.3]), 8)
        np.testing.assert_array_equal(a.apply(np.zeros(256)), np.zeros(8))

    def test_entries_nonnegative(self):
        a = fan_beam_matrix(16, np.linspace(0, 2 * np.pi, 5), 12)
        assert a.to_dense().min() >= 0.0

    def test_single_pixel_chord_lengths_match_clipping_oracle(self):
        side = 16
        angles = np.array([0.1, 1.7, 3.9])
        rays = 24
        a = fan_beam_matrix(side, angles, rays).to_dense()
        geometry = fan_beam_rays(side, angles, rays)
        r, c = 8, 8  # pixel just above/right of center
        col = a[:, r * side + c]
        x_lo, x_hi = c - side / 2.0, c + 1 - side / 2.0
        y_lo, y_hi = r - side / 2.0, r + 1 - side / 2.0
        checked = 0
        for ray_idx in np.argsort(col)[::-1][:3]:
            expected = clip_segment_length(*geometry[ray_idx], x_lo, x_hi, y_lo, y_hi)
            assert col[ray_idx] == pytest.approx(expected, abs=1e-10)
            assert expected > 0.0
            checked += 1
        assert checked == 3

    def test_row_sum_equals_image_chord(self):
        side = 16
        angles = np.array([0.7])
        rays = 10
        a = fan_beam_matrix(side, angles, rays).to_dense()
        geometry = fan_beam_rays(side, angles, rays)
        half = side / 2.0
        for i in range(rays):
            expected = clip_segment_length(*geometry[i], -half, half, -half, half)
            assert a[i].sum() == pytest.approx(expected, abs=1e-9)

    def test_adjoint_identity(self):
        p = build_ct_problem(img_side=16, views=4, rays=12, seed=2)
        rng = np.random.default_rng(0)
        op = p.f.op
        for _ in range(25):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            assert abs(op.apply(x) @ y - x @ op.adjoint_apply(y)) <= 1e-10 * (
                np.linalg.norm(op.apply(x)) * np.linalg.norm(y) + 1e-30
            )


class TestCtInstance:
    def test_desk_default_shapes(self):
        p = build_ct_problem(seed=0)
        assert (p.f.op.out_dim, p.f.op.in_dim) == (20 * 96, 64 * 64)
        assert p.B.out_dim == 2 * 64 * 64
        assert p.g.kind == "indicator-nonneg"
        assert p.h.kind == "group-l21" and p.h.weight == 0.5
        assert p.b_lam_max == 8.0

    def test_aniso_variant(self):
        p = build_ct_problem(img_side=16, views=2, rays=8, tv_kind="aniso", seed=0)
        assert p.h.kind == "l1"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_ct_problem(img_side=8)
        with pytest.raises(ValueError):
            build_ct_problem(img_side=16, tv_kind="both")

    @pytest.mark.parametrize("key, value", [
        ("img_side", 16.5), ("img_side", float("nan")), ("views", 2.5), ("rays", 2.5),
    ], ids=["img_side-16.5", "img_side-nan", "views-2.5", "rays-2.5"])
    def test_rejects_non_integer_sizes(self, key, value):
        with pytest.raises(ValueError, match=key):
            build_ct_problem(**{"img_side": 16, "views": 2, "rays": 4, key: value})

    def test_projector_rejects_non_integer_side(self):
        # a float side is not truncated: 16.7 must not build a side-16, 256-column matrix
        with pytest.raises(ValueError, match="side"):
            fan_beam_matrix(16.7, np.array([0.3]), 8)

    def test_deterministic(self):
        a = build_ct_problem(img_side=16, views=3, rays=10, seed=5)
        b = build_ct_problem(img_side=16, views=3, rays=10, seed=5)
        assert np.array_equal(a.f.op.to_dense(), b.f.op.to_dense())
        assert np.array_equal(a.f.target, b.f.target)

    @pytest.mark.xfail(
        strict=True,
        reason="at the 64x64/20-view desk geometry the reconstruction sheds about "
        "17% of the ground truth's TV mass, so the 10% sanity bound cannot hold "
        "(4096 unknowns against 1920 rays); kept as a documented expected failure",
    )
    def test_ground_truth_objective_close_to_converged(self):
        p = build_ct_problem(seed=0)
        c = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.125, eps=1e-6, max_outer=30000)
        tr = solve_fb_dual(p, c)
        ratio = p.objective(p.ground_truth) / tr.final_record.objective
        assert 1.0 <= ratio <= 1.10


class TestLrtvInstance:
    def test_defaults_and_metadata(self):
        p = build_lrtv_problem(seed=0)
        assert p.g.kind == "nuclear" and p.g.weight == 0.01
        assert p.h.kind == "group-l21" and p.h.weight == 0.01
        assert p.gamma_default == 0.1
        assert p.image_shape == (32, 32) and p.record_ssim

    def test_ground_truth_is_low_rank_unit_range(self):
        p = build_lrtv_problem(seed=0)
        img = p.ground_truth.reshape(32, 32)
        assert np.linalg.matrix_rank(img, tol=1e-10) <= 4
        assert img.min() >= 0.0 and img.max() == pytest.approx(1.0)

    def test_observation_is_forward_image_of_truth(self):
        p = build_lrtv_problem(seed=0)
        np.testing.assert_array_equal(p.f.target, p.f.op.apply(p.ground_truth))

    def test_initializer_is_nearest_neighbor_upsample(self):
        p = build_lrtv_problem(seed=0)
        t = p.f.target.reshape(16, 16)
        up = np.repeat(np.repeat(t, 2, axis=0), 2, axis=1)
        np.testing.assert_array_equal(p.x0, up.ravel())

    def test_identity_forward_model_recovers_truth(self):
        p = build_lrtv_problem(rows=8, cols=8, blur_sigma=0.0, factor=1,
                               lambda1=0.0, lambda2=0.0, seed=1)
        np.testing.assert_array_equal(p.f.target, p.ground_truth)
        tr = solve_fb_dual(p, SolverConfig(gamma=1.0, lam=0.12, eps=1e-13, max_outer=10000))
        np.testing.assert_allclose(tr.final_x, p.ground_truth, atol=1e-9)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            build_lrtv_problem(rows=30, cols=32, factor=4)

    def test_deterministic(self):
        a = build_lrtv_problem(seed=9)
        b = build_lrtv_problem(seed=9)
        assert np.array_equal(a.ground_truth, b.ground_truth)


class TestDimensionChain:
    def test_mismatched_smooth_term_rejected(self):
        from splitopt.operators import DenseMatrix, Difference1D
        from splitopt.proxfuncs import L1Norm
        from splitopt.smooth import LeastSquares
        from splitopt.problems import SplitProblem

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="domain"):
            SplitProblem(
                f=LeastSquares(DenseMatrix(rng.standard_normal((4, 7))), np.zeros(4)),
                g=L1Norm(0.1), h=L1Norm(0.1), B=Difference1D(6),
            )

    def test_mismatched_matrix_penalty_rejected(self):
        from splitopt.operators import Gradient2D
        from splitopt.proxfuncs import L1Norm, NuclearNorm
        from splitopt.smooth import ZeroSmooth
        from splitopt.problems import SplitProblem

        with pytest.raises(ValueError, match="shape"):
            SplitProblem(f=ZeroSmooth(16), g=NuclearNorm(0.1, (3, 4)),
                         h=L1Norm(0.1), B=Gradient2D(4, 4))

    def test_mismatched_image_shape_rejected(self):
        # SSIM is taken over the flat vectors, so nothing else would notice
        from splitopt.operators import Gradient2D
        from splitopt.proxfuncs import L1Norm
        from splitopt.smooth import ZeroSmooth
        from splitopt.problems import SplitProblem

        with pytest.raises(ValueError, match="image shape"):
            SplitProblem(f=ZeroSmooth(16), g=L1Norm(0.1), h=L1Norm(0.1), B=Gradient2D(4, 4),
                         ground_truth=np.zeros(16), image_shape=(3, 3), dynamic_range=1.0)


class TestExport:
    def test_roundtrip(self, tmp_path):
        p = build_fused_lasso(m=10, n=20, seed=4)
        manifest = export_instance(p, tmp_path)
        with open(os.path.join(tmp_path, "manifest.json")) as fh:
            on_disk = json.load(fh)
        assert on_disk == manifest
        forward = np.load(tmp_path / "forward.npy")
        np.testing.assert_array_equal(forward, p.f.op.matrix)
        target = np.load(tmp_path / "target.npy")
        np.testing.assert_array_equal(target, p.f.target)
        truth = np.load(tmp_path / "ground_truth.npy")
        np.testing.assert_array_equal(truth, p.ground_truth)
        assert on_disk["g"] == {"kind": "l1", "weight": 0.2}
        assert on_disk["name"] == "fused-lasso"
