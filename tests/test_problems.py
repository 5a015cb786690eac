import dataclasses
import tracemalloc

import numpy as np
import pytest

from splitopt.operators import Difference1D
from splitopt.problems import (
    build_ct_problem,
    build_fused_lasso,
    build_lrtv_problem,
    _trace_rays,
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


def trace_ray_oracle(side, sx, sy, dx, dy):
    """One ray's Siddon walk, a scalar at a time: the crossed pixels in
    traversal order and the ray's length inside each."""
    bounds = np.arange(side + 1, dtype=float) - side / 2.0
    tmin, tmax = -np.inf, np.inf
    for p, d in ((sx, dx), (sy, dy)):
        if abs(d) < 1e-12:
            if p < bounds[0] or p > bounds[-1]:
                return np.empty(0, dtype=np.intp), np.empty(0)
        else:
            t0 = (bounds[0] - p) / d
            t1 = (bounds[-1] - p) / d
            if t0 > t1:
                t0, t1 = t1, t0
            tmin = max(tmin, t0)
            tmax = min(tmax, t1)
    if tmax <= tmin:
        return np.empty(0, dtype=np.intp), np.empty(0)
    ts = [np.array([tmin, tmax])]
    for p, d in ((sx, dx), (sy, dy)):
        if abs(d) >= 1e-12:
            t = (bounds - p) / d
            ts.append(t[(t > tmin) & (t < tmax)])
    ts = np.unique(np.concatenate(ts))
    lengths = np.diff(ts)
    mids = 0.5 * (ts[:-1] + ts[1:])
    half = side / 2.0
    cx = np.floor(sx + mids * dx + half).astype(int)
    cy = np.floor(sy + mids * dy + half).astype(int)
    ok = (cx >= 0) & (cx < side) & (cy >= 0) & (cy < side) & (lengths > 1e-12)
    return cy[ok] * side + cx[ok], lengths[ok]


def fan_beam_rays_oracle(side, angles, rays):
    """The fan-beam ray geometry, one view and one ray at a time."""
    src_radius = 2.0 * side
    fan_half = np.arcsin((side / np.sqrt(2.0)) / src_radius)
    out = np.empty((len(angles) * rays, 4))
    for vi, theta in enumerate(angles):
        sx = src_radius * np.cos(theta)
        sy = src_radius * np.sin(theta)
        central = np.arctan2(-sy, -sx)
        for ri in range(rays):
            beta = -fan_half + (ri + 0.5) * (2.0 * fan_half / rays)
            ang = central + beta
            out[vi * rays + ri] = (sx, sy, np.cos(ang), np.sin(ang))
    return out


def _random_geometry(side):
    rng = np.random.default_rng(side)
    return fan_beam_rays(side, rng.uniform(0.0, 2.0 * np.pi, 4), 2 * side + 1)


_DIAGONAL = np.sqrt(0.5)
# side 8, so the image is [-4, 4]^2
_HAND_MADE_RAYS = np.array([
    (0.5, -20.0, 0.0, 1.0),            # dx = 0 inside the image
    (5.0, -20.0, 0.0, 1.0),            # dx = 0 outside it
    (-20.0, 0.5, 1.0, 0.0),            # dy = 0 inside it
    (0.5, -20.0, 1e-13, 1.0),          # |dx| = 1e-13, below the parallel threshold
    (0.5, -20.0, -1e-13, 1.0),
    (1.0, -20.0, 0.0, 1.0),            # along an inner grid line
    (-4.0, -20.0, 0.0, 1.0),           # along the image's left edge
    (4.0, 20.0, 0.0, -1.0),            # along its right edge, downwards
    (-20.0, -20.0, _DIAGONAL, _DIAGONAL),  # a diagonal through grid corners
    (20.0, 20.0, -_DIAGONAL, -_DIAGONAL),
    (-20.0, 10.0, np.cos(0.1), np.sin(0.1)),  # misses the image
    (-20.0, -3.0, np.cos(0.3), np.sin(0.3)),  # crosses it obliquely
    (0.5, 0.25, 0.0, 1.0),             # dx = 0 from a source inside the image
    (1.0 - 2e-12, -20.0, 1e-13, 1.0),  # |dx| = 1e-13 crossing x = 1 inside the image
])


class TestRayTracer:
    @pytest.mark.parametrize("side, geometry", [
        (64, fan_beam_rays(64, np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20), 96)),
        *((side, _random_geometry(side)) for side in (16, 17, 64, 128)),
        (8, _HAND_MADE_RAYS),
    ], ids=["desk", "random-16", "random-17", "random-64", "random-128", "hand-made"])
    def test_batch_matches_the_scalar_walk(self, side, geometry):
        # the batched tracer runs the scalar walk's expressions elementwise,
        # so its triplets are the walk's, bit for bit
        pixels, lengths = zip(*(trace_ray_oracle(side, *ray) for ray in geometry))
        rows, got_pixels, got_lengths = _trace_rays(side, geometry)
        assert np.array_equal(rows, np.repeat(np.arange(len(geometry)), [p.size for p in pixels]))
        assert np.array_equal(got_pixels, np.concatenate(pixels))
        assert np.array_equal(got_lengths, np.concatenate(lengths))

    @pytest.mark.parametrize("side, views, rays", [(64, 20, 96), (16, 6, 24), (64, 180, 96),
                                                   (17, 1, 1), (128, 50, 257)])
    def test_fan_beam_rays_match_the_scalar_loop(self, side, views, rays):
        # the broadcast geometry runs the loop's expressions elementwise, so
        # its rows are the loop's, bit for bit, on angles of either sign
        angles = np.random.default_rng(side).uniform(-2.0 * np.pi, 4.0 * np.pi, views)
        assert np.array_equal(fan_beam_rays(side, angles, rays),
                              fan_beam_rays_oracle(side, angles, rays))

    def test_hand_made_rays(self):
        # the oracle itself: the misses trace nothing, an axis-parallel ray
        # inside the image crosses the 8 pixels of its column or row, and a
        # diagonal through grid corners the 8 pixels of the diagonal, each once
        pixels = [trace_ray_oracle(8, *ray)[0] for ray in _HAND_MADE_RAYS]
        assert [p.size for p in pixels] == [8, 0, 8, 8, 8, 8, 8, 0, 8, 8, 0, 9, 8, 8]
        assert np.array_equal(pixels[8], np.arange(8) * 9)
        assert np.array_equal(pixels[9], np.arange(8)[::-1] * 9)


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
        # the default noise variance is 0.01: A is drawn first, then e
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 200))
        e = rng.standard_normal(100)
        np.testing.assert_array_equal(p.f.target, a @ fused_lasso_signal(200) + np.sqrt(0.01) * e)
        assert p.b_lam_max == 4.0

    @pytest.mark.parametrize("key, value, minimum", [
        ("m", 2.5, 1), ("n", 3.0, 2), ("m", 0, 1), ("n", 1, 2),
    ], ids=["m-2.5", "n-3.0", "m-0", "n-1"])
    def test_rejects_non_integer_sizes(self, key, value, minimum):
        # a float size reached numpy's standard_normal, which raised TypeError
        with pytest.raises(ValueError, match=f"^{key} must be an integer >= {minimum}, got {value}$"):
            build_fused_lasso(**{key: value})

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
        tr = solve_fb_dual(p, preset_config(p, "type-II", "fb-dual", eps=1e-8))
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

    def test_build_peaks_below_twice_the_kept_layouts(self):
        # the desk projector: what building it allocates at its peak, against
        # the bytes of the two triplet layouts the finished matrix keeps
        angles = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20)
        fan_beam_matrix(16, angles[:2], 8)  # warm the imports and numpy's lazy set-up
        tracemalloc.start()
        try:
            a = fan_beam_matrix(64, angles, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(arr.nbytes for arr in (*a._by_row, *a._by_col))
        assert peak <= 2 * kept, f"peak {peak} B is {peak / kept:.2f}x the kept {kept} B"

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

    @pytest.mark.parametrize("angles", [
        [float("nan")], [0.3, float("nan")], [0.3, float("inf")],
    ], ids=["nan", "finite-then-nan", "inf"])
    def test_projector_rejects_non_finite_angles(self, angles):
        # a NaN view traced to all-zero rows: rays that measure nothing
        with pytest.raises(ValueError, match="angles must be finite"):
            fan_beam_matrix(16, angles, 8)

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
        assert p.dynamic_range == float(p.ground_truth.max() - p.ground_truth.min())

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
        from splitopt.operators import DenseMatrix, Gradient2D
        from splitopt.proxfuncs import L1Norm, NuclearNorm
        from splitopt.problems import SplitProblem
        from splitopt.smooth import LeastSquares

        f = LeastSquares(DenseMatrix(np.zeros((1, 16))), np.zeros(1))
        with pytest.raises(ValueError, match="shape"):
            SplitProblem(f=f, g=NuclearNorm(0.1, (3, 4)),
                         h=L1Norm(0.1), B=Gradient2D(4, 4))

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_step_constant_must_be_positive(self, value):
        # preset_config divided by 0 or took the root of -1 with b_lam_max; a
        # bad gamma_default or dynamic_range was accepted until a preset or a solve
        p = build_fused_lasso(m=30, n=60)
        for field in ("b_lam_max", "gamma_default", "dynamic_range"):
            with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value}$"):
                dataclasses.replace(p, **{field: value})


    @pytest.mark.parametrize("field", ["ground_truth", "x0"])
    def test_wrong_length_vector_rejected(self, field):
        # a 59-long vector for the 60-dim lasso; a 61-long one and an empty one too
        p = build_fused_lasso(m=30, n=60)
        for size in (59, 61, 0):
            with pytest.raises(ValueError, match=f"{field}.*{size}.*60"):
                dataclasses.replace(p, **{field: np.arange(float(size))})
        dataclasses.replace(p, **{field: np.arange(60.0)})
