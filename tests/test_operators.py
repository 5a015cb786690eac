import warnings

import numpy as np
import pytest
from conftest import (
    GRID_SHAPES,
    assert_row,
    assert_same_bits,
    raised_warnings,
    signed_zeros,
    suite_rows,
)

from splitopt.operators import (
    BlurDownsample,
    DenseMatrix,
    Difference1D,
    Gradient2D,
    Identity,
    SparseMatrix,
    _blur_matrix,
    _gaussian_kernel,
    estimate_norm,
)
from splitopt.problems import _trace_rays, build_lrtv_problem, fan_beam_matrix, fan_beam_rays
from splitopt.verification import _operator_library, operator_suite

# the kinds of operator_suite's library, in order; parametrized tests index them
KINDS = [op.kind for op in _operator_library(np.random.default_rng())]


def segments_oracle(keys, others, values):
    # the by-key layout as SparseMatrix first built it: a stable argsort of
    # the intp keys and a permutation of every triplet, then each key's first
    # position from a difference with -1 prepended
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], starts, others[order], values[order]


def gradient_apply_oracle(rows, cols, x):
    # Gradient2D._apply as first written: strided 2-d slices of the image,
    # which never form a difference across a row end
    img = x.reshape(rows, cols)
    out = np.empty((2, rows, cols))
    h, v = out
    np.subtract(img[:, 1:], img[:, :-1], out=h[:, :-1])
    h[:, -1] = 0.0
    np.subtract(img[1:, :], img[:-1, :], out=v[:-1, :])
    v[-1, :] = 0.0
    return out.ravel()


def gradient_adjoint_oracle(rows, cols, y):
    # Gradient2D._adjoint as first written: four updates on 2-d slices
    n = rows * cols
    h = y[:n].reshape(rows, cols)
    v = y[n:].reshape(rows, cols)
    out = np.zeros((rows, cols))
    out[:, :-1] -= h[:, :-1]
    out[:, 1:] += h[:, :-1]
    out[:-1, :] -= v[:-1, :]
    out[1:, :] += v[:-1, :]
    return out.ravel()


def assert_layouts_match_the_oracle(op, rows, cols, values):
    # every array of both layouts, bit for bit and dtype for dtype
    expected = segments_oracle(rows, cols, values), segments_oracle(cols, rows, values)
    for got, want in zip((op._by_row, op._by_col), expected):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def random_triplets(seed, size, sort_rows=False, dtype=np.intp):
    # a 7 x 5 matrix's triplets; so few indices make (row, col) pairs repeat
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 7, size)
    return ((np.sort(rows) if sort_rows else rows).astype(dtype),
            rng.integers(0, 5, size).astype(dtype), rng.standard_normal(size))


def explicit_difference_matrix(n):
    # oracle: the (n-1) x n matrix with rows (-1, 1) written out entry by entry
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d


class TestApply:
    def test_identity(self):
        assert np.array_equal(Identity(3).apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_difference_1d_matches_explicit_matrix(self):
        x = np.array([1.0, 2.0, 4.0])
        oracle = explicit_difference_matrix(3) @ x
        np.testing.assert_array_equal(Difference1D(3).apply(x), oracle)
        np.testing.assert_array_equal(oracle, [1.0, 2.0])

    def test_gradient_constant_image(self):
        out = Gradient2D(4, 4).apply(np.full(16, 3.7))
        assert out.shape == (32,)
        np.testing.assert_array_equal(out, np.zeros(32))

    @pytest.mark.parametrize("build", [
        lambda: Identity(3.7), lambda: Difference1D(15.5), lambda: Gradient2D(4.5, 4),
        lambda: SparseMatrix(2.9, 3, [0, 1], [0, 1], [1.0, 1.0]),
    ], ids=["identity", "difference-1d", "gradient-2d", "sparse-matrix"])
    def test_non_integer_dimensions_rejected(self, build):
        # a float dimension is not truncated: Identity(3.7) must not be the 3-dim identity
        with pytest.raises(ValueError, match="must be an integer >= "):
            build()

    def test_dimension_mismatch_message(self):
        with pytest.raises(ValueError, match="15"):
            Difference1D(15).apply(np.zeros(14))
        with pytest.raises(ValueError, match="14"):
            Difference1D(15).adjoint_apply(np.zeros(15))


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(Identity(2).adjoint_apply([5.0, 6.0]), [5.0, 6.0])

    def test_difference_1d_matches_transpose(self):
        y = np.array([1.0, 0.0])
        oracle = explicit_difference_matrix(3).T @ y
        np.testing.assert_array_equal(Difference1D(3).adjoint_apply(y), oracle)
        np.testing.assert_array_equal(oracle, [-1.0, 1.0, 0.0])

    def test_dense_dot_identity(self):
        rng = np.random.default_rng(0)
        op = DenseMatrix(rng.standard_normal((5, 7)))
        x = rng.standard_normal(7)
        y = rng.standard_normal(5)
        assert abs(op.apply(x) @ y - x @ op.adjoint_apply(y)) < 1e-12

    @pytest.mark.parametrize("idx", range(len(KINDS)))
    def test_adjoint_identity_100_probes(self, operator_rows, idx):
        assert_row(operator_rows, f"adjoint-identity[{KINDS[idx]}]")

    @pytest.mark.parametrize("idx", range(len(KINDS)))
    def test_linearity(self, operator_rows, idx):
        assert_row(operator_rows, f"linearity[{KINDS[idx]}]")

    def test_rows_fail_for_a_broken_adjoint(self, monkeypatch):
        # operator_suite is the only check of these properties, so show it can fail
        monkeypatch.setattr(Difference1D, "_adjoint", lambda self, y: np.zeros(self.in_dim))
        rows = suite_rows(operator_suite)
        for prop in ("adjoint-identity", "norm-bound"):
            assert not rows[f"{prop}[difference-1d]"][0]
            assert_row(rows, f"{prop}[gradient-2d]")

    def test_rows_fail_for_an_adjoint_with_a_nan(self, monkeypatch):
        # the running maximum must keep the NaN, and the estimate it leads to
        # is not finite, so no probe can be bounded by it
        adjoint = Difference1D._adjoint

        def nan_first(self, y):
            out = adjoint(self, y)
            out[0] = np.nan
            return out

        monkeypatch.setattr(Difference1D, "_adjoint", nan_first)
        rows = suite_rows(operator_suite)
        for prop in ("adjoint-identity", "norm-bound"):
            assert not rows[f"{prop}[difference-1d]"][0]
            assert_row(rows, f"{prop}[gradient-2d]")
        assert rows["adjoint-identity[difference-1d]"][1] == "max rel nan"
        assert rows["norm-bound[difference-1d]"][1] == "estimate inf"


class TestDifference1D:
    def test_n2_single_row(self):
        a, b = 2.5, -1.0
        np.testing.assert_allclose(Difference1D(2).apply([a, b]), [b - a])

    def test_n200_largest_eigenvalue(self, operator_rows):
        assert_row(operator_rows, "difference-1d-spectral-constant")

    def test_n5_full_spectrum_dense_oracle(self):
        d = Difference1D(5).to_dense()
        np.testing.assert_array_equal(d, explicit_difference_matrix(5))
        eigs = np.sort(np.linalg.eigvalsh(d @ d.T))
        expected = np.sort(2 - 2 * np.cos(np.arange(1, 5) * np.pi / 5))
        np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_spectrum_closed_form_upto_32(self, operator_rows):
        # the row checks the full spectrum for n = 2, 3, 5, 8, 17, 32 to 1e-9
        assert_row(operator_rows, "difference-spectrum-closed-form")

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Difference1D(1)


class TestGradient2D:
    def test_2x2_hand_expansion(self):
        a, b, c, d = 1.0, 4.0, -2.0, 7.0
        out = Gradient2D(2, 2).apply([a, b, c, d])
        np.testing.assert_allclose(out[:4], [b - a, 0.0, d - c, 0.0])
        np.testing.assert_allclose(out[4:], [c - a, d - b, 0.0, 0.0])

    def test_64_spectral_constant(self, operator_rows):
        assert_row(operator_rows, "gradient-2d-spectral-constant")

    @pytest.mark.parametrize("rows, cols", GRID_SHAPES, ids=[f"{r}x{c}" for r, c in GRID_SHAPES])
    def test_flat_kernels_match_the_2d_oracle(self, rows, cols):
        op = Gradient2D(rows, cols)
        rng = np.random.default_rng(rows * 100 + cols)
        for scale in (1.0, 1e-300, 1e300):
            x = signed_zeros(rng, op.in_dim, scale)
            y = signed_zeros(rng, op.out_dim, scale)
            assert_same_bits(op.apply(x), gradient_apply_oracle(rows, cols, x))
            assert_same_bits(op.adjoint_apply(y), gradient_adjoint_oracle(rows, cols, y))

    def test_no_warning_the_2d_oracle_does_not_raise(self):
        # pixels (i, 3) and (i + 1, 0) of a 4x4 image are neighbours in the
        # flat vector only; their difference is taken and then discarded
        inf, big = np.inf, 1e308
        images = {
            "inf across a row end": {3: inf, 4: inf},
            "-inf across a row end": {7: -inf, 8: -inf},
            "overflow across a row end": {11: -big, 12: big},
            # the oracle warns here and the flat kernel does not: the whole
            # horizontal subtract runs under errstate
            "inf - inf within a row": {5: inf, 6: inf},
            "overflow within a column": {1: big, 5: -big},
            "nan": {9: np.nan},
        }
        op = Gradient2D(4, 4)
        for label, entries in images.items():
            x = np.zeros(16)
            x[list(entries)] = list(entries.values())
            new, old = raised_warnings(op.apply, x), raised_warnings(gradient_apply_oracle, 4, 4, x)
            assert new <= old, label
            if "row end" in label:
                assert not new, label
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                np.testing.assert_array_equal(op.apply(x), gradient_apply_oracle(4, 4, x))
            # the same entries in either half of the adjoint's input, also
            # in the last column and row, which the adjoint never reads
            for y in (np.concatenate([x, np.zeros(16)]), np.concatenate([np.zeros(16), x]),
                      np.concatenate([x, x[::-1]])):
                new = raised_warnings(op.adjoint_apply, y)
                assert new <= raised_warnings(gradient_adjoint_oracle, 4, 4, y), label
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    np.testing.assert_array_equal(op.adjoint_apply(y),
                                                  gradient_adjoint_oracle(4, 4, y))

    def test_closed_form_small(self):
        # lambda_max(D D^T) = 2 (2 + 2 cos(pi/n)) for an n x n grid
        for n in (4, 8):
            est = estimate_norm(Gradient2D(n, n)) ** 2
            assert abs(est - 2 * (2 + 2 * np.cos(np.pi / n))) < 1e-4

    def test_rows_fail_for_a_wrong_closed_form(self, monkeypatch):
        # operator_suite is the only check of norm_sq, so show it can fail.
        # The square-grid form 2 (2 + 2 cos(pi/rows)) is right at 64x64, so
        # only the non-square grids catch it.
        monkeypatch.setattr(Gradient2D, "norm_sq",
                            property(lambda self: 2 * (2 + 2 * np.cos(np.pi / self.rows))))
        rows = suite_rows(operator_suite)
        ok, detail = rows["difference-spectrum-closed-form"]
        assert not ok and "gradient-2d(" in detail
        assert_row(rows, "gradient-2d-spectral-constant")
        # a value below the power-iteration estimate is not a bound on ||B||^2
        monkeypatch.setattr(Gradient2D, "norm_sq", property(lambda self: 7.99))
        assert not suite_rows(operator_suite)["gradient-2d-spectral-constant"][0]

    def test_closed_form_row_fails_for_a_nan_that_is_not_first(self, monkeypatch):
        # the worst case is picked NaN first; max(rels, key=rels.get) skipped it
        norm_sq = Gradient2D.norm_sq.fget
        monkeypatch.setattr(Gradient2D, "norm_sq", property(
            lambda self: np.nan if (self.rows, self.cols) == (7, 7) else norm_sq(self)))
        ok, detail = suite_rows(operator_suite)["difference-spectrum-closed-form"]
        assert not ok and detail.endswith("norm_sq max rel err nan at gradient-2d(7x7)")

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Gradient2D(1, 5)


def blur_matrix_oracle(n, kernel):
    # the blur matrix as BlurDownsample first built it: one np.pad of a unit
    # vector and one convolution per column
    r = (len(kernel) - 1) // 2
    m = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        padded = np.pad(e, r, mode="symmetric") if r else e
        m[:, j] = np.convolve(padded, kernel, mode="valid")
    return m


class TestBlurDownsample:
    def test_preserves_constants(self):
        op = BlurDownsample(8, 8, 1.0, 2)
        out = op.apply(np.full(64, 2.5))
        np.testing.assert_allclose(out, np.full(16, 2.5), atol=1e-12)

    def test_zero_sigma_is_block_means(self):
        x = np.arange(16.0)
        out = BlurDownsample(4, 4, 0.0, 2).apply(x)
        img = x.reshape(4, 4)
        oracle = np.array([
            img[0:2, 0:2].mean(), img[0:2, 2:4].mean(),
            img[2:4, 0:2].mean(), img[2:4, 2:4].mean(),
        ])
        np.testing.assert_array_equal(out, oracle)

    def test_adjoint_random_8x8(self):
        rng = np.random.default_rng(3)
        op = BlurDownsample(8, 8, 1.0, 2)
        for _ in range(20):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            assert abs(op.apply(x) @ y - x @ op.adjoint_apply(y)) < 1e-10

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            BlurDownsample(6, 8, 1.0, 4)

    def test_rejects_non_integer_factor(self):
        with pytest.raises(ValueError, match="integer"):
            BlurDownsample(8, 8, 1.0, 2.5)
        with pytest.raises(ValueError, match="integer"):
            build_lrtv_problem(factor=2.5)
        assert BlurDownsample(8, 8, 1.0, np.int64(2)).out_dim == 16

    def test_blur_matrices_doubly_stochastic(self):
        # the premise of norm_sq = 1 / factor^2: each 1-d blur matrix is
        # nonnegative with unit row and column sums, so ||M|| = 1; at sigma
        # 3 and 5 the kernel radius (9, 15) exceeds the smaller sides
        for n in (1, 2, 3, 5, 8, 13, 32, 64):
            for sigma in (0.0, 0.3, 1.0, 1.7, 3.0, 5.0):
                m = _blur_matrix(n, _gaussian_kernel(sigma))
                assert (m >= 0).all(), (n, sigma)
                for axis in (0, 1):
                    dev = np.abs(m.sum(axis=axis) - 1.0).max()
                    assert dev <= 1e-14, (n, sigma, axis, dev)

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 32, 64])
    def test_blur_matrix_matches_the_per_column_pad(self, n, sigma):
        # at sigma 3 and 5 the kernel radius (9, 15) exceeds the smaller sides,
        # so the index padding reflects more than once
        kernel = _gaussian_kernel(sigma)
        m = _blur_matrix(n, kernel)
        assert np.array_equal(m, blur_matrix_oracle(n, kernel))
        assert not m.flags.writeable

    def test_square_image_shares_one_blur_matrix(self):
        op = BlurDownsample(32, 32, 1.0, 2)
        assert op._m_cols is op._m_rows

    def test_non_square_image_has_a_blur_matrix_per_side(self):
        op = BlurDownsample(6, 8, 1.0, 2)
        kernel = _gaussian_kernel(1.0)
        assert op._m_cols is not op._m_rows
        assert np.array_equal(op._m_rows, blur_matrix_oracle(6, kernel))
        assert np.array_equal(op._m_cols, blur_matrix_oracle(8, kernel))

    def test_norm_at_most_one(self):
        # factor 1 is the pure blur
        assert estimate_norm(BlurDownsample(8, 8, 1.0, 1)) <= 1.0 + 1e-9

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(9)
        op = BlurDownsample(6, 6, 0.8, 2)
        dense = op.to_dense()
        x = rng.standard_normal(op.in_dim)
        np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)


class TestExactDataFitConstants:
    #: row name -> the operator class and its exact norm_sq
    ROWS = {
        "blur-downsample-spectral-constant": (BlurDownsample, lambda op: 1.0 / op.factor**2),
        "dense-matrix-spectral-constant": (
            DenseMatrix, lambda op: np.linalg.svd(op.matrix, compute_uv=False)[0] ** 2),
    }

    @pytest.mark.parametrize("row", list(ROWS))
    def test_matches_dense_svd(self, operator_rows, row):
        assert_row(operator_rows, row)

    @pytest.mark.parametrize("row", list(ROWS))
    def test_row_fails_for_a_value_1e6_too_low(self, monkeypatch, row):
        # the row is the only check of the exact form, so show it can fail
        cls, exact = self.ROWS[row]
        monkeypatch.setattr(cls, "norm_sq", property(lambda op: exact(op) * (1 - 1e-6)))
        rows = suite_rows(operator_suite)
        assert not rows[row][0]
        for other in self.ROWS.keys() - {row}:
            assert_row(rows, other)


class TestSparseMatrix:
    # (0, 1) appears twice; row 3 and column 3 are empty
    TRIPLETS = ([0, 2, 0, 1], [1, 0, 1, 2], [2.0, -1.0, 0.5, 4.0])

    def test_matches_entrywise_oracle(self):
        rows, cols, values = self.TRIPLETS
        oracle = np.zeros((4, 4))
        for r, c, v in zip(rows, cols, values):
            oracle[r, c] += v
        op = SparseMatrix(4, 4, rows, cols, values)
        np.testing.assert_array_equal(op.to_dense(), oracle)
        x = np.array([1.0, -2.0, 3.0, 5.0])
        np.testing.assert_array_equal(op.apply(x), oracle @ x)
        np.testing.assert_array_equal(op.adjoint_apply(x), oracle.T @ x)

    def test_no_triplets_is_the_zero_map(self):
        op = SparseMatrix(3, 2, [], [], [])
        np.testing.assert_array_equal(op.apply(np.ones(2)), np.zeros(3))
        np.testing.assert_array_equal(op.adjoint_apply(np.ones(3)), np.zeros(2))
        np.testing.assert_array_equal(op.to_dense(), np.zeros((3, 2)))

    @pytest.mark.parametrize("rows, cols, match", [
        ([0, 4], [0, 1], "row"), ([0, 1], [-1, 1], "col"), ([0.0, 1.0], [0, 1], "row"),
        ([0], [0, 1], "row"),
    ], ids=["row-out-of-range", "negative-col", "float-rows", "length-mismatch"])
    def test_rejects_bad_triplets(self, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            SparseMatrix(4, 4, rows, cols, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN entry made norm_sq NaN, and the gamma < 2/L check passed silently
        with pytest.raises(ValueError, match=rf"finite.*{bad} at \(2, 0\)"):
            SparseMatrix(4, 4, [0, 2, 1], [1, 0, 2], [1.0, bad, 2.0])
        with pytest.raises(ValueError, match=rf"finite.*{bad} at \(1, 2\)"):
            DenseMatrix([[1.0, 0.0, 2.0], [0.0, 3.0, bad]])

    @pytest.mark.parametrize("shape, triplets", [
        ((3, 2), ([], [], [])),
        ((4, 4), TRIPLETS),
        *(((7, 5), random_triplets(seed, 40)) for seed in range(3)),
        ((7, 5), random_triplets(3, 40, sort_rows=True)),
        ((7, 5), random_triplets(4, 40, dtype=np.int32)),
    ], ids=["empty", "hand-made", "random-0", "random-1", "random-2", "rows-sorted", "int32"])
    def test_layouts_match_the_argsort_oracle(self, shape, triplets):
        rows, cols, values = triplets
        assert_layouts_match_the_oracle(
            SparseMatrix(*shape, *triplets), np.asarray(rows).astype(np.intp),
            np.asarray(cols).astype(np.intp), np.asarray(values, dtype=float))

    @pytest.mark.parametrize("side, angles, rays", [
        (64, np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20), 96),
        *((side, np.random.default_rng(side).uniform(0.0, 2.0 * np.pi, 4), 2 * side + 1)
          for side in (16, 17, 64, 128)),
    ], ids=["desk", "random-16", "random-17", "random-64", "random-128"])
    def test_projector_layouts_match_the_argsort_oracle(self, side, angles, rays):
        # one batch over every ray traces the same triplets as fan_beam_matrix's per-view batches
        assert_layouts_match_the_oracle(fan_beam_matrix(side, angles, rays),
                                        *_trace_rays(side, fan_beam_rays(side, angles, rays)))

    def test_row_ordered_triplets_are_kept_as_given(self):
        # documented: row-ordered intp/float64 triplets are not copied, so
        # the caller must not change them; the operator's views are read-only
        rows, cols, values = random_triplets(5, 40, sort_rows=True)
        op = SparseMatrix(7, 5, rows, cols, values)
        _, _, others, kept = op._by_row
        assert np.shares_memory(others, cols) and np.shares_memory(kept, values)
        assert not (others.flags.writeable or kept.flags.writeable)
        assert cols.flags.writeable and values.flags.writeable


class TestEstimateNorm:
    def test_identity(self):
        assert abs(estimate_norm(Identity(10)) - 1.0) < 1e-8

    def test_against_svd(self, operator_rows):
        assert_row(operator_rows, "power-iteration-vs-svd")

    def test_zero_operator(self):
        assert estimate_norm(DenseMatrix(np.zeros((4, 5)))) == 0.0

    def test_deterministic_given_seed(self):
        op = Gradient2D(7, 9)
        assert estimate_norm(op) == estimate_norm(op)

    @pytest.mark.parametrize("idx", range(len(KINDS)))
    def test_norm_bound_on_probes(self, operator_rows, idx):
        assert_row(operator_rows, f"norm-bound[{KINDS[idx]}]")
