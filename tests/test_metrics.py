import numpy as np
import pytest

from splitopt.metrics import nmsd, snr, ssim_global


class TestSnrNmsd:
    def test_mean_reconstruction_scores_zero_db(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        rec = np.full(50, x.mean())
        assert snr(x, rec) == pytest.approx(0.0, abs=1e-12)
        assert nmsd(x, rec) == pytest.approx(1.0)

    def test_tenth_error_is_twenty_db(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        dev = x - x.mean()
        rec = x - 0.1 * dev  # error norm is exactly a tenth of the reference
        assert snr(x, rec) == pytest.approx(20.0, abs=1e-10)

    def test_exact_recovery(self):
        x = np.array([1.0, 2.0, 3.0])
        assert nmsd(x, x) == 0.0
        assert snr(x, x) == np.inf

    def test_duality_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(30)
            rec = x + 0.1 * rng.standard_normal(30)
            assert snr(x, rec) == pytest.approx(-20.0 * np.log10(nmsd(x, rec)), rel=1e-14)

    def test_shape_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        rec = x + 0.01 * rng.standard_normal((6, 4))
        assert snr(x, rec) == snr(x.ravel(), rec.ravel())
        assert nmsd(x, rec) == nmsd(x.ravel(), rec.ravel())

    @pytest.mark.parametrize("metric", [snr, nmsd])
    @pytest.mark.parametrize("level, n", [(2.0, 5), (0.1, 3)], ids=["exact-mean", "rounded-mean"])
    def test_constant_truth_rejected(self, metric, level, n):
        # its deviation from its mean, the denominator of both metrics, is 0;
        # or, where the mean rounds off 0.1, a few ulps of noise
        with pytest.raises(ValueError, match="constant"):
            metric(np.full(n, level), np.zeros(n))

    @pytest.mark.parametrize("metric", [snr, nmsd])
    def test_empty_truth_rejected(self, metric):
        with pytest.raises(ValueError, match="empty"):
            metric([], [])

    @pytest.mark.parametrize("metric", [snr, nmsd, lambda f, g: ssim_global(f, g, 1.0)],
                             ids=["snr", "nmsd", "ssim"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_rejected(self, metric, bad):
        # a NaN truth scored every reconstruction nan
        with pytest.raises(ValueError, match=f"^ground truth must be finite, got 1 that are not: {bad} at 1$"):
            metric([0.0, bad, 1.0], [0.0, 0.5, 1.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            snr(np.zeros(3), np.zeros(4))


class TestSsim:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (8, 8))
        assert ssim_global(img, img, 1.0) == pytest.approx(1.0)

    def test_hand_evaluated_2x2(self):
        f = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = np.zeros((2, 2))
        length = 1.0
        c1, c2 = (0.01 * length) ** 2, (0.03 * length) ** 2
        mf, mg = 0.5, 0.0
        vf, vg = 0.25, 0.0  # population variance over the four pixels
        cov = 0.0
        expected = ((2 * mf * mg + c1) * (2 * cov + c2)
                    / ((mf**2 + mg**2 + c1) * (vf + vg + c2)))
        got = ssim_global(f, g, length)
        assert got == pytest.approx(expected, rel=1e-14)
        assert 0.0 < got < 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        assert ssim_global(f, g, 1.0) == pytest.approx(ssim_global(g, f, 1.0), rel=1e-14)

    def test_below_one_when_images_differ(self):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 1, (6, 6))
        g = f + 0.05 * rng.standard_normal((6, 6))
        assert ssim_global(f, g, 1.0) < 1.0

    def test_flatten_invariance(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        assert ssim_global(f, g, 1.0) == ssim_global(f.ravel(), g.ravel(), 1.0)

    def test_constant_image_scored(self):
        # SSIM needs no deviation norm, so a flat image is fine
        f = np.full((3, 3), 0.5)
        assert ssim_global(f, f, 1.0) == 1.0
        assert 0.0 < ssim_global(f, np.eye(3), 1.0) < 1.0

    def test_rejects_bad_dynamic_range(self):
        # NaN and inf would give NaN for two identical images, not 1
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ssim_global(np.zeros((2, 2)), np.zeros((2, 2)), bad)

