import numpy as np
import pytest

from splitopt.metrics import Reference


# one entry each of a Reference call's (snr, nmsd, ssim); their names are the test ids
def snr(x, rec):
    return Reference(x)(rec)[0]


def nmsd(x, rec):
    return Reference(x)(rec)[1]


def ssim(f, g, dynamic_range=1.0):
    return Reference(f, dynamic_range)(g)[2]


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
        assert Reference(x)(x) == (np.inf, 0.0, None)

    def test_duality_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(30)
            rec = x + 0.1 * rng.standard_normal(30)
            got_snr, got_nmsd, _ = Reference(x)(rec)
            assert got_snr == pytest.approx(-20.0 * np.log10(got_nmsd), rel=1e-14)

    def test_shape_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        rec = x + 0.01 * rng.standard_normal((6, 4))
        assert Reference(x, 1.0)(rec) == Reference(x.ravel(), 1.0)(rec.ravel())

    @pytest.mark.parametrize("metric", [snr, nmsd])
    @pytest.mark.parametrize("level, n", [(2.0, 5), (0.1, 3)], ids=["exact-mean", "rounded-mean"])
    def test_constant_truth_rejected(self, metric, level, n):
        # its deviation from its mean, the denominator of both metrics, is 0;
        # or, where the mean rounds off 0.1, a few ulps of noise
        with pytest.raises(ValueError, match="^SNR and NMSD are undefined for a constant ground truth$"):
            metric(np.full(n, level), np.zeros(n))

    @pytest.mark.parametrize("metric", [snr, nmsd])
    def test_empty_truth_rejected(self, metric):
        with pytest.raises(ValueError, match="^the ground truth is empty$"):
            metric([], [])

    @pytest.mark.parametrize("metric", [snr, nmsd, ssim])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_rejected(self, metric, bad):
        # a NaN truth scored every reconstruction nan
        with pytest.raises(ValueError, match=f"^ground truth must be finite, got 1 that are not: {bad} at 1$"):
            metric([0.0, bad, 1.0], [0.0, 0.5, 1.0])

    def test_size_mismatch_rejected(self):
        for ref in (Reference(np.arange(3.0)), Reference(np.arange(3.0), 1.0)):
            with pytest.raises(ValueError, match="^reconstruction has 4 entries, expected 3$"):
                ref(np.zeros(4))


class TestSsim:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (8, 8))
        assert ssim(img, img) == pytest.approx(1.0)

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
        got = ssim(f, g, length)
        assert got == pytest.approx(expected, rel=1e-14)
        assert 0.0 < got < 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        assert ssim(f, g) == pytest.approx(ssim(g, f), rel=1e-14)

    def test_below_one_when_images_differ(self):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 1, (6, 6))
        g = f + 0.05 * rng.standard_normal((6, 6))
        assert ssim(f, g) < 1.0

    def test_flatten_invariance(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        assert ssim(f, g) == ssim(f.ravel(), g.ravel())

    def test_rejects_bad_dynamic_range(self):
        # NaN and inf would give NaN for two identical images, not 1
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^dynamic range must be positive and finite, got {bad}$"):
                Reference(np.arange(4.0), bad)
