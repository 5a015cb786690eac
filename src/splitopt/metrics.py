"""Reconstruction-quality metrics.

SNR and NMSD compare against the deviation of the true signal from its own
mean, so a reconstruction equal to that mean scores 0 dB.  The two are tied
by snr = -20 log10(nmsd); an exact recovery gives nmsd = 0 and snr = +inf.
All metrics flatten their inputs, so image arguments may be passed in any
shape as long as both agree.

``Reference`` holds what the metrics need of the true signal, so the solver
driver computes it once per solve and ``||x - x_r||`` once per iterate; the
public functions are one-shot uses of the same code.
"""

import numpy as np

__all__ = ["snr", "nmsd", "ssim_global"]


def _flat(x):
    return np.asarray(x, dtype=float).ravel()


def ssim_constants(dynamic_range):
    """SSIM's stabilizers (c1, c2) = ((0.01 L)^2, (0.03 L)^2) for L = dynamic_range."""
    if not 0 < dynamic_range < np.inf:  # negated, so that NaN fails too
        raise ValueError(f"dynamic range must be positive and finite, got {dynamic_range}")
    return (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2


class Reference:
    """A true signal with its mean, deviation from that mean, the deviation's
    norm and its population variance, each computed once."""

    def __init__(self, x_true):
        self.x = _flat(x_true)
        self.mean = self.x.mean()
        self.dev = self.x - self.mean
        self.dev_norm = np.linalg.norm(self.dev)
        self.var = np.mean(self.dev**2)

    def _check(self, x_rec):
        x_rec = _flat(x_rec)
        if x_rec.size != self.x.size:
            raise ValueError(f"size mismatch: {self.x.size} vs {x_rec.size}")
        return x_rec

    def error_norm(self, x_rec):
        """||x - x_r||, shared by ``nmsd`` and ``snr``."""
        return np.linalg.norm(self.x - self._check(x_rec))

    def nmsd(self, err):
        return float(err / self.dev_norm)

    def snr(self, err):
        if err == 0.0:
            return np.inf
        return float(20.0 * np.log10(self.dev_norm / err))

    def ssim(self, x_rec, c1, c2):
        g = self._check(x_rec)
        mf, mg = self.mean, g.mean()
        dg = g - mg
        vg = np.mean(dg**2)
        cov = np.mean(self.dev * dg)
        return float(
            (2.0 * mf * mg + c1) * (2.0 * cov + c2) / ((mf**2 + mg**2 + c1) * (self.var + vg + c2))
        )


def nmsd(x_true, x_rec):
    """||x - x_r|| / ||x - mean(x)||; 0 means exact recovery."""
    ref = Reference(x_true)
    return ref.nmsd(ref.error_norm(x_rec))


def snr(x_true, x_rec):
    """20 log10(||x - mean(x)|| / ||x - x_r||) in dB; +inf on exact recovery."""
    ref = Reference(x_true)
    return ref.snr(ref.error_norm(x_rec))


def ssim_global(f_img, g_img, dynamic_range):
    """Whole-image structural similarity (single window covering the image).

    Means, variances (population, 1/N) and covariance are taken over the full
    image; c1 = (0.01 L)^2 and c2 = (0.03 L)^2 with L = dynamic_range.  The
    luminance factor uses c1 and the contrast/structure factor uses c2.
    Symmetric in its arguments and equal to 1 exactly when the images match.
    """
    c1, c2 = ssim_constants(dynamic_range)
    return Reference(f_img).ssim(g_img, c1, c2)
