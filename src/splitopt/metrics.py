"""Reconstruction-quality metrics against a known true signal.

``Reference(x_true, dynamic_range=None)`` holds what the metrics need of the
true signal, and a call scores one reconstruction as ``(snr, nmsd, ssim)``;
the solver driver builds one per solve.  Inputs are flattened, so images may
come in any shape as long as both agree.

SNR and NMSD compare against the deviation of the true signal from its own
mean, so a reconstruction equal to that mean scores 0 dB.  The two are tied
by snr = -20 log10(nmsd); an exact recovery gives nmsd = 0 and snr = +inf.
A constant, empty or non-finite true signal is rejected.

SSIM, None without a dynamic range L, is the whole-image (single-window)
index over population variances, with c1 = (0.01 L)^2 in the luminance
factor and c2 = (0.03 L)^2 in the contrast/structure factor.  It is
symmetric, and 1 exactly when the two images match.
"""

import numpy as np

from ._checks import finite, positive, vector

__all__ = ["Reference"]


class Reference:
    """A true signal with its mean, its deviation from that mean, and that
    deviation's population variance and norm."""

    def __init__(self, x_true, dynamic_range=None):
        self.x = finite("ground truth", vector(x_true))
        if not self.x.size:
            raise ValueError("the ground truth is empty")
        self.mean = self.x.mean()
        self.dev = self.x - self.mean
        self.var = np.mean(self.dev**2)
        self.ssim_c = None
        if dynamic_range is not None:
            positive("dynamic range", dynamic_range)
            self.ssim_c = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
        # tested on x itself: the mean of a constant can round off it
        if self.x.min() == self.x.max():
            raise ValueError("SNR and NMSD are undefined for a constant ground truth")
        self.dev_norm = np.linalg.norm(self.dev)

    def __call__(self, x_rec):
        """(snr, nmsd, ssim) of one reconstruction; ssim is None without a dynamic range."""
        g = vector(x_rec, self.x.size, "reconstruction")
        err = np.linalg.norm(self.x - g)
        snr = np.inf if err == 0.0 else float(20.0 * np.log10(self.dev_norm / err))
        nmsd = float(err / self.dev_norm)
        if self.ssim_c is None:
            return snr, nmsd, None
        c1, c2 = self.ssim_c
        mf, mg = self.mean, g.mean()
        dg = g - mg
        vg = np.mean(dg**2)
        cov = np.mean(self.dev * dg)
        return snr, nmsd, float(
            (2.0 * mf * mg + c1) * (2.0 * cov + c2) / ((mf**2 + mg**2 + c1) * (self.var + vg + c2))
        )
