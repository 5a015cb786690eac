"""Reconstruction-quality metrics.

SNR and NMSD compare against the deviation of the true signal from its own
mean, so a reconstruction equal to that mean scores 0 dB.  The two are tied
by snr = -20 log10(nmsd); an exact recovery gives nmsd = 0 and snr = +inf.
Both are undefined for a constant true signal, which they reject, as every
metric rejects an empty one.
All metrics flatten their inputs, so image arguments may be passed in any
shape as long as both agree.

``Reference`` holds what the metrics need of the true signal, and decides
which metrics one iterate gets: SNR and NMSD always, SSIM when a dynamic
range is given.  The solver driver builds one per solve and calls it once
per iterate; the public functions are one-shot uses of the same code.
"""

import numpy as np

from ._checks import finite, positive, vector

__all__ = ["snr", "nmsd", "ssim_global"]


class _Signal:
    """A true signal with its mean, deviation from that mean and the
    deviation's population variance, each computed once: all SSIM needs.

    With a ``dynamic_range`` L it also holds SSIM's stabilizers
    (c1, c2) = ((0.01 L)^2, (0.03 L)^2).
    """

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

    def ssim(self, x_rec):
        c1, c2 = self.ssim_c
        g = vector(x_rec, self.x.size, "reconstruction")
        mf, mg = self.mean, g.mean()
        dg = g - mg
        vg = np.mean(dg**2)
        cov = np.mean(self.dev * dg)
        return float(
            (2.0 * mf * mg + c1) * (2.0 * cov + c2) / ((mf**2 + mg**2 + c1) * (self.var + vg + c2))
        )


class Reference(_Signal):
    """A true signal that SNR and NMSD can be taken against: it also holds
    the norm of its deviation, their common denominator, so a constant
    signal is rejected.  A call scores SSIM too with a ``dynamic_range``.
    """

    def __init__(self, x_true, dynamic_range=None):
        super().__init__(x_true, dynamic_range)
        # tested on x itself: the mean of a constant can round off it
        if self.x.min() == self.x.max():
            raise ValueError("SNR and NMSD are undefined for a constant ground truth")
        self.dev_norm = np.linalg.norm(self.dev)

    def __call__(self, x_rec):
        """(snr, nmsd, ssim) of one reconstruction; ssim is None without a dynamic range."""
        err = self.error_norm(x_rec)
        return self.snr(err), self.nmsd(err), None if self.ssim_c is None else self.ssim(x_rec)

    def error_norm(self, x_rec):
        """||x - x_r||, shared by ``nmsd`` and ``snr``."""
        return np.linalg.norm(self.x - vector(x_rec, self.x.size, "reconstruction"))

    def nmsd(self, err):
        return float(err / self.dev_norm)

    def snr(self, err):
        if err == 0.0:
            return np.inf
        return float(20.0 * np.log10(self.dev_norm / err))


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
    return _Signal(f_img, dynamic_range).ssim(g_img)
