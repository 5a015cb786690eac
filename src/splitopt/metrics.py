"""Reconstruction-quality metrics.

SNR and NMSD compare against the deviation of the true signal from its own
mean, so a reconstruction equal to that mean scores 0 dB.  The two are tied
by snr = -20 log10(nmsd); an exact recovery gives nmsd = 0 and snr = +inf.
All metrics flatten their inputs, so image arguments may be passed in any
shape as long as both agree.
"""

import numpy as np

__all__ = ["snr", "nmsd", "ssim_global"]


def _deviations(x_true, x_rec):
    x_true = np.asarray(x_true, dtype=float).ravel()
    x_rec = np.asarray(x_rec, dtype=float).ravel()
    if x_true.size != x_rec.size:
        raise ValueError(f"size mismatch: {x_true.size} vs {x_rec.size}")
    ref = np.linalg.norm(x_true - x_true.mean())
    err = np.linalg.norm(x_true - x_rec)
    return ref, err


def nmsd(x_true, x_rec):
    """||x - x_r|| / ||x - mean(x)||; 0 means exact recovery."""
    ref, err = _deviations(x_true, x_rec)
    return float(err / ref)


def snr(x_true, x_rec):
    """20 log10(||x - mean(x)|| / ||x - x_r||) in dB; +inf on exact recovery."""
    ref, err = _deviations(x_true, x_rec)
    if err == 0.0:
        return np.inf
    return float(20.0 * np.log10(ref / err))


def ssim_global(f_img, g_img, dynamic_range):
    """Whole-image structural similarity (single window covering the image).

    Means, variances (population, 1/N) and covariance are taken over the full
    image; c1 = (0.01 L)^2 and c2 = (0.03 L)^2 with L = dynamic_range.  The
    luminance factor uses c1 and the contrast/structure factor uses c2.
    Symmetric in its arguments and equal to 1 exactly when the images match.
    """
    if not 0 < dynamic_range < np.inf:  # negated, so that NaN fails too
        raise ValueError(f"dynamic range must be positive and finite, got {dynamic_range}")
    f = np.asarray(f_img, dtype=float).ravel()
    g = np.asarray(g_img, dtype=float).ravel()
    if f.size != g.size:
        raise ValueError(f"shape mismatch: {f.size} vs {g.size}")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    mf, mg = f.mean(), g.mean()
    vf = np.mean((f - mf) ** 2)
    vg = np.mean((g - mg) ** 2)
    cov = np.mean((f - mf) * (g - mg))
    return float(
        (2.0 * mf * mg + c1) * (2.0 * cov + c2) / ((mf**2 + mg**2 + c1) * (vf + vg + c2))
    )

