"""Experiment instances: fused lasso, constrained-TV CT, and low-rank-TV super-resolution.

Every builder is deterministic given its seed: instances are generated with
``numpy.random.default_rng`` (PCG64) and each builder documents the order in
which it consumes random draws, so the same seed reproduces the same instance
bit for bit on any platform.

Noise arguments are variances; the standard deviation used is sqrt(noise_var).
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    BlurDownsample,
    DenseMatrix,
    Difference1D,
    Gradient2D,
    SparseMatrix,
)
from .proxfuncs import GroupL21, L1Norm, NonnegativeIndicator, NuclearNorm
from .smooth import LeastSquares

__all__ = [
    "SplitProblem",
    "build_fused_lasso",
    "build_ct_problem",
    "build_lrtv_problem",
    "fused_lasso_signal",
    "shepp_logan",
    "fan_beam_matrix",
    "export_instance",
]


@dataclass
class SplitProblem:
    """One instance of  min_x f(x) + g(x) + h(Bx)  plus experiment metadata.

    ``b_lam_max`` is the conventional rounded lambda_max(B B^T) that the
    step-size presets use where the experiment defines one; step-size
    conditions are checked against ``B.norm_sq``, and ``exact_b_norm`` is its
    square root.  SSIM is recorded when both ``image_shape`` and
    ``dynamic_range`` are set.
    """

    f: object
    g: object
    h: object
    B: object
    ground_truth: np.ndarray | None = None
    name: str = ""
    image_shape: tuple | None = None
    x0: np.ndarray | None = None
    b_lam_max: float | None = None
    gamma_default: float | None = None
    dynamic_range: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f_op = getattr(self.f, "op", None)
        if f_op is not None and f_op.in_dim != self.B.in_dim:
            raise ValueError(
                f"smooth term domain {f_op.in_dim} does not match penalty "
                f"operator domain {self.B.in_dim}"
            )
        g_shape = getattr(self.g, "shape", None)
        if g_shape is not None and g_shape[0] * g_shape[1] != self.B.in_dim:
            raise ValueError(
                f"matrix penalty shape {g_shape} does not match operator domain {self.B.in_dim}"
            )
        if self.image_shape is not None and math.prod(self.image_shape) != self.B.in_dim:
            raise ValueError(
                f"image shape {self.image_shape} does not match operator domain {self.B.in_dim}"
            )

    @property
    def dim(self):
        return self.B.in_dim

    @property
    def record_ssim(self):
        return self.dynamic_range is not None and self.image_shape is not None

    def exact_b_norm(self):
        return math.sqrt(self.B.norm_sq)

    def objective(self, x):
        """f(x) + g(x) + h(Bx), +inf when an indicator constraint is violated."""
        return self.f.value(x) + self.g.value(x) + self.h.value(self.B.apply(x))


# ---------------------------------------------------------------------------
# fused lasso
# ---------------------------------------------------------------------------

# 1-based inclusive support blocks of the length-200 reference signal
_SIGNAL_BLOCKS = ((1, 20, 2.0), (41, 41, 3.0), (71, 85, 1.0), (121, 125, 2.0))


def _gaussian_noise(rng, noise_var, size):
    # centered, of variance noise_var: one standard-normal draw of ``size``
    if not 0 <= noise_var < np.inf:
        raise ValueError(f"noise_var must be nonnegative and finite, got {noise_var}")
    return np.sqrt(noise_var) * rng.standard_normal(size)


def fused_lasso_signal(n):
    """Piecewise-constant test signal: blockwise 2/3/1/2 pattern on zeros.

    The reference pattern is defined for n = 200 and fits verbatim for any
    n >= 126; for smaller n the block boundaries are rescaled proportionally.
    """
    x = np.zeros(n)
    for lo, hi, level in _SIGNAL_BLOCKS:
        if n < 126:
            lo = max(1, round(lo * n / 200))
            hi = min(n, max(lo, round(hi * n / 200)))
        x[lo - 1 : hi] = level
    return x


def build_fused_lasso(m=100, n=200, mu1=0.2, mu2=0.8, noise_var=0.01, seed=0):
    """Sparse regression with an l1 penalty on both coefficients and their differences.

        min_x 0.5 ||A x - b||^2 + mu1 ||x||_1 + mu2 ||D x||_1

    A has standard Gaussian entries and b = A x_true + e with centered
    Gaussian noise of variance ``noise_var``.  Draw order: A first, then e.

    The default noise variance of 0.01 (standard deviation 0.1) puts the
    converged reconstruction around NMSD 0.006 / SNR 44-47 dB, the regime the
    benchmark tables are calibrated against; a variance of 0.1 lands near
    31 dB instead.
    """
    if m < 1 or n < 2:
        raise ValueError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    x_true = fused_lasso_signal(n)
    a = rng.standard_normal((m, n))
    b = a @ x_true + _gaussian_noise(rng, noise_var, m)
    return SplitProblem(
        f=LeastSquares(DenseMatrix(a), b),
        g=L1Norm(mu1),
        h=L1Norm(mu2),
        B=Difference1D(n),
        ground_truth=x_true,
        name="fused-lasso",
        # conventional step-size constant for the 1-d difference operator
        b_lam_max=4.0,
        meta={"m": m, "n": n, "mu1": mu1, "mu2": mu2, "noise_var": noise_var, "seed": seed},
    )


# ---------------------------------------------------------------------------
# CT: Shepp-Logan phantom and fan-beam ray-driven projector
# ---------------------------------------------------------------------------

# ten-ellipse head phantom, high-contrast intensity variant (values in [0, 1]);
# columns: additive intensity, semi-axis a, semi-axis b, center x, center y, angle (deg)
_PHANTOM_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def shepp_logan(side):
    """Rasterize the ten-ellipse head phantom on a side x side grid."""
    c = (np.arange(side) + 0.5) / side * 2.0 - 1.0
    xg, yg = np.meshgrid(c, c)
    img = np.zeros((side, side))
    for val, a, b, x0, y0, phi in _PHANTOM_ELLIPSES:
        t = np.deg2rad(phi)
        xr = (xg - x0) * np.cos(t) + (yg - y0) * np.sin(t)
        yr = -(xg - x0) * np.sin(t) + (yg - y0) * np.cos(t)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    # cancellation in the summed intensities can leave -1e-17 residues
    return np.maximum(img, 0.0)


def _check_size(name, value, minimum):
    # numpy integers pass; a float, even an integral one, or NaN does not
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


_NO_CROSSING = (np.empty(0, dtype=np.intp), np.empty(0))


def _trace_ray(side, bounds, sx, sy, dx, dy):
    # exact ray-grid intersection lengths (Siddon traversal): the crossed
    # pixels in traversal order and the length of the ray inside each
    tmin, tmax = -np.inf, np.inf
    for p, d in ((sx, dx), (sy, dy)):
        if abs(d) < 1e-12:
            if p < bounds[0] or p > bounds[-1]:
                return _NO_CROSSING
        else:
            t0 = (bounds[0] - p) / d
            t1 = (bounds[-1] - p) / d
            if t0 > t1:
                t0, t1 = t1, t0
            tmin = max(tmin, t0)
            tmax = min(tmax, t1)
    if tmax <= tmin:
        return _NO_CROSSING
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


def fan_beam_rays(side, angles, rays):
    """Ray geometry of the fan-beam scan: one (sx, sy, dx, dy) row per ray.

    Units are pixels: the image occupies [-side/2, side/2]^2 with unit pixels,
    pixel (r, c) is the cell with x in [c - side/2, c+1 - side/2] and
    y in [r - side/2, r+1 - side/2], flattened row-major.  The source sits on
    a circle of radius 2*side; each view fans ``rays`` unit-direction rays
    evenly over the arc subtending the circle circumscribing the image.
    """
    _check_size("side", side, 2)
    _check_size("rays", rays, 1)
    if len(angles) < 1:
        raise ValueError("degenerate scan geometry: no view angles")
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


def fan_beam_matrix(side, angles, rays):
    """Ray-driven fan-beam system matrix with exact intersection lengths.

    One row per ray of ``fan_beam_rays``; entry (ray, pixel) is the length of
    the ray's segment through that pixel, found by walking the grid crossings.
    Returned as a ``SparseMatrix`` of (ray, pixel, length) triplets: a ray
    crosses at most 2 * side pixels, so the dense matrix is never built.
    """
    geometry = fan_beam_rays(side, angles, rays)
    bounds = np.arange(side + 1, dtype=float) - side / 2.0
    pixels, lengths = zip(*(_trace_ray(side, bounds, *ray) for ray in geometry))
    rows = np.repeat(np.arange(len(pixels)), [p.size for p in pixels])
    return SparseMatrix(len(pixels), side * side, rows,
                        np.concatenate(pixels), np.concatenate(lengths))


def build_ct_problem(img_side=64, views=20, rays=96, mu=0.5, noise_var=0.01,
                     tv_kind="iso", seed=0):
    """Nonnegativity-constrained TV reconstruction from fan-beam projections.

        min_{x >= 0} 0.5 ||A x - b||^2 + mu ||x||_TV

    The phantom is the ten-ellipse head phantom, view angles are drawn
    uniformly on [0, 2 pi), and b = A x_true + e with Gaussian noise of
    variance ``noise_var``.  Draw order: angles first, then e.
    """
    _check_size("img_side", img_side, 16)
    _check_size("views", views, 1)
    if tv_kind not in ("iso", "aniso"):
        raise ValueError(f"tv_kind must be 'iso' or 'aniso', got {tv_kind!r}")
    rng = np.random.default_rng(seed)
    phantom = shepp_logan(img_side)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=views)
    a = fan_beam_matrix(img_side, angles, rays)
    x_true = phantom.ravel()
    b = a.apply(x_true) + _gaussian_noise(rng, noise_var, a.out_dim)
    h = GroupL21(mu) if tv_kind == "iso" else L1Norm(mu)
    return SplitProblem(
        f=LeastSquares(a, b),
        g=NonnegativeIndicator(),
        h=h,
        B=Gradient2D(img_side, img_side),
        ground_truth=x_true,
        name="constrained-tv-ct",
        image_shape=(img_side, img_side),
        b_lam_max=8.0,
        meta={
            "img_side": img_side, "views": views, "rays": rays, "mu": mu,
            "noise_var": noise_var, "tv_kind": tv_kind, "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# low-rank TV super-resolution
# ---------------------------------------------------------------------------

def _step_profile(n, factor, rng):
    # one jump, placed on the downsampling grid so block averaging keeps it localized
    edge = int(rng.choice(np.arange(2 * factor, n - factor, factor)))
    levels = rng.uniform(0.3, 1.0, size=2)
    p = np.empty(n)
    p[:edge] = levels[0]
    p[edge:] = levels[1]
    return p


def _block_low_rank_image(rows, cols, factor, rng):
    # sum of four outer products of two-level step profiles: rank <= 4,
    # piecewise constant on a block grid, normalized into [0, 1]
    img = np.zeros((rows, cols))
    for _ in range(4):
        img += rng.uniform(0.2, 1.0) * np.outer(
            _step_profile(rows, factor, rng), _step_profile(cols, factor, rng)
        )
    return img / img.max()


def build_lrtv_problem(rows=32, cols=32, blur_sigma=1.0, factor=2,
                       lambda1=0.01, lambda2=0.01, seed=0):
    """Image super-resolution with nuclear-norm and isotropic-TV penalties.

        min_X 0.5 ||DS X - T||_F^2 + lambda1 ||X||_* + lambda2 ||X||_TV

    DS blurs with a Gaussian of ``blur_sigma`` pixels and block-averages by
    ``factor``; the observation T is the clean forward image of a synthetic
    rank-<=4 piecewise-constant ground truth.  The suggested starting point is
    the nearest-neighbor upsampling of T.  Draw order: for each of the four
    rank-one terms, the term weight, then the row profile (edge, levels), then
    the column profile.
    """
    # built first: the forward map rejects a non-integer factor or one that does not tile the image
    forward = BlurDownsample(rows, cols, blur_sigma, factor)
    if not min(rows, cols) > 3 * factor:  # each profile's edge lies in [2 factor, n - factor)
        raise ValueError(f"rows and cols must exceed 3 * factor = {3 * factor}, "
                         f"got rows = {rows}, cols = {cols}")
    rng = np.random.default_rng(seed)
    x_img = _block_low_rank_image(rows, cols, factor, rng)
    t = forward.apply(x_img.ravel())
    t_img = t.reshape(rows // factor, cols // factor)
    x0 = np.repeat(np.repeat(t_img, factor, axis=0), factor, axis=1).ravel()
    return SplitProblem(
        f=LeastSquares(forward, t),
        g=NuclearNorm(lambda1, (rows, cols)),
        h=GroupL21(lambda2),
        B=Gradient2D(rows, cols),
        ground_truth=x_img.ravel(),
        name="lrtv-sr",
        image_shape=(rows, cols),
        x0=x0,
        b_lam_max=8.0,
        gamma_default=0.1,
        dynamic_range=float(x_img.max() - x_img.min()),
        meta={
            "rows": rows, "cols": cols, "blur_sigma": blur_sigma, "factor": factor,
            "lambda1": lambda1, "lambda2": lambda2, "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# portable export
# ---------------------------------------------------------------------------

def export_instance(problem, directory):
    """Write an instance to ``directory`` as .npy arrays plus manifest.json.

    Files: forward.npy (dense matrix of the data-fit operator), target.npy,
    ground_truth.npy and x0.npy when present.  The manifest records the
    experiment name, dimensions, penalty kinds/weights, and the file map.
    """
    os.makedirs(directory, exist_ok=True)
    files = {}

    def save(name, arr):
        np.save(os.path.join(directory, name + ".npy"), np.asarray(arr, dtype=float))
        files[name] = name + ".npy"

    save("forward", problem.f.op.to_dense())
    save("target", problem.f.target)
    if problem.ground_truth is not None:
        save("ground_truth", problem.ground_truth)
    if problem.x0 is not None:
        save("x0", problem.x0)
    manifest = {
        "name": problem.name,
        "dim": problem.dim,
        "g": {"kind": problem.g.kind, "weight": getattr(problem.g, "weight", None)},
        "h": {"kind": problem.h.kind, "weight": getattr(problem.h, "weight", None)},
        "penalty_operator": problem.B.kind,
        "image_shape": list(problem.image_shape) if problem.image_shape else None,
        "meta": problem.meta,
        "files": files,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
