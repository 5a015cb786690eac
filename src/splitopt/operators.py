"""Linear operators with exact adjoints.

Every operator maps flat float vectors to flat float vectors and knows its
domain/codomain dimensions.  Images are handled in flattened row-major form;
the operator itself remembers the grid shape.  Operators are immutable after
construction, and ``apply``/``adjoint_apply`` are pure, so instances can be
shared freely across threads.
"""

import functools
import math
import numbers

import numpy as np

__all__ = [
    "LinearMap",
    "DenseMatrix",
    "SparseMatrix",
    "Identity",
    "Difference1D",
    "Gradient2D",
    "BlurDownsample",
    "estimate_norm",
]


class LinearMap:
    """Base class: a bounded linear operator B with adjoint B^T.

    Subclasses implement ``_apply`` and ``_adjoint``; the public methods only
    add dimension checking.  The defining adjoint property is
    <B x, y> = <x, B^T y> for all x, y.  ``norm_sq`` is the operator's one
    spectral constant ||B||^2 = lambda_max(B^T B).
    """

    kind = "abstract"

    def __init__(self, in_dim, out_dim):
        if not all(isinstance(d, numbers.Integral) and d > 0 for d in (in_dim, out_dim)):
            raise ValueError(
                f"operator dimensions must be positive integers, got {in_dim}x{out_dim}"
            )
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def _vector(self, v, size, method):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != size:
            raise ValueError(f"{self.kind}: {method} expects a vector of length {size}, got {v.size}")
        return v

    def apply(self, x):
        return self._apply(self._vector(x, self.in_dim, "apply"))

    def adjoint_apply(self, y):
        return self._adjoint(self._vector(y, self.out_dim, "adjoint_apply"))

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    @functools.cached_property
    def norm_sq(self):
        """||B||^2 by power iteration, computed once on first use; operators
        with a closed form override it."""
        return estimate_norm(self) ** 2

    def to_dense(self):
        """Materialize the operator as an (out_dim x in_dim) array."""
        cols = np.eye(self.in_dim)
        return np.column_stack([self._apply(cols[:, j]) for j in range(self.in_dim)])


class DenseMatrix(LinearMap):
    """Wrap an explicit matrix."""

    kind = "dense-matrix"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("dense operator needs a 2-d array")
        super().__init__(m.shape[1], m.shape[0])
        self.matrix = m

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y

    def to_dense(self):
        return self.matrix.copy()


def _segments(keys, others, values):
    # the triplets stably sorted by ``keys``, with each non-empty key's first position
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], starts, others[order], values[order]


def _segment_sums(size, segments, v):
    # out[key] = sum of value * v[other] over the key's triplets
    ids, starts, others, values = segments
    out = np.zeros(size)
    if starts.size:
        out[ids] = np.add.reduceat(values * v[others], starts)
    return out


class SparseMatrix(LinearMap):
    """An out_dim x in_dim matrix given by (row, col, value) triplets.

    Repeated (row, col) pairs add up.  The triplets are kept twice, stably
    sorted by row and by column, with the start of each non-empty row and
    column, so ``apply`` and ``adjoint_apply`` are each one gather-multiply
    and one segment sum.
    """

    kind = "sparse-matrix"

    def __init__(self, out_dim, in_dim, rows, cols, values):
        super().__init__(in_dim, out_dim)
        values = np.asarray(values, dtype=float).ravel()
        index = []
        for name, idx, bound in (("row", rows, self.out_dim), ("col", cols, self.in_dim)):
            idx = np.asarray(idx).ravel()
            if idx.size != values.size:
                raise ValueError(f"{idx.size} {name} indices for {values.size} values")
            if idx.size and not (np.issubdtype(idx.dtype, np.integer)
                                 and 0 <= idx.min() and idx.max() < bound):
                raise ValueError(f"{name} indices must be integers in [0, {bound})")
            index.append(idx.astype(np.intp))
        rows, cols = index
        self._by_row = _segments(rows, cols, values)
        self._by_col = _segments(cols, rows, values)

    def _apply(self, x):
        return _segment_sums(self.out_dim, self._by_row, x)

    def _adjoint(self, y):
        return _segment_sums(self.in_dim, self._by_col, y)

    def to_dense(self):
        ids, starts, cols, values = self._by_row
        rows = np.repeat(ids, np.diff(starts, append=values.size))
        out = np.zeros((self.out_dim, self.in_dim))
        np.add.at(out, (rows, cols), values)  # repeated pairs add in triplet order
        return out


class Identity(LinearMap):
    kind = "identity"
    norm_sq = 1.0

    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()


def _path_lambda_max(n):
    # largest eigenvalue of D^T D, the Laplacian of the path on n nodes
    return 2.0 - 2.0 * math.cos((n - 1) * math.pi / n)


class Difference1D(LinearMap):
    """Forward differences of a length-n signal: (Dx)_i = x_{i+1} - x_i.

    D is the (n-1) x n matrix with rows (-1, 1) on adjacent entries.  The
    eigenvalues of D D^T are 2 - 2 cos(i pi / n), i = 1 .. n-1, so
    ``norm_sq`` is 2 - 2 cos((n-1) pi / n).
    """

    kind = "difference-1d"

    def __init__(self, n):
        super().__init__(n, n - 1)

    @property
    def norm_sq(self):
        return _path_lambda_max(self.in_dim)

    def _apply(self, x):
        return x[1:] - x[:-1]

    def _adjoint(self, y):
        out = np.zeros(self.in_dim)
        out[:-1] -= y
        out[1:] += y
        return out


class Gradient2D(LinearMap):
    """Stacked forward-difference gradient of a rows x cols image.

    Output is (horizontal differences, vertical differences), each padded with
    a zero in the last column/row, so the output length is 2 * rows * cols.
    D^T D is the Kronecker sum of the path Laplacians along the rows and the
    columns, so ``norm_sq`` is the sum of their largest eigenvalues, below 8.
    """

    kind = "gradient-2d"

    def __init__(self, rows, cols):
        if rows < 2 or cols < 2:
            raise ValueError(f"gradient needs at least a 2x2 image, got {rows}x{cols}")
        super().__init__(rows * cols, 2 * rows * cols)
        self.rows = rows
        self.cols = cols

    @property
    def norm_sq(self):
        return _path_lambda_max(self.rows) + _path_lambda_max(self.cols)

    def _apply(self, x):
        img = x.reshape(self.rows, self.cols)
        out = np.empty((2, self.rows, self.cols))
        h, v = out
        np.subtract(img[:, 1:], img[:, :-1], out=h[:, :-1])
        h[:, -1] = 0.0
        np.subtract(img[1:, :], img[:-1, :], out=v[:-1, :])
        v[-1, :] = 0.0
        return out.ravel()

    def _adjoint(self, y):
        n = self.rows * self.cols
        h = y[:n].reshape(self.rows, self.cols)
        v = y[n:].reshape(self.rows, self.cols)
        out = np.zeros((self.rows, self.cols))
        out[:, :-1] -= h[:, :-1]
        out[:, 1:] += h[:, :-1]
        out[:-1, :] -= v[:-1, :]
        out[1:, :] += v[:-1, :]
        return out.ravel()


def _gaussian_kernel(sigma):
    # truncated at radius ceil(3 sigma), renormalized to sum 1
    if sigma == 0:
        return np.array([1.0])
    radius = int(np.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def _blur_matrix(n, kernel):
    # dense 1-d convolution matrix with symmetric (reflective) boundary
    r = (len(kernel) - 1) // 2
    m = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        padded = np.pad(e, r, mode="symmetric") if r else e
        m[:, j] = np.convolve(padded, kernel, mode="valid")
    return m


class BlurDownsample(LinearMap):
    """Separable Gaussian blur followed by block averaging over factor x factor
    blocks: the super-resolution forward map of a rows x cols image.

    The blur kernel sums to one and its boundary extension is reflective, so
    constant images are preserved exactly and the operator norm is <= 1.  The
    blur matrices are materialized once per axis.  The adjoint is the exact
    transpose, not an interpolator: it replicates each low-resolution pixel
    over its block, divides by factor^2 and applies the transposed blur.
    ``sigma = 0`` means no blur and ``factor = 1`` means no averaging.
    """

    kind = "blur-downsample"

    def __init__(self, rows, cols, sigma, factor):
        if rows < 1 or cols < 1:
            raise ValueError("blur needs a non-degenerate image")
        sigma = float(sigma)
        if not 0 <= sigma < np.inf:  # negated, so that NaN fails too
            raise ValueError(f"blur_sigma must be nonnegative and finite, got {sigma}")
        if not (isinstance(factor, numbers.Integral) and factor >= 1):  # numpy integers too
            raise ValueError(f"downsampling factor must be an integer >= 1, got {factor}")
        if rows % factor or cols % factor:
            raise ValueError(
                f"image {rows}x{cols} is not divisible by the downsampling factor {factor}"
            )
        factor = int(factor)
        super().__init__(rows * cols, (rows // factor) * (cols // factor))
        self.rows = rows
        self.cols = cols
        self.sigma = sigma
        self.factor = factor
        kernel = _gaussian_kernel(sigma)
        self._m_rows = _blur_matrix(rows, kernel)
        self._m_cols = _blur_matrix(cols, kernel)

    def _apply(self, x):
        f = self.factor
        img = self._m_rows @ x.reshape(self.rows, self.cols) @ self._m_cols.T
        return img.reshape(self.rows // f, f, self.cols // f, f).mean(axis=(1, 3)).ravel()

    def _adjoint(self, y):
        f = self.factor
        img = y.reshape(self.rows // f, self.cols // f)
        up = np.repeat(np.repeat(img, f, axis=0), f, axis=1)
        return (self._m_rows.T @ (up / (f * f)) @ self._m_cols).ravel()


def estimate_norm(op):
    """Estimate the operator norm ||B|| = sqrt(lambda_max(B^T B)) by power iteration.

    Runs power iteration on B^T B from a random start seeded with 0 and stops
    when the relative change of the Rayleigh quotient drops to 1e-8 or after
    5000 sweeps.  Returns 0.0 for the zero operator.  Deterministic.
    """
    q = np.random.default_rng(0).standard_normal(op.in_dim)
    nq = np.linalg.norm(q)
    if nq == 0:
        return 0.0
    q /= nq
    lam = 0.0
    for it in range(5000):
        w = op._apply(q)
        lam_new = float(w @ w)  # Rayleigh quotient of B^T B at the unit vector q
        q = op._adjoint(w)
        nq = np.linalg.norm(q)
        if nq == 0.0 or lam_new == 0.0:
            return 0.0
        q /= nq
        if it > 0 and abs(lam_new - lam) <= 1e-8 * max(lam_new, 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))
