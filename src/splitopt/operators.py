"""Linear operators with exact adjoints.

Every operator maps flat float vectors to flat float vectors and knows its
domain/codomain dimensions.  Images are handled in flattened row-major form;
the operator itself remembers the grid shape.  Operators are immutable after
construction, and ``apply``/``adjoint_apply`` are pure, so instances can be
shared freely across threads.  ``DenseMatrix`` keeps its matrix and
``SparseMatrix`` its row-ordered triplets as given, so the caller must not
change those arrays afterwards.
"""

import functools
import math

import numpy as np

from ._checks import finite, integer, nonnegative, vector

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
        self.in_dim = integer("in_dim", in_dim, 1)
        self.out_dim = integer("out_dim", out_dim, 1)

    def apply(self, x):
        return self._apply(vector(x, self.in_dim, f"{self.kind} apply input"))

    def adjoint_apply(self, y):
        return self._adjoint(vector(y, self.out_dim, f"{self.kind} adjoint_apply input"))

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    @functools.cached_property
    def norm_sq(self):
        """||B||^2 by power iteration, computed once on first use.

        The estimate approaches the norm from below, so it is uncertified.
        ``Identity``, ``Difference1D``, ``Gradient2D``, ``BlurDownsample``
        (closed forms) and ``DenseMatrix`` (SVD) override it.  ``SparseMatrix``
        keeps it until a certified bound is cheap enough for the CT set-up,
        and a user's operator for want of known structure.
        """
        return estimate_norm(self) ** 2

    def to_dense(self):
        """Materialize the operator as an (out_dim x in_dim) array."""
        cols = np.eye(self.in_dim)
        return np.column_stack([self._apply(cols[:, j]) for j in range(self.in_dim)])


class DenseMatrix(LinearMap):
    """Wrap an explicit matrix of finite entries; ``norm_sq`` is its largest
    singular value squared, from one SVD on first use."""

    kind = "dense-matrix"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("dense operator needs a 2-d array")
        super().__init__(m.shape[1], m.shape[0])
        finite(f"{self.kind} entries", m, lambda k: divmod(int(k), m.shape[1]))
        self.matrix = m

    @functools.cached_property
    def norm_sq(self):
        with np.errstate(over="ignore"):  # +inf for a singular value above about 1.34e154
            return float(np.linalg.svd(self.matrix, compute_uv=False)[0] ** 2)

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


def _segments(keys, bound, others, values):
    # the triplets stably sorted by ``keys`` in [0, bound), with each non-empty
    # key's first position; already sorted triplets are kept as given
    if not (keys[1:] >= keys[:-1]).all():
        # on keys of at most 16 bits numpy's stable sort is a radix sort
        keys = keys.astype(np.min_scalar_type(bound - 1))
        order = np.argsort(keys, kind="stable")
        keys, others, values = keys[order], others[order], values[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts].astype(np.intp), starts, others, values


def _segment_sums(size, segments, v):
    # out[key] = sum of value * v[other] over the key's triplets
    ids, starts, others, values = segments
    out = np.zeros(size)
    if starts.size:
        out[ids] = np.add.reduceat(values * v[others], starts)
    return out


class SparseMatrix(LinearMap):
    """An out_dim x in_dim matrix given by (row, col, value) triplets.

    Repeated (row, col) pairs add up, and every value must be finite.  The
    triplets are kept twice, stably sorted by row and by column (on keys of
    the narrowest unsigned type, radix-sorted up to 16 bits), with the start
    of each non-empty row and column, so ``apply`` and ``adjoint_apply`` are
    each one gather-multiply and one segment sum.  Triplets already in row order, with ``intp``
    indices and ``float64`` values, are kept as given, as read-only views of
    the caller's arrays, which the caller must then not change.
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
            index.append(idx.astype(np.intp, copy=False))
        rows, cols = index
        finite(f"{self.kind} entries", values, lambda k: (int(rows[k]), int(cols[k])))
        rows, cols, values = (a.view() for a in (rows, cols, values))
        for a in (rows, cols, values):
            a.flags.writeable = False
        self._by_row = _segments(rows, self.out_dim, cols, values)
        self._by_col = _segments(cols, self.in_dim, rows, values)

    def _apply(self, x):
        return _segment_sums(self.out_dim, self._by_row, x)

    def _adjoint(self, y):
        return _segment_sums(self.in_dim, self._by_col, y)


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
    Both kernels work on flat row-major slices of the image and the output.
    D^T D is the Kronecker sum of the path Laplacians along the rows and the
    columns, so ``norm_sq`` is the sum of their largest eigenvalues, below 8.
    """

    kind = "gradient-2d"

    def __init__(self, rows, cols):
        self.rows = integer("rows", rows, 2)
        self.cols = integer("cols", cols, 2)
        super().__init__(self.rows * self.cols, 2 * self.rows * self.cols)

    @property
    def norm_sq(self):
        return _path_lambda_max(self.rows) + _path_lambda_max(self.cols)

    def _apply(self, x):
        c = self.cols
        h, v = out = np.empty((2, x.size))
        with np.errstate(invalid="ignore", over="ignore"):  # the row-end wraps, zeroed next
            np.subtract(x[1:], x[:-1], out=h[:-1])
        h[c - 1::c] = 0.0
        np.subtract(x[c:], x[:-c], out=v[:-c])
        v[-c:] = 0.0
        return out.ravel()

    def _adjoint(self, y):
        c, n = self.cols, self.in_dim
        h, v = y[:n].copy(), y[n:-c]
        h[c - 1::c] = 0.0
        out = np.subtract(0.0, h)
        out[1:] += h[:-1]
        out[:-c] -= v
        out[c:] += v
        return out


def _gaussian_kernel(sigma):
    # truncated at radius ceil(3 sigma), renormalized to sum 1
    if sigma == 0:
        return np.array([1.0])
    radius = int(np.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def _blur_matrix(n, kernel):
    # read-only dense 1-d convolution matrix, symmetric (reflective) boundary: src is
    # the source pixel of each padded position, column j convolves (src == j)
    src = np.pad(np.arange(n), (len(kernel) - 1) // 2, mode="symmetric")
    m = np.empty((n, n))
    for j in range(n):
        m[:, j] = np.convolve((src == j).astype(float), kernel, mode="valid")
    m.flags.writeable = False
    return m


class BlurDownsample(LinearMap):
    """Separable Gaussian blur followed by block averaging over factor x factor
    blocks: the super-resolution forward map of a rows x cols image.

    The blur kernel sums to one, and it and the reflective boundary extension
    are symmetric, so each 1-d blur matrix is nonnegative with unit row and
    column sums: its norm is 1 (Schur test), attained by constants.  Block
    averaging has norm 1/factor, attained by a constant image too, so
    ``norm_sq`` is exactly 1 / factor^2.  Each side's blur matrix is built
    once from its padded pixel indices, in O(n + r) memory beyond itself (side
    n, kernel radius r), and a square image shares one read-only matrix.  The
    adjoint is the exact transpose, not an interpolator: it replicates each
    low-resolution pixel over its block, divides by factor^2 and applies the
    transposed blur.
    ``sigma = 0`` means no blur and ``factor = 1`` means no averaging.
    """

    kind = "blur-downsample"

    def __init__(self, rows, cols, sigma, factor):
        rows, cols = integer("rows", rows, 1), integer("cols", cols, 1)
        sigma = nonnegative("blur_sigma", float(sigma))
        factor = integer("downsampling factor", factor, 1)
        if rows % factor or cols % factor:
            raise ValueError(
                f"image {rows}x{cols} is not divisible by the downsampling factor {factor}"
            )
        super().__init__(rows * cols, (rows // factor) * (cols // factor))
        self.rows = rows
        self.cols = cols
        self.factor = factor
        kernel = _gaussian_kernel(sigma)
        self._m_rows = _blur_matrix(rows, kernel)
        self._m_cols = self._m_rows if cols == rows else _blur_matrix(cols, kernel)

    @property
    def norm_sq(self):
        return 1.0 / self.factor**2

    def _apply(self, x):
        f = self.factor
        img = self._m_rows @ x.reshape(self.rows, self.cols) @ self._m_cols.T
        return img.reshape(self.rows // f, f, self.cols // f, f).mean(axis=(1, 3)).ravel()

    def _adjoint(self, y):
        f = self.factor
        img = y.reshape(self.rows // f, self.cols // f)
        up = np.repeat(np.repeat(img, f, axis=0), f, axis=1)
        return (self._m_rows.T @ (up / (f * f)) @ self._m_cols).ravel()


@np.errstate(over="ignore", invalid="ignore")
def estimate_norm(op):
    """Estimate the operator norm ||B|| = sqrt(lambda_max(B^T B)) by power iteration.

    Runs power iteration on B^T B from a random start seeded with 0 and stops
    when the relative change of the Rayleigh quotient drops to 1e-8 or after
    5000 sweeps.  Returns 0.0 for the zero operator, and +inf, warning-free, at
    the first Rayleigh quotient or iterate norm that overflows or is NaN.  Deterministic.
    """
    q = np.random.default_rng(0).standard_normal(op.in_dim)
    q /= np.linalg.norm(q)
    lam = 0.0
    for it in range(5000):
        w = op._apply(q)
        lam_new = float(w @ w)  # Rayleigh quotient of B^T B at the unit vector q
        q = op._adjoint(w)
        nq = np.linalg.norm(q)
        if not (lam_new < np.inf and nq < np.inf):
            return np.inf
        if nq == 0.0 or lam_new == 0.0:
            return 0.0
        q /= nq
        if it > 0 and abs(lam_new - lam) <= 1e-8 * max(lam_new, 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))
