"""Proximable convex functions.

Each class evaluates its function and computes the proximity operator

    prox_{t f}(v) = argmin_x  0.5 ||x - v||^2 + t f(x),   t > 0,

exactly.  Where the conjugate is the indicator of a simple set, the
conjugate prox is that set's projection in closed form: the l-inf ball for
``L1Norm`` and the pairwise 2-balls for ``GroupL21``, both independent of the
step.  Every other conjugate prox comes from the Moreau decomposition

    prox_{t f*}(v) = v - t prox_{f / t}(v / t),

which is also the independent code that the ``moreau-identity`` verify row
checks the closed forms against (``conjugate-scaling`` checks lam f against
the kind weighted lam w).  The ``envelope-gradient`` row forms the Moreau
envelope f(p) + ||x - p||^2 / (2 lam) and its gradient (x - p) / lam from
p = prox_{lam f}(x).  Indicator functions return the +inf sentinel from
``value`` when their constraint is violated; numpy's inf propagates through
objective sums without corrupting finite comparisons.

All instances are immutable and every method is pure.
"""

import numpy as np

from ._checks import finite, integer, nonnegative, positive, vector

__all__ = [
    "ProxFunction",
    "L1Norm",
    "GroupL21",
    "NonnegativeIndicator",
    "BoxIndicator",
    "NuclearNorm",
    "QuadraticDistance",
    "ZeroFunction",
]


class ProxFunction:
    """Base class; subclasses provide ``value`` and ``_prox`` (given a checked step, a flat vector)."""

    kind = "abstract"
    weight = 1.0

    def value(self, x):
        raise NotImplementedError

    def _prox(self, step, v):
        raise NotImplementedError

    def _prox_conjugate(self, step, v):
        # the Moreau decomposition; subclasses with a closed form override it
        return v - step * self._prox(1.0 / step, v / step)

    def prox(self, step, v):
        """prox_{step * f}(v), the exact minimizer of 0.5||x-v||^2 + step f(x)."""
        return self._prox(positive("prox step", step), vector(v))

    def prox_conjugate(self, step, v):
        """prox_{step * f*}(v), in closed form or via the Moreau decomposition."""
        return self._prox_conjugate(positive("prox step", step), vector(v))


class L1Norm(ProxFunction):
    """weight * ||x||_1; prox is soft thresholding, and the conjugate prox is
    the projection onto the l-inf ball of radius weight."""

    kind = "l1"

    def __init__(self, weight):
        self.weight = nonnegative("weight", weight)

    def value(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def _prox(self, step, v):
        return np.sign(v) * np.maximum(np.abs(v) - step * self.weight, 0.0)

    def _prox_conjugate(self, step, v):
        return np.clip(v, -self.weight, self.weight)


class GroupL21(ProxFunction):
    """weight * sum_i sqrt(y_i^2 + y_{n+i}^2) on stacked vectors of even length.

    Entry i is paired with entry n+i, the layout of the stacked 2-d gradient,
    so this is the isotropic total variation of the gradient image.  The prox
    shrinks each pair radially and the conjugate prox projects it onto the disc
    of radius weight, both on the two flat halves, with the pair norms built in
    place.  A pair entry above about 1.3e154 overflows when squared: ``value``
    then reads inf and ``prox_conjugate`` returns zeros.
    """

    kind = "group-l21"

    def __init__(self, weight):
        self.weight = nonnegative("weight", weight)

    @staticmethod
    def _pairs(x):
        """x as a (2, n) array of pairs, and the norm of each pair."""
        if x.size % 2:
            raise ValueError(f"grouped norm needs an even-length vector, got {x.size}")
        pairs = x.reshape(2, -1)
        a, b = pairs
        norms = a * a
        norms += b * b
        return pairs, np.sqrt(norms, out=norms)

    def value(self, x):
        _, norms = self._pairs(vector(x))
        return self.weight * float(np.sum(norms))

    def _prox(self, step, v):
        pairs, norms = self._pairs(v)
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = np.maximum(0.0, 1.0 - step * self.weight / norms[nz])
        return (pairs * scale).ravel()

    def _prox_conjugate(self, step, v):
        pairs, norms = self._pairs(v)
        if self.weight == 0.0:  # the disc is a point; w / max(0, 0) would be 0/0
            return np.zeros_like(v)
        np.maximum(norms, self.weight, out=norms)
        return (pairs * np.divide(self.weight, norms, out=norms)).ravel()


class NonnegativeIndicator(ProxFunction):
    """Indicator of the nonnegative orthant; prox is the projection max(v, 0)."""

    kind = "indicator-nonneg"

    def value(self, x):
        return 0.0 if np.min(x) >= 0 else np.inf

    def _prox(self, step, v):
        return np.maximum(v, 0.0)


class BoxIndicator(ProxFunction):
    """Indicator of the box [lower, upper]^n; prox clamps coordinatewise."""

    kind = "indicator-box"

    def __init__(self, lower, upper):
        if not lower <= upper:
            raise ValueError(f"empty box: [{lower}, {upper}]")
        self.lower = float(lower)
        self.upper = float(upper)

    def value(self, x):
        if np.min(x) >= self.lower and np.max(x) <= self.upper:
            return 0.0
        return np.inf

    def _prox(self, step, v):
        return np.clip(v, self.lower, self.upper)


class NuclearNorm(ProxFunction):
    """weight * (sum of singular values) of a matrix stored flattened.

    The prox is singular value soft thresholding through a full dense SVD,
    which is exact at the matrix sizes used here.  Thresholded singular
    values below 1e-12 are snapped to zero.
    """

    kind = "nuclear"

    def __init__(self, weight, shape):
        self.weight = nonnegative("weight", weight)
        rows, cols = shape
        self.shape = (integer("matrix rows", rows, 1), integer("matrix cols", cols, 1))

    def _as_matrix(self, x):
        rows, cols = self.shape
        x = vector(x, rows * cols, f"nuclear norm input, a flattened {rows}x{cols} matrix,")
        return x.reshape(rows, cols)

    def value(self, x):
        m = self._as_matrix(vector(x))
        return self.weight * float(np.sum(np.linalg.svd(m, compute_uv=False)))

    def _prox(self, step, v):
        m = self._as_matrix(v)
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError:
            if np.all(np.isfinite(m)):
                raise
            return np.full(m.size, np.nan)  # a non-finite point: the solver names the step
        s = np.maximum(s - step * self.weight, 0.0)
        s[s < 1e-12] = 0.0
        return ((u * s) @ vt).ravel()


class QuadraticDistance(ProxFunction):
    """(weight / 2) ||x - center||^2; prox_{t f}(v) = (v + t w center) / (1 + t w)."""

    kind = "quadratic-distance"

    def __init__(self, weight, center):
        self.weight = nonnegative("weight", weight)
        self.center = finite("center", vector(center))

    def value(self, x):
        return 0.5 * self.weight * float(np.sum((vector(x) - self.center) ** 2))

    def _prox(self, step, v):
        tw = step * self.weight
        return (v + tw * self.center) / (1.0 + tw)


class ZeroFunction(ProxFunction):
    """The zero function; prox is the identity."""

    kind = "zero"
    weight = 0.0

    def value(self, x):
        return 0.0

    def _prox(self, step, v):
        return v.copy()
