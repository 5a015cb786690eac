"""Differentiable data-fit terms."""

import numpy as np

from .operators import estimate_norm

__all__ = ["SmoothFunction", "LeastSquares", "ZeroSmooth"]


class SmoothFunction:
    """Convex, differentiable, with an L-Lipschitz gradient."""

    kind = "abstract"

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    @property
    def lipschitz(self):
        raise NotImplementedError


class LeastSquares(SmoothFunction):
    """0.5 ||A x - b||^2 for a linear operator A and target b.

    The gradient is A^T (A x - b) and its Lipschitz constant ||A||^2 is
    estimated by power iteration on first use.
    """

    kind = "least-squares"

    def __init__(self, op, target):
        target = np.asarray(target, dtype=float).ravel()
        if target.size != op.out_dim:
            raise ValueError(
                f"target length {target.size} does not match operator codomain {op.out_dim}"
            )
        self.op = op
        self.target = target
        self._lipschitz = None

    def value(self, x):
        r = self.op.apply(x) - self.target
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.op.adjoint_apply(self.op.apply(x) - self.target)

    @property
    def lipschitz(self):
        if self._lipschitz is None:
            self._lipschitz = estimate_norm(self.op) ** 2
        return self._lipschitz


class ZeroSmooth(SmoothFunction):
    """The zero function; gradient 0 with Lipschitz constant 0."""

    kind = "zero"

    def __init__(self, dim):
        self.dim = int(dim)

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(self.dim)

    @property
    def lipschitz(self):
        return 0.0
