"""The differentiable data-fit term.

A smooth term f is convex and differentiable with an L-Lipschitz gradient;
the solvers read its ``value(x)``, ``gradient(x)`` and ``lipschitz`` (L).
``LeastSquares`` is the one such term; over a zero matrix it is the zero
function, with L = 0.
"""

import numpy as np

from ._checks import finite, vector

__all__ = ["LeastSquares"]


class LeastSquares:
    """0.5 ||A x - b||^2 for a linear operator A and target b.

    The gradient is A^T (A x - b) and its Lipschitz constant is A's
    ``norm_sq``, ||A||^2.  The residual A x - b of the last point seen is
    kept, so ``value`` and ``gradient`` at the same point apply A once.  It
    is one (copy of x, residual) tuple, matched by value and replaced whole,
    so threads sharing the instance can at worst recompute it, never read
    another point's residual.  ``op`` and ``target`` must not change after
    construction.
    """

    def __init__(self, op, target):
        self.op = op
        self.target = finite("target", vector(target, op.out_dim, "target"))
        self._last = None  # (copy of the last point, its read-only residual)

    def _residual(self, x):
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        r = self.op.apply(x) - self.target
        r.flags.writeable = False
        self._last = (np.array(x, dtype=float), r)
        return r

    def value(self, x):
        r = self._residual(x)
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.op.adjoint_apply(self._residual(x))

    @property
    def lipschitz(self):
        return self.op.norm_sq

