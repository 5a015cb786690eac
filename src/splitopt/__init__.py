"""Operator-splitting solvers for three-term convex problems.

The package solves  min_x f(x) + g(x) + h(Bx)  for smooth f and proximable
g, h through nested forward-backward and three-operator splitting schemes,
ships the fused-lasso / constrained-TV-CT / low-rank-TV-super-resolution
benchmark instances, and exposes a CLI (``splitopt``) that sweeps solvers
and step-size presets over them.  The top level re-exports the ``__all__``
of each library module, so every public name is listed once, in its module.
"""

from .metrics import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .proxfuncs import *  # noqa: F401,F403
from .smooth import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"
