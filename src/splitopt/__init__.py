"""Operator-splitting solvers for three-term convex problems.

The package solves  min_x f(x) + g(x) + h(Bx)  for smooth f and proximable
g, h through nested forward-backward and three-operator splitting schemes,
ships the fused-lasso / constrained-TV-CT / low-rank-TV-super-resolution
benchmark instances, and exposes a CLI (``splitopt``) that sweeps solvers
and step-size presets over them.
"""

from .metrics import nmsd, snr, ssim_global
from .operators import (
    BlurDownsample,
    DenseMatrix,
    Difference1D,
    Gradient2D,
    Identity,
    LinearMap,
    SparseMatrix,
    estimate_norm,
)
from .problems import (
    SplitProblem,
    build_ct_problem,
    build_fused_lasso,
    build_lrtv_problem,
    fan_beam_matrix,
    fused_lasso_signal,
    shepp_logan,
)
from .proxfuncs import (
    BoxIndicator,
    GroupL21,
    L1Norm,
    NonnegativeIndicator,
    NuclearNorm,
    ProxFunction,
    QuadraticDistance,
    ZeroFunction,
)
from .smooth import LeastSquares, ZeroSmooth
from .solvers import (
    SOLVERS,
    ConfigError,
    DivergenceError,
    IterationRecord,
    SolveTrace,
    SolverConfig,
    preset_config,
    solve_condat_vu,
    solve_davis_yin,
    solve_fb_dual,
    solve_fb_primal_dual,
    solve_pd3o,
    solve_pdfp,
    solve_tos_dual,
    solve_tos_pd_single,
    solve_tos_primal_dual,
)

__version__ = "0.1.0"
