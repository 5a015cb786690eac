"""The full message and exception type of every argument check, pinned.

Most checks live in ``splitopt._checks``; this table calls each check through
the public entry point where the input enters.
"""

import dataclasses

import numpy as np
import pytest
from conftest import NanDense, NanIdentity

from splitopt.metrics import Reference
from splitopt.operators import (
    BlurDownsample,
    DenseMatrix,
    Difference1D,
    Gradient2D,
    Identity,
    SparseMatrix,
)
from splitopt.problems import (
    SplitProblem,
    build_ct_problem,
    build_fused_lasso,
    build_lrtv_problem,
    fan_beam_rays,
)
from splitopt.proxfuncs import BoxIndicator, L1Norm, NuclearNorm, ZeroFunction
from splitopt.smooth import LeastSquares
from splitopt.solvers import (ConfigError, SolverConfig, check_loop_control, check_steps,
                              preset_config)

NAN, INF = float("nan"), float("inf")

#: the solver ids, as the CLI's exit-5 line and ConfigError list them
KNOWN = ("condat-vu, davis-yin, fb-dual, fb-pd, pd3o, pdfp, tos-dual, tos-pd, "
         "tos-pd-single")


def _l0_problem():
    """f = 0 (L = 0) and no suggested gamma, so a preset cannot derive one."""
    f = LeastSquares(DenseMatrix(np.zeros((1, 4))), np.zeros(1))
    return SplitProblem(f=f, g=ZeroFunction(), h=ZeroFunction(), B=Identity(4))


def _b0_problem():
    """B = 0 (lambda_max(B B^T) = 0) and no b_lam_max, so a preset cannot derive lam."""
    return SplitProblem(f=LeastSquares(Identity(4), np.zeros(4)), g=ZeroFunction(),
                        h=ZeroFunction(), B=DenseMatrix(np.zeros((2, 4))))


def _subnormal_problem(operator):
    """A or B = 1e-160 I, whose spectral constant 1e-320 is subnormal: the step a preset
    divides by it overflows, and was reported as a bad gamma or lam of inf."""
    tiny, eye = DenseMatrix(1e-160 * np.eye(3)), Identity(3)
    a, b = (tiny, eye) if operator == "A" else (eye, tiny)
    return SplitProblem(f=LeastSquares(a, np.zeros(3)), g=ZeroFunction(), h=ZeroFunction(), B=b)


def _nan_problem(operator):
    """A or B a user operator whose ``norm_sq`` reads NaN, the other the identity."""
    a, b = (NanDense(np.eye(3)), Identity(3)) if operator == "A" else (Identity(3), NanIdentity(3))
    return SplitProblem(f=LeastSquares(a, np.zeros(3)), g=ZeroFunction(), h=ZeroFunction(), B=b)


#: case id -> (call, exception type, full message)
CASES = {
    "solver-config-gamma": (lambda: SolverConfig(gamma=NAN), ConfigError,
                            "gamma must be positive and finite, got nan"),
    "solver-config-observe": (lambda: SolverConfig(gamma=1.0, observe=3), ConfigError,
                              "observe must be callable or None, got 3"),
    "solver-config-max-outer": (lambda: SolverConfig(gamma=1.0, max_outer=3.5), ConfigError,
                                "max_outer must be an integer >= 1, got 3.5"),
    "loop-control-eps": (lambda: check_loop_control("eps", 0.0), ConfigError,
                         "eps must be positive and finite, got 0.0"),
    "prox-weight": (lambda: L1Norm(-1), ValueError,
                    "weight must be nonnegative and finite, got -1"),
    "prox-step": (lambda: L1Norm(1.0).prox(NAN, [0.0]), ValueError,
                  "prox step must be positive and finite, got nan"),
    "blur-sigma": (lambda: BlurDownsample(8, 8, NAN, 2), ValueError,
                   "blur_sigma must be nonnegative and finite, got nan"),
    "blur-factor": (lambda: BlurDownsample(8, 8, 1.0, 2.5), ValueError,
                    "downsampling factor must be an integer >= 1, got 2.5"),
    "blur-rows": (lambda: BlurDownsample(0, 8, 1.0, 1), ValueError,
                  "rows must be an integer >= 1, got 0"),
    "gradient-rows": (lambda: Gradient2D(1, 4), ValueError,
                      "rows must be an integer >= 2, got 1"),
    "gradient-float-rows": (lambda: Gradient2D(4.5, 4), ValueError,
                            "rows must be an integer >= 2, got 4.5"),
    "operator-in-dim": (lambda: Identity(3.7), ValueError,
                        "in_dim must be an integer >= 1, got 3.7"),
    "operator-out-dim": (lambda: SparseMatrix(2.9, 3, [0, 1], [0, 1], [1.0, 1.0]), ValueError,
                         "out_dim must be an integer >= 1, got 2.9"),
    "nuclear-shape": (lambda: NuclearNorm(1.0, (3, 4.0)), ValueError,
                      "matrix cols must be an integer >= 1, got 4.0"),
    "dynamic-range": (lambda: Reference(np.arange(4.0), NAN), ValueError,
                      "dynamic range must be positive and finite, got nan"),
    "ct-views": (lambda: build_ct_problem(views=0), ValueError,
                 "views must be an integer >= 1, got 0"),
    "fused-lasso-seed": (lambda: build_fused_lasso(seed=1.5), ValueError,
                         "seed must be an integer >= 0, got 1.5"),
    "ct-seed": (lambda: build_ct_problem(seed=-1), ValueError,
                "seed must be an integer >= 0, got -1"),
    "lrtv-seed": (lambda: build_lrtv_problem(seed=NAN), ValueError,
                  "seed must be an integer >= 0, got nan"),
    "noise-var": (lambda: build_fused_lasso(noise_var=-1.0), ValueError,
                  "noise_var must be nonnegative and finite, got -1.0"),
    "projector-side": (lambda: fan_beam_rays(1, [0.0], 8), ValueError,
                       "side must be an integer >= 2, got 1"),
    "view-angles": (lambda: fan_beam_rays(16, [NAN], 8), ValueError,
                    "view angles must be finite, got 1 that are not: nan at 0"),
    "dense-entries": (lambda: DenseMatrix([[1.0, NAN]]), ValueError,
                      "dense-matrix entries must be finite, got 1 that are not: nan at (0, 1)"),
    "sparse-entries": (lambda: SparseMatrix(2, 2, [0, 1], [1, 0], [1.0, INF]), ValueError,
                       "sparse-matrix entries must be finite, got 1 that are not: inf at (1, 0)"),
    "apply-length": (lambda: Difference1D(15).apply(np.zeros(14)), ValueError,
                     "difference-1d apply input has 14 entries, expected 15"),
    "nuclear-length": (lambda: NuclearNorm(1.0, (2, 2)).prox(1.0, np.zeros(6)), ValueError,
                       "nuclear norm input, a flattened 2x2 matrix, has 6 entries, expected 4"),
    "reconstruction-length": (lambda: Reference(np.arange(3.0))(np.zeros(4)), ValueError,
                              "reconstruction has 4 entries, expected 3"),
    "target-length": (lambda: LeastSquares(Difference1D(4), np.zeros(4)), ValueError,
                      "target has 4 entries, expected 3"),
    "view-angles-empty": (lambda: fan_beam_rays(16, [], 8), ValueError,
                          "degenerate scan geometry: no view angles"),
    "dense-1d": (lambda: DenseMatrix([1.0, 2.0]), ValueError,
                 "dense operator needs a 2-d array"),
    "box-empty": (lambda: BoxIndicator(1, 0), ValueError, "empty box: [1, 0]"),
    "box-nan": (lambda: BoxIndicator(NAN, 1.0), ValueError, "empty box: [nan, 1.0]"),
    "preset-gamma-l0": (lambda: preset_config(_l0_problem(), "type-II", "fb-dual"), ConfigError,
                        "L (pass gamma=) must be positive and finite, got 0.0"),
    "preset-lam-max-b0": (
        lambda: preset_config(_b0_problem(), "type-I", "fb-dual"), ConfigError,
        "lambda_max(B B^T) (pass the steps under custom) must be positive and finite, got 0.0"),
    "preset-gamma-subnormal-l": (
        lambda: preset_config(_subnormal_problem("A"), "type-II", "fb-dual"), ConfigError,
        "L (pass gamma=) must be at least 2.2250738585072014e-308, got 1e-320"),
    "preset-lam-max-subnormal-b": (
        lambda: preset_config(_subnormal_problem("B"), "type-I", "fb-dual"), ConfigError,
        "lambda_max(B B^T) (pass the steps under custom) must be at least "
        "2.2250738585072014e-308, got 1e-320"),
    "preset-solver-id": (
        lambda: preset_config(build_fused_lasso(m=3, n=6), "type-II", "condat_vu"), ConfigError,
        f"unknown solver id 'condat_vu'; known: {KNOWN}"),
    "check-steps-solver-id": (
        lambda: check_steps("condat_vu", _l0_problem(), SolverConfig(gamma=1.0)), ConfigError,
        f"unknown solver id 'condat_vu'; known: {KNOWN}"),
    "check-steps-gamma-nan-l": (
        lambda: check_steps("fb-dual", _nan_problem("A"), SolverConfig(gamma=1000.0, lam=0.5)),
        ConfigError, "gamma=1000.0 outside (0, 2/L) = (0, nan) with L=nan"),
    "check-steps-lam-nan-b": (
        lambda: check_steps("fb-dual", _nan_problem("B"), SolverConfig(gamma=0.1, lam=1000.0)),
        ConfigError, "lam=1000.0 outside (0, 2/lambda_max) = (0, nan)"),
    "check-steps-sigma-tau-nan-b": (
        lambda: check_steps("fb-pd", _nan_problem("B"),
                            SolverConfig(gamma=0.1, sigma=1000.0, tau=1000.0)),
        ConfigError, "sigma*tau*||B||^2 = nan must be < 1"),
    "problem-x0-length": (
        lambda: dataclasses.replace(build_fused_lasso(m=3, n=6), x0=np.zeros(5)), ValueError,
        "x0 has 5 entries, expected 6"),
}


@pytest.mark.parametrize("case", CASES)
def test_message(case):
    call, error, message = CASES[case]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
