"""Property suites behind ``splitopt verify``; the tests assert their rows at seed 3.

Each suite returns a list of (name, passed, detail) tuples; the CLI prints
one PASS/FAIL line per property and exits nonzero if any fail.  ``passed`` is
a bool, which a NaN makes False: maxima propagate NaN and tests are negated.
"""

import copy
from dataclasses import replace

import numpy as np

from .operators import (
    BlurDownsample,
    DenseMatrix,
    Difference1D,
    Gradient2D,
    Identity,
    SparseMatrix,
    estimate_norm,
)
from .problems import SplitProblem, build_ct_problem, build_fused_lasso, build_lrtv_problem
from .proxfuncs import (
    BoxIndicator,
    GroupL21,
    L1Norm,
    NonnegativeIndicator,
    NuclearNorm,
    QuadraticDistance,
    ZeroFunction,
)
from .smooth import LeastSquares
from .solvers import _TABLE, SOLVERS, preset_config, solve_davis_yin, solve_pd3o, solve_pdfp

__all__ = ["prox_suite", "operator_suite", "equivalence_suite", "run_suite", "SUITES"]

_PROX_DIM = 12
_ITERS = 200  # outer steps of each equivalence row


def _worst(values):
    """(value, key) of the dict's largest value, or of its first NaN, which max() would skip."""
    key = list(values)[int(np.argmax(list(values.values())))]
    return values[key], key


def _envelope(f, lam, x):
    """The Moreau envelope f(p) + ||x - p||^2 / (2 lam) at p = prox_{lam f}(x), its minimizer."""
    p = f.prox(lam, x)
    return float(f.value(p) + np.sum((x - p) ** 2) / (2.0 * lam))


def _prox_library(rng, shape=(3, 4)):
    """One function of each prox kind on vectors of ``shape``'s size, the nuclear norm's matrix."""
    return [
        L1Norm(0.7),
        GroupL21(0.9),
        NonnegativeIndicator(),
        BoxIndicator(-0.5, 1.5),
        NuclearNorm(0.8, shape),
        QuadraticDistance(1.3, rng.standard_normal(shape).ravel()),
        ZeroFunction(),
    ]


def prox_suite(seed=0):
    """Five rows per kind; the envelope row checks the gradient (x - prox_{lam f}(x)) / lam
    against central differences of ``_envelope``, both from ``prox`` and ``value``."""
    rng = np.random.default_rng(seed)
    funcs = _prox_library(rng)
    results = []

    for f in funcs:
        worst = 0.0
        for _ in range(100):
            lam = float(rng.uniform(0.05, 5.0))
            u = 3.0 * rng.standard_normal(_PROX_DIM)
            resid = f.prox(lam, u) + lam * f.prox_conjugate(1.0 / lam, u / lam) - u
            worst = float(np.maximum(worst, np.abs(resid).max()))
        results.append((f"moreau-identity[{f.kind}]", worst <= 1e-10, f"max residual {worst:.2e}"))

    for f in funcs:
        worst = 0.0
        for _ in range(100):
            lam = float(rng.uniform(0.05, 5.0))
            v = 3.0 * rng.standard_normal(_PROX_DIM)
            # lam f as its own kind, weighted lam w (an indicator ignores its weight)
            scaled = copy.copy(f)
            scaled.weight = lam * f.weight
            resid = lam * f.prox_conjugate(1.0 / lam, v / lam) - (v - scaled.prox(1.0, v))
            worst = float(np.maximum(worst, np.abs(resid).max()))
        results.append((f"conjugate-scaling[{f.kind}]", worst <= 1e-10, f"max residual {worst:.2e}"))

    for f in funcs:
        ok = True
        for _ in range(100):
            step = float(rng.uniform(0.05, 5.0))
            x = 3.0 * rng.standard_normal(_PROX_DIM)
            y = 3.0 * rng.standard_normal(_PROX_DIM)
            px, py = f.prox(step, x), f.prox(step, y)
            lhs = float(np.sum((px - py) ** 2))
            rhs = float((x - y) @ (px - py))
            if not lhs <= rhs + 1e-12:
                ok = False
                break
        results.append((f"firm-nonexpansive[{f.kind}]", ok, "100 random pairs"))

    for f in funcs:
        worst = 0.0
        for _ in range(10):
            lam = float(rng.uniform(0.2, 2.0))
            x = 2.0 * rng.standard_normal(_PROX_DIM)
            grad = (x - f.prox(lam, x)) / lam
            num = np.array([_envelope(f, lam, x + e) - _envelope(f, lam, x - e)
                            for e in 1e-6 * np.eye(x.size)]) / 2e-6
            err = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            worst = float(np.maximum(worst, err))
        results.append((f"envelope-gradient[{f.kind}]", worst <= 1e-5, f"max rel err {worst:.2e}"))

    for f in funcs:
        ok = True
        step = 0.8
        v = 2.0 * rng.standard_normal(_PROX_DIM)
        p = f.prox(step, v)
        best = 0.5 * float(np.sum((p - v) ** 2)) + step * f.value(p)
        for _ in range(1000):
            cand = p + rng.standard_normal(_PROX_DIM) * rng.uniform(1e-4, 2.0)
            val = 0.5 * float(np.sum((cand - v) ** 2)) + step * f.value(cand)
            if not val >= best - 1e-12:
                ok = False
                break
        results.append((f"prox-optimality[{f.kind}]", ok, "1000 random candidates"))

    return results


def _operator_library(rng):
    return [
        Identity(12),
        DenseMatrix(rng.standard_normal((5, 7))),
        Difference1D(15),
        Gradient2D(6, 5),
        BlurDownsample(8, 8, 1.0, 2),
        # (0, 3) is repeated, row 1 and column 5 are empty
        SparseMatrix(6, 6, [0, 0, 2, 3, 3, 5, 0, 4], [0, 3, 1, 4, 0, 2, 3, 1],
                     [1.5, -2.0, 0.5, 3.0, -1.0, 2.5, 0.25, -0.75]),
    ]


def operator_suite(seed=0):
    rng = np.random.default_rng(seed)
    ops = _operator_library(rng)
    results = []

    for op in ops:
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            bx = op.apply(x)
            bty = op.adjoint_apply(y)
            scale = max(np.linalg.norm(bx) * np.linalg.norm(y),
                        np.linalg.norm(x) * np.linalg.norm(bty), 1e-30)
            worst = float(np.maximum(worst, abs(float(bx @ y - x @ bty)) / scale))
        results.append((f"adjoint-identity[{op.kind}]", worst <= 1e-10, f"max rel {worst:.2e}"))

    for op in ops:
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.in_dim)
            a, b = rng.standard_normal(2)
            resid = op.apply(a * x + b * y) - (a * op.apply(x) + b * op.apply(y))
            scale = max(np.linalg.norm(op.apply(x)), np.linalg.norm(op.apply(y)), 1e-30)
            worst = float(np.maximum(worst, np.linalg.norm(resid) / scale))
        results.append((f"linearity[{op.kind}]", worst <= 1e-10, f"max rel {worst:.2e}"))

    for op in ops:
        est = estimate_norm(op)
        ok = est < np.inf
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            if not np.linalg.norm(op.apply(x)) <= (1 + 1e-6) * est * np.linalg.norm(x):
                ok = False
                break
        results.append((f"norm-bound[{op.kind}]", ok, f"estimate {est:.6g}"))

    # the path spectrum in full, and every closed-form norm_sq against the
    # dense lambda_max(B^T B), on square and non-square grids
    devs = {}
    for n in (2, 3, 5, 8, 17, 32):
        d = Difference1D(n).to_dense()
        eigs = np.sort(np.linalg.eigvalsh(d @ d.T))
        expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n))
        devs[n] = float(np.abs(eigs - expected).max())
    dev, n_worst = _worst(devs)
    cases = {f"difference-1d({n})": Difference1D(n) for n in devs}
    cases.update({f"gradient-2d({r}x{c})": Gradient2D(r, c)
                  for r, c in ((2, 2), (2, 3), (3, 2), (5, 8), (7, 7), (12, 9))})
    rels = {}
    for label, op in cases.items():
        d = op.to_dense()
        true = float(np.linalg.eigvalsh(d.T @ d)[-1])
        rels[label] = abs(op.norm_sq - true) / true
    rel, op_worst = _worst(rels)
    results.append(("difference-spectrum-closed-form", dev <= 1e-9 and rel <= 1e-12,
                    f"max dev {dev:.2e} at n={n_worst}; norm_sq max rel err {rel:.2e} at {op_worst}"))

    m = rng.standard_normal((20, 30))
    est = estimate_norm(DenseMatrix(m))
    true = float(np.linalg.svd(m, compute_uv=False)[0])
    rel = abs(est - true) / true
    results.append(("power-iteration-vs-svd", rel <= 1e-6, f"rel err {rel:.2e}"))

    # power iteration approaches lambda_max from below, so it may not exceed norm_sq
    op = Difference1D(200)
    est = estimate_norm(op) ** 2
    results.append(("difference-1d-spectral-constant",
                    est <= op.norm_sq and op.norm_sq - est <= 1e-4,
                    f"estimate {est:.6f}, norm_sq {op.norm_sq:.6f}"))

    op = Gradient2D(64, 64)
    est = estimate_norm(op) ** 2
    results.append(("gradient-2d-spectral-constant", 7.9 <= est <= min(op.norm_sq, 8.0),
                    f"estimate {est:.6f}, norm_sq {op.norm_sq:.6f}"))

    # the exact data-fit constants against the dense SVD: no blur, no
    # averaging, and kernel radii (9, 6) wider than a side are covered
    blurs = {f"{r}x{c},sigma={s},factor={f}": BlurDownsample(r, c, s, f)
             for r, c, s, f in ((8, 8, 1.0, 2), (4, 6, 3.0, 2), (6, 6, 0.0, 3),
                                (5, 7, 1.3, 1), (12, 8, 0.7, 4), (6, 4, 2.0, 1))}
    matrices = {f"{m}x{n}": DenseMatrix(rng.standard_normal((m, n)))
                for m, n in ((1, 1), (1, 7), (7, 1), (5, 7), (30, 20), (100, 200))}
    for name, cases in (("blur-downsample-spectral-constant", blurs),
                        ("dense-matrix-spectral-constant", matrices)):
        rels = {}
        for label, op in cases.items():
            true = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0]) ** 2
            rels[label] = abs(op.norm_sq - true) / true
        rel, worst = _worst(rels)
        results.append((name, rel <= 1e-12, f"norm_sq max rel err {rel:.2e} at {worst}"))

    return results


def _observed(solve, problem, config, **start):
    """A run's (x, state) at each outer step, copied as ``config.observe`` sees them."""
    steps = []
    solve(problem, replace(config, observe=lambda k, x, state: steps.append(
        (x.copy(), {key: value.copy() for key, value in state.items()}))), **start)
    return steps


def _identity_row(name, run_a, run_b, iters, skip_b=0):
    """One suite row: both ``_observed`` runs ran their ``iters`` iterations, a's iterates
    match b's read ``skip_b`` steps later and, at ``skip_b`` = 0, so do their last states, to 1e-12."""
    ran = min(len(run_a), len(run_b))
    if ran < iters:
        return name, False, f"stopped after {ran} of {iters} iterations"
    pairs = [(x_a, x_b) for (x_a, _), (x_b, _) in zip(run_a, run_b[skip_b:])]
    if skip_b == 0:
        pairs += [(value, run_b[-1][1][key]) for key, value in run_a[-1][1].items()]
    gap = float(np.max([np.abs(a - b).max() for a, b in pairs]))
    return name, gap < 1e-12, f"max gap {gap:.2e}"


def _identity_b_problem(seed):
    """A small l1-penalised least-squares instance with B = I, which davis-yin admits."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((30, 40))
    return SplitProblem(f=LeastSquares(DenseMatrix(a), rng.standard_normal(30)),
                        g=L1Norm(0.3), h=L1Norm(0.5), B=Identity(40))


def _pair_cases(seed):
    """The J = 1 pairs on a small instance of each family, the CT and lrtv-sr names tagged:
    (row name, problem, [(solver id, config)] of the nested solver and its ``single``-loop
    scheme), each config ``preset_config``'s type-II one over ``_ITERS`` outer steps."""
    for tag, p in (("", build_fused_lasso(m=30, n=60, seed=seed)),
                   (" [ct]", build_ct_problem(img_side=16, views=6, rays=24, seed=seed)),
                   (" [lrtv-sr]", build_lrtv_problem(rows=16, cols=16, seed=seed))):
        for nested, row in _TABLE.items():
            if row.single:
                yield (f"{nested}(J=1) == {row.single}{tag}", p,
                       [(s, preset_config(p, "type-II", s, eps=1e-16, max_outer=_ITERS))
                        for s in (nested, row.single)])


def equivalence_suite(seed=0):
    """The reduction identities: at one warm-started inner step each nested
    scheme equals the ``single``-loop scheme its row of ``_TABLE`` names, both run
    at their ``_pair_cases`` steps, checked pointwise to 1e-12 over 200 iterations
    of a small instance of each family, and in the whole final state, y included."""
    results = [_identity_row(name, *(_observed(SOLVERS[s], p, c) for s, c in runs), _ITERS)
               for name, p, runs in _pair_cases(seed)]

    p_id = _identity_b_problem(seed + 1)
    c_id = preset_config(p_id, "custom", "pd3o", lam=1.0, eps=1e-16, max_outer=_ITERS)
    results.append(_identity_row("pd3o(lam=1,B=I) == davis-yin", _observed(solve_pd3o, p_id, c_id),
                                 _observed(solve_davis_yin, p_id, c_id), _ITERS))

    # pdfp == pd3o holds pointwise in the g = 0 regime; start at a stationary
    # point of f so the matched shadow start z0 = x0 - gamma grad f(x0) - gamma B^T y0
    # coincides with x0, and compare with the one-step index offset
    p0 = build_fused_lasso(m=30, n=60, mu1=0.0, seed=seed)
    c0 = preset_config(p0, "custom", "pdfp", lam=0.25, eps=1e-16, max_outer=_ITERS + 1)
    x0 = np.linalg.lstsq(p0.f.op.matrix, p0.f.target, rcond=None)[0]
    y0 = np.zeros(p0.B.out_dim)
    z0 = x0 - c0.gamma * p0.f.gradient(x0) - c0.gamma * p0.B.adjoint_apply(y0)
    results.append(_identity_row("pdfp == pd3o (x-iterates, matched start)",
                                 _observed(solve_pdfp, p0, c0, x0=x0, y0=y0),
                                 _observed(solve_pd3o, p0, c0, z0=z0, y0=y0), _ITERS + 1, skip_b=1))
    return results


SUITES = {
    "prox": prox_suite,
    "operators": operator_suite,
    "equivalence": equivalence_suite,
}


def run_suite(name):
    """Run one suite of SUITES (or 'all') at seed 0; returns (results, all_passed).  A suite
    that raises gives one FAIL row, ``<suite>-suite``, naming the exception, and the rest run."""
    results = []
    for suite_name, suite in (SUITES if name == "all" else {name: SUITES[name]}).items():
        try:
            results += suite()
        except Exception as exc:
            results.append((f"{suite_name}-suite", False, f"raised {type(exc).__name__}: {exc}"))
    return results, all(ok for _, ok, _ in results)
