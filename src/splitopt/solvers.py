"""Splitting solvers for  min_x f(x) + g(x) + h(Bx).

Two outer schemes are implemented, each with a dual and a primal-dual inner
solver for the prox subproblem it cannot evaluate in closed form:

* forward-backward outer loop (prox of g + h o B needed):
  ``solve_fb_dual`` and ``solve_fb_primal_dual``;
* three-operator outer loop with shadow variable z (prox of h o B needed):
  ``solve_tos_dual`` and ``solve_tos_primal_dual``.

Each inner loop runs a fixed number of iterations ``inner_iters`` and always
warm-starts from its previous terminal value.  With one inner iteration the
four nested schemes collapse to known single-loop algorithms, which are also
provided as standalone implementations: ``solve_pdfp``, ``solve_condat_vu``,
``solve_pd3o``, ``solve_davis_yin``, and ``solve_tos_pd_single`` (the
single-loop form of the primal-dual three-operator scheme).

Step-size conditions, checked against the problem before iterating:
gamma in (0, 2/L); for dual inner solvers lam in (0, 2/lambda_max(B B^T));
for primal-dual inner solvers sigma tau ||B||^2 < 1.  The spectral quantities
use the power-iteration estimate of ||B||.

Stopping: relative change ||x_{k+1} - x_k|| / max(||x_k||, 1e-30) <= eps,
evaluated from the second computed iterate on.  Non-finite iterates or a
1e12-fold objective blow-up abort with ``DivergenceError``.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .metrics import Reference, ssim_constants
from .operators import Identity

__all__ = [
    "SolverConfig",
    "SolveTrace",
    "IterationRecord",
    "DivergenceError",
    "ConfigError",
    "PRESETS",
    "check_loop_control",
    "preset_config",
    "solve_fb_dual",
    "solve_fb_primal_dual",
    "solve_tos_dual",
    "solve_tos_primal_dual",
    "solve_pdfp",
    "solve_condat_vu",
    "solve_pd3o",
    "solve_davis_yin",
    "solve_tos_pd_single",
    "SOLVERS",
]


class ConfigError(ValueError):
    """A step-size or configuration requirement is violated."""


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values or a runaway objective."""

    def __init__(self, solver, iteration, reason):
        super().__init__(f"{solver} diverged at outer iteration {iteration}: {reason}")
        self.iteration = iteration


#: the named step rules of ``preset_config``
PRESETS = ("type-I", "type-II", "custom")


def _check_positive(name, value):
    # negated, so that NaN fails too; an infinite step or tolerance cannot be iterated with
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def check_loop_control(name, value):
    """Raise ConfigError unless the loop control ``name`` has a valid ``value``:
    ``eps`` must be positive and finite, ``inner_iters`` and ``max_outer`` integers >= 1."""
    if name == "eps":
        _check_positive(name, value)
    elif not (isinstance(value, numbers.Integral) and value >= 1):  # numpy integers too
        raise ConfigError(f"{name} must be an integer >= 1, got {value}")


@dataclass
class SolverConfig:
    """Step sizes and loop controls shared by all solvers.

    ``lam`` drives the dual inner solvers, ``sigma``/``tau`` the primal-dual
    ones; a config may carry both.  ``param_preset`` records the named step
    rule the config was derived from, if any.
    """

    gamma: float
    lam: float | None = None
    sigma: float | None = None
    tau: float | None = None
    inner_iters: int = 1
    eps: float = 1e-6
    max_outer: int = 5000
    record_iterates: bool = False
    param_preset: str | None = None

    def __post_init__(self):
        _check_positive("gamma", self.gamma)
        for name in ("inner_iters", "eps", "max_outer"):
            check_loop_control(name, getattr(self, name))
        for name in ("lam", "sigma", "tau"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))


def preset_config(problem, preset, **overrides):
    """Build a SolverConfig from a named step rule.

    type-I:  lam = 1.9 / lambda_max(B B^T), sigma = 1 / ||B||^2, tau = 1.
    type-II: lam = 1 / lambda_max(B B^T),  sigma = tau = 1 / ||B||.
    custom:  only the step sizes given in ``overrides``; a solver whose
             steps are missing rejects the config.

    lambda_max(B B^T) is the problem's conventional ``b_lam_max`` when set,
    otherwise ``B.norm_sq``, and ||B|| is its square root; gamma defaults to
    the problem's suggested value or 1.9/L.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")
    params = {}
    if preset != "custom":
        lam_max = problem.b_lam_max if problem.b_lam_max is not None else problem.B.norm_sq
        norm_b = math.sqrt(lam_max)
        if preset == "type-I":
            params = {"lam": 1.9 / lam_max, "sigma": 1.0 / norm_b**2, "tau": 1.0}
        else:
            params = {"lam": 1.0 / lam_max, "sigma": 1.0 / norm_b, "tau": 1.0 / norm_b}
    if "gamma" not in overrides:
        gamma = problem.gamma_default
        if gamma is None:
            lip = problem.f.lipschitz
            if lip <= 0:
                raise ConfigError("cannot derive gamma for a problem with L = 0; pass gamma=")
            gamma = 1.9 / lip
        params["gamma"] = gamma
    params.update(overrides)
    return SolverConfig(param_preset=preset, **params)


@dataclass
class IterationRecord:
    k: int
    objective: float
    rel_change: float
    snr: float | None = None
    nmsd: float | None = None
    ssim: float | None = None


@dataclass
class SolveTrace:
    records: list
    final_x: np.ndarray
    converged: bool
    final_state: dict = field(default_factory=dict)
    iterates: list | None = None

    @property
    def total_outer(self):
        """Outer iterations run: one record each."""
        return len(self.records)

    @property
    def final_record(self):
        return self.records[-1]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _check_gamma(problem, gamma):
    lip = problem.f.lipschitz
    if lip > 0 and not gamma < 2.0 / lip:
        raise ConfigError(f"gamma={gamma} outside (0, 2/L) with L={lip:.6g}")


def _check_dual(problem, config):
    _check_gamma(problem, config.gamma)
    if config.lam is None:
        raise ConfigError("dual solver needs lam")
    lam_max = problem.B.norm_sq
    if lam_max > 0 and not config.lam < 2.0 / lam_max:
        raise ConfigError(
            f"lam={config.lam} outside (0, 2/lambda_max) = (0, {2.0 / lam_max})"
        )


def _check_primal_dual(problem, config):
    _check_gamma(problem, config.gamma)
    if config.sigma is None or config.tau is None:
        raise ConfigError("primal-dual solver needs sigma and tau")
    product = config.sigma * config.tau * problem.B.norm_sq
    if product >= 1.0:
        raise ConfigError(f"sigma*tau*||B||^2 = {product} must be < 1")


def _start_state(problem, start):
    """Resolve the start values, given as (state key, argument) pairs in state order.

    An omitted first key takes ``problem.x0``, else zeros; an omitted ``y``
    takes zeros in B's range; an omitted ``v`` takes a copy of the resolved
    first key.
    """
    state = []
    for key, value in start:
        if value is None and not state:
            value = problem.x0 if problem.x0 is not None else np.zeros(problem.dim)
        elif value is None:
            value = np.zeros(problem.B.out_dim) if key == "y" else state[0]
        state.append(np.asarray(value, dtype=float).ravel().copy())
    return tuple(state)


def _run(problem, config, solver, step, start):
    """Outer-loop driver: start state, stopping test, divergence guard, trace recording."""
    state = _start_state(problem, start)
    records = []
    iterates = [] if config.record_iterates else None
    x_prev = None
    obj_ref = None
    converged = False
    ref = None if problem.ground_truth is None else Reference(problem.ground_truth)
    with_ssim = ref is not None and problem.record_ssim
    if with_ssim:
        c1, c2 = ssim_constants(problem.dynamic_range)
    for k in range(1, config.max_outer + 1):
        state, x = step(state)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(solver, k, "non-finite iterate")
        obj = problem.objective(x)
        if obj_ref is None and np.isfinite(obj):
            obj_ref = max(abs(obj), 1.0)
        elif obj_ref is not None and np.isfinite(obj) and obj > 1e12 * obj_ref:
            raise DivergenceError(solver, k, f"objective grew to {obj:.3e}")
        rel = np.inf
        if x_prev is not None:
            rel = float(np.linalg.norm(x - x_prev) / max(np.linalg.norm(x_prev), 1e-30))
        rec = IterationRecord(k=k, objective=obj, rel_change=rel)
        if ref is not None:
            err = ref.error_norm(x)
            rec.snr = ref.snr(err)
            rec.nmsd = ref.nmsd(err)
            if with_ssim:
                rec.ssim = ref.ssim(x, c1, c2)
        records.append(rec)
        if iterates is not None:
            iterates.append(x.copy())
        if x_prev is not None and rel <= config.eps:
            converged = True
            x_prev = x
            break
        x_prev = x
    return SolveTrace(
        records=records,
        final_x=x_prev,
        converged=converged,
        final_state=dict(zip((key for key, _ in start), state)),
        iterates=iterates,
    )


# ---------------------------------------------------------------------------
# forward-backward outer loop
# ---------------------------------------------------------------------------

def solve_fb_dual(problem, config, x0=None, y0=None):
    """Forward-backward outer loop; the prox of g + h o B is approximated by
    forward-backward iterations on its dual.

    Outer:  u = x - gamma grad f(x)
    Inner:  y <- prox_{(lam/gamma) h*}( y + (lam/gamma) B prox_{gamma g}(u - gamma B^T y) )
    Update: x <- prox_{gamma g}(u - gamma B^T y)
    """
    _check_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, lam, J = config.gamma, config.lam, config.inner_iters
    s = lam / gamma

    def step(state):
        x, y = state
        u = x - gamma * f.gradient(x)
        for _ in range(J):
            y = h.prox_conjugate(s, y + s * B.apply(g.prox(gamma, u - gamma * B.adjoint_apply(y))))
        x = g.prox(gamma, u - gamma * B.adjoint_apply(y))
        return (x, y), x

    return _run(problem, config, "fb-dual", step, (("x", x0), ("y", y0)))


def solve_fb_primal_dual(problem, config, x0=None, y0=None):
    """Forward-backward outer loop; the prox of g + h o B is approximated by
    primal-dual iterations.

    Outer:  u = x - gamma grad f(x)
    Inner:  xb <- prox_{tau gamma/(1+tau) g}( (xb - tau B^T y + tau u) / (1+tau) )
            y  <- gamma prox_{(sigma/gamma) h*}( (y + sigma B (2 xb' - xb)) / gamma )
    Update: x <- xb

    The inner variable xb warm-starts from x, which is its previous terminal
    value, and y from its own.
    """
    _check_primal_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, sigma, tau, J = config.gamma, config.sigma, config.tau, config.inner_iters
    g_step = tau * gamma / (1.0 + tau)

    def step(state):
        x, y = state
        u = x - gamma * f.gradient(x)
        xb = x
        for _ in range(J):
            xb_new = g.prox(g_step, (xb - tau * B.adjoint_apply(y) + tau * u) / (1.0 + tau))
            y = gamma * h.prox_conjugate(sigma / gamma, (y + sigma * B.apply(2.0 * xb_new - xb)) / gamma)
            xb = xb_new
        return (xb, y), xb

    return _run(problem, config, "fb-pd", step, (("x", x0), ("y", y0)))


# ---------------------------------------------------------------------------
# three-operator outer loop
# ---------------------------------------------------------------------------

def solve_tos_dual(problem, config, z0=None, y0=None):
    """Three-operator outer loop; the prox of h o B is approximated by
    forward-backward iterations on its dual.

    x = prox_{gamma g}(z);  u = 2x - z - gamma grad f(x)
    Inner:  y <- prox_{(lam/gamma) h*}( (I - lam B B^T) y + (lam/gamma) B u )
    Update: z <- z + (u - gamma B^T y) - x
    """
    _check_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, lam, J = config.gamma, config.lam, config.inner_iters
    s = lam / gamma

    def step(state):
        z, y = state
        x = g.prox(gamma, z)
        u = 2.0 * x - z - gamma * f.gradient(x)
        bu = B.apply(u)
        for _ in range(J):
            y = h.prox_conjugate(s, y - lam * B.apply(B.adjoint_apply(y)) + s * bu)
        z = z + (u - gamma * B.adjoint_apply(y)) - x
        return (z, y), x

    return _run(problem, config, "tos-dual", step, (("z", z0), ("y", y0)))


def solve_tos_primal_dual(problem, config, z0=None, v0=None, y0=None):
    """Three-operator outer loop; the prox of h o B is approximated by
    primal-dual iterations.

    x = prox_{gamma g}(z);  u = 2x - z - gamma grad f(x)
    Inner:  v <- (v - tau B^T y + tau u) / (1+tau)
            y <- gamma prox_{(sigma/gamma) h*}( y/gamma + (sigma/gamma) B (2 v' - v) )
    Update: z <- z + v - x
    """
    _check_primal_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, sigma, tau, J = config.gamma, config.sigma, config.tau, config.inner_iters

    def step(state):
        z, v, y = state
        x = g.prox(gamma, z)
        u = 2.0 * x - z - gamma * f.gradient(x)
        for _ in range(J):
            v_new = (v - tau * B.adjoint_apply(y) + tau * u) / (1.0 + tau)
            y = gamma * h.prox_conjugate(sigma / gamma, y / gamma + (sigma / gamma) * B.apply(2.0 * v_new - v))
            v = v_new
        z = z + v - x
        return (z, v, y), x

    return _run(problem, config, "tos-pd", step, (("z", z0), ("v", v0), ("y", y0)))


# ---------------------------------------------------------------------------
# single-loop schemes
# ---------------------------------------------------------------------------

def solve_pdfp(problem, config, x0=None, y0=None):
    """Primal-dual fixed-point scheme (fb-dual with one warm-started inner step).

    v <- prox_{gamma g}(x - gamma grad f(x) - gamma B^T y)
    y <- prox_{(lam/gamma) h*}(y + (lam/gamma) B v)
    x <- prox_{gamma g}(x - gamma grad f(x) - gamma B^T y)
    """
    _check_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, lam = config.gamma, config.lam
    s = lam / gamma

    def step(state):
        x, y = state
        u = x - gamma * f.gradient(x)
        v = g.prox(gamma, u - gamma * B.adjoint_apply(y))
        y = h.prox_conjugate(s, y + s * B.apply(v))
        x = g.prox(gamma, u - gamma * B.adjoint_apply(y))
        return (x, y), x

    return _run(problem, config, "pdfp", step, (("x", x0), ("y", y0)))


def solve_condat_vu(problem, config, x0=None, y0=None):
    """Single-loop primal-dual splitting with sigma = config.sigma and
    tau = config.tau, which must satisfy 1/tau - sigma ||B||^2 > L/2.

    x <- prox_{tau g}(x - tau B^T y - tau grad f(x))
    y <- prox_{sigma h*}(y + sigma B (2 x' - x))
    """
    if config.sigma is None or config.tau is None:
        raise ConfigError("condat-vu needs sigma and tau")
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    sigma, tau = config.sigma, config.tau
    margin = 1.0 / tau - sigma * B.norm_sq
    if not margin > f.lipschitz / 2.0:
        raise ConfigError(
            f"1/tau - sigma ||B||^2 = {margin} must exceed L/2 = {f.lipschitz / 2.0}"
        )

    def step(state):
        x, y = state
        x_new = g.prox(tau, x - tau * B.adjoint_apply(y) - tau * f.gradient(x))
        y = h.prox_conjugate(sigma, y + sigma * B.apply(2.0 * x_new - x))
        return (x_new, y), x_new

    return _run(problem, config, "condat-vu", step, (("x", x0), ("y", y0)))


def solve_pd3o(problem, config, z0=None, y0=None):
    """Primal-dual three-operator scheme (tos-dual with one warm-started inner step).

    x <- prox_{gamma g}(z)
    y <- prox_{(lam/gamma) h*}( (I - lam B B^T) y + (lam/gamma) B (2x - z - gamma grad f(x)) )
    z <- x - gamma grad f(x) - gamma B^T y
    """
    _check_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, lam = config.gamma, config.lam
    s = lam / gamma

    def step(state):
        z, y = state
        x = g.prox(gamma, z)
        grad = f.gradient(x)
        y = h.prox_conjugate(
            s, y - lam * B.apply(B.adjoint_apply(y)) + s * B.apply(2.0 * x - z - gamma * grad)
        )
        z = x - gamma * grad - gamma * B.adjoint_apply(y)
        return (z, y), x

    return _run(problem, config, "pd3o", step, (("z", z0), ("y", y0)))


def solve_davis_yin(problem, config, z0=None, y0=None):
    """Three-operator splitting for B = I (pd3o with lam = 1).

    x <- prox_{gamma g}(z)
    y <- prox_{(1/gamma) h*}( (2x - z - gamma grad f(x)) / gamma )
    z <- x - gamma grad f(x) - gamma y
    """
    if not isinstance(problem.B, Identity):
        raise ConfigError(f"davis-yin requires B = identity, got {problem.B.kind}")
    _check_gamma(problem, config.gamma)
    f, g, h = problem.f, problem.g, problem.h
    gamma = config.gamma

    def step(state):
        z, y = state
        x = g.prox(gamma, z)
        grad = f.gradient(x)
        y = h.prox_conjugate(1.0 / gamma, (2.0 * x - z - gamma * grad) / gamma)
        z = x - gamma * grad - gamma * y
        return (z, y), x

    return _run(problem, config, "davis-yin", step, (("z", z0), ("y", y0)))


def solve_tos_pd_single(problem, config, z0=None, v0=None, y0=None):
    """Single-loop form of the primal-dual three-operator scheme
    (tos-primal-dual with one warm-started inner step).

    x <- prox_{gamma g}(z)
    u = 2x - z - gamma grad f(x)
    v <- (v - tau B^T y + tau u) / (1+tau)
    y <- gamma prox_{(sigma/gamma) h*}( y/gamma + (sigma/gamma) B (2 v' - v) )
    z <- z + v' - x
    """
    _check_primal_dual(problem, config)
    f, g, h, B = problem.f, problem.g, problem.h, problem.B
    gamma, sigma, tau = config.gamma, config.sigma, config.tau

    def step(state):
        z, v, y = state
        x = g.prox(gamma, z)
        u = 2.0 * x - z - gamma * f.gradient(x)
        v_new = (v - tau * B.adjoint_apply(y) + tau * u) / (1.0 + tau)
        y = gamma * h.prox_conjugate(sigma / gamma, y / gamma + (sigma / gamma) * B.apply(2.0 * v_new - v))
        z = z + v_new - x
        return (z, v_new, y), x

    return _run(problem, config, "tos-pd-single", step, (("z", z0), ("v", v0), ("y", y0)))


SOLVERS = {
    "fb-dual": solve_fb_dual,
    "fb-pd": solve_fb_primal_dual,
    "tos-dual": solve_tos_dual,
    "tos-pd": solve_tos_primal_dual,
    "pdfp": solve_pdfp,
    "condat-vu": solve_condat_vu,
    "pd3o": solve_pd3o,
    "davis-yin": solve_davis_yin,
    "tos-pd-single": solve_tos_pd_single,
}
