"""Splitting solvers for  min_x f(x) + g(x) + h(Bx).

The four nested schemes are two outer loops times two inner solvers:

                     dual inner        primal-dual inner
  forward-backward   solve_fb_dual     solve_fb_primal_dual
  three-operator     solve_tos_dual    solve_tos_primal_dual

Each outer loop hands over the prox it cannot evaluate in closed form, as
min_p 1/2 ||p - u||^2 + gamma (phi + h o B)(p): the forward-backward loop
needs the prox of g + h o B (phi = g), and the three-operator loop, with its
shadow variable z, the prox of h o B (phi = 0).  The dual inner solver runs
forward-backward steps on the subproblem's dual, the primal-dual one runs
primal-dual steps; each takes a fixed number ``inner_iters`` of steps and
warm-starts from its previous terminal value.  With one inner step the four
collapse to single-loop algorithms, kept as independent implementations so
that the identity is a real check; ``solve_davis_yin`` is pd3o at B = I.
Every solver's ``y`` is the dual of h at unit scale, so each identity covers its state.

Each solver is one ``_Row`` of ``_TABLE``: its ``solve`` function, the ``steps`` it
reads, their ``condition``, its ``calls`` (a, b, start) of A, A^T, B, B^T, prox of g and
prox of h*, a + J b of each per outer step at J inner steps, the objective's B included,
and ``start`` more of A at the start point, and, for a nested solver, the ``single``-loop
scheme it equals at J = 1 and ``to_single``, its config map (None: the same config), whose
one reader is ``preset_config``.  ``check_steps`` applies a row before the first step: the
steps it lists must be set, and each bound is one negated product, which a NaN constant fails.
L is ``f.op.norm_sq`` for a least-squares f, and B's spectral quantities come from
``B.norm_sq``.  Those are exact for ``Identity``, ``Difference1D``, ``Gradient2D``,
``BlurDownsample`` and ``DenseMatrix``; ``SparseMatrix`` and user operators take the
power-iteration estimate, which can be slightly low.

Stopping: relative change ||x_{k+1} - x_k|| / max(||x_k||, 1e-30) <= eps,
evaluated from the second computed iterate on.  A non-finite x or state
variable, named at the step that made it, or a 1e12-fold objective blow-up
aborts with ``DivergenceError``.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import finite, integer, positive, vector
from .metrics import Reference
from .operators import Identity

__all__ = [
    "SolverConfig",
    "SolveTrace",
    "IterationRecord",
    "DivergenceError",
    "ConfigError",
    "PRESETS",
    "check_loop_control",
    "check_preset",
    "check_solver",
    "check_steps",
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

#: the relative margin by which a preset raises ``B.norm_sq`` where a problem sets no
#: ``b_lam_max``, so that its steps lie strictly inside the conditions they serve
_PRESET_MARGIN = 1e-6


def check_loop_control(name, value):
    """Raise ConfigError unless the loop control ``name`` has a valid ``value``:
    a positive finite ``eps``, and integers >= 1 for ``inner_iters`` and ``max_outer``."""
    if name == "eps":
        positive(name, value, ConfigError)
    else:
        integer(name, value, 1, ConfigError)


@dataclass
class SolverConfig:
    """Step sizes and loop controls shared by all solvers; each step is optional, and a solver
    needs the steps its row of ``_TABLE`` lists.  ``observe``, if set, is the read-only hook
    ``_run`` calls after each outer step.  ``param_preset`` names its step rule, if any."""

    gamma: float | None = None
    lam: float | None = None
    sigma: float | None = None
    tau: float | None = None
    inner_iters: int = 1
    eps: float = 1e-6
    max_outer: int = 5000
    observe: object = None
    param_preset: str | None = None

    def __post_init__(self):
        # an infinite step or tolerance cannot be iterated with
        for name in ("gamma", "lam", "sigma", "tau"):
            if getattr(self, name) is not None:
                positive(name, getattr(self, name), ConfigError)
        if not (self.observe is None or callable(self.observe)):
            raise ConfigError(f"observe must be callable or None, got {self.observe!r}")
        for name in ("inner_iters", "eps", "max_outer"):
            check_loop_control(name, getattr(self, name))


def preset_config(problem, preset, solver, **overrides):
    """Build the SolverConfig that ``solver`` runs under a named step rule.

    type-I:  lam = 1.9 / lambda_max(B B^T), sigma = 1 / ||B||^2, tau = 1.
    type-II: lam = 1 / lambda_max(B B^T),  sigma = tau = 1 / ||B||.
    custom:  only the step sizes given in ``overrides``, as given.

    lambda_max(B B^T) is the problem's conventional ``b_lam_max`` when set,
    otherwise ``B.norm_sq * (1 + _PRESET_MARGIN)``, so that sigma tau ||B||^2 < 1
    holds strictly, and ||B|| is its square root; gamma defaults to the problem's
    suggested value or 1.9/L.  Under type-I and type-II, a single-loop solver that a
    nested row of ``_TABLE`` equals at J = 1 through a ``to_single`` map (condat-vu)
    takes that nested solver's steps through the map.  An unknown id raises ConfigError,
    and so does a constant a derived step needs that is not positive, finite and normal:
    the message names L (pass gamma=) or lambda_max(B B^T) (pass the steps under custom).
    """
    def constant(name, value):  # a step divides by it, so a subnormal one would overflow it
        if positive(name, value, ConfigError) < np.finfo(float).tiny:
            raise ConfigError(f"{name} must be at least {np.finfo(float).tiny}, got {value}")
        return float(value)
    check_preset(preset)
    check_solver(solver)
    params = {}
    if preset != "custom":
        lam_max = constant("lambda_max(B B^T) (pass the steps under custom)",
                           problem.b_lam_max or problem.B.norm_sq * (1.0 + _PRESET_MARGIN))
        norm_b = math.sqrt(lam_max)
        if preset == "type-I":
            params = {"lam": 1.9 / lam_max, "sigma": 1.0 / norm_b**2, "tau": 1.0}
        else:
            params = {"lam": 1.0 / lam_max, "sigma": 1.0 / norm_b, "tau": 1.0 / norm_b}
    if "gamma" not in overrides:
        params["gamma"] = (problem.gamma_default
                           or 1.9 / constant("L (pass gamma=)", problem.f.lipschitz))
    params.update(overrides)
    config = SolverConfig(param_preset=preset, **params)
    maps = [row.to_single for row in _TABLE.values() if row.single == solver and row.to_single]
    return maps[0](config) if maps and preset != "custom" else config


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

def check_steps(solver, problem, config):
    """Raise ConfigError unless ``solver`` names a row of ``_TABLE``, ``config`` carries the
    steps it reads, and they meet gamma L < 2 where it reads gamma and the row's condition,
    each a negated product that a NaN constant fails.  Return the problem's f, g, h, B."""
    row = check_solver(solver)
    missing = [name for name in row.steps if getattr(config, name) is None]
    if missing:
        raise ConfigError(f"{solver} needs {' and '.join(missing)}")
    lip = problem.f.lipschitz
    if "gamma" in row.steps and not config.gamma * lip < 2.0:
        raise ConfigError(f"gamma={config.gamma} outside (0, 2/L) = (0, {2.0 / lip}) with L={lip}")
    message = row.condition(problem, config)
    if message:
        raise ConfigError(message)
    return problem.f, problem.g, problem.h, problem.B


def check_solver(solver):
    """Return the ``_TABLE`` row of ``solver``; raise ConfigError naming the known ids if none."""
    if solver not in _TABLE:
        raise ConfigError(f"unknown solver id {solver!r}; known: {', '.join(sorted(_TABLE))}")
    return _TABLE[solver]


def check_preset(preset):
    """Raise ConfigError naming the known step rules unless ``preset`` is one of PRESETS."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESETS)})")


def _lam_condition(problem, config):
    lam_max = problem.B.norm_sq
    if not config.lam * lam_max < 2.0:
        return f"lam={config.lam} outside (0, 2/lambda_max) = (0, {2.0 / lam_max})"


def _sigma_tau_condition(problem, config):
    product = config.sigma * config.tau * problem.B.norm_sq
    if not product < 1.0:
        return f"sigma*tau*||B||^2 = {product} must be < 1"


def _condat_vu_condition(problem, config):
    margin = 1.0 / config.tau - config.sigma * problem.B.norm_sq
    if not margin > problem.f.lipschitz / 2.0:
        return f"1/tau - sigma ||B||^2 = {margin} must exceed L/2 = {problem.f.lipschitz / 2.0}"


def _identity_condition(problem, config):
    if not isinstance(problem.B, Identity):
        return f"davis-yin requires B = identity, got {problem.B.kind}"


def _start_state(problem, start):
    """Resolve the start values, given as (state key, argument) pairs in state order.

    An omitted first key takes ``problem.x0``, else zeros; an omitted ``y``
    takes zeros in B's range; an omitted ``v`` takes a copy of the resolved
    first key.  Each value must be finite and of its variable's length.
    """
    state = []
    for key, value in start:
        name = f"{key}0"
        size = problem.B.out_dim if key == "y" else problem.dim
        if value is None and not state and problem.x0 is not None:
            name, value = "problem.x0", problem.x0
        elif value is None:
            value = state[0] if state and key != "y" else np.zeros(size)
        state.append(finite(name, vector(value, size, name)).copy())
    return tuple(state)


def _run(problem, config, solver, step, start):
    """Outer-loop driver: start state, stopping test, divergence guard, trace recording,
    then ``config.observe(k, x, state)``, ``state`` the ``final_state`` of a stop at k."""
    state = _start_state(problem, start)
    keys = [key for key, _ in start]
    records = []
    x_prev = None
    obj_ref = None
    ref = None if problem.ground_truth is None else Reference(problem.ground_truth, problem.dynamic_range)
    for k in range(1, config.max_outer + 1):
        state, x = step(state)
        named = dict(zip(keys, state))
        for key, value in {"x": x, **named}.items():  # state "x" is x
            if not np.all(np.isfinite(value)):
                raise DivergenceError(solver, k, f"non-finite {key}")
        obj = problem.objective(x)
        if obj_ref is None and np.isfinite(obj):
            obj_ref = max(abs(obj), 1.0)
        elif obj_ref is not None and np.isfinite(obj) and obj > 1e12 * obj_ref:
            raise DivergenceError(solver, k, f"objective grew to {obj:.3e}")
        rel = np.inf
        if x_prev is not None:
            rel = float(np.linalg.norm(x - x_prev) / max(np.linalg.norm(x_prev), 1e-30))
        records.append(IterationRecord(k, obj, rel, *(() if ref is None else ref(x))))
        if config.observe is not None:
            config.observe(k, x, named)
        x_prev = x
        if rel <= config.eps:
            break
    return SolveTrace(records=records, final_x=x_prev, converged=rel <= config.eps, final_state=named)


# ---------------------------------------------------------------------------
# nested schemes: two outer loops, two inner solvers
# ---------------------------------------------------------------------------

def _identity_prox(step, v):
    return v


def _dual_inner(prox, h, B, config):
    """Forward-backward steps on the dual of  min_p 1/2 ||p - u||^2 + gamma (phi + h o B)(p),
    with ``prox(t, v)`` = prox_{t phi}(v); ``inner(u, y)`` runs J of them from y and
    returns (p, y), p = prox_{gamma phi}(u - gamma B^T y)."""
    gamma, J = config.gamma, config.inner_iters
    s = config.lam / gamma

    def inner(u, y, p=None):  # p, the primal warm start, is recovered from y instead
        for _ in range(J):
            y = h.prox_conjugate(s, y + s * B.apply(prox(gamma, u - gamma * B.adjoint_apply(y))))
        return prox(gamma, u - gamma * B.adjoint_apply(y)), y

    return inner


def _pd_inner(prox, h, B, config):
    """Primal-dual steps on  min_p 1/2 ||p - u||^2 + gamma (phi + h o B)(p), with
    ``prox(t, v)`` = prox_{t phi}(v); ``inner(u, y, p)`` runs J of them from (p, y)
    and returns (p, y); as in ``_dual_inner``, y is the dual of h and p reads u - gamma B^T y."""
    gamma, tau, J = config.gamma, config.tau, config.inner_iters
    s = config.sigma / gamma
    p_step = tau * gamma / (1.0 + tau)

    def inner(u, y, p):
        for _ in range(J):
            p_new = prox(p_step, (p + tau * (u - gamma * B.adjoint_apply(y))) / (1.0 + tau))
            y = h.prox_conjugate(s, y + s * B.apply(2.0 * p_new - p))
            p = p_new
        return p, y

    return inner


def _fb(problem, config, solver, inner, x0, y0):
    """Forward-backward outer loop: x <- prox_{gamma (g + h o B)}(x - gamma grad f(x)),
    the prox from ``inner`` (phi = g) warm-started at (x, y)."""
    f, gamma = problem.f, config.gamma

    def step(state):
        x, y = state
        x, y = inner(x - gamma * f.gradient(x), y, x)
        return (x, y), x

    return _run(problem, config, solver, step, (("x", x0), ("y", y0)))


def _tos(problem, config, solver, inner, start):
    """Three-operator outer loop: x = prox_{gamma g}(z), p = prox_{gamma h o B}(2x - z -
    gamma grad f(x)) from ``inner`` (phi = 0), z <- z + p - x.  ``start`` names z, then
    v when the inner solver carries its primal iterate between outer steps, then y."""
    f, g, gamma = problem.f, problem.g, config.gamma

    def step(state):
        z, *v, y = state
        x = g.prox(gamma, z)
        p, y = inner(2.0 * x - z - gamma * f.gradient(x), y, *v)
        z = z + p - x
        return ((z, p, y) if v else (z, y)), x

    return _run(problem, config, solver, step, start)


def solve_fb_dual(problem, config, x0=None, y0=None):
    """Forward-backward outer loop (prox of g + h o B) with the dual inner solver."""
    _, g, h, B = check_steps("fb-dual", problem, config)
    return _fb(problem, config, "fb-dual", _dual_inner(g.prox, h, B, config), x0, y0)


def solve_fb_primal_dual(problem, config, x0=None, y0=None):
    """Forward-backward outer loop (prox of g + h o B) with the primal-dual inner
    solver, whose primal iterate warm-starts from x, its previous terminal value."""
    _, g, h, B = check_steps("fb-pd", problem, config)
    return _fb(problem, config, "fb-pd", _pd_inner(g.prox, h, B, config), x0, y0)


def solve_tos_dual(problem, config, z0=None, y0=None):
    """Three-operator outer loop (prox of h o B) with the dual inner solver."""
    _, _, h, B = check_steps("tos-dual", problem, config)
    inner = _dual_inner(_identity_prox, h, B, config)
    return _tos(problem, config, "tos-dual", inner, (("z", z0), ("y", y0)))


def solve_tos_primal_dual(problem, config, z0=None, v0=None, y0=None):
    """Three-operator outer loop (prox of h o B) with the primal-dual inner
    solver, whose primal iterate v is carried between outer steps."""
    _, _, h, B = check_steps("tos-pd", problem, config)
    inner = _pd_inner(_identity_prox, h, B, config)
    return _tos(problem, config, "tos-pd", inner, (("z", z0), ("v", v0), ("y", y0)))


# ---------------------------------------------------------------------------
# single-loop schemes
# ---------------------------------------------------------------------------

def solve_pdfp(problem, config, x0=None, y0=None):
    """Primal-dual fixed-point scheme (fb-dual with one warm-started inner step).

    v <- prox_{gamma g}(x - gamma grad f(x) - gamma B^T y)
    y <- prox_{(lam/gamma) h*}(y + (lam/gamma) B v)
    x <- prox_{gamma g}(x - gamma grad f(x) - gamma B^T y)
    """
    f, g, h, B = check_steps("pdfp", problem, config)
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
    """Single-loop primal-dual splitting with sigma = config.sigma and tau = config.tau.

    x <- prox_{tau g}(x - tau B^T y - tau grad f(x))
    y <- prox_{sigma h*}(y + sigma B (2 x' - x))
    """
    f, g, h, B = check_steps("condat-vu", problem, config)
    sigma, tau = config.sigma, config.tau

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
    f, g, h, B = check_steps("pd3o", problem, config)
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
    f, g, h, _ = check_steps("davis-yin", problem, config)
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
    v <- (v + tau (u - gamma B^T y)) / (1+tau)
    y <- prox_{(sigma/gamma) h*}( y + (sigma/gamma) B (2 v' - v) )
    z <- z + v' - x
    """
    f, g, h, B = check_steps("tos-pd-single", problem, config)
    gamma, tau, s = config.gamma, config.tau, config.sigma / config.gamma

    def step(state):
        z, v, y = state
        x = g.prox(gamma, z)
        u = 2.0 * x - z - gamma * f.gradient(x)
        v_new = (v + tau * (u - gamma * B.adjoint_apply(y))) / (1.0 + tau)
        y = h.prox_conjugate(s, y + s * B.apply(2.0 * v_new - v))
        z = z + v_new - x
        return (z, v_new, y), x

    return _run(problem, config, "tos-pd-single", step, (("z", z0), ("v", v0), ("y", y0)))


_Row = namedtuple("_Row", "solve steps condition calls single to_single", defaults=(None, None))

_TABLE = {
    "fb-dual": _Row(solve_fb_dual, ("gamma", "lam"), _lam_condition,
                    ((1, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1), 1), "pdfp"),
    "fb-pd": _Row(solve_fb_primal_dual, ("gamma", "sigma", "tau"), _sigma_tau_condition,
                  ((1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 1), 1), "condat-vu",
                  lambda c: replace(c, sigma=c.sigma / c.gamma, tau=c.tau * c.gamma / (1 + c.tau))),
    "tos-dual": _Row(solve_tos_dual, ("gamma", "lam"), _lam_condition,
                     ((1, 1, 1, 1, 1, 0), (0, 0, 1, 1, 0, 1), 0), "pd3o"),
    "tos-pd": _Row(solve_tos_primal_dual, ("gamma", "sigma", "tau"), _sigma_tau_condition,
                   ((1, 1, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1), 0), "tos-pd-single"),
    "pdfp": _Row(solve_pdfp, ("gamma", "lam"), _lam_condition, ((1, 1, 2, 2, 2, 1), (0,) * 6, 1)),
    "condat-vu": _Row(solve_condat_vu, ("sigma", "tau"), _condat_vu_condition,
                      ((1, 1, 2, 1, 1, 1), (0,) * 6, 1)),
    "pd3o": _Row(solve_pd3o, ("gamma", "lam"), _lam_condition, ((1, 1, 3, 2, 1, 1), (0,) * 6, 0)),
    "davis-yin": _Row(solve_davis_yin, ("gamma",), _identity_condition,
                      ((1, 1, 1, 0, 1, 1), (0,) * 6, 0)),
    "tos-pd-single": _Row(solve_tos_pd_single, ("gamma", "sigma", "tau"), _sigma_tau_condition,
                          ((1, 1, 2, 1, 1, 1), (0,) * 6, 0)),
}

#: solver id -> solve function, looked up when a cell runs, so a replaced entry is honoured
SOLVERS = {solver: row.solve for solver, row in _TABLE.items()}
