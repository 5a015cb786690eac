"""Spans recorded from outside the package, and the proxies that record them.

A span is one call across a layer boundary.  Spans are not kept one by one:
each is folded, when it ends, into an in-memory table keyed by
(scope, parent, name), where the scope is the nearest enclosing
``solvers.<id>`` span (or the top-level span), so per-solver counts survive
the aggregation.  A span's self time is its duration minus the durations of
the spans it directly caused.
"""

from time import perf_counter


class Tracer:
    def __init__(self):
        # frame: [name, scope, time spent in child spans]
        self._stack = [["", "", 0.0]]
        self._table = {}

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span called ``name`` and return its result."""
        parent = self._stack[-1]
        scope = name if name.startswith("solvers.") or len(self._stack) == 1 else parent[1]
        frame = [name, scope, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            parent[2] += dt
            row = self._table.get((scope, parent[0], name))
            if row is None:
                row = self._table[(scope, parent[0], name)] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dt
            row[2] += dt - frame[2]

    def rows(self):
        """The aggregated spans as dicts, one per (scope, parent, name)."""
        return [{"scope": s, "parent": p, "name": n, "calls": c, "total_s": t, "self_s": st}
                for (s, p, n), (c, t, st) in sorted(self._table.items())]


class _Proxy:
    """Delegates every attribute it does not trace to the wrapped object."""

    def __init__(self, target, tracer):
        self._target = target
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class OperatorProxy(_Proxy):
    """A linear map whose ``apply``/``adjoint_apply`` are spans
    ``operators.<name>`` and ``operators.<name>T``."""

    def __init__(self, op, tracer, name):
        super().__init__(op, tracer)
        self._fwd = f"operators.{name}"
        self._adj = f"operators.{name}T"

    def apply(self, x):
        return self._tracer.call(self._fwd, self._target.apply, x)

    def adjoint_apply(self, y):
        return self._tracer.call(self._adj, self._target.adjoint_apply, y)

    __call__ = apply


class ProxProxy(_Proxy):
    """A proximable function whose ``prox``, ``prox_conjugate`` and ``value``
    are spans ``proxfuncs.prox_<role>``, ``proxfuncs.prox_<role>conj`` and
    ``proxfuncs.value``."""

    def __init__(self, fn, tracer, role):
        super().__init__(fn, tracer)
        self._prox = f"proxfuncs.prox_{role}"
        self._conj = f"proxfuncs.prox_{role}conj"

    def prox(self, step, v):
        return self._tracer.call(self._prox, self._target.prox, step, v)

    def prox_conjugate(self, step, v):
        return self._tracer.call(self._conj, self._target.prox_conjugate, step, v)

    def value(self, x):
        return self._tracer.call("proxfuncs.value", self._target.value, x)


class SmoothProxy(_Proxy):
    """A smooth data-fit term whose ``gradient``/``value`` are spans
    ``smooth.gradient`` and ``smooth.value``."""

    def gradient(self, x):
        return self._tracer.call("smooth.gradient", self._target.gradient, x)

    def value(self, x):
        return self._tracer.call("smooth.value", self._target.value, x)


def instrument(problem, tracer):
    """Route every layer call a solver makes on ``problem`` through spans.

    The data-fit operator becomes ``A``, the penalty operator ``B``, g and h
    the prox roles ``g`` and ``h``, and ``problem.objective`` the span
    ``problems.objective``.  The proxies delegate to the real objects, so
    the arithmetic, and hence every output, is unchanged.
    """
    objective = problem.objective
    problem.f.op = OperatorProxy(problem.f.op, tracer, "A")
    problem.f = SmoothProxy(problem.f, tracer)
    problem.B = OperatorProxy(problem.B, tracer, "B")
    problem.g = ProxProxy(problem.g, tracer, "g")
    problem.h = ProxProxy(problem.h, tracer, "h")
    problem.objective = lambda x: tracer.call("problems.objective", objective, x)
