"""One benchmark pass: a workload's sweep through ``splitopt run``, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

The pass writes the workload's INI into a scratch directory under
``perfbench/.work``, points ``SPLITOPT_OUTPUT_DIR`` there and calls
``splitopt.cli.main(["run", ini])``.  It times that call, the ``build_*``
function the CLI calls (plus the lazy spectral constants it forces) and
each ``SOLVERS`` entry the CLI calls.  With TRACE = 1 the built problem's
layers are also replaced by timing proxies (see ``tracing.py``).  The last
line of standard output is the pass as one JSON object.
"""

import csv
import functools
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from tracing import Tracer, instrument  # noqa: E402
from workloads import check_summary, config_text, cell_key  # noqa: E402


def _setup(tracer, build):
    """Build the instance and force its lazy L and ||B||; return it with the timings."""
    t0 = perf_counter()
    problem = tracer.call("problems.build", build)
    t1 = perf_counter()
    tracer.call("smooth.lipschitz", lambda: problem.f.lipschitz)
    t2 = perf_counter()
    tracer.call("operators.norm", problem.exact_b_norm)
    t3 = perf_counter()
    return problem, {"setup_s": t3 - t0, "build_s": t1 - t0,
                     "lipschitz_s": t2 - t1, "norm_s": t3 - t2}


_SETUP_KEYS = ("setup_s", "build_s", "lipschitz_s", "norm_s")


def _openblas():
    """Thread count and configuration the loaded OpenBLAS reports, if it can be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        # the symbol names of numpy's bundled OpenBLAS, then of a system OpenBLAS
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"threads": threads(), "config": config().decode()}
    return None


def run_pass(workload, seed, trace):
    import numpy
    from splitopt import cli

    text = config_text(workload, seed)
    tracer = Tracer()
    setup_samples, cells = [], []

    def timed_build(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            problem, sample = tracer.call("setup", _setup, tracer,
                                         functools.partial(build, *args, **kwargs))
            setup_samples.append(sample)
            if trace:
                instrument(problem, tracer)
            return problem
        return wrapper

    def timed_solver(solver_id, solve):
        @functools.wraps(solve)
        def wrapper(problem, config, *args, **kwargs):
            cell = {"cell": cell_key(config.param_preset, solver_id, config.inner_iters,
                                     config.eps),
                    "solver": solver_id}
            t0 = perf_counter()
            try:
                result = tracer.call(f"solvers.{solver_id}", solve, problem, config,
                                     *args, **kwargs)
            except Exception as exc:
                cell.update(solve_s=perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
                cells.append(cell)
                raise
            cell.update(solve_s=perf_counter() - t0, outer_iters=result.total_outer,
                        converged=result.converged)
            cells.append(cell)
            return result
        return wrapper

    for name in [n for n in vars(cli) if n.startswith("build_")]:
        setattr(cli, name, timed_build(getattr(cli, name)))
    for solver_id, solve in list(cli.SOLVERS.items()):
        cli.SOLVERS[solver_id] = timed_solver(solver_id, solve)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="pass-", dir=os.path.join(HERE, ".work"))
    try:
        ini = os.path.join(work, "workload.ini")
        with open(ini, "w") as fh:
            fh.write(text)
        out_dir = os.path.join(work, "out")
        os.environ[cli.ENV_OUTPUT_DIR] = out_dir
        error = None
        t0, c0 = perf_counter(), process_time()
        try:
            exit_code = tracer.call("cli.main", cli.main, ["run", ini])
        except SystemExit as exc:
            exit_code = exc.code
        except Exception:
            exit_code, error = None, traceback.format_exc()
        wall_s, cpu_s = perf_counter() - t0, process_time() - c0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        files_written = bytes_written = 0
        for dirpath, _, names in os.walk(out_dir):
            files_written += len(names)
            bytes_written += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
        rows, digest = [], None
        summary = os.path.join(out_dir, "summary.csv")
        if os.path.exists(summary):
            with open(summary, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            rows = list(csv.DictReader(raw.decode().splitlines()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not setup_samples and error is None:
        error = "the CLI called no build_* function of splitopt.cli; the set-up hook is stale"
    verdict = check_summary(workload, text, rows)
    if exit_code != 0 or error is not None:
        verdict = dict.fromkeys(verdict, error or f"splitopt run exited with code {exit_code}")
    for cell in cells:
        if "error" in cell and cell["cell"] in verdict:
            verdict[cell["cell"]] = cell["error"]

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "exit_code": exit_code, "error": error,
        "wall_s": wall_s, "cpu_s": cpu_s,
        # a sweep builds its instance once; summing keeps any further build in the pass
        "setup": {k: sum(s[k] for s in setup_samples) for k in _SETUP_KEYS},
        "solve_s": sum(c["solve_s"] for c in cells),
        "outer_iters": sum(c.get("outer_iters", 0) for c in cells),
        "peak_rss_mb": peak_rss_mb,
        "files_written": files_written, "bytes_written": bytes_written,
        "summary_sha256": digest,
        "cells": cells,
        "verdict": verdict,
        "spans": tracer.rows(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
    }


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), int(argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_pass(workload, seed, bool(trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
