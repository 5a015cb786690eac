"""splitopt benchmark: time-to-tolerance of the nested splitting solvers.

    python3 perfbench/run.py --workload {lasso-sweep,ct-tv,lrtv-sr} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each pass runs the workload's sweep through
``splitopt run`` in a fresh worker process (``worker.py``), one pass after
another (a closed loop with one caller).  Every run makes at least two
rounds of passes; after that another round starts only while the longest
round so far still fits in S seconds.  The worker processes get their BLAS thread
count pinned to the number of CPUs this process may use.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: the median over the run's passes of every time and of memory, and
the exact iteration count.  With ``--trace 1`` the run alternates
untraced and traced passes and the last line carries the per-layer metrics
of the traced passes; ``trace.overhead_s`` is the median traced minus the
median untraced ``wall_s``.  ``attempted``/``failed`` count sweep cells over every
pass; a cell fails if its solver raises, the CLI exits non-zero, or the
workload's gate rejects its summary row.  The run also fails if two passes
of one seed write different ``summary.csv`` bytes, or if two traced passes
disagree on a call count.  The full record, with the environment header,
the per-solver calls per outer iteration and every pass, is written to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.  The exit code is 0
when every cell passed, 1 when one failed and 2 when the benchmark itself
could not run.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
from statistics import median, median_low
from time import perf_counter

from workloads import SOLVER_IDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "splitopt")

#: rounds (an untraced pass, plus a traced one with --trace 1) every run makes
MIN_ROUNDS = 2
#: no pass starts unless it can end before this, so a run ends within 180 s
HARD_LIMIT_S = 170.0
OPERATOR_LAYERS = ("A", "AT", "B", "BT")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "outer_iters": "count",
    "ms_per_outer_iter": "ms", "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a measurement."""


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _child_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("SPLITOPT_OUTPUT_DIR", None)
    return env


def _run_pass(workload, seed, trace, env, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a {workload} pass ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _source_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(SRC):
        dirnames.sort()
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(args, threads, first_pass):
    import numpy  # imported here only for its version and build record

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": _cpus(), "blas_threads_pinned": threads,
        "blas_runtime": first_pass["openblas"],
        "blas_build": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(), "numpy": first_pass["numpy"],
        "machine": platform.machine(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def _end_to_end(passes):
    # Every metric is the median over the run's passes.  Contention from outside
    # slows a pass by up to about 2x for seconds to minutes at a time.  On
    # lrtv-sr the median pass spread less from run to run than the fastest
    # pass; on ct-tv neither was steadier.  setup_s is the one cold set-up
    # each pass makes.
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median([p["setup"]["setup_s"] for p in passes]),
        "solve_s": median([p["solve_s"] for p in passes]),
        "outer_iters": median_low([p["outer_iters"] for p in passes]),
        "ms_per_outer_iter": median([1e3 * p["solve_s"] / max(p["outer_iters"], 1)
                                     for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def _span_sum(p, key, name=None, scope=None, prefix=None):
    return sum(r[key] for r in p["spans"]
               if (name is None or r["name"] == name)
               and (scope is None or r["scope"] == scope)
               and (prefix is None or r["name"].startswith(prefix)))


def _counts(p):
    """Calls per (scope, layer) of one traced pass: the part that must repeat exactly."""
    return sorted((r["scope"], r["parent"], r["name"], r["calls"]) for r in p["spans"])


def _calls_per_iter(p):
    table = {}
    for sid in sorted({c["solver"] for c in p["cells"]}):
        iters = sum(c.get("outer_iters", 0) for c in p["cells"] if c["solver"] == sid)
        scope = f"solvers.{sid}"
        layers = sorted({r["name"] for r in p["spans"] if r["scope"] == scope} - {scope})
        table[sid] = {"outer_iters": iters, "per_iter": {
            layer: _span_sum(p, "calls", name=layer, scope=scope) / max(iters, 1)
            for layer in layers}}
    return table


def _layers_of_pass(p):
    m = {}
    for op in OPERATOR_LAYERS:
        m[f"operators.{op}.calls"] = _span_sum(p, "calls", name=f"operators.{op}")
        m[f"operators.{op}.s"] = _span_sum(p, "self_s", name=f"operators.{op}")
    m["operators.A.calls_per_iter"] = m["operators.A.calls"] / max(p["outer_iters"], 1)
    for prox in ("prox_g", "prox_hconj"):
        m[f"proxfuncs.{prox}.calls"] = _span_sum(p, "calls", name=f"proxfuncs.{prox}")
        m[f"proxfuncs.{prox}.s"] = _span_sum(p, "self_s", name=f"proxfuncs.{prox}")
    m["proxfuncs.value.s"] = _span_sum(p, "self_s", name="proxfuncs.value")
    m["smooth.gradient.calls"] = _span_sum(p, "calls", name="smooth.gradient")
    m["smooth.gradient.s"] = _span_sum(p, "self_s", name="smooth.gradient")
    m["smooth.value.s"] = _span_sum(p, "self_s", name="smooth.value")
    m["problems.objective.calls"] = _span_sum(p, "calls", name="problems.objective")
    m["problems.objective.s"] = _span_sum(p, "self_s", name="problems.objective")
    for sid in SOLVER_IDS:
        cells = [c for c in p["cells"] if c["solver"] == sid]
        m[f"solvers.{sid}.solve_s"] = sum(c["solve_s"] for c in cells)
        m[f"solvers.{sid}.outer_iters"] = sum(c.get("outer_iters", 0) for c in cells)
    m["solvers.driver_self_s"] = _span_sum(p, "self_s", prefix="solvers.")
    m["cli.self_s"] = _span_sum(p, "self_s", name="cli.main")
    m["cli.bytes_written"] = p["bytes_written"]
    m["cli.files_written"] = p["files_written"]
    return m


def _per_layer(traced, untraced):
    per_pass = [_layers_of_pass(p) for p in traced]
    # counts are exact, so they take an observed value, never an average of two
    m = {name: (median if _unit(name) == "s" else median_low)([pp[name] for pp in per_pass])
         for name in per_pass[0]}
    m["problems.build_s"] = median([p["setup"]["build_s"] for p in traced])
    m["smooth.lipschitz_s"] = median([p["setup"]["lipschitz_s"] for p in traced])
    m["operators.norm_s"] = median([p["setup"]["norm_s"] for p in traced])
    m["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                             - median([p["wall_s"] for p in untraced]))
    return m


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def _judge(passes):
    """Count attempted and failed cells, and the run-level checks."""
    attempted = sum(len(p["verdict"]) for p in passes)
    failed = sum(1 for p in passes for r in p["verdict"].values() if r)
    problems = sorted({f"{c}: {r}" for p in passes for c, r in p["verdict"].items() if r})
    digests = {p["summary_sha256"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed wrote {len(digests)} different summary.csv files")
    traced = [p for p in passes if p["trace"]]
    if any(_counts(p) != _counts(traced[0]) for p in traced[1:]):
        problems.append("two traced passes disagree on a call count")
    return attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    try:
        if not os.path.isdir(SRC):
            raise BenchmarkError(f"no splitopt sources at {os.path.relpath(SRC, ROOT)}")
        threads = _cpus()
        env = _child_env(threads)
        passes = []
        kinds = (False, True) if args.trace else (False,)
        longest = 0.0
        for rounds in itertools.count(1):
            t0 = perf_counter()
            for trace in kinds:
                timeout = HARD_LIMIT_S + 5.0 - (perf_counter() - start)
                passes.append(_run_pass(args.workload, args.seed, trace, env, timeout))
            longest = max(longest, perf_counter() - t0)
            elapsed = perf_counter() - start
            if elapsed + longest > HARD_LIMIT_S or (
                    rounds >= MIN_ROUNDS and elapsed + longest > args.seconds):
                break
        environment = _environment(args, threads, passes[0])
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    attempted, failed, problems = _judge(passes)
    if args.trace:
        values = _per_layer(traced, untraced)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    else:
        values = _end_to_end(untraced)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = not problems

    record = {
        "environment": environment,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "problems": problems,
        "metrics": metrics,
        "calls_per_iter": _calls_per_iter(traced[0]) if traced else None,
        "passes": passes,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_share {failed / attempted:g} ({failed}/{attempted} cells)")
    for line in problems:
        print(f"FAILED {line}")
    print(f"record {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
