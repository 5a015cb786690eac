"""Benchmark harness CLI.

Subcommands:
  run CONFIG                    sweep solvers/presets over an experiment
  verify SUITE                  run property suites (prox|operators|equivalence|all)
  print-default-config NAME     emit the default config for an experiment

Configs are INI files with an [experiment] section, a [run] section, and an
optional [custom] section holding explicit step sizes for ``presets = custom``.
The [experiment] keys are the parameters of the experiment's instance builder
(with its signature defaults).  A malformed config is one with any other
section, [DEFAULT] included, a key that its section does not know, a sweep
in which two cells would write the same file (a repeated preset, solver id
or inner_iters value, or two eps values that format alike), an empty
solvers, presets, inner_iters or eps list, or text that is not valid INI.
The environment variable SPLITOPT_OUTPUT_DIR overrides the output directory.

Exit codes: 0 success; 1 malformed config; 2 solver divergence;
3 verification failure; 4 unwritable output path (probed before the first
solve, or found blocked mid-sweep); 5 unknown solver id (decided before the
instance is built); 6 invalid preset/solver pairing in a cell (decided for
every cell before anything is written, so before 4).

Each sweep cell (preset, solver, inner-iteration count, tolerance) writes a
trace CSV ``<experiment>_<solver>_J<j>_eps<eps>.csv`` in a per-preset
subdirectory and a ``summary.csv`` row, whose Iter reads MAXITER when the
solver hit its iteration cap without converging.  The old summary goes before
the first cell, so a sweep stopped part-way (exit 2 or 4) leaves the earlier
cells' CSVs and no summary.  Writes are atomic, reruns byte-identical.
"""

import argparse
import configparser
import dataclasses
import inspect
import itertools
import os
import sys
import tempfile

# the builders are module attributes that _EXPERIMENTS names
from .problems import build_ct_problem, build_fused_lasso, build_lrtv_problem  # noqa: F401
from .solvers import (SOLVERS, ConfigError, DivergenceError, SolverConfig, check_loop_control,
                      check_preset, check_solver, check_steps, preset_config)
from .verification import SUITES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_VERIFY = 3
EXIT_OUTPUT_DIR = 4
EXIT_UNKNOWN_SOLVER = 5
EXIT_BAD_PAIRING = 6

ENV_OUTPUT_DIR = "SPLITOPT_OUTPUT_DIR"

#: experiment name -> (name of its builder in this module, the [run] and
#: [custom] half of its default config).  The builder is looked up when the
#: experiment is built, so a replaced module attribute is honoured.
_EXPERIMENTS = {
    "fused-lasso": ("build_fused_lasso", """\
[run]
solvers = fb-dual, fb-pd, tos-dual, tos-pd
presets = type-I, type-II
inner_iters = 1
eps = 1e-4, 1e-8
max_outer = 5000
output_dir = results/fused-lasso
"""),
    "constrained-tv-ct": ("build_ct_problem", """\
[run]
solvers = fb-dual, fb-pd, tos-dual, tos-pd
presets = custom
inner_iters = 10
eps = 1e-4, 1e-6
max_outer = 20000
output_dir = results/constrained-tv-ct

[custom]
lambda = 0.125
sigma = 0.125
tau = 1.0
"""),
    "lrtv-sr": ("build_lrtv_problem", """\
[run]
solvers = fb-dual, fb-pd, tos-dual, tos-pd
presets = custom
inner_iters = 10
eps = 1e-6
max_outer = 100000
output_dir = results/lrtv-sr

[custom]
gamma = 0.1
lambda = 0.125
sigma = 0.125
tau = 1.0
"""),
}

_RUN_KEYS = ("solvers", "presets", "inner_iters", "eps", "max_outer", "output_dir")
#: [custom] key -> SolverConfig field
_CUSTOM_KEYS = {"gamma": "gamma", "lambda": "lam", "sigma": "sigma", "tau": "tau"}
#: SolverConfig's field defaults, taken by the loop controls a [run] section omits
_LOOP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}


def _builder(name):
    return globals()[_EXPERIMENTS[name][0]]


def _builder_defaults(name):
    params = inspect.signature(_builder(name)).parameters
    defaults = {key: p.default for key, p in params.items()}
    return {"seed": defaults.pop("seed"), **defaults}


#: experiment name -> its [experiment] keys (seed first) with their defaults
_EXPERIMENT_DEFAULTS = {name: _builder_defaults(name) for name in _EXPERIMENTS}


def _default_config(name):
    lines = ["[experiment]", f"name = {name}"]
    lines += [f"{key} = {value}" for key, value in _EXPERIMENT_DEFAULTS[name].items()]
    return "\n".join(lines) + "\n\n" + _EXPERIMENTS[name][1]


DEFAULT_CONFIGS = {name: _default_config(name) for name in _EXPERIMENTS}


def _fmt(value):
    return "" if value is None else f"{value:.17g}"


def _parse_list(raw, conv):
    items = [s.strip() for s in raw.replace(",", " ").split()]
    return [conv(s) for s in items if s]


def _loop_list(run, key, conv):
    return _parse_list(run[key], conv) if key in run else [_LOOP_DEFAULTS[key]]


def _check_keys(parser, section, known):
    unknown = sorted(set(parser[section]) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _read_config(path):
    # no default section: a [DEFAULT] is a section like any other, so it is rejected as unknown
    parser = configparser.ConfigParser(default_section=None)
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return _parse_config(parser)
    except configparser.Error as exc:  # a repeated key, no section header, bad interpolation
        raise ConfigError(str(exc)) from None


def _parse_config(parser):
    unknown = sorted(set(parser.sections()) - {"experiment", "run", "custom"})
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(f'[{s}]' for s in unknown)}")
    if "experiment" not in parser or "run" not in parser:
        raise ConfigError("config needs [experiment] and [run] sections")
    experiment, run = parser["experiment"], parser["run"]
    name = experiment.get("name", "").strip()
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    defaults = _EXPERIMENT_DEFAULTS[name]
    _check_keys(parser, "experiment", ["name", *defaults])
    _check_keys(parser, "run", _RUN_KEYS)
    custom = None
    if "custom" in parser:
        _check_keys(parser, "custom", _CUSTOM_KEYS)
        custom = {field: float(parser["custom"][key])
                  for key, field in _CUSTOM_KEYS.items() if key in parser["custom"]}
    cfg = {
        "experiment": name,
        # each value takes the type of the builder's default
        "params": {key: type(value)(experiment[key]) for key, value in defaults.items()
                   if key in experiment},
        "solvers": _parse_list(run.get("solvers", ""), str),
        "presets": _parse_list(run.get("presets", "type-II"), str),
        "inner_iters": _loop_list(run, "inner_iters", int),
        "eps": _loop_list(run, "eps", float),
        "max_outer": run.getint("max_outer", fallback=_LOOP_DEFAULTS["max_outer"]),
        "output_dir": run.get("output_dir", "results"),
        "custom": custom,
    }
    for key in ("solvers", "presets", "inner_iters", "eps"):
        if not cfg[key]:
            raise ConfigError(f"[run] {key} list is empty")
    for key in ("inner_iters", "eps"):
        for value in cfg[key]:
            check_loop_control(key, value)
    check_loop_control("max_outer", cfg["max_outer"])
    for preset in cfg["presets"]:
        check_preset(preset)
        if preset == "custom" and cfg["custom"] is None:
            raise ConfigError("preset 'custom' needs a [custom] section")
    # cells are named by preset, solver id, J and eps formatted with :g
    for key, items in (("presets", cfg["presets"]), ("solvers", cfg["solvers"]),
                       ("inner_iters", cfg["inner_iters"]),
                       ("eps", [f"{e:g}" for e in cfg["eps"]])):
        if len(set(items)) < len(items):
            raise ConfigError(f"[run] {key} repeats a value, so two sweep cells "
                              "would write the same file")
    return cfg


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_csv(trace):
    with_ssim = trace.final_record.ssim is not None
    lines = ["iter,objective,rel_change,snr,nmsd" + (",ssim" if with_ssim else "")]
    for r in trace.records:
        row = [str(r.k), _fmt(r.objective), _fmt(r.rel_change), _fmt(r.snr), _fmt(r.nmsd)]
        if with_ssim:
            row.append(_fmt(r.ssim))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_run(args):
    try:
        cfg = _read_config(args.config)
        for solver_id in cfg["solvers"]:  # before the build, which can be costly
            try:
                check_solver(solver_id)
            except ConfigError as exc:
                print(exc, file=sys.stderr)
                return EXIT_UNKNOWN_SOLVER
        problem = _builder(cfg["experiment"])(**cfg["params"])
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # every cell is checked before the output directory is touched
    cells = []
    for preset, solver_id, inner, eps in itertools.product(
            cfg["presets"], cfg["solvers"], cfg["inner_iters"], cfg["eps"]):
        label = f"{preset} {solver_id} J={inner} eps={eps:g}"
        try:
            solver_cfg = preset_config(problem, preset, solver_id, inner_iters=inner, eps=eps,
                                       max_outer=cfg["max_outer"],
                                       **(cfg["custom"] if preset == "custom" else {}))
            check_steps(solver_id, problem, solver_cfg)
        except ConfigError as exc:
            print(f"invalid preset/solver pairing in cell {label}: {exc}", file=sys.stderr)
            return EXIT_BAD_PAIRING
        cells.append((preset, solver_id, inner, eps, label, solver_cfg))

    out_dir = os.environ.get(ENV_OUTPUT_DIR) or cfg["output_dir"]
    summary_path = os.path.join(out_dir, "summary.csv")
    summary_lines = ["experiment,preset,solver,inner_iters,eps,iters,objective,nmsd,snr,ssim"]
    try:  # the probe, then every cell's writes: an OSError is exit 4
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.unlink(probe)
        if os.path.exists(summary_path):  # a sweep that stops part-way leaves no stale summary
            os.unlink(summary_path)
        for preset, solver_id, inner, eps, label, solver_cfg in cells:
            try:
                trace = SOLVERS[solver_id](problem, solver_cfg)
            except DivergenceError as exc:
                print(f"divergence: {exc}", file=sys.stderr)
                return EXIT_DIVERGENCE
            preset_dir = os.path.join(out_dir, preset)
            os.makedirs(preset_dir, exist_ok=True)
            fname = f"{cfg['experiment']}_{solver_id}_J{inner}_eps{eps:g}.csv"
            _atomic_write(os.path.join(preset_dir, fname), _trace_csv(trace))
            last = trace.final_record
            iters = str(trace.total_outer) if trace.converged else "MAXITER"
            summary_lines.append(",".join([
                cfg["experiment"], preset, solver_id, str(inner), f"{eps:g}", iters,
                _fmt(last.objective), _fmt(last.nmsd), _fmt(last.snr), _fmt(last.ssim),
            ]))
            print(f"{label}: iters={iters} objective={last.objective:.9g}")
        _atomic_write(summary_path, "\n".join(summary_lines) + "\n")
    except OSError as exc:
        print(f"output directory {out_dir!r} is not writable: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_DIR
    return EXIT_OK


def cmd_verify(args):
    results, ok = run_suite(args.suite)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_print_default_config(args):
    print(DEFAULT_CONFIGS[args.experiment], end="")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitopt",
        description="Benchmark harness for operator-splitting solvers of f + g + h(Bx).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep described by an INI config file")
    p_run.add_argument("config", help="path to the INI config")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run property suites and print PASS/FAIL lines")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.set_defaults(fn=cmd_verify)

    p_cfg = sub.add_parser("print-default-config", help="emit the default config for an experiment")
    p_cfg.add_argument("experiment", choices=sorted(DEFAULT_CONFIGS))
    p_cfg.set_defaults(fn=cmd_print_default_config)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
