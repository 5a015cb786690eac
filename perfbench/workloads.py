"""The benchmark's workloads: one INI sweep each, and the correctness gate on its summary.

Each workload is a sweep the ``splitopt run`` CLI executes from an INI file.
The experiment keys mirror the package's default configs; they are pinned
here so a change to those defaults cannot silently change the workload.

Every workload solves the desk instance of experiment seed 0, the instance
acceptance criteria 5, 7 and 8 are stated on; the workload seed shuffles the
order of the solver list, and with it the order in which the cells run.
Seeded instances were measured and rejected.  Across experiment seeds 0-19,
lrtv-sr needs 1.8k-12.9k outer iterations to reach tolerance, so time to
tolerance would spread by more than any usable bound.  The gates' quality
windows also hold for the desk instances only: fused-lasso seeds 15 and 19
reach 39.6 and 39.9 dB SNR, and lrtv-sr seeds 8 and 10 reach SSIM 0.856
and 0.897.  In each of those cases all four solvers still agree on the minimizer,
so the window measures the model on that draw, not the solvers.

A gate takes the rows of the ``summary.csv`` the CLI wrote and returns the
cells that fail it, each with a reason.  The tolerances are those of the
package's acceptance criteria 5, 7 and 8.
"""

import configparser
import math
import random

_FUSED_LASSO = """\
[experiment]
name = fused-lasso
seed = 0
m = 100
n = 200
mu1 = 0.2
mu2 = 0.8
noise_var = 0.01

[run]
solvers = {solvers}
presets = type-I, type-II
inner_iters = 1
eps = 1e-4, 1e-8
max_outer = 5000
output_dir = results/fused-lasso
"""

# eps = 1e-4 rather than the default 1e-6 keeps one pass near 17 s on two
# cores; the calls per outer iteration do not depend on eps.
_CT_TV = """\
[experiment]
name = constrained-tv-ct
seed = 0
img_side = 64
views = 20
rays = 96
mu = 0.5
noise_var = 0.01
tv_kind = iso

[run]
solvers = {solvers}
presets = custom
inner_iters = 10
eps = 1e-4
max_outer = 20000
output_dir = results/constrained-tv-ct

[custom]
lambda = 0.125
sigma = 0.125
tau = 1.0
"""

_LRTV_SR = """\
[experiment]
name = lrtv-sr
seed = 0
rows = 32
cols = 32
blur_sigma = 1.0
factor = 2
lambda1 = 0.01
lambda2 = 0.01

[run]
solvers = {solvers}
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
"""


def _rel_spread(values):
    return (max(values) - min(values)) / min(values)


def _spread_failures(rows, column, limit, relative, what):
    if not rows:
        return []
    values = [float(r[column]) for r in rows]
    spread = _rel_spread(values) if relative else max(values) - min(values)
    if spread < limit:
        return []
    return [(r["cell"], f"{what} spread {spread:.3g} >= {limit:g}") for r in rows]


def _not_converged(rows):
    return [(r["cell"], "MAXITER") for r in rows if r["iters"] == "MAXITER"]


def gate_lasso_sweep(rows):
    """Type-II cells and the type-I primal-dual cells converge; at eps = 1e-8
    their objectives agree within 1e-6 relative and every SNR lies in
    [40, 50] dB.  The type-I dual cells stall at MAXITER at J = 1, which is
    the expected outcome (acceptance criterion 6), not a failure."""
    must = [r for r in rows if r["preset"] == "type-II" or r["solver"] in ("fb-pd", "tos-pd")]
    failures = _not_converged(must)
    tight = [r for r in must if float(r["eps"]) == 1e-8]
    failures += [(r["cell"], f"snr {float(r['snr']):.3f} dB outside [40, 50]")
                 for r in tight if not 40.0 <= float(r["snr"]) <= 50.0]
    failures += _spread_failures(tight, "objective", 1e-6, True, "objective")
    return failures


def gate_ct_tv(rows):
    """All cells converge; objectives agree within 1e-5 relative and SNRs within 0.1 dB."""
    return (_not_converged(rows)
            + _spread_failures(rows, "objective", 1e-5, True, "objective")
            + _spread_failures(rows, "snr", 0.1, False, "snr"))


def gate_lrtv_sr(rows):
    """All cells converge; NMSDs agree within 1e-4 and every SSIM is at least 0.9."""
    failures = _not_converged(rows) + _spread_failures(rows, "nmsd", 1e-4, False, "nmsd")
    failures += [(r["cell"], f"ssim {float(r['ssim']):.4f} < 0.9")
                 for r in rows if not float(r["ssim"]) >= 0.9]
    return failures


WORKLOADS = {
    "lasso-sweep": (_FUSED_LASSO, gate_lasso_sweep),
    "ct-tv": (_CT_TV, gate_ct_tv),
    "lrtv-sr": (_LRTV_SR, gate_lrtv_sr),
}


SOLVER_IDS = ("fb-dual", "fb-pd", "tos-dual", "tos-pd")


def config_text(workload, seed):
    """The INI text of ``workload`` for workload seed ``seed``."""
    solvers = list(SOLVER_IDS)
    random.Random(seed).shuffle(solvers)
    return WORKLOADS[workload][0].format(solvers=", ".join(solvers))


def cell_key(preset, solver, inner_iters, eps):
    return f"{preset}/{solver}/J{int(inner_iters)}/eps{float(eps):g}"


def expected_cells(text):
    """Every sweep cell the INI asks for, in the CLI's loop order."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    run = parser["run"]

    def items(key):
        return [s for s in run[key].replace(",", " ").split() if s]

    return [cell_key(p, s, j, e)
            for p in items("presets") for s in items("solvers")
            for j in items("inner_iters") for e in items("eps")]


def check_summary(workload, text, rows):
    """Map every expected cell to None (passed) or the reason it failed.

    ``rows`` are the summary.csv rows as dicts.  A cell missing from the
    summary failed because the sweep stopped before it; a cell whose numbers
    are not finite failed outright; the rest face the workload's gate.
    """
    by_cell = {}
    for r in rows:
        r = dict(r, cell=cell_key(r["preset"], r["solver"], r["inner_iters"], r["eps"]))
        by_cell[r["cell"]] = r
    verdict = {c: None if c in by_cell else "missing from summary.csv" for c in expected_cells(text)}
    present = [r for c, r in by_cell.items() if c in verdict]
    for r in present:
        if not math.isfinite(float(r["objective"])):
            verdict[r["cell"]] = "non-finite objective"
    for cell, reason in WORKLOADS[workload][1](present):
        if verdict[cell] is None:
            verdict[cell] = reason
    return verdict
