#!/usr/bin/env python3
"""Mutation check: does the test suite notice one-line changes to the step rules?

Usage: tools/mutants.py [REF]        (REF defaults to HEAD)

REF is extracted with `git archive` into a temporary directory, so nothing is
written under .git or in the working tree.  For each entry of MUTANTS, a fresh
copy of that tree gets the entry's one edit, and the test suite runs on it as
`python -m pytest -x -q`, one pytest process at a time.  The unit-test modules
run first and the whole-trajectory ones (`test_fingerprint.py`,
`test_acceptance.py`) last, so a mutant is named by the test that pins the
rule it breaks, not by a trajectory that merely moved.  The script prints
`killed` and the first failing test, or `survived`, per entry.  It exits 1 when
a real mutant survives or when the no-op control is killed (then the suite
fails on REF itself), and 2, before running anything, when an entry's old text
does not occur exactly once in its file.  Killed mutants stop at their first
failure; a survivor runs the whole suite, about 50 s on a 2-core machine.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SOLVERS = "src/splitopt/solvers.py"

#: test modules that compare whole trajectories, run after the unit tests
LAST = ("test_fingerprint.py", "test_acceptance.py")

#: (name, file, old text, new text); the first entry is the no-op control
MUTANTS = [
    ("control: a comment reworded", SOLVERS,
     "# an infinite step or tolerance cannot be iterated with",
     "# an infinite step or tolerance cannot be iterated upon"),
    ("Condat-Vu margin L/4", SOLVERS,
     "margin > problem.f.lipschitz / 2.0", "margin > problem.f.lipschitz / 4.0"),
    ("lam bound <=", SOLVERS,
     "not config.lam * lam_max < 2.0", "not config.lam * lam_max <= 2.0"),
    ("sigma tau bound >", SOLVERS, "if not product < 1.0:", "if not product <= 1.0:"),
    ("gamma bound <=", SOLVERS,
     "not config.gamma * lip < 2.0", "not config.gamma * lip <= 2.0"),
    ("gamma bound 2.2/L", SOLVERS,
     "not config.gamma * lip < 2.0", "not config.gamma * lip < 2.2"),
    ("gamma bound only where L > 0", SOLVERS,
     "and not config.gamma * lip < 2.0", "and lip > 0 and not config.gamma * lip < 2.0"),
    ("lam bound only where lambda_max > 0", SOLVERS,
     "if not config.lam * lam_max < 2.0", "if lam_max > 0 and not config.lam * lam_max < 2.0"),
    ("sigma-tau bound not negated", SOLVERS, "if not product < 1.0:", "if product >= 1.0:"),
    ("blow-up factor 1e13", SOLVERS, "obj > 1e12 * obj_ref", "obj > 1e13 * obj_ref"),
    ("stop at rel < eps", SOLVERS, "if rel <= config.eps:", "if rel < config.eps:"),
    ("rel_change divided by ||x_{k+1}||", SOLVERS,
     "max(np.linalg.norm(x_prev), 1e-30)", "max(np.linalg.norm(x), 1e-30)"),
    ("J - 1 dual inner steps", SOLVERS,
     "for _ in range(J):\n            y = h.prox_conjugate(s,",
     "for _ in range(J - 1):\n            y = h.prox_conjugate(s,"),
    ("tos-pd-single dual carried as gamma y", SOLVERS,
     "v_new = (v + tau * (u - gamma * B.adjoint_apply(y))) / (1.0 + tau)\n"
     "        y = h.prox_conjugate(s, y + s * B.apply(2.0 * v_new - v))",
     "v_new = (v - tau * B.adjoint_apply(y) + tau * u) / (1.0 + tau)\n"
     "        y = gamma * h.prox_conjugate(s, y / gamma + s * B.apply(2.0 * v_new - v))"),
    ("v0 from zeros", SOLVERS,
     "value = state[0] if state and key != \"y\" else np.zeros(size)",
     "value = np.zeros(size)"),
    ("type-I lam 1.8", SOLVERS, "\"lam\": 1.9 / lam_max", "\"lam\": 1.8 / lam_max"),
    ("preset margin dropped", SOLVERS,
     "problem.B.norm_sq * (1.0 + _PRESET_MARGIN)", "problem.B.norm_sq"),
    ("preset lambda_max read unchecked", SOLVERS,
     "constant(\"lambda_max(B B^T) (pass the steps under custom)\",\n                           "
     "problem.b_lam_max or problem.B.norm_sq * (1.0 + _PRESET_MARGIN))",
     "(problem.b_lam_max or problem.B.norm_sq * (1.0 + _PRESET_MARGIN))"),
    ("preset admits a subnormal constant", SOLVERS,
     "if positive(name, value, ConfigError) < np.finfo(float).tiny:",
     "if positive(name, value, ConfigError) < 0.0:"),
    ("observer called with k - 1", SOLVERS,
     "config.observe(k, x, named)", "config.observe(k - 1, x, named)"),
    ("preset map not applied", SOLVERS,
     "return maps[0](config) if maps and preset != \"custom\" else config", "return config"),
    ("preset map applied to custom steps", SOLVERS,
     "if maps and preset != \"custom\" else", "if maps else"),
    ("nuclear snap 1e-9", "src/splitopt/proxfuncs.py",
     "s[s < 1e-12] = 0.0", "s[s < 1e-9] = 0.0"),
    ("nuclear prox lets a non-finite point reach the SVD", "src/splitopt/proxfuncs.py",
     "        try:\n"
     "            u, s, vt = np.linalg.svd(m, full_matrices=False)\n"
     "        except np.linalg.LinAlgError:\n"
     "            if np.all(np.isfinite(m)):\n"
     "                raise\n"
     "            return np.full(m.size, np.nan)  # a non-finite point: the solver names the step\n",
     "        u, s, vt = np.linalg.svd(m, full_matrices=False)\n"),
    ("fb-dual's g-prox count J instead of J + 1", SOLVERS,
     "((1, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1), 1), \"pdfp\")",
     "((1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1), 1), \"pdfp\")"),
    ("no MAXITER marker", "src/splitopt/cli.py",
     "iters = str(trace.total_outer) if trace.converged else \"MAXITER\"",
     "iters = str(trace.total_outer)"),
    ("SSIM c2 0.04", "src/splitopt/metrics.py",
     "(0.03 * dynamic_range) ** 2", "(0.04 * dynamic_range) ** 2"),
    ("constancy tested on the variance", "src/splitopt/metrics.py",
     "if self.x.min() == self.x.max():", "if self.var == 0.0:"),
    ("power-iteration tolerance 1e-6", "src/splitopt/operators.py",
     "<= 1e-8 * max(lam_new, 1e-300)", "<= 1e-6 * max(lam_new, 1e-300)"),
    ("adjoint row NaN-blind", "src/splitopt/verification.py",
     "worst = float(np.maximum(worst, abs(float(bx @ y - x @ bty)) / scale))",
     "worst = float(max(worst, abs(float(bx @ y - x @ bty)) / scale))"),
    ("a raising suite escapes run_suite", "src/splitopt/verification.py",
     "except Exception as exc:", "except ArithmeticError as exc:"),
]


def first_failure(output):
    """The first FAILED or ERROR line of pytest's short summary, without its message."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "(no failing test named; see the pytest output)"


def run(tree, path, old, new):
    """Apply one edit to a copy of ``tree``, run the suite there; return (killed, detail)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "tree")
        shutil.copytree(tree, copy)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        modules = sorted(copy.glob("tests/test_*.py"), key=lambda m: (m.name in LAST, m.name))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider", *map(str, modules)],
                              cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return False, ""
    return True, first_failure(done.stdout)


def main(argv):
    ref = argv[1] if len(argv) > 1 else "HEAD"
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "ref")
        tree.mkdir()
        archive = subprocess.run(["git", "-C", root, "archive", ref], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        counts = {name: (tree / path).read_text().count(old) for name, path, old, _ in MUTANTS}
        bad = {name: count for name, count in counts.items() if count != 1}
        for name, count in bad.items():
            print(f"refused: the old text of {name!r} occurs {count} times, not once")
        if bad:
            return 2
        failed = False
        for i, (name, path, old, new) in enumerate(MUTANTS):
            killed, detail = run(tree, path, old, new)
            print(f"{'killed' if killed else 'survived':8} {name}{': ' + detail if killed else ''}",
                  flush=True)
            failed |= killed if i == 0 else not killed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
