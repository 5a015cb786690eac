"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test runs every workload twice (about two minutes on two cores).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import Tracer
from workloads import WORKLOADS, check_summary, config_text, expected_cells

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _traced_pass(workload):
    # call counts do not depend on the BLAS thread count; one thread keeps the test light
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workload, "0", "1"],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_agree_on_every_call_count(workload):
    first, second = _traced_pass(workload), _traced_pass(workload)
    assert all(r is None for r in first["verdict"].values())
    counts = [sorted((r["scope"], r["parent"], r["name"], r["calls"]) for r in p["spans"])
              for p in (first, second)]
    assert counts[0] == counts[1]
    assert first["summary_sha256"] == second["summary_sha256"]
    # every layer is called a whole number of times per outer iteration
    for sid in {c["solver"] for c in first["cells"]}:
        iters = sum(c["outer_iters"] for c in first["cells"] if c["solver"] == sid)
        for r in first["spans"]:
            if r["scope"] == f"solvers.{sid}" and r["name"] != r["scope"]:
                assert r["calls"] % iters == 0, (sid, r)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("solvers.x", lambda: [tracer.call("operators.A", sum, range(10_000))
                                      for _ in range(3)])
    rows = {r["name"]: r for r in tracer.rows()}
    parent, child = rows["solvers.x"], rows["operators.A"]
    assert child["calls"] == 3 and child["scope"] == "solvers.x"
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"], abs=1e-9)


def _rows(text, **overrides):
    rows = []
    for cell in expected_cells(text):
        preset, solver, j, eps = cell.split("/")
        row = {"preset": preset, "solver": solver, "inner_iters": j[1:], "eps": eps[3:],
               "iters": "100", "objective": "10.0", "nmsd": "0.005", "snr": "45.0",
               "ssim": "0.95"}
        row.update(overrides.get(cell, {}))
        rows.append(row)
    return rows


def test_lasso_gate_accepts_expected_maxiter_and_rejects_the_rest():
    text = config_text("lasso-sweep", 0)
    ok = _rows(text, **{"type-I/fb-dual/J1/eps1e-08": {"iters": "MAXITER"}})
    assert not any(check_summary("lasso-sweep", text, ok).values())
    bad = _rows(text, **{"type-II/fb-dual/J1/eps1e-08": {"iters": "MAXITER"},
                         "type-II/tos-pd/J1/eps1e-08": {"snr": "39.5"}})
    bad = [r for r in bad if (r["preset"], r["solver"], r["eps"]) != ("type-I", "fb-pd", "0.0001")]
    verdict = check_summary("lasso-sweep", text, bad)
    failed = {c for c, r in verdict.items() if r}
    assert failed == {"type-II/fb-dual/J1/eps1e-08", "type-II/tos-pd/J1/eps1e-08",
                      "type-I/fb-pd/J1/eps0.0001"}


def test_spread_gates_fail_every_cell_of_the_group():
    text = config_text("ct-tv", 0)
    rows = _rows(text, **{"custom/fb-dual/J10/eps0.0001": {"objective": "10.001"}})
    assert all(check_summary("ct-tv", text, rows).values())
    text = config_text("lrtv-sr", 0)
    rows = _rows(text, **{"custom/tos-pd/J10/eps1e-06": {"ssim": "0.85"}})
    assert [c for c, r in check_summary("lrtv-sr", text, rows).items() if r] == \
        ["custom/tos-pd/J10/eps1e-06"]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "tracing.py", "workloads.py"):
        shutil.copy(os.path.join(HERE, name), bench)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ct-tv", "--seed", "0",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0 and out.stdout == ""
