"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
from conftest import suite_rows

from splitopt.problems import build_ct_problem, build_fused_lasso, build_lrtv_problem
from splitopt.solvers import _TABLE, SolverConfig, preset_config
from splitopt.verification import _prox_library, prox_suite

#: the nested schemes, each a row of the solver table with a single-loop form
FOUR_ALGORITHMS = {name: row.solve for name, row in _TABLE.items() if row.single}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def read_rows(rows, prefixes, count):
    """Whether the ``count`` suite rows whose names start with ``prefixes``
    are all there and pass, and their details."""
    picked = [(name, *rows[name]) for name in rows if name.startswith(prefixes)]
    ok = len(picked) == count and all(passed for _, passed, _ in picked)
    return ok, "; ".join(f"{name} {'PASS' if passed else 'FAIL'} ({detail})"
                         for name, passed, detail in picked)


def test_criterion_1_identity_suite(equivalence_run):
    rows, elapsed = equivalence_run
    ok = all(passed for passed, _ in rows.values()) and len(rows) == 14 and elapsed < 10.0
    detail = (f"fourteen reduction identities below 1e-12 over >=200 iterations "
              f"({'; '.join(d for _, d in rows.values())}), {elapsed:.1f}s")
    report(1, ok, detail)


def test_criterion_2_moreau_and_scaling_identities():
    t0 = time.monotonic()
    rows = suite_rows(prox_suite)
    elapsed = time.monotonic() - t0
    ok, detail = read_rows(rows, ("moreau-identity[", "conjugate-scaling["), 14)
    report(2, ok and elapsed < 5.0, f"Moreau and scaling identities, all kinds, 100 pairs "
                                    f"each, to 1e-10: {detail}; {elapsed:.1f}s")


def test_criterion_3_moreau_envelope_finite_differences(prox_rows):
    ok, detail = read_rows(prox_rows, ("envelope-gradient[",), 7)
    report(3, ok, f"envelope gradient vs central differences, all kinds, to 1e-5: {detail}")


def test_criterion_4_spectral_facts(operator_rows):
    ok, detail = read_rows(
        operator_rows, ("difference-1d-spectral-constant", "gradient-2d-spectral-constant"), 2)
    report(4, ok, f"power-iteration lambda_max at most norm_sq and within 1e-4 of it for "
                  f"difference-1d(200), in [7.9, 8.0] for gradient-2d(64): {detail}")


def test_criterion_5_fused_lasso_desk_reproduction():
    t0 = time.monotonic()
    p = build_fused_lasso(seed=0)  # m=100 n=200 mu1=0.2 mu2=0.8
    type2 = {}
    for name, solver in FOUR_ALGORITHMS.items():
        type2[name] = solver(p, preset_config(p, "type-II", name, eps=1e-8))
    all_converged = all(t.converged and t.total_outer <= 5000 for t in type2.values())
    nmsds = [t.final_record.nmsd for t in type2.values()]
    snrs = [t.final_record.snr for t in type2.values()]
    objs = [t.final_record.objective for t in type2.values()]
    spread = max(nmsds) - min(nmsds)
    obj_spread = (max(objs) - min(objs)) / min(objs)
    snr_ok = all(40.0 <= s <= 50.0 for s in snrs) and obj_spread < 1e-6

    # type-I: primal-dual pair must converge; the dual pair may hit MAXITER
    pd_converged = all(
        FOUR_ALGORITHMS[n](p, preset_config(p, "type-I", n, eps=1e-8)).converged
        for n in ("fb-pd", "tos-pd")
    )
    elapsed = time.monotonic() - t0
    ok = all_converged and spread < 1e-5 and snr_ok and pd_converged and elapsed < 120.0
    report(5, ok, f"type-II eps=1e-8: iters="
                  f"{[t.total_outer for t in type2.values()]}, nmsd spread {spread:.2e}, "
                  f"objective rel spread {obj_spread:.2e}, "
                  f"snr {min(snrs):.2f}..{max(snrs):.2f} dB, type-I pd pair converged, "
                  f"{elapsed:.0f}s")


def test_criterion_6_inner_iteration_trend():
    p = build_fused_lasso(seed=0)
    # at one inner iteration the type-I dual pair stalls at the cap
    stalled = [
        not FOUR_ALGORITHMS[n](p, preset_config(p, "type-I", n, eps=1e-8)).converged
        for n in ("fb-dual", "tos-dual")
    ]
    counts = {}
    for j in (2, 10, 20):
        for name in ("fb-dual", "tos-dual"):
            tr = FOUR_ALGORITHMS[name](p, preset_config(p, "type-I", name, eps=1e-8, inner_iters=j))
            if not tr.converged:
                report(6, False, f"{name} J={j} failed to converge")
            counts[(name, j)] = tr.total_outer
    drift = max(
        abs(counts[(n, 10)] - counts[(n, 20)]) / counts[(n, 10)]
        for n in ("fb-dual", "tos-dual")
    )
    ok = all(stalled) and drift <= 0.05
    report(6, ok, f"type-I dual pair: MAXITER at J=1, converges for J in (2,10,20) "
                  f"with counts {sorted(counts.values())}; J=10 vs J=20 drift {drift:.2%}")


def test_criterion_7_ct_desk_agreement():
    t0 = time.monotonic()
    p = build_ct_problem(img_side=64, views=20, rays=96, mu=0.5, seed=0)
    c = SolverConfig(gamma=1.9 / p.f.lipschitz, lam=0.125, sigma=0.125, tau=1.0,
                     inner_iters=10, eps=1e-6, max_outer=30000)
    finals = {name: solver(p, c).final_record for name, solver in FOUR_ALGORITHMS.items()}
    objs = [r.objective for r in finals.values()]
    snrs = [r.snr for r in finals.values()]
    obj_spread = (max(objs) - min(objs)) / min(objs)
    snr_spread = max(snrs) - min(snrs)
    elapsed = time.monotonic() - t0
    ok = obj_spread < 1e-5 and snr_spread < 0.1 and elapsed < 300.0
    report(7, ok, f"objective rel spread {obj_spread:.2e} (< 1e-5), "
                  f"snr spread {snr_spread:.4f} dB (< 0.1), {elapsed:.0f}s")


def test_criterion_8_lrtv_desk_agreement():
    t0 = time.monotonic()
    p = build_lrtv_problem(rows=32, cols=32, factor=2, lambda1=0.01, lambda2=0.01, seed=0)
    c = SolverConfig(gamma=0.1, lam=0.125, sigma=0.125, tau=1.0,
                     inner_iters=10, eps=1e-6, max_outer=100000)
    finals = {name: solver(p, c).final_record for name, solver in FOUR_ALGORITHMS.items()}
    nmsds = [r.nmsd for r in finals.values()]
    ssims = [r.ssim for r in finals.values()]
    spread = max(nmsds) - min(nmsds)
    elapsed = time.monotonic() - t0
    ok = spread < 1e-4 and min(ssims) >= 0.9 and elapsed < 300.0
    report(8, ok, f"nmsd spread {spread:.2e} (< 1e-4), ssim "
                  f"{min(ssims):.4f}..{max(ssims):.4f} (>= 0.9), {elapsed:.0f}s")


def scalar_grid_min(fun, lo, hi):
    """Two-stage fine-grid minimizer for a convex scalar function."""
    coarse = np.linspace(lo, hi, 20001)
    c0 = coarse[np.argmin([fun(t) for t in coarse])]
    h = (hi - lo) / 20000
    fine = np.arange(max(lo, c0 - 2 * h), min(hi, c0 + 2 * h), 1e-8)
    return fine[np.argmin([fun(t) for t in fine])]


def brute_force_prox(f, step, v):
    """Independent fine-grid/SVD oracle; every library kind reduces to convex
    scalar subproblems (coordinatewise, per group radius, or per singular value)."""
    v = np.asarray(v, dtype=float)
    w = f.weight
    if f.kind == "l1":
        return np.array([scalar_grid_min(lambda t, s=vi: 0.5 * (t - s) ** 2 + step * w * abs(t),
                                         -10, 10) for vi in v])
    if f.kind == "indicator-nonneg":
        return np.array([scalar_grid_min(lambda t, s=vi: 0.5 * (t - s) ** 2, 0, 10)
                         for vi in v])
    if f.kind == "indicator-box":
        return np.array([scalar_grid_min(lambda t, s=vi: 0.5 * (t - s) ** 2, f.lower, f.upper)
                         for vi in v])
    if f.kind == "quadratic-distance":
        return np.array([
            scalar_grid_min(lambda t, s=vi, u=ui: 0.5 * (t - s) ** 2 + step * 0.5 * w * (t - u) ** 2,
                            -10, 10) for vi, ui in zip(v, f.center)
        ])
    if f.kind == "zero":
        return v.copy()
    if f.kind == "group-l21":
        # the optimizer is collinear with each group of v; solve for the radius
        n = v.size // 2
        out = np.empty_like(v)
        for i in range(n):
            g = np.array([v[i], v[n + i]])
            r_v = np.linalg.norm(g)
            r = scalar_grid_min(lambda t, s=r_v: 0.5 * (t - s) ** 2 + step * w * t, 0, 10)
            direction = g / r_v if r_v > 0 else np.zeros(2)
            out[i], out[n + i] = r * direction
        return out
    if f.kind == "nuclear":
        # unitary invariance reduces to a scalar threshold per singular value
        u, s, vt = np.linalg.svd(v.reshape(f.shape))
        s_or = [scalar_grid_min(lambda t, si=si: 0.5 * (t - si) ** 2 + step * w * t, 0, si + 1)
                for si in s]
        return ((u * s_or) @ vt).ravel()
    raise AssertionError(f.kind)


def test_criterion_9_prox_oracle_equivalence(prox_rows):
    rows_ok, detail = read_rows(prox_rows, ("prox-optimality[",), 7)
    rng = np.random.default_rng(13)
    worst_gap = 0.0
    for f in _prox_library(rng, (2, 2)):
        step = float(rng.uniform(0.3, 1.5))
        v = 2.0 * rng.standard_normal(4)
        worst_gap = max(worst_gap, float(np.abs(f.prox(step, v) - brute_force_prox(f, step, v)).max()))
    report(9, rows_ok and worst_gap < 1e-6, f"all prox kinds beat 1000 random candidates "
                                            f"({detail}) and match fine-grid/SVD brute-force "
                                            f"oracles: max gap {worst_gap:.2e}")


def test_criterion_10_determinism(tmp_path):
    from splitopt import cli

    config = """\
[experiment]
name = fused-lasso
seed = 3
m = 30
n = 60

[run]
solvers = fb-dual, tos-pd
presets = type-I, type-II
inner_iters = 1, 2
eps = 1e-4
max_outer = 4000
output_dir = {out}
"""
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(config.format(out=out))
        assert cli.main(["run", str(cfg)]) == 0
        outs.append(out)
    files_a = sorted(q.relative_to(outs[0]) for q in outs[0].rglob("*.csv"))
    files_b = sorted(q.relative_to(outs[1]) for q in outs[1].rglob("*.csv"))
    same_names = files_a == files_b and len(files_a) == 9  # 8 traces + summary
    identical = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in files_a
    )
    report(10, same_names and identical,
           f"two identical runs produced byte-identical CSVs ({len(files_a)} files)")
