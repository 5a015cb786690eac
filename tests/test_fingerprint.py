"""A pinned trajectory fingerprint: the objective and ||x|| at outer
iterations 1, 10 and 50 of every solver that applies to one small instance of
each experiment family, compared bit for bit with ``fingerprint.txt``.

A change that is meant to change the arithmetic regenerates the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and shows its effect as the diff of that file, one line per iteration."""

from pathlib import Path

import numpy as np
import pytest

from splitopt.problems import build_ct_problem, build_fused_lasso, build_lrtv_problem
from splitopt.solvers import SOLVERS, ConfigError, check_steps, preset_config
from splitopt.verification import _identity_b_problem

PATH = Path(__file__).with_name("fingerprint.txt")
HEADER = "# family solver iteration objective norm_x (float.hex)"
ITERS = (1, 10, 50)

#: family -> its small instance
FAMILIES = {
    "fused-lasso": lambda: build_fused_lasso(m=30, n=60, seed=3),
    "constrained-tv-ct": lambda: build_ct_problem(img_side=16, views=4, rays=12, seed=1),
    "lrtv-sr": lambda: build_lrtv_problem(rows=16, cols=16, seed=1),
    "identity-b": lambda: _identity_b_problem(seed=4),  # B = I, so that davis-yin applies
}


def fingerprint(family):
    """``(family, solver, iteration) -> (objective, ||x||)`` as float.hex strings,
    for every solver whose steps the family's instance admits."""
    problem = FAMILIES[family]()
    rows = {}
    for solver in SOLVERS:
        xs = []
        config = preset_config(problem, "type-II", solver, inner_iters=3, eps=1e-300,
                               max_outer=ITERS[-1], observe=lambda k, x, state: xs.append(x.copy()))
        try:
            check_steps(solver, problem, config)
        except ConfigError:  # davis-yin needs B = I
            continue
        trace = SOLVERS[solver](problem, config)
        for k in ITERS:
            rows[family, solver, str(k)] = (trace.records[k - 1].objective.hex(),
                                            float(np.linalg.norm(xs[k - 1])).hex())
    return rows


def read_pinned():
    lines = PATH.read_text().splitlines()[1:]
    return {tuple(words[:3]): tuple(words[3:]) for words in map(str.split, lines)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_trajectories_match_the_pinned_fingerprint(family):
    pinned = {key: value for key, value in read_pinned().items() if key[0] == family}
    got = fingerprint(family)
    assert sorted(got) == sorted(pinned)
    worst, where = 0.0, None
    for key, values in pinned.items():
        for name, want, have in zip(("objective", "norm_x"), values, got[key]):
            want, have = float.fromhex(want), float.fromhex(have)
            if want != have:
                rel = abs(have - want) / abs(want)
                if where is None or rel > worst:
                    worst, where = rel, f"{' '.join(key[1:])} {name}"
    assert where is None, f"largest relative difference {worst:.3e} ({family} {where})"


if __name__ == "__main__":
    rows = {key: value for family in sorted(FAMILIES) for key, value in fingerprint(family).items()}
    PATH.write_text("\n".join([HEADER, *(" ".join(key + value) for key, value in rows.items())])
                    + "\n")
