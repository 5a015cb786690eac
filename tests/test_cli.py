import configparser
import contextlib
import io
import os
import re
import stat

import pytest
from conftest import record_calls

from splitopt import cli
from splitopt.solvers import DivergenceError

TINY_CONFIG = """\
[experiment]
name = fused-lasso
seed = 3
m = 30
n = 60
mu1 = 0.2
mu2 = 0.8
noise_var = 0.01

[run]
solvers = fb-dual, tos-pd
presets = type-II
inner_iters = 1
eps = 1e-4
max_outer = 4000
output_dir = {out}
"""


TINY_CT = """\
[experiment]
name = constrained-tv-ct
seed = 1
img_side = 16
views = 4
rays = 12
mu = 0.5

[run]
solvers = tos-dual
presets = custom
inner_iters = 2
eps = 1e-3
max_outer = 2000
output_dir = {out}

[custom]
lambda = 0.125
sigma = 0.125
tau = 1.0
"""

TINY_LRTV = """\
[experiment]
name = lrtv-sr
seed = 1
rows = 8
cols = 8
factor = 2

[run]
solvers = fb-pd
presets = custom
inner_iters = 1
eps = 1e-3
max_outer = 20000
output_dir = {out}

[custom]
gamma = 0.1
sigma = 0.125
tau = 1.0
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRun:
    def test_tiny_sweep_outputs(self, tmp_path):
        out = tmp_path / "results"
        cfg = write_config(tmp_path, TINY_CONFIG.format(out=out))
        assert cli.main(["run", cfg]) == 0
        trace = out / "type-II" / "fused-lasso_fb-dual_J1_eps0.0001.csv"
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,objective,rel_change,snr,nmsd"
        assert len(lines) > 10
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "inf"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "experiment,preset,solver,inner_iters,eps,iters,objective,nmsd,snr,ssim"
        assert len(summary) == 3  # 2 solvers x 1 preset x 1 J x 1 eps
        assert all(row.startswith("fused-lasso,type-II") for row in summary[1:])

    def test_omitted_loop_controls_take_solver_config_defaults(self, tmp_path, monkeypatch):
        seen = record_calls(monkeypatch, cli, "preset_config")
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).split("[run]")[0] + (
            f"[run]\nsolvers = fb-dual\npresets = type-II\noutput_dir = {out}\n"
        )
        assert cli.main(["run", write_config(tmp_path, text)]) == 0
        assert (out / "type-II" / "fused-lasso_fb-dual_J1_eps1e-06.csv").exists()
        assert [overrides for _, overrides in seen] == [
            {"inner_iters": 1, "eps": 1e-6, "max_outer": 5000}]

    def test_maxiter_marker(self, tmp_path):
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).replace("max_outer = 4000", "max_outer = 5")
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", cfg]) == 0
        summary = (out / "summary.csv").read_text()
        assert "MAXITER" in summary

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(override))
        cfg = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "ignored"))
        assert cli.main(["run", cfg]) == 0
        assert (override / "summary.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_summary_objectives_agree_across_converged_solvers(self, tmp_path):
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).replace("eps = 1e-4", "eps = 1e-8")
        assert cli.main(["run", write_config(tmp_path, text)]) == 0
        rows = [r.split(",") for r in (out / "summary.csv").read_text().splitlines()[1:]]
        assert all(r[5] != "MAXITER" for r in rows)
        objectives = [float(r[6]) for r in rows]
        assert (max(objectives) - min(objectives)) / min(objectives) < 1e-5

    def test_custom_preset(self, tmp_path):
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\nlambda = 0.25\nsigma = 0.25\ntau = 1.0\n"
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", cfg]) == 0
        assert (out / "custom" / "fused-lasso_fb-dual_J1_eps0.0001.csv").exists()

    def test_condat_vu_runs_the_preset_steps_of_fb_pd(self, tmp_path):
        # at one inner step fb-pd is Condat-Vu: under a preset condat-vu takes fb-pd's
        # steps through the solver table's map, so each of its cells stops where fb-pd's
        # does (it exited 6: 1/tau - sigma ||B||^2 was near 0, against L/2)
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).replace(
            "solvers = fb-dual, tos-pd", "solvers = fb-pd, condat-vu").replace(
            "presets = type-II", "presets = type-I, type-II").replace(
            "eps = 1e-4", "eps = 1e-4, 1e-8")
        assert cli.main(["run", write_config(tmp_path, text)]) == 0
        iters = {}
        for row in (out / "summary.csv").read_text().splitlines()[1:]:
            _, preset, solver, _, eps, count, *_ = row.split(",")
            iters.setdefault((preset, eps), {})[solver] = count
        assert len(iters) == 4
        assert all(cell["fb-pd"] == cell["condat-vu"] != "MAXITER" for cell in iters.values())

    def test_default_fused_lasso_sweep_has_sixteen_cells(self, tmp_path, capsys):
        # the reference layout: 4 solvers x 2 presets x 2 tolerances
        cli.main(["print-default-config", "fused-lasso"])
        text = capsys.readouterr().out.replace(
            "output_dir = results/fused-lasso", f"output_dir = {tmp_path / 'out'}"
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", cfg]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 16
        # the dual pair stalls under type-I at the tight tolerance
        maxiter_rows = [r for r in summary if "MAXITER" in r]
        assert {r.split(",")[2] for r in maxiter_rows} == {"fb-dual", "tos-dual"}
        assert all(",type-I," in r for r in maxiter_rows)

    def test_ct_experiment_dispatch(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", write_config(tmp_path, TINY_CT.format(out=out))]) == 0
        trace = out / "custom" / "constrained-tv-ct_tos-dual_J2_eps0.001.csv"
        assert trace.read_text().splitlines()[0] == "iter,objective,rel_change,snr,nmsd"

    def test_lrtv_experiment_dispatch_includes_ssim_column(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", write_config(tmp_path, TINY_LRTV.format(out=out))]) == 0
        trace = out / "custom" / "lrtv-sr_fb-pd_J1_eps0.001.csv"
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,objective,rel_change,snr,nmsd,ssim"
        assert lines[-1].count(",") == 5

    @pytest.mark.parametrize("template", [TINY_LRTV, TINY_CT], ids=["lrtv-sr", "ct-tv"])
    def test_custom_without_gamma_follows_the_preset_gamma_rule(self, tmp_path, monkeypatch,
                                                                  template):
        # 1.9/L, as under type-I and type-II, on every problem
        seen = [record_calls(monkeypatch, cli.SOLVERS, s) for s in ("fb-pd", "tos-dual")]
        text = template.format(out=tmp_path / "r").replace("gamma = 0.1\n", "")
        text = re.sub(r"max_outer = \d+", "max_outer = 3", text)
        assert cli.main(["run", write_config(tmp_path, text)]) == 0
        ((problem, config), _), = seen[0] + seen[1]
        assert config.gamma == 1.9 / problem.f.lipschitz
        assert config.param_preset == "custom"

    def test_result_files_take_the_umask_mode(self, tmp_path):
        out = tmp_path / "results"
        text = TINY_CONFIG.format(out=out).replace("max_outer = 4000", "max_outer = 5")
        cfg = write_config(tmp_path, text)
        old = os.umask(0o027)
        try:
            assert cli.main(["run", cfg]) == 0
        finally:
            os.umask(old)
        for path in (out / "summary.csv",
                     out / "type-II" / "fused-lasso_fb-dual_J1_eps0.0001.csv"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_failed_sweep_leaves_no_stale_summary(self, tmp_path, monkeypatch):
        out = tmp_path / "results"
        assert cli.main(["run", write_config(tmp_path, TINY_CONFIG.format(out=out))]) == 0

        def diverge(problem, config, **kw):
            raise DivergenceError("tos-pd", 1, "non-finite iterate")

        # fb-dual runs, then tos-pd diverges: only a divergence stops a sweep part-way
        monkeypatch.setitem(cli.SOLVERS, "tos-pd", diverge)
        text = TINY_CONFIG.format(out=out).replace("eps = 1e-4", "eps = 1e-3")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_DIVERGENCE
        assert (out / "type-II" / "fused-lasso_fb-dual_J1_eps0.001.csv").exists()
        assert not (out / "summary.csv").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.ini")]) == cli.EXIT_CONFIG

    def test_nonpositive_eps(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path).replace("eps = 1e-4", "eps = 0")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG

    def test_unknown_experiment(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path).replace("name = fused-lasso", "name = mystery")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG

    def test_unknown_solver_id(self, tmp_path, capsys):
        text = TINY_CONFIG.format(out=tmp_path).replace("fb-dual, tos-pd", "fb-dual, nonsense")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_UNKNOWN_SOLVER
        assert capsys.readouterr().err == (
            "unknown solver id 'nonsense'; known: condat-vu, davis-yin, fb-dual, fb-pd, pd3o, "
            "pdfp, tos-dual, tos-pd, tos-pd-single\n")

    def test_unknown_solver_id_rejected_before_the_build(self, tmp_path, monkeypatch):
        builds = record_calls(monkeypatch, cli, "build_ct_problem")
        out = tmp_path / "r"
        text = TINY_CT.format(out=out).replace("solvers = tos-dual", "solvers = nope")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_UNKNOWN_SOLVER
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("old", ["solvers = fb-dual, tos-pd", "presets = type-II",
                                     "inner_iters = 1", "eps = 1e-4"],
                             ids=["solvers", "presets", "inner_iters", "eps"])
    def test_empty_list_rejected_before_any_output(self, tmp_path, monkeypatch, capsys, old):
        builds = record_calls(monkeypatch, cli, "build_fused_lasso")
        out = tmp_path / "r"
        key = old.split()[0]
        text = TINY_CONFIG.format(out=out).replace(old, f"{key} =")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert builds == []
        assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory")
        text = TINY_CONFIG.format(out=blocker / "sub")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_OUTPUT_DIR

    @pytest.mark.parametrize("settings, blocker, kept", [
        # a plain file where type-II's preset directory goes, after a type-I cell
        ({"presets = type-II": "presets = type-I, type-II",
          "solvers = fb-dual, tos-pd": "solvers = fb-dual"},
         "type-II", "type-I/fused-lasso_fb-dual_J1_eps0.0001.csv"),
        # a directory where tos-pd's trace CSV goes, after the fb-dual cell
        ({}, "type-II/fused-lasso_tos-pd_J1_eps0.0001.csv/",
         "type-II/fused-lasso_fb-dual_J1_eps0.0001.csv"),
    ], ids=["preset-dir-is-a-file", "trace-csv-is-a-dir"])
    def test_path_blocked_mid_sweep(self, tmp_path, capsys, settings, blocker, kept):
        out = tmp_path / "r"
        path = out / blocker
        if blocker.endswith("/"):
            path.mkdir(parents=True)
        else:
            out.mkdir()
            path.write_text("a plain file, not a directory")
        text = TINY_CONFIG.format(out=out)
        for old, new in settings.items():
            text = text.replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_OUTPUT_DIR
        assert capsys.readouterr().err.startswith(f"output directory {str(out)!r} is not "
                                                  "writable: ")
        # the earlier cell's CSV stays, and no summary or temporary file is left
        assert (out / kept).exists()
        assert not (out / "summary.csv").exists()
        assert not list(out.rglob("*.tmp"))

    def test_bad_pairing_is_decided_before_the_output_directory(self, tmp_path):
        # a directory that cannot be made and a cell davis-yin rejects: exit 6, not 4
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory")
        text = TINY_CONFIG.format(out=blocker / "sub").replace("fb-dual, tos-pd", "davis-yin")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_BAD_PAIRING
        assert blocker.read_text() == "a plain file, not a directory"

    def test_invalid_pairing_custom_without_sigma(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\nlambda = 0.25\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_BAD_PAIRING

    @pytest.mark.parametrize("solvers, presets, cell, reason", [
        # condat-vu is admitted under type-II, and takes [custom] steps as given
        ("fb-dual, condat-vu", "type-II, custom", "custom condat-vu J=1 eps=1e-06",
         "1/tau - sigma ||B||^2 = "),
        ("davis-yin", "type-II", "type-II davis-yin J=1 eps=1e-06",
         "davis-yin requires B = identity, got difference-1d"),
    ], ids=["fb-dual-then-condat-vu", "davis-yin"])
    def test_bad_pairing_leaves_the_output_directory_as_it_was(self, tmp_path, capsys, solvers,
                                                               presets, cell, reason):
        out = tmp_path / "r"
        valid = TINY_CONFIG.format(out=out).replace("max_outer = 4000", "max_outer = 50")
        assert cli.main(["run", write_config(tmp_path, valid, "valid.ini")]) == 0

        def snapshot():
            return {path: path.is_dir() or read(path) for path in out.rglob("*")}

        before = snapshot()
        text = valid.replace("solvers = fb-dual, tos-pd", f"solvers = {solvers}").replace(
            "presets = type-II", f"presets = {presets}").replace("eps = 1e-4", "eps = 1e-6")
        text += "\n[custom]\nlambda = 0.25\nsigma = 0.25\ntau = 1.0\n"
        capsys.readouterr()
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_BAD_PAIRING
        assert snapshot() == before
        err = capsys.readouterr().err
        assert err.startswith(f"invalid preset/solver pairing in cell {cell}: {reason}")

    def test_invalid_pairing_inadmissible_steps(self, tmp_path):
        # sigma tau ||B||^2 >= 1 must be rejected as a pairing error
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\nlambda = 0.25\nsigma = 0.3\ntau = 1.0\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_BAD_PAIRING


    @pytest.mark.parametrize("old, new", [
        ("mu1 = 0.2", "mu_1 = 0.2"),
        ("max_outer = 4000", "max_iter = 4000"),
        ("tau = 1.0", "tua = 1.0"),
    ], ids=["experiment", "run", "custom"])
    def test_unknown_key_rejected(self, tmp_path, capsys, old, new):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\nlambda = 0.25\nsigma = 0.25\ntau = 1.0\n"
        text = text.replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert new.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_nan_eps(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace("eps = 1e-4", "eps = nan")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG

    def test_nan_custom_step_is_a_pairing_error(self, tmp_path, capsys):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\nlambda = 0.25\nsigma = nan\ntau = 1.0\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_BAD_PAIRING
        # the message names the cell, not the solver alone
        assert capsys.readouterr().err == ("invalid preset/solver pairing in cell custom fb-dual "
                                           "J=1 eps=0.0001: sigma must be positive and finite, "
                                           "got nan\n")
        assert not (tmp_path / "r").exists()

    def test_non_numeric_custom_value(self, tmp_path, capsys):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(
            "presets = type-II", "presets = custom"
        ) + "\n[custom]\ngamma = abc\nlambda = 0.25\nsigma = 0.25\ntau = 1.0\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("old, new", [
        ("presets = type-II", "presets = type-II, type-II"),
        ("solvers = fb-dual, tos-pd", "solvers = fb-dual, tos-pd, fb-dual"),
        ("inner_iters = 1", "inner_iters = 1, 01"),
        ("eps = 1e-4", "eps = 1e-4, 0.0001"),
    ], ids=["preset", "solver", "inner_iters", "eps"])
    def test_colliding_cells_rejected_before_any_output(self, tmp_path, old, new):
        out = tmp_path / "r"
        text = TINY_CONFIG.format(out=out).replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert not out.exists()


    @pytest.mark.parametrize("template, old, new", [
        (TINY_CONFIG, "mu2 = 0.8", "mu2 = nan"),
        (TINY_CONFIG, "noise_var = 0.01", "noise_var = -0.01"),
        (TINY_CONFIG, "noise_var = 0.01", "noise_var = nan"),
        (TINY_CONFIG, "max_outer = 4000", "max_outer = 0"),
        (TINY_LRTV, "factor = 2", "factor = 0"),
        (TINY_CONFIG, "mu2 = 0.8", "mu2 = inf"),
        (TINY_CONFIG, "noise_var = 0.01", "noise_var = inf"),
        (TINY_CONFIG, "eps = 1e-4", "eps = inf"),
        (TINY_LRTV, "factor = 2", "factor = 2\nblur_sigma = inf"),
        (TINY_LRTV, "factor = 2", "factor = 2\nblur_sigma = nan"),
        (TINY_LRTV, "factor = 2", "factor = 2\nblur_sigma = -1.0"),
    ], ids=["mu2-nan", "noise_var-negative", "noise_var-nan", "max_outer-zero", "factor-zero",
            "mu2-inf", "noise_var-inf", "eps-inf", "blur_sigma-inf", "blur_sigma-nan",
            "blur_sigma-negative"])
    def test_bad_number_rejected_before_any_output(self, tmp_path, capsys, template, old, new):
        out = tmp_path / "r"
        text = template.format(out=out).replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_lrtv_image_too_small_for_its_factor(self, tmp_path, capsys):
        out = tmp_path / "r"
        text = TINY_LRTV.format(out=out).replace("rows = 8", "rows = 6")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "rows" in err and "factor" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, drop", [
        ("[DEFAULT]\nmu_1 = 0.3\n", ""),
        ("[costum]\nlambda = 0.25\n", ""),
        # without the [experiment] mu1, a [DEFAULT] one would reach the builder
        ("[DEFAULT]\nmu1 = 0.5\n", "mu1 = 0.2\n"),
    ], ids=["default-typo", "misspelt-custom", "default-value"])
    def test_unknown_section_rejected_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                        section, drop):
        builds = record_calls(monkeypatch, cli, "build_fused_lasso")
        out = tmp_path / "r"
        text = section + "\n" + TINY_CONFIG.format(out=out).replace(drop, "")
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and section.split("\n")[0] in err
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("[run]\n", "[custom]\n", "config needs [experiment] and [run] sections"),
        ("presets = type-II", "presets = type-III",
         "unknown preset 'type-III' (expected one of type-I, type-II, custom)"),
        ("presets = type-II", "presets = custom", "preset 'custom' needs a [custom] section"),
    ], ids=["no-run-section", "unknown-preset", "custom-without-section"])
    def test_run_section_fault_rejected_before_the_build(self, tmp_path, monkeypatch, capsys,
                                                         old, new, message):
        builds = record_calls(monkeypatch, cli, "build_fused_lasso")
        out = tmp_path / "r"
        text = TINY_CONFIG.format(out=out).replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("seed = 3\n", "seed = 3\nseed = 4\n"),
        ("[experiment]\n", ""),
    ], ids=["repeated-key", "no-section-header"])
    def test_malformed_ini_syntax(self, tmp_path, capsys, old, new):
        text = TINY_CONFIG.format(out=tmp_path / "r").replace(old, new)
        assert cli.main(["run", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


class TestVerify:
    @pytest.fixture(scope="class")
    def verify_all(self):
        """The exit code and output of one ``verify all``, shared by the tests
        below so that the equivalence suite runs once for both."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all"])
        return code, out.getvalue()

    def test_equivalence_suite_passes(self, verify_all):
        _, out = verify_all
        # the equivalence suite's rows are the ones that state an identity
        rows = [line for line in out.splitlines() if " == " in line]
        assert len(rows) == 14
        assert all(line.startswith("PASS ") for line in rows)

    def test_prox_suite_passes_within_budget(self, capsys):
        import time

        t0 = time.monotonic()
        assert cli.main(["verify", "prox"]) == 0
        assert time.monotonic() - t0 < 60.0
        assert "FAIL" not in capsys.readouterr().out

    def test_every_row_passes_a_python_bool(self, prox_rows, operator_rows, equivalence_rows):
        for rows in (prox_rows, operator_rows, equivalence_rows):
            for name, (ok, _) in rows.items():
                assert type(ok) is bool, name

    def test_verify_all_is_green(self, verify_all):
        code, out = verify_all
        assert code == 0
        assert "FAIL" not in out

    def test_raising_suite_fails_its_own_row(self, monkeypatch, capsys):
        def diverge(problem, config, **start):
            raise DivergenceError("pdfp", 1, "non-finite x")

        monkeypatch.setitem(cli.SOLVERS, "pdfp", diverge)
        assert cli.main(["verify", "all"]) == cli.EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("FAIL equivalence-suite (raised DivergenceError: "
                             "pdfp diverged at outer iteration 1: non-finite x)")
        assert len(lines) > 1 and all(line.startswith("PASS ") for line in lines[:-1])

    def test_unknown_suite_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "bogus"])


class TestDefaultConfigs:
    @pytest.mark.parametrize("name", ["fused-lasso", "constrained-tv-ct", "lrtv-sr"])
    def test_emitted_config_parses(self, name, capsys):
        assert cli.main(["print-default-config", name]) == 0
        text = capsys.readouterr().out
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert parser["experiment"]["name"] == name
        assert "run" in parser

    def test_fused_lasso_defaults_match_reference_experiment(self, capsys):
        cli.main(["print-default-config", "fused-lasso"])
        parser = configparser.ConfigParser()
        parser.read_string(capsys.readouterr().out)
        exp = parser["experiment"]
        assert exp.getint("m") == 100 and exp.getint("n") == 200
        assert exp.getfloat("mu1") == 0.2 and exp.getfloat("mu2") == 0.8
        run = parser["run"]
        assert run.getint("max_outer") == 5000
        assert "type-I" in run["presets"] and "type-II" in run["presets"]

    def test_lrtv_defaults(self, capsys):
        cli.main(["print-default-config", "lrtv-sr"])
        parser = configparser.ConfigParser()
        parser.read_string(capsys.readouterr().out)
        assert parser["experiment"].getfloat("lambda1") == 0.01
        assert parser["custom"].getfloat("gamma") == 0.1
        assert parser["run"].getint("max_outer") == 100000
