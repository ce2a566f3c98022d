import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frontlab import checks, cli, kernels, nonlocal_solver, problem, runio


@pytest.fixture()
def stefan_cfg(tmp_path):
    path = tmp_path / "stefan.cfg"
    problem.save_config(problem.symmetric_stefan(T=0.1), path)
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_solve_local_writes_outputs(stefan_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", "local",
         "--out", str(out), "--nx", "64", "--dt", "5e-4"]
    )
    assert code == 0
    assert (out / "boundary.csv").exists()
    assert (out / "metadata.json").exists()
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert snaps
    t, g, h = runio.read_boundary_csv(out / "boundary.csv")
    assert t[0] == 0.0 and g[0] == -1.0 and h[0] == 1.0
    v = np.loadtxt(snaps[0], delimiter=",", skiprows=1, ndmin=2)[:, 1]
    assert v.max() == pytest.approx(1.0, abs=1e-12)


def test_solve_invalid_config_exit_2(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "d = 1\nmu = 1\nh0 = 1\nT = 0.1\n"
        "reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = 0\n"
    )
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "invalid_config"
    assert "(1.2a)" in err["message"]


@pytest.mark.parametrize("solver", ["local", "nonlocal"])
@pytest.mark.parametrize("height", ["inf", "1e308"])
def test_solve_infinite_front_speed_exit_2(tmp_path, solver, height):
    # mu |v0'(+-h0)| = 2 V overflows: the profile is inadmissible, reported
    # before any solve picks a dt from that speed.
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(
        "d = 1\nmu = 1\nh0 = 1\nT = 0.1\n"
        f"reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = {height}\n"
    )
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", str(cfg), "--solver", solver, "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "invalid_config"
    assert "(1.2a): v0 or its front speed" in err["message"]
    assert not (out / "boundary.csv").exists()


@pytest.mark.parametrize("solver", ["local", "nonlocal"])
def test_solve_nan_parameter_exit_2(tmp_path, solver):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "d = nan\nmu = 1\nh0 = 1\nT = 0.1\n"
        "reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = 1\n"
    )
    assert not problem.validate(problem.load_config(cfg)).ok
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", str(cfg), "--solver", solver, "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "invalid_config"
    assert "d must be positive and finite" in err["message"]
    assert not (out / "boundary.csv").exists()


def test_solve_nonlocal_coarse_grid_exit_3(stefan_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", "nonlocal",
         "--out", str(out), "--eps", "0.1", "--dx", "0.05"]
    )
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "resolution_too_coarse"
    assert set(err) == {"code", "message", "time_of_failure"}


def test_solve_nonlocal_front_move_exit_3(tmp_path):
    # mu = 1e5 moves h by about 335 in the first step of dt = 0.002, far
    # beyond dx = 0.0125: a typed failure at t = 0, not a run that exits 0.
    cfg = tmp_path / "fast.cfg"
    problem.save_config(replace(problem.symmetric_stefan(T=0.01), mu=1e5), cfg)
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(cfg), "--solver", "nonlocal", "--out", str(out), "--eps", "0.2"]
    )
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "cfl_violation"
    assert "front move" in err["message"]
    assert err["time_of_failure"] == 0.0
    assert not (out / "boundary.csv").exists()


@pytest.mark.parametrize("dx", ["0", "-0.01"])
def test_solve_nonlocal_bad_dx_exit_2(stefan_cfg, tmp_path, dx):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", "nonlocal",
         "--out", str(out), "--eps", "0.1", f"--dx={dx}"]
    )
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "bad_manifest"
    assert "dx must be positive and finite" in err["message"]


@pytest.mark.parametrize(
    "solver, option, message",
    [
        ("nonlocal", "--eps=nan", "eps must be positive and finite, got nan"),
        ("nonlocal", "--eps=inf", "eps must be positive and finite, got inf"),
        ("local", "--dt=1e-12", "T = 0.1 at dt = 1e-12 takes 1e+11 steps, more than 10000000"),
        ("nonlocal", "--dt=1e-12", "T = 0.1 at dt = 1e-12 takes 1e+11 steps, more than 10000000"),
        # Grids too large to allocate, rejected before any array is asked for.
        ("nonlocal", "--dx=1e-12", "dx = 1e-12 asks for 2e+12 grid nodes, more than 1000000"),
        ("nonlocal", "--dx=5e-324", "asks for inf grid nodes, more than 1000000"),  # overflows
        # eps = 0.1 over dx = 0.1/16.5: the stencil would reach 16 dx, not eps.
        ("nonlocal", "--dx=0.006060606060606061", "eps/dx = 16.5 is not an integer"),
        ("local", "--nx=1000001", "n_cells = 1000001 is more than MAX_NODES = 1000000"),
    ],
)
def test_solve_bad_eps_or_tiny_dt_exit_2(stefan_cfg, tmp_path, solver, option, message):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", solver,
         "--out", str(out), "--nx", "32", option]
    )
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "bad_manifest"
    assert message in err["message"]
    assert not (out / "boundary.csv").exists()


@pytest.mark.parametrize(
    "rows, code, message",
    [
        # Unit mass sits in a sliver at 0: the second moment vanishes.
        ("0 1\n1e-6 0\n1 0\n", "degenerate_kernel", "second moment"),
        ("0 1\n0.5 nan\n1 0\n", "bad_manifest", "finite"),
        (None, "bad_manifest", "cannot read kernel file"),  # no such file
    ],
)
@pytest.mark.parametrize("dt", [None, "1e-3"])
def test_solve_bad_kernel_file_exit_2(stefan_cfg, tmp_path, rows, code, message, dt):
    kern = tmp_path / "kern.txt"
    if rows is not None:
        kern.write_text(rows)
    out = tmp_path / "run"
    argv = ["solve", "--config", str(stefan_cfg), "--solver", "nonlocal",
            "--out", str(out), "--kernel-file", str(kern)]
    assert cli.main(argv + ([] if dt is None else ["--dt", dt])) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == code
    assert message in err["message"]
    assert not (out / "boundary.csv").exists()


def test_solve_kernel_file_matches_api_solve(stefan_cfg, tmp_path):
    kern = tmp_path / "kern.txt"
    z = np.linspace(0.0, 1.0, 11)
    np.savetxt(kern, np.column_stack([z, 1.0 - z * z]))
    out = tmp_path / "run"
    argv = ["solve", "--config", str(stefan_cfg), "--solver", "nonlocal",
            "--out", str(out), "--eps", "0.2", "--kernel-file", str(kern)]
    assert cli.main(argv) == 0
    assert json.loads((out / "metadata.json").read_text())["kernel"] == "custom"
    vconf = problem.validate(problem.load_config(stefan_cfg))
    sol = nonlocal_solver.solve(vconf, kernels.from_file(kern), eps=0.2)
    runio.write_boundary_csv(sol, tmp_path / "api.csv")
    assert (out / "boundary.csv").read_bytes() == (tmp_path / "api.csv").read_bytes()


def test_converge_degenerate_kernel_exit_2(stefan_cfg, tmp_path):
    kernel = kernels.KernelSpec("custom", table=np.array([[0.0, 1.0], [1e-6, 0.0], [1.0, 0.0]]))
    out = tmp_path / "sweep"
    code = cli.cmd_converge(str(stefan_cfg), [0.2, 0.1, 0.05], str(out), kernel=kernel,
                            reference_nx=64, reference_dt=1e-3)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["code"] == "degenerate_kernel"


def test_solve_nonlocal_run(stefan_cfg, tmp_path):
    out = tmp_path / "nl"
    code = cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", "nonlocal",
         "--out", str(out), "--eps", "0.2"]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["eps"] == 0.2
    assert meta["variant"] == "modified"
    assert meta["kernel"] == "epanechnikov"
    assert {"dx", "dt", "cfl_sigma"} <= set(meta)


def test_converge_too_few_eps_exit_2(stefan_cfg, tmp_path):
    code = cli.main(
        ["converge", "--config", str(stefan_cfg), "--eps", "0.2", "--eps", "0.1",
         "--out", str(tmp_path / "sweep")]
    )
    assert code == 2


SWEEP_ARGS = ["--eps", "0.2", "--eps", "0.1", "--eps", "0.05",
              "--nx", "64", "--dt", "1e-3", "--dx-ratio", "8"]


# The quickest arguments of a successful run of each command.
QUICK_ARGS = {"solve": ["--nx", "64", "--dt", "5e-4"], "converge": SWEEP_ARGS}
FLAT_BUMP = ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\n"
             "reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = 0\n")


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_naming_a_file_is_bad_manifest(stefan_cfg, tmp_path, capsys, command, below):
    # --out cannot be made a directory, so there is nowhere to write
    # error.json: the failure goes to stderr alone, and the file is untouched.
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "run" if below else taken
    argv = [command, "--config", str(stefan_cfg), "--out", str(out)]
    assert cli.main(argv + QUICK_ARGS[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (bad_manifest): ") and err.count("\n") == 1
    assert str(out) in err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stefan.cfg", "taken"]


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_error_json_marks_only_the_latest_run(stefan_cfg, tmp_path, command):
    # A failure, a success, then a failure again into one --out: a run
    # removes the error.json an earlier run left, and only that file.
    flat = tmp_path / "flat.cfg"
    flat.write_text(FLAT_BUMP)
    out = tmp_path / "run"

    def run(cfg):
        return cli.main([command, "--config", str(cfg), "--out", str(out)] + QUICK_ARGS[command])

    assert run(flat) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert run(stefan_cfg) == 0
    outputs = read_tree(out)
    assert "error.json" not in outputs
    assert run(flat) == 2
    err = (out / "error.json").read_bytes()
    assert json.loads(err)["code"] == "invalid_config"
    assert read_tree(out) == {**outputs, "error.json": err}


def test_solve_into_a_reused_out_leaves_no_stale_snapshots(tmp_path):
    # 2000 steps write 65 snapshots, then 50 steps write 51: the second
    # solve removes snapshot_051.csv to snapshot_064.csv of the first.
    config = str(Path(__file__).resolve().parent.parent / "configs" / "stefan.cfg")
    out = tmp_path / "run"

    def run(nx, dt):
        return cli.main(["solve", "--config", config, "--out", str(out),
                         "--nx", nx, "--dt", dt])

    assert run("64", "5e-4") == 0
    assert len(list(out.glob("snapshot_*.csv"))) == 65
    assert run("32", "0.02") == 0
    times = json.loads((out / "metadata.json").read_text())["snapshot_times"]
    assert len(times) == 51
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        f"snapshot_{k:03d}.csv" for k in range(51)
    ]


@pytest.mark.parametrize(
    "config_text, code, message",
    [
        (None, "bad_config", "No such file"),
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\n"
         "reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = 0\n",
         "invalid_config", "(1.2a)"),
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\n"
         "reaction.family = zero\ninitial.family = quadratic_bump\ninitial.V = nan\n",
         "invalid_config", "(1.2a)"),
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\nreaction.family = custom_polynomial\n",
         "bad_config", "'reaction.coefficients' must list"),
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\nreaction.family = custom_polynomial\n"
         "reaction.coefficients =\n",
         "bad_config", "'reaction.coefficients' must list"),
        ("d =\nmu = 1\nh0 = 1\nT = 0.1\n", "bad_config", "config key 'd': '' is not a number"),
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\nreaction.family = custom_polynomial\n"
         "reaction.coefficients = 0,x\n",
         "bad_config", "config key 'reaction.coefficients': 'x' is not a number"),
        # An empty field is not skipped: 0,,-1 would otherwise load as -u, not -u^2.
        ("d = 1\nmu = 1\nh0 = 1\nT = 0.1\nreaction.family = custom_polynomial\n"
         "reaction.coefficients = 0,,-1\n",
         "bad_config", "config key 'reaction.coefficients': '' is not a number"),
    ],
    ids=["missing", "invalid", "nan-height", "no-coefficients", "empty-coefficients",
         "empty-value", "bad-coefficient", "empty-coefficient-field"],
)
def test_converge_bad_config_writes_error_json(tmp_path, config_text, code, message):
    cfg = tmp_path / "sweep.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    out = tmp_path / "sweep"
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out)] + SWEEP_ARGS) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == code
    assert message in err["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("reaction", ["zero", "custom_polynomial\nreaction.coefficients = 0,1,-1"],
                         ids=["zero", "custom_polynomial"])
def test_fisher_kpp_key_in_another_reaction_is_bad_config(tmp_path, command, reaction):
    # reaction.a belongs to fisher_kpp alone; elsewhere it is not read, so it
    # is an unknown key rather than a silently dropped one.
    cfg = tmp_path / "stray.cfg"
    cfg.write_text(f"d = 1\nmu = 1\nh0 = 1\nT = 0.1\nreaction.family = {reaction}\n"
                   "reaction.a = 5\n")
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert cli.main(argv + (SWEEP_ARGS if command == "converge" else [])) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "bad_config"
    assert err["message"] == "unknown config keys: ['reaction.a']"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("solver_args, ratio", [
    (["--solver", "local", "--nx", "64", "--dt", "0.005"], "1.600"),
    (["--solver", "nonlocal", "--eps", "0.2", "--dt", "0.003"], "0.941"),
], ids=["local", "nonlocal"])
def test_solve_reaction_step_guard_writes_error_json(tmp_path, solver_args, ratio):
    # L0 = 320 for a = b = 100: the first step breaks dt * L0 <= 1/2.
    cfg = tmp_path / "stiff.cfg"
    problem.save_config(problem.fisher_kpp_config(T=0.05, a=100.0, b=100.0), cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)] + solver_args) == 3
    err = json.loads((out / "error.json").read_text())
    assert err == {"code": "cfl_violation", "message": f"dt * L0 = {ratio} > 1/2; reduce dt",
                   "time_of_failure": 0.0}


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--beta", "2"], "beta must lie in (0, 1)"),
        (["--kernel", "bogus"], "unknown kernel family"),
        (["--variant", "unmodified"], "requires --c1"),
        (["--nx", "8"], "at least 32 cells"),
        (["--eps", "-0.05"], "positive, finite"),
        (["--eps", "nan"], "positive, finite"),
        (["--eps", "0.1"], "distinct"),
        (["--eps", "0.1000001"], "own run dir"),
        (["--dx-ratio", "0"], "dx_ratio must be positive and finite"),
        (["--dx-ratio", "-8"], "dx_ratio must be positive and finite"),
        (["--dx-ratio", "16.5"], "eps/dx = 16.5 is not an integer"),
        (["--nx", "1000001"], "n_cells = 1000001 is more than MAX_NODES = 1000000"),
    ],
    ids=["beta", "kernel", "no-c1", "nx", "negative-eps", "nan-eps", "repeated-eps",
         "colliding-eps", "zero-dx-ratio", "negative-dx-ratio", "fractional-dx-ratio",
         "huge-nx"],
)
def test_converge_bad_arguments_exit_2(stefan_cfg, tmp_path, extra, message):
    out = tmp_path / "sweep"
    argv = ["converge", "--config", str(stefan_cfg), "--out", str(out)] + SWEEP_ARGS + extra
    assert cli.main(argv) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "bad_manifest"
    assert message in err["message"]
    assert not (out / "reference").exists()  # rejected before any solve


@pytest.mark.parametrize("jobs", [0, 2])
def test_converge_jobs_other_than_one_is_bad_manifest(stefan_cfg, tmp_path, jobs):
    # The sweep is serial: cmd_converge keeps jobs=1 for its callers and
    # rejects any other value before any solve.
    out = tmp_path / "sweep"
    assert cli.cmd_converge(str(stefan_cfg), [0.2, 0.1, 0.05], str(out), reference_nx=64,
                            reference_dt=1e-3, dx_ratio=8, jobs=jobs) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "bad_manifest"
    assert f"jobs must be 1, got {jobs}" in err["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_converge_has_no_jobs_option(stefan_cfg, tmp_path, capsys):
    argv = ["converge", "--config", str(stefan_cfg), "--out", str(tmp_path / "sweep"),
            *SWEEP_ARGS, "--jobs", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "eps, dx_ratio, code, message",
    [
        (["0.2", "0.1", "0.05"], "4", "resolution_too_coarse", "exceeds eps/8"),
        (["0.6", "0.1", "0.05"], "8", "domain_too_small", "leaves no room inside h0"),
    ],
    ids=["coarse-dx", "eps-too-large"],
)
def test_converge_infeasible_eps_exit_3_before_reference(stefan_cfg, tmp_path, eps, dx_ratio,
                                                         code, message):
    out = tmp_path / "sweep"
    argv = ["converge", "--config", str(stefan_cfg), "--out", str(out),
            "--nx", "64", "--dt", "1e-3", "--dx-ratio", dx_ratio]
    for e in eps:
        argv += ["--eps", e]
    assert cli.main(argv) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == code
    assert message in err["message"]
    assert err["time_of_failure"] == 0.0
    assert not (out / "reference").exists()  # rejected before any solve


def test_converge_failure_after_the_reference_leaves_reference_and_error_json(tmp_path):
    # At mu = 5 the eps 0.2 front would move more than dx in its first step:
    # the nonlocal failure comes after the reference solve, and no run dir,
    # sweep.csv or ratefit.json is written.
    cfg = tmp_path / "fast.cfg"
    problem.save_config(replace(problem.symmetric_stefan(T=0.05), mu=5.0), cfg)
    out = tmp_path / "sweep"
    argv = ["converge", "--config", str(cfg), "--out", str(out),
            "--eps", "0.2", "--eps", "0.1", "--eps", "0.05", "--nx", "64", "--dt", "1e-3"]
    assert cli.main(argv) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["code"] == "cfl_violation"
    assert "front move" in err["message"]
    assert err["time_of_failure"] == 0.0
    assert sorted(p.name for p in out.iterdir()) == ["error.json", "reference"]
    assert sorted(p.name for p in (out / "reference").iterdir()) == [
        "boundary.csv", "metadata.json"]


def test_converge_sweep_outputs_and_monotone_errors(stefan_cfg, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(
        ["converge", "--config", str(stefan_cfg),
         "--eps", "0.2", "--eps", "0.1", "--eps", "0.05",
         "--out", str(out), "--nx", "256", "--dt", "5e-4", "--dx-ratio", "8"]
    )
    assert code == 0
    data = runio.read_sweep_csv(out / "sweep.csv")
    assert data.shape == (3, 4)
    assert np.all(np.diff(data[:, 1]) < 0.0)  # sup error falls with eps
    fit = json.loads((out / "ratefit.json").read_text())
    assert fit["gamma_hat"] > 0.0
    assert "gamma_hat" in capsys.readouterr().out


def test_converge_metadata_records_only_the_parameter_its_law_reads(stefan_cfg, tmp_path):
    # The modified law reads beta, never c1: an API variant that carries a c1
    # does not put it into metadata.json.
    variant = nonlocal_solver.NonlocalVariant("modified", beta=0.5, c1=3.0)
    out = tmp_path / "sweep"
    assert cli.cmd_converge(str(stefan_cfg), [0.2, 0.1, 0.05], str(out), variant=variant,
                            reference_nx=64, reference_dt=1e-3, dx_ratio=8) == 0
    for run_dir in ("eps_0.2", "eps_0.1", "eps_0.05"):
        meta = json.loads((out / run_dir / "metadata.json").read_text())
        assert (meta["variant"], meta["beta"], meta["c1"]) == ("modified", 0.5, None)


def test_converge_deterministic_bytes(stefan_cfg, tmp_path):
    args = ["converge", "--config", str(stefan_cfg),
            "--eps", "0.2", "--eps", "0.1", "--eps", "0.05",
            "--nx", "128", "--dt", "1e-3", "--dx-ratio", "8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_verify_all_runs_criteria_in_key_order(capsys, monkeypatch):
    monkeypatch.setattr(checks, "CRITERIA", {2: lambda: (True, "b 1.0"), 5: lambda: (True, "e")})
    assert cli.cmd_verify("all") == 0
    assert capsys.readouterr().out.splitlines() == [
        "criterion 2: PASS - b 1.0",
        "criterion 5: PASS - e",
    ]


def test_verify_failing_check_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(checks, "CRITERIA",
                        {1: lambda: (True, "holds"), 3: lambda: (False, "broken")})
    assert cli.cmd_verify("all") == 1
    assert capsys.readouterr().out.splitlines() == [
        "criterion 1: PASS - holds",
        "criterion 3: FAIL - broken",
    ]
    assert cli.cmd_verify("3") == 1


@pytest.mark.parametrize("which", ["7", "kernel"])
def test_verify_unknown_criterion_exit_2(which, capsys):
    # Criterion 7 checks converge's files, so verify does not offer it.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", which])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_round_trip_csv(tmp_path, stefan_cfg):
    out = tmp_path / "rt"
    assert cli.main(
        ["solve", "--config", str(stefan_cfg), "--solver", "local",
         "--out", str(out), "--nx", "64", "--dt", "1e-3"]
    ) == 0
    t, g, h = runio.read_boundary_csv(out / "boundary.csv")
    path2 = tmp_path / "again.csv"

    class Carrier:
        boundary_times, boundary_g, boundary_h = t, g, h

    runio.write_boundary_csv(Carrier, path2)
    assert (out / "boundary.csv").read_bytes() == path2.read_bytes()
