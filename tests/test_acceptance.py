"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``).  Criteria
1-6 and 8 are ``frontlab.checks.CRITERIA``, run through ``frontlab verify``
as a user runs them.  Criteria 7 and 9 check the files of ``frontlab
converge``: the expensive eps sweeps are shared session fixtures, and the
determinism criterion reruns them from scratch and compares bytes.
"""

import json

import numpy as np
import pytest

from frontlab import cli
from frontlab import problem as P
from frontlab import runio

SWEEP_EPS = [0.2, 0.1, 0.05]


def report(num: int, label: str, ok: bool):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="session")
def config_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    stefan = root / "stefan.cfg"
    fisher = root / "fisher.cfg"
    P.save_config(P.symmetric_stefan(T=1.0), stefan)
    P.save_config(P.fisher_kpp_config(T=1.0), fisher)
    return {"stefan": stefan, "fisher": fisher}


def run_sweep(config_path, out_dir) -> int:
    return cli.cmd_converge(
        str(config_path),
        SWEEP_EPS,
        str(out_dir),
        reference_nx=2048,
        reference_dt=1e-4,
    )


@pytest.fixture(scope="session")
def sweep_dirs(config_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps_a")
    dirs = {}
    for name, cfg in config_files.items():
        out = root / name
        assert run_sweep(cfg, out) == 0
        dirs[name] = out
    return dirs


def verify(num: int):
    assert cli.cmd_verify(str(num)) == 0, f"criterion {num} failed"


def test_criterion_1_kernel_constants():
    verify(1)


def test_criterion_2_operator_consistency():
    verify(2)


def test_criterion_3_constant_profile_flux():
    verify(3)


def test_criterion_4_symmetry():
    verify(4)


def test_criterion_5_mass_balance():
    verify(5)


def test_criterion_6_sandwich():
    verify(6)


def test_criterion_7_convergence(sweep_dirs):
    ok = True
    rates = {}
    for name, out in sweep_dirs.items():
        data = runio.read_sweep_csv(out / "sweep.csv")
        ok &= bool(np.all(np.diff(data[:, 1]) < 0.0))  # solution sup error
        ok &= bool(np.all(np.diff(data[:, 2]) < 0.0))  # g error
        ok &= bool(np.all(np.diff(data[:, 3]) < 0.0))  # h error
        fit = json.loads((out / "ratefit.json").read_text())
        ok &= fit["gamma_hat"] >= 0.25 and fit["r_squared"] >= 0.9
        rates[name] = fit["gamma_hat"]
    report(7, "errors shrink with eps "
              f"(gamma_hat: {', '.join(f'{k}={v:.2f}' for k, v in rates.items())})", ok)


def test_criterion_8_coefficient_necessity():
    verify(8)


def test_criterion_9_determinism(config_files, sweep_dirs, tmp_path_factory):
    def tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    root_b = tmp_path_factory.mktemp("sweeps_b")
    ok = True
    for name, cfg in config_files.items():
        out_b = root_b / name
        assert run_sweep(cfg, out_b) == 0
        ok &= tree_bytes(sweep_dirs[name]) == tree_bytes(out_b)
    report(9, "independent sweep reruns are byte-identical", ok)
