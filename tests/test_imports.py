"""What a fresh process loads: SciPy's top-level package and its LAPACK
extension only with the first local solve, never the scipy.linalg package,
the process pool only for a converge sweep with more than one job, and
neither numpy.ma nor numpy.polynomial.

Each test runs its script in a new interpreter, because this test process
has long since imported both.  Only module names are asserted, never times.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import json, sys
from frontlab import cli, kernels, local_solver, nonlocal_solver, problem

def loaded():
    return {name: name in sys.modules
            for name in ("scipy", "scipy.linalg", "concurrent.futures.process", "numpy.ma",
                         "numpy.polynomial")}

vconf = problem.validate(problem.symmetric_stefan(T=0.02))
"""
NONE = {"scipy": False, "scipy.linalg": False, "concurrent.futures.process": False,
        "numpy.ma": False, "numpy.polynomial": False}
LOCAL = {**NONE, "scipy": True}


def run_fresh(body: str, tmp_path: Path) -> dict:
    """Run PRELUDE + body in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = PRELUDE + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_nonlocal_solve_loads_neither_scipy_nor_the_pool(tmp_path):
    seen = run_fresh(
        """
        after_import = loaded()
        kernel = kernels.KernelSpec("epanechnikov")
        nonlocal_solver.solve(vconf, kernel, eps=0.2)
        problem.save_config(problem.symmetric_stefan(T=0.02), "stefan.cfg")
        codes = [cli.main(["solve", "--config", "stefan.cfg", "--solver", "nonlocal",
                           "--eps", "0.2", "--out", "run"])]
        after_nonlocal = loaded()
        local_solver.solve(vconf, n_cells=64, dt=1e-3)
        after_local = loaded()
        codes.append(cli.main(["solve", "--config", "stefan.cfg", "--solver", "local",
                               "--nx", "64", "--dt", "1e-3", "--out", "local"]))
        print(json.dumps({"codes": codes, "import": after_import, "nonlocal": after_nonlocal,
                          "local": after_local, "cli_local": loaded()}))
        """,
        tmp_path,
    )
    assert seen["codes"] == [0, 0]
    assert seen["import"] == NONE
    assert seen["nonlocal"] == NONE
    assert seen["local"] == LOCAL
    assert seen["cli_local"] == LOCAL


def test_converge_loads_the_pool_only_for_two_jobs(tmp_path):
    seen = run_fresh(
        """
        from pathlib import Path

        problem.save_config(problem.symmetric_stefan(T=0.05), "stefan.cfg")

        def sweep(out, jobs):
            code = cli.cmd_converge("stefan.cfg", [0.2, 0.1, 0.05], out, reference_nx=64,
                                    reference_dt=1e-3, dx_ratio=8.0, jobs=jobs)
            files = sorted(p for p in Path(out).rglob("*") if p.is_file())
            tree = {str(p.relative_to(out)): p.read_bytes().hex() for p in files}
            return code, tree

        code1, serial = sweep("serial", 1)
        after_serial = loaded()
        code2, pooled = sweep("pooled", 2)
        print(json.dumps({"codes": [code1, code2], "serial": after_serial,
                          "pooled": loaded(), "same": serial == pooled,
                          "workers": cli._workers(2, 3)}))
        """,
        tmp_path,
    )
    assert seen["codes"] == [0, 0]
    assert seen["serial"] == LOCAL
    # One core gives one worker, and then no pool is started.
    assert seen["pooled"]["concurrent.futures.process"] == (seen["workers"] > 1)
    assert seen["same"]


@pytest.mark.parametrize("package_first", [False, True], ids=["loader-first", "package-first"])
def test_lapack_loader_gives_the_scipy_linalg_functions(tmp_path, package_first):
    seen = run_fresh(
        f"""
        import numpy as np

        if {package_first}:
            from scipy.linalg import lapack
        pttrf, pttrs = local_solver._lapack_pt()
        if not {package_first}:
            from scipy.linalg import lapack
        same = [pttrf is lapack.dpttrf, pttrs is lapack.dpttrs]
        bitwise = []
        for m in (7, 8):
            diag, off = 2.0 + np.arange(m) / m, -0.5 * np.cos(np.arange(m - 1.0))
            rhs = np.sin(np.arange(1.0, m + 1.0))
            ours, theirs = pttrf(diag, off), lapack.dpttrf(diag, off)
            x, y = pttrs(*ours[:2], rhs), lapack.dpttrs(*theirs[:2], rhs)
            bitwise.append(ours[2] == theirs[2] == x[1] == y[1] == 0
                           and all(a.tobytes() == b.tobytes()
                                   for a, b in zip((*ours[:2], x[0]), (*theirs[:2], y[0]))))
        print(json.dumps({{"same": same, "bitwise": bitwise}}))
        """,
        tmp_path,
    )
    assert seen == {"same": [True, True], "bitwise": [True, True]}
