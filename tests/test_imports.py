"""What a fresh process loads: no SciPy module, local solves included (they
call the LAPACK that numpy bundles), no process pool, converge sweeps
included (they solve their eps values serially), and neither numpy.ma nor
numpy.polynomial.

Each test runs its script in a new interpreter, because this test process
has long since imported SciPy and the other modules in question.  Only module names are asserted, never times.
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
    assert seen["local"] == NONE
    assert seen["cli_local"] == NONE


def test_converge_loads_no_pool(tmp_path):
    seen = run_fresh(
        """
        problem.save_config(problem.symmetric_stefan(T=0.05), "stefan.cfg")
        code = cli.cmd_converge("stefan.cfg", [0.2, 0.1, 0.05], "sweep", reference_nx=64,
                                reference_dt=1e-3, dx_ratio=8.0)
        print(json.dumps({"code": code, "loaded": loaded()}))
        """,
        tmp_path,
    )
    assert seen["code"] == 0
    assert seen["loaded"] == NONE


@pytest.mark.parametrize("package_first", [False, True], ids=["loader-first", "package-first"])
def test_lapack_loader_gives_the_scipy_linalg_functions(tmp_path, package_first):
    # numpy's OpenBLAS routines, called through ctypes as the local solver
    # calls them, give SciPy's dpttrf and dpttrs factors and solutions bit for
    # bit, whether SciPy (and its own OpenBLAS) is imported after they ran or
    # before they were looked up.
    seen = run_fresh(
        f"""
        import ctypes
        import numpy as np

        if {package_first}:
            from scipy.linalg import lapack
        pttrf, pttrs = local_solver._lapack_pt()

        def data(m):
            diag, off = 2.0 + np.arange(m) / m, -0.5 * np.cos(np.arange(m - 1.0))
            return diag, off, np.sin(np.arange(1.0, m + 1.0))

        def buffer(values):
            buf = (ctypes.c_double * values.size)()
            np.frombuffer(buf)[:] = values
            return buf

        ours = {{}}
        for m in (7, 8, 1023, 1024):
            d, e, b = map(buffer, data(m))
            n, one, info = ctypes.c_int64(m), ctypes.c_int64(1), ctypes.c_int64()
            pttrf(ctypes.byref(n), d, e, ctypes.byref(info))
            infos = [info.value]
            pttrs(ctypes.byref(n), ctypes.byref(one), d, e, b, ctypes.byref(n),
                  ctypes.byref(info))
            infos.append(info.value)
            ours[m] = infos, [np.frombuffer(buf).tobytes() for buf in (d, e, b)]
        before = loaded()
        if not {package_first}:
            from scipy.linalg import lapack

        bitwise = []
        for m, (infos, got) in ours.items():
            diag, off, rhs = data(m)
            d, e, info = lapack.dpttrf(diag, off)
            x, info2 = lapack.dpttrs(d, e, rhs)
            bitwise.append(infos == [info, info2] == [0, 0]
                           and got == [a.tobytes() for a in (d, e, x)])
        print(json.dumps({{"before": before, "bitwise": bitwise}}))
        """,
        tmp_path,
    )
    # SciPy brings numpy.ma and numpy.polynomial along, so only the loader-first
    # process is held to NONE.
    if package_first:
        assert seen["before"]["scipy.linalg"]
    else:
        assert seen["before"] == NONE
    assert seen["bitwise"] == [True] * 4
