"""Every frontlab function the benchmark wraps exists: bench/tracing.py is
loaded from its file and only read, so a rename in the package fails here
instead of in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
spec = importlib.util.spec_from_file_location("bench_tracing", SCRIPT)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

# TRACED in traced runs; SolveMeter wraps both solvers' solve in every run.
WRAPPED = sorted({(module, name) for module, names in tracing.TRACED.items() for name in names}
                 | {("local_solver", "solve"), ("nonlocal_solver", "solve")})


@pytest.mark.parametrize("module, name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_wrapped_name_is_a_callable_of_its_frontlab_module(module, name):
    assert callable(getattr(importlib.import_module(f"frontlab.{module}"), name, None))
