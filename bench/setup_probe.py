"""Set up one workload in a fresh process and report when it is ready.

    python3 bench/setup_probe.py <workload>

Prints one JSON line, ``{"import_s": ...}``, once the process is ready to
march: frontlab imported, the config loaded and validated, kernel constants
and stencils computed.  ``run.py`` times spawn to that line as ``setup_s``.
"""

import os
import shutil
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import frontlab.cli  # noqa: E402,F401  (pulls in every layer)

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

work = ROOT / ".bench_runs" / f"probe-{os.getpid()}"
work.mkdir(parents=True, exist_ok=True)
try:
    workloads.WORKLOADS[sys.argv[1]]().setup(ROOT, work)
    print('{"import_s": %.9f}' % import_s, flush=True)
finally:
    shutil.rmtree(work, ignore_errors=True)
