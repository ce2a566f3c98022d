"""Deterministic file output for runs: CSV trajectories and JSON metadata.

Floats are written with 17 significant digits so identical runs produce
byte-identical files; writes go to a temporary file in the target directory
and are renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_boundary_csv(sol, path) -> None:
    lines = ["t,g,h"]
    for t, g, h in zip(sol.boundary_times, sol.boundary_g, sol.boundary_h):
        lines.append(f"{fmt(t)},{fmt(g)},{fmt(h)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_boundary_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def write_snapshot_csv(x: np.ndarray, v: np.ndarray, path) -> None:
    lines = ["x,v"]
    for xi, vi in zip(x, v):
        lines.append(f"{fmt(xi)},{fmt(vi)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_metadata_json(meta: dict, path) -> None:
    atomic_write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def write_sweep_csv(rows, path) -> None:
    """Rows of (eps, sup_error, g_error, h_error), plot-ready."""
    lines = ["eps,sup_error,g_error,h_error"]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_sweep_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_error_json(code: str, message: str, time_of_failure, path) -> None:
    payload = {
        "code": code,
        "message": message,
        "time_of_failure": None if time_of_failure is None else float(time_of_failure),
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")
