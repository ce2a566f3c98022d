"""Instrumentation the benchmark wraps around frontlab from the outside.

Nothing here edits the package: a wrapper replaces a public function in every
frontlab module namespace that holds it (``problem.eval_reaction`` is imported
by name into three other modules), so callers that look the name up at call
time reach the wrapper.  ``SolveMeter`` times only the top-level solve calls
and runs in every mode; ``Tracer`` records a span per wrapped call, keeps the
spans in memory and reduces them to per-layer figures at the end.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped per layer (module of frontlab -> function names).
TRACED = {
    "kernels": ("integrate_against",),
    "problem": ("validate", "eval_reaction"),
    "local_solver": ("solve", "step", "boundary_velocities"),
    "nonlocal_solver": (
        "solve",
        "step",
        "apply_nonlocal_operator",
        "boundary_flux",
        "operator_stencil",
        "flux_weights",
    ),
    "analysis": ("sup_error", "sandwich_check", "mass_residual"),
    "runio": (
        "atomic_write_text",
        "write_boundary_csv",
        "write_snapshot_csv",
        "write_metadata_json",
        "write_sweep_csv",
        "write_error_json",
    ),
    "cli": ("cmd_converge",),
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("kernels.integrate_against.calls", "count"),
    ("kernels.integrate_against.s", "s"),
    ("problem.validate.s", "s"),
    ("problem.eval_reaction.s", "s"),
    ("problem.eval_reaction.calls", "count"),
    ("local_solver.solve.s", "s"),
    ("local_solver.steps", "count"),
    ("local_solver.step.self_s", "s"),
    ("local_solver.boundary_velocities.s", "s"),
    ("nonlocal_solver.solve.s", "s"),
    ("nonlocal_solver.steps", "count"),
    ("nonlocal_solver.step.self_s", "s"),
    ("nonlocal_solver.apply_nonlocal_operator.s", "s"),
    ("nonlocal_solver.boundary_flux.s", "s"),
    ("nonlocal_solver.grid_nodes", "count"),
    ("nonlocal_solver.active_nodes", "count"),
    ("nonlocal_solver.active_fraction", "ratio"),
    ("nonlocal_solver.grow_events", "count"),
    ("nonlocal_solver.stencils.s", "s"),
    ("analysis.sup_error.s", "s"),
    ("analysis.sandwich_check.s", "s"),
    ("analysis.mass_residual.s", "s"),
    ("runio.write.s", "s"),
    ("runio.bytes", "count"),
    ("cli.cmd_converge.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


# Metrics whose span key differs from the metric name.
_SPAN_KEYS = {
    "local_solver.steps": "local_solver.step.calls",
    "nonlocal_solver.steps": "nonlocal_solver.step.calls",
}


def active_node_counts(g, h, dx: float) -> np.ndarray:
    """Grid points j*dx strictly inside (g, h), per boundary sample.

    The floor/ceil guesses are moved by one node where rounding put them on
    the wrong side, so the count equals the solver's own active mask.
    """
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    lo = np.floor(g / dx).astype(np.int64)
    lo = np.where(lo * dx <= g, lo + 1, lo)
    lo = np.where((lo - 1) * dx > g, lo - 1, lo)
    hi = np.ceil(h / dx).astype(np.int64)
    hi = np.where(hi * dx >= h, hi - 1, hi)
    hi = np.where((hi + 1) * dx < h, hi + 1, hi)
    return np.maximum(hi - lo + 1, 0)


def node_steps(sol) -> int:
    """Active node updates in a solve: n_cells - 1 per local step, the grid
    points strictly inside (g, h) per nonlocal step."""
    n_steps = len(sol.boundary_times) - 1
    if hasattr(sol, "n_cells"):
        return (sol.n_cells - 1) * n_steps
    return int(np.sum(active_node_counts(sol.boundary_g[:-1], sol.boundary_h[:-1], sol.dx)))


class Patcher:
    """Replaces a function in every frontlab namespace that holds it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, func_name: str, make_wrapper) -> None:
        module = sys.modules[f"frontlab.{module_name}"]
        original = getattr(module, func_name)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if (name == "frontlab" or name.startswith("frontlab.")) and mod is not None:
                if mod.__dict__.get(func_name) is original:
                    self._undo.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)

    def restore(self) -> None:
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)


class SolveMeter:
    """Time inside local/nonlocal ``solve`` calls and the node steps they did."""

    def __init__(self):
        self.seconds = 0.0
        self.node_steps = 0
        self._patcher = Patcher()

    def install(self) -> None:
        for module_name in ("local_solver", "nonlocal_solver"):
            self._patcher.wrap(module_name, "solve", self._wrapper)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrapper(self, original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            sol = original(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.node_steps += node_steps(sol)
            return sol

        return timed


class Tracer:
    """Spans (name, phase, start, end, parent) around each wrapped call."""

    def __init__(self):
        self.phase = "setup"
        self._names: list[str] = []
        self._phases: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self._bytes: dict[str, int] = defaultdict(int)
        self._nonlocal_states: dict[str, list[tuple[int, int, float, float, float]]] = (
            defaultdict(list)
        )
        self._patcher = Patcher()

    def install(self) -> None:
        for module_name, funcs in TRACED.items():
            for func_name in funcs:
                self._patcher.wrap(
                    module_name, func_name, self._make_wrapper(module_name, func_name)
                )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _make_wrapper(self, module_name: str, func_name: str):
        span_name = f"{module_name}.{func_name}"
        if func_name in ("operator_stencil", "flux_weights"):
            return lambda original: self._stencil_wrapper(original)
        if span_name == "nonlocal_solver.step":
            return lambda original: self._nonlocal_step_wrapper(original)
        if span_name == "runio.atomic_write_text":
            return lambda original: self._write_wrapper(original, span_name)
        return lambda original: self._span_wrapper(original, span_name)

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._phases.append(self.phase)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, original, name):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _write_wrapper(self, original, name):
        @functools.wraps(original)
        def traced(path, text, *args, **kwargs):
            self._bytes[self.phase] += len(text.encode("utf-8"))
            idx = self._open(name)
            try:
                return original(path, text, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _stencil_wrapper(self, original):
        # Only cache misses do work; a hit stays in the caller's self time.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            misses = original.cache_info().misses
            idx = self._open("nonlocal_solver.stencils")
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)
                if original.cache_info().misses == misses:
                    self._names[idx] = "nonlocal_solver.stencils.hit"

        traced.cache_info = original.cache_info
        traced.cache_clear = original.cache_clear
        return traced

    def _nonlocal_step_wrapper(self, original):
        @functools.wraps(original)
        def traced(state, *args, **kwargs):
            idx = self._open("nonlocal_solver.step")
            try:
                out = original(state, *args, **kwargs)
            finally:
                self._close(idx)
            self._nonlocal_states[self.phase].append(
                (state.values.size, out.values.size, out.dx, out.g, out.h)
            )
            return out

        return traced

    # -- reduction ------------------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per phase: inclusive and self seconds and call counts per span name."""
        n = len(self._names)
        starts = np.array(self._starts[:n])
        ends = np.array(self._ends[:n])
        parents = np.array(self._parents[:n], dtype=np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name, phase = self._names[i], self._phases[i]
            tot = totals[phase]
            tot[f"{name}.s"] += dur[i]
            tot[f"{name}.self_s"] += self_s[i]
            tot[f"{name}.calls"] += 1
            parent = parents[i]
            if name.startswith("runio.") and (
                parent < 0 or not self._names[parent].startswith("runio.")
            ):
                tot["runio.write.s"] += dur[i]
        for phase, nbytes in self._bytes.items():
            totals[phase]["runio.bytes"] += nbytes
        for phase, rows in self._nonlocal_states.items():
            arr = np.array(rows)
            before, after = arr[:, 0], arr[:, 1]
            active = self._active_per_row(arr)
            tot = totals[phase]
            tot["nonlocal_solver.grid_nodes"] = float(np.mean(after))
            tot["nonlocal_solver.active_nodes"] = float(np.mean(active))
            tot["nonlocal_solver.active_fraction"] = float(np.sum(active) / np.sum(after))
            tot["nonlocal_solver.grow_events"] = float(np.count_nonzero(after != before))
        return totals

    @staticmethod
    def _active_per_row(arr: np.ndarray) -> np.ndarray:
        out = np.empty(arr.shape[0])
        for dx in np.unique(arr[:, 2]):
            rows = arr[:, 2] == dx
            out[rows] = active_node_counts(arr[rows, 3], arr[rows, 4], dx)
        return out

    def write_spans(self, path) -> None:
        """Every span as CSV (gzip): name, phase, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,phase,start,end,parent\n")
            for row in zip(self._names, self._phases, self._starts, self._ends, self._parents):
                fh.write("%s,%s,%.9f,%.9f,%d\n" % row)


def layer_metrics(
    totals: dict[str, dict[str, float]],
    round_phases: list[str],
    import_s: float,
    traced_wall: list[float],
    untraced_wall: list[float],
) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round (mean over rounds)."""
    setup = totals.get("setup", {})
    per_round = [totals.get(p, {}) for p in round_phases]

    def pick(key: str) -> float:
        base = float(setup.get(key, 0.0))
        if per_round:
            base += statistics.fmean(float(r.get(key, 0.0)) for r in per_round)
        return base

    values = {
        name: pick(_SPAN_KEYS.get(name, name))
        for name, _ in LAYER_METRICS
        if not name.startswith(("setup.", "trace."))
    }
    values["setup.import_s"] = import_s
    values["trace.wall_s"] = statistics.fmean(traced_wall)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(untraced_wall)
    return values
