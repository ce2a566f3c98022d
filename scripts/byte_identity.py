#!/usr/bin/env python3
"""Byte-identity check of frontlab's outputs between two source trees.

    python3 scripts/byte_identity.py --parent PARENT_TREE --change CHANGE_TREE

Runs the thirteen commands of ``RECIPE`` in each tree with
``PYTHONPATH=<tree>/src python -m frontlab``, from the tree itself (so the
configs are its own), writing each command's output directory and its
captured stdout and exit status under a temporary work directory.  One
custom kernel table and two configs that neither tree ships are written
there first, and both sides read them by their absolute paths.  It then
compares the two sides file by file, prints the number of files compared
and every path that differs or exists on one side only (for a CSV or JSON
file on both sides, with the largest absolute difference between its
numeric fields), and exits 1 on any difference, keeping the work directory
for a look; identical outputs are removed.
Standard library only.
"""

import argparse
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# A decimal or exponent number, or a NaN / infinity as Python or JSON writes it.
NUMBER = re.compile(
    rb"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z_])[-+]?(?:NaN|nan|Infinity|inf)\b"
)
EPS = ["--eps", "0.2", "--eps", "0.1", "--eps", "0.05"]
# In RECIPE, these stand for the files write_inputs writes into the work directory.
KERNEL_TABLE = "<kernel-table>"
FAST_STEFAN = "<fast-stefan-config>"
FLAT_STEFAN = "<flat-stefan-config>"

# name -> frontlab arguments; the ones that write files get --out <work>/<side>/out/<name>.
# The last four fail on purpose, so the shared failure path (error.json and
# the exit status) is compared too.
RECIPE = {
    "converge-stefan": ["converge", "--config", "configs/stefan.cfg", *EPS,
                        "--nx", "512", "--dt", "5e-4"],
    "converge-fisher": ["converge", "--config", "configs/fisher.cfg", *EPS,
                        "--variant", "unmodified", "--c1", "10", "--kernel", "triangle",
                        "--nx", "256", "--dt", "1e-3"],
    "solve-nonlocal-fisher": ["solve", "--config", "configs/fisher.cfg", "--solver", "nonlocal",
                              "--eps", "0.05"],
    "solve-nonlocal-fisher-quartic": ["solve", "--config", "configs/fisher.cfg",
                                      "--solver", "nonlocal", "--eps", "0.05",
                                      "--kernel", "quartic"],
    "solve-nonlocal-fisher-custom-kernel": ["solve", "--config", "configs/fisher.cfg",
                                            "--solver", "nonlocal", "--eps", "0.1",
                                            "--kernel-file", KERNEL_TABLE],
    "solve-local-stefan-i1": ["solve", "--config", "configs/stefan.cfg", "--solver", "local",
                              "--preset", "i1", "--nx", "1000"],
    "solve-local-fisher-i2": ["solve", "--config", "configs/fisher.cfg", "--solver", "local",
                              "--preset", "i2", "--nx", "333"],
    # the local solves of the sandwich-local benchmark are this size
    "solve-local-stefan-i2-1024": ["solve", "--config", "configs/stefan.cfg", "--solver", "local",
                                   "--preset", "i2", "--nx", "1024", "--dt", "1e-4"],
    "verify-all": ["verify", "all"],
    # exit 2, bad_manifest: the unmodified law needs --c1
    "solve-unmodified-no-c1": ["solve", "--config", "configs/stefan.cfg", "--solver", "nonlocal",
                               "--variant", "unmodified"],
    # exit 3, resolution_too_coarse at t = 0: eps/dx = 4 < 8, before any solve
    "converge-coarse-dx": ["converge", "--config", "configs/stefan.cfg", *EPS,
                           "--dx-ratio", "4"],
    # exit 3, cfl_violation at t = 0 of the first nonlocal solve (front move),
    # after reference/ is written
    "converge-front-move": ["converge", "--config", FAST_STEFAN, *EPS,
                            "--nx", "64", "--dt", "1e-3"],
    # exit 2, invalid_config: v0 = 0 is not positive and has no slope at +-h0
    "solve-flat-bump": ["solve", "--config", FLAT_STEFAN],
}


def write_kernel_table(path: Path) -> Path:
    """A 9-row custom kernel table, J(z) = cos^2(pi z / 2) + 0.05 on
    z = 0, 1/8, ..., 1, written to path; returns path."""
    zs = [i / 8 for i in range(9)]
    path.write_text("".join(f"{z!r} {math.cos(math.pi * z / 2) ** 2 + 0.05!r}\n" for z in zs))
    return path


def write_fast_stefan_config(path: Path) -> Path:
    """The Stefan config with mu = 5 and T = 0.05, written to path; returns
    path.  A nonlocal front at eps 0.2 would move more than dx in its first
    step."""
    path.write_text("d = 1\nmu = 5\nh0 = 1\nT = 0.05\nreaction.family = zero\n"
                    "initial.family = quadratic_bump\ninitial.V = 1\n")
    return path


def write_flat_stefan_config(path: Path) -> Path:
    """The Stefan config with initial.V = 0, written to path; returns path.
    It loads, and validate rejects it under (1.2a)."""
    path.write_text("d = 1\nmu = 1\nh0 = 1\nT = 1\nreaction.family = zero\n"
                    "initial.family = quadratic_bump\ninitial.V = 0\n")
    return path


def write_inputs(work: Path) -> dict[str, Path]:
    """Write the files RECIPE's placeholders stand for into work; returns
    placeholder -> path."""
    return {KERNEL_TABLE: write_kernel_table(work / "kernel_table.txt"),
            FAST_STEFAN: write_fast_stefan_config(work / "fast_stefan.cfg"),
            FLAT_STEFAN: write_flat_stefan_config(work / "flat_stefan.cfg")}


def frontlab_args(name: str, out_root: Path, inputs: dict[str, Path]) -> list[str]:
    """RECIPE[name], with each placeholder replaced by the absolute path of
    its file in inputs and --out out_root/<name> for a command that writes
    files."""
    args = [str(inputs[a].resolve()) if a in inputs else a for a in RECIPE[name]]
    return args if args[0] == "verify" else [*args, "--out", str(out_root / name)]


def run_recipe(tree: Path, work: Path, inputs: dict[str, Path]) -> None:
    """Run every RECIPE command in tree; outputs go to work/out/<name>, and
    stdout plus the exit status to work/stdout/<name>.txt."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    (work / "stdout").mkdir(parents=True, exist_ok=True)
    for name in RECIPE:
        args = frontlab_args(name, work / "out", inputs)
        print(f"{tree}: frontlab {' '.join(args)}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, "-m", "frontlab", *args], cwd=tree, env=env,
                              stdout=subprocess.PIPE)
        text = done.stdout + f"exit {done.returncode}\n".encode()
        (work / "stdout" / f"{name}.txt").write_bytes(text)


def compare_trees(a: Path, b: Path) -> tuple[int, list[str]]:
    """Files under a or b, counted once per relative path, and the sorted
    relative paths whose bytes differ or that exist on one side only."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    paths = files(a) | files(b)
    differing = [
        rel for rel in sorted(paths)
        if not ((a / rel).is_file() and (b / rel).is_file()
                and (a / rel).read_bytes() == (b / rel).read_bytes())
    ]
    return len(paths), differing


def largest_numeric_difference(a: bytes, b: bytes) -> float | None:
    """Largest |x - y| over the numeric fields of two texts, paired in order
    (fields written alike count 0, and a NaN difference counts as inf); None
    when the two hold different numbers of numeric fields."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(xs, ys):
        if x != y:
            diff = abs(float(x) - float(y))
            worst = max(worst, math.inf if math.isnan(diff) else diff)
    return worst


def describe(a: Path, b: Path, differing: list[str]) -> list[str]:
    """One line per differing path; a CSV or JSON file on both sides also
    gets the largest difference between its numeric fields."""
    lines = []
    for rel in differing:
        line = f"  differs: {rel}"
        if Path(rel).suffix in (".csv", ".json") and (a / rel).is_file() and (b / rel).is_file():
            diff = largest_numeric_difference((a / rel).read_bytes(), (b / rel).read_bytes())
            line += ("; numeric field counts differ" if diff is None
                     else f"; largest numeric difference {diff:.3g}")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    work = Path(tempfile.mkdtemp(prefix="byte_identity_"))
    inputs = write_inputs(work)
    for side in SIDES:
        run_recipe(trees[side], work / side, inputs)
    count, differing = compare_trees(work / "parent", work / "change")
    print(f"{count} files compared (outputs, and stdout with exit status per command), "
          f"{len(differing)} differ")
    for line in describe(work / "parent", work / "change", differing):
        print(line)
    if differing:
        print(f"outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
