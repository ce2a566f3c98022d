"""The comparison of scripts/byte_identity.py on tiny synthetic trees, and
its recipe's command lines; no solve runs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from frontlab import cli, kernels, problem

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "byte_identity.py"
spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
byte_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_identity)


def write(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_identical_trees_have_no_differing_path(tmp_path):
    files = {"a.csv": b"1,2\n", "eps_0.1/metadata.json": b"{}\n", "eps_0.1/empty": b""}
    a = write(tmp_path / "a", files)
    b = write(tmp_path / "b", files)
    assert byte_identity.compare_trees(a, b) == (3, [])


def test_changed_and_one_sided_files_are_listed(tmp_path):
    a = write(tmp_path / "a", {"same.txt": b"x", "d/changed.csv": b"0.1\n",
                               "only_parent.txt": b"p"})
    b = write(tmp_path / "b", {"same.txt": b"x", "d/changed.csv": b"0.10\n",
                               "e/only_change.txt": b"c"})
    count, differing = byte_identity.compare_trees(a, b)
    assert count == 4
    assert differing == ["d/changed.csv", "e/only_change.txt", "only_parent.txt"]


def test_missing_side_counts_every_file(tmp_path):
    a = write(tmp_path / "a", {"x": b"1", "y/z": b"2"})
    assert byte_identity.compare_trees(a, tmp_path / "absent") == (2, ["x", "y/z"])


def test_differing_csv_and_json_report_their_largest_numeric_difference(tmp_path):
    a = write(tmp_path / "a", {
        "run/boundary.csv": b"t,g,h\n0,-1,1\n0.5,-1.25,1.2500000000000002\n",
        "run/metadata.json": b'{"nx": 64, "sup": 0.1, "name": "eps_0.1"}\n',
        "run/ratefit.json": b'{"gamma": NaN}\n',
        "sweep.csv": b"eps,err\n0.1,0.5\n",
        "stdout/solve.txt": b"h = 1.0\n",
        "only_parent.csv": b"1\n",
    })
    b = write(tmp_path / "b", {
        "run/boundary.csv": b"t,g,h\n0,-1,1\n0.5,-1.2500000000000004,1.25\n",
        "run/metadata.json": b'{"nx": 64, "sup": 0.125, "name": "eps_0.10"}\n',
        "run/ratefit.json": b'{"gamma": 0.5}\n',
        "sweep.csv": b"eps,err\n0.1,0.5\n0.05,0.4\n",
        "stdout/solve.txt": b"h = 2.0\n",
    })
    count, differing = byte_identity.compare_trees(a, b)
    assert count == 6
    assert byte_identity.describe(a, b, differing) == [
        "  differs: only_parent.csv",
        "  differs: run/boundary.csv; largest numeric difference 4.44e-16",
        "  differs: run/metadata.json; largest numeric difference 0.025",
        "  differs: run/ratefit.json; largest numeric difference inf",
        "  differs: stdout/solve.txt",
        "  differs: sweep.csv; numeric field counts differ",
    ]


def test_numeric_difference_pairs_fields_in_order():
    diff = byte_identity.largest_numeric_difference
    assert diff(b"1e-3,-2,.5,inf", b"0.001,-2.0,0.5,inf") == 0.0
    assert diff(b"[1.5e+2, NaN]", b"[150.25, NaN]") == 0.25
    assert diff(b'{"information": -Infinity}', b'{"information": -Infinity}') == 0.0
    assert diff(b"1,2", b"1") is None


@pytest.mark.parametrize("name", list(byte_identity.RECIPE))
def test_recipe_commands_parse(name, tmp_path):
    # argparse exits on a bad command line; each config is the tree's own or,
    # for a placeholder, the file written into the work directory.
    inputs = byte_identity.write_inputs(tmp_path)
    argv = byte_identity.frontlab_args(name, tmp_path / "out", inputs)
    assert not set(argv) & set(inputs)
    args = cli.build_parser().parse_args(argv)
    assert args.command == byte_identity.RECIPE[name][0]
    if args.command == "verify":
        assert args.which == "all"
    else:
        assert (ROOT / args.config).is_file()
        assert args.out == str(tmp_path / "out" / name)


def test_custom_kernel_run_reads_the_written_table_by_absolute_path(tmp_path):
    inputs = byte_identity.write_inputs(tmp_path)
    table = inputs[byte_identity.KERNEL_TABLE]
    args = byte_identity.frontlab_args("solve-nonlocal-fisher-custom-kernel", tmp_path, inputs)
    assert byte_identity.KERNEL_TABLE not in args
    path = Path(args[args.index("--kernel-file") + 1])
    assert path.is_absolute() and path == table.resolve()
    z = np.linspace(0.0, 1.0, 9)
    tab = np.loadtxt(path)
    assert tab.shape == (9, 2)
    assert np.array_equal(tab[:, 0], z)
    assert np.allclose(tab[:, 1], np.cos(np.pi * z / 2) ** 2 + 0.05, rtol=1e-15, atol=0.0)
    kernels.from_file(path)  # raises unless the table is an admissible kernel


def test_front_move_sweep_reads_the_written_config_by_absolute_path(tmp_path):
    inputs = byte_identity.write_inputs(tmp_path)
    args = byte_identity.frontlab_args("converge-front-move", tmp_path, inputs)
    assert byte_identity.FAST_STEFAN not in args
    path = Path(args[args.index("--config") + 1])
    assert path.is_absolute() and path == inputs[byte_identity.FAST_STEFAN].resolve()
    config = problem.load_config(path)
    assert (config.d, config.mu, config.h0, config.T) == (1.0, 5.0, 1.0, 0.05)
    assert config.reaction.family == "zero" and config.initial.family == "quadratic_bump"
    assert problem.validate(config).ok


def test_flat_bump_solve_reads_the_written_config_by_absolute_path(tmp_path):
    inputs = byte_identity.write_inputs(tmp_path)
    args = byte_identity.frontlab_args("solve-flat-bump", tmp_path, inputs)
    assert byte_identity.FLAT_STEFAN not in args
    path = Path(args[args.index("--config") + 1])
    assert path.is_absolute() and path == inputs[byte_identity.FLAT_STEFAN].resolve()
    config = problem.load_config(path)
    assert (config.initial.family, config.initial.V) == ("quadratic_bump", 0.0)
    assert problem.validate(config).violations == (
        "(1.2a): v0 not positive on (-h0, h0)",
        "(1.2a): v0 has vanishing one-sided slope at +-h0",
    )
