"""The comparison of scripts/byte_identity.py on tiny synthetic trees; no solve runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_identity.py"
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
