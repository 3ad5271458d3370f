import importlib.util
import json
import math
import shutil
from pathlib import Path

import pytest

from dpgrr.cli import main

REPO = Path(__file__).resolve().parents[1]

SYNTH_YAML = """\
dataset:
  synthetic: {m: 2, n: 3, d: 3, seed: 5, separation: 0.8}
loss: logistic
regularizer: {kind: l1, lam: 0.05}
graph:
  eta: 0.2
  B: 1
  steps_mode: {fixed: 2}
  slots:
    - [[0, 1]]
algorithms:
  - {name: dpg-rr, step: {rule: sqrt_horizon}}
  - {name: dpg-sg, step: {rule: sqrt_horizon}}
T: 4
seeds: [3]
output_dir: out
"""


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "scripts" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    """One ``dpgrr run`` output tree: two CSVs and a manifest."""
    work = tmp_path_factory.mktemp("run")
    (work / "synth.yaml").write_text(SYNTH_YAML)
    out = work / "out" / "synth"
    assert main(["run", "--config", str(work / "synth.yaml"), "--output", str(out), "-q"]) == 0
    return work / "out"


@pytest.fixture
def trees(tree, tmp_path) -> tuple[Path, Path]:
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(tree, old)
    shutil.copytree(tree, new)
    return old, new


CSV = Path("synth") / "dpg_rr_metrics.csv"
MANIFEST = Path("synth") / "manifest.json"


def _edit_cell(path: Path, row: int, column: str, edit) -> tuple[str, str]:
    """Replace one CSV cell by ``edit(cell)``; return the old and new text."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    old, cells[col] = cells[col], edit(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return old, cells[col]


def _run(compare, old: Path, new: Path, capsys) -> tuple[int, str]:
    status = compare.main([str(old), str(new)])
    return status, capsys.readouterr().out


def test_two_copies_of_one_tree_pass(compare, trees, capsys):
    status, out = _run(compare, *trees, capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[:-1] == [f"{rel}: byte-identical" for rel in sorted(
        str(p.relative_to(trees[0])) for p in trees[0].rglob("*") if p.is_file())]
    assert lines[-1] == "PASS: 0 of 3 files fail"


def test_a_value_moved_by_1e_11_fails(compare, trees, capsys):
    _edit_cell(trees[1] / CSV, 3, "F_bar", lambda c: repr(float(c) + 1e-11))
    status, out = _run(compare, *trees, capsys)
    assert status == 1
    assert f"{CSV}: FAIL row 3 F_bar" in out
    assert out.splitlines()[-1] == "FAIL: 1 of 3 files fail"


def test_a_one_ulp_move_passes_and_is_reported(compare, trees, capsys):
    old, new = _edit_cell(trees[1] / CSV, 2, "F_hat",
                          lambda c: repr(math.nextafter(float(c), math.inf)))
    status, out = _run(compare, *trees, capsys)
    assert status == 0
    ulp = float(new) - float(old)
    assert f"{CSV}: moved F_hat abs {ulp:.3g} rel {ulp / abs(float(old)):.3g}" in out.splitlines()


def test_a_manifest_float_within_tolerance_passes_and_a_string_must_match(
    compare, trees, capsys
):
    path = trees[1] / MANIFEST
    manifest = json.loads(path.read_text())
    manifest["F_star"] = math.nextafter(manifest["F_star"], 0.0)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    status, out = _run(compare, *trees, capsys)
    assert status == 0
    assert f"{MANIFEST}: moved F_star abs" in out
    manifest["F_star_source"] += "!"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    status, out = _run(compare, *trees, capsys)
    assert status == 1
    assert f"{MANIFEST}: FAIL F_star_source" in out


def _drop_file(old: Path, new: Path) -> None:
    (new / CSV).unlink()


def _extra_file(old: Path, new: Path) -> None:
    shutil.copy(new / CSV, new / "synth" / "dpg_ig_metrics.csv")


def _extra_row(old: Path, new: Path) -> None:
    path = new / CSV
    path.write_text(path.read_text() + path.read_text().splitlines()[-1] + "\n")


def _renamed_column(old: Path, new: Path) -> None:
    path = new / CSV
    path.write_text(path.read_text().replace("V_t", "V", 1))


def _non_float_cell(old: Path, new: Path) -> None:
    # the initial row's empty F_hat gets a value
    _edit_cell(new / CSV, 1, "F_hat", lambda c: "0.5")


def _manifest_key(old: Path, new: Path) -> None:
    path = new / MANIFEST
    manifest = json.loads(path.read_text())
    del manifest["dropped_samples"]
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("mutate", [
    _drop_file, _extra_file, _extra_row, _renamed_column, _non_float_cell, _manifest_key,
])
def test_a_changed_shape_fails(compare, trees, capsys, mutate):
    mutate(*trees)
    status, out = _run(compare, *trees, capsys)
    assert status == 1
    assert out.splitlines()[-1].startswith("FAIL: 1 of ")
