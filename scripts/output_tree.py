#!/usr/bin/env python3
"""Write the set of run outputs that two commits are compared on.

Usage: python3 scripts/output_tree.py TREE OUT

TREE is a checkout of this repository and OUT a directory to create.
Every run imports TREE's ``dpgrr`` from ``TREE/src``, runs in TREE, and
writes below OUT:

- ``NAME/`` and ``NAME.stdout``, for every shipped ``configs/NAME.yaml``;
- ``rate_summary.stdout``, from TREE's ``scripts/rate_summary.py``;
- ``empty_store/NAME/`` and its stdout, each config again with a store
  that does not exist, so that every F* is solved on the fly;
- ``diagnostics/NAME/`` and its stdout, each config again with TREE's
  committed store and both diagnostics on;
- ``cadence/NAME/`` and its stdout, as ``diagnostics/`` but recording
  every 7th epoch (``snapshot_cadence: 7``), a cadence that divides no
  shipped horizon, so that chunks skip epochs and end between records;
- ``WORKLOAD/seedS/``, every bench workload at seeds 0 and 1, its config
  written by this checkout's ``bench/workloads.py`` whatever TREE is.

Each copy reads its data through the symlink ``tree`` beside OUT, which
points at TREE while the script runs.  So two calls, one after the
other, whose OUTs share a parent name the same data paths in their
manifests, and ``scripts/compare_outputs.py`` compares the two sets:

    python3 scripts/output_tree.py BASE out/base
    python3 scripts/output_tree.py . out/change
    python3 scripts/compare_outputs.py out/base out/change
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))

from bench.workloads import WORKLOADS, prepare  # noqa: E402


def copy_config(config: Path, root: str, fixtures: str, diagnostics: bool = False,
                cadence: int | None = None) -> dict:
    """The shipped ``config`` with its libsvm data read below ``root`` and
    its store at ``fixtures``; with ``diagnostics``, both diagnostics on,
    and with ``cadence``, that ``snapshot_cadence``."""
    raw = yaml.safe_load(config.read_text())
    libsvm = raw["dataset"].get("libsvm")
    if libsvm is not None:
        libsvm["path"] = f"{root}/configs/{libsvm['path']}"
    raw["fixtures"] = fixtures
    if diagnostics:
        raw["diagnostics"] = {"record_v": True, "record_sigma_star": True}
    if cadence is not None:
        raw["snapshot_cadence"] = cadence
    return raw


def write_outputs(tree: Path, out: Path, link: Path, work: Path) -> None:
    """Every output of ``tree`` below ``out``; the copies go in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    found = subprocess.run([sys.executable, "-c", "import dpgrr; print(dpgrr.__file__)"],
                           cwd=tree, env=env, check=True, capture_output=True, text=True)
    if found.stdout.strip() != str(tree / "src" / "dpgrr" / "__init__.py"):
        raise SystemExit(f"dpgrr imports from {found.stdout.strip()}, not from {tree}/src")

    def run(args: list[str], stdout: Path | None = None) -> None:
        with open(stdout or os.devnull, "w") as fh:
            subprocess.run([sys.executable, *args], cwd=tree, env=env, stdout=fh, check=True)

    configs = sorted((tree / "configs").glob("*.yaml"))
    for config in configs:
        run(["-m", "dpgrr.cli", "run", "--config", str(config.relative_to(tree)),
             "--output", str(out / config.stem)], out / f"{config.stem}.stdout")
    run([str(tree / "scripts" / "rate_summary.py")], out / "rate_summary.stdout")

    committed = f"{link}/configs/fixtures/oracle.json"
    copies = {
        # a store below the copies, where none is, or TREE's committed store
        "empty_store": ("fixtures/oracle.json", False, None),
        "diagnostics": (committed, True, None),
        "cadence": (committed, True, 7),
    }
    for kind, (fixtures, diagnostics, cadence) in copies.items():
        (work / kind).mkdir()
        (out / kind).mkdir()
        for config in configs:
            copy = work / kind / config.name
            copy.write_text(json.dumps(
                copy_config(config, str(link), fixtures, diagnostics, cadence)))
            run(["-m", "dpgrr.cli", "run", "--config", str(copy),
                 "--output", str(out / kind / config.stem)], out / kind / f"{config.stem}.stdout")
    if (work / "empty_store" / "fixtures").exists():
        raise SystemExit("a run with no store wrote one")

    for seed in (0, 1):
        for name, workload in WORKLOADS.items():
            rep_dir = work / "workloads" / name / f"seed{seed}"
            prepare(workload, link, rep_dir, seed)
            run(["-m", "dpgrr.cli", "run", "--config", str(rep_dir / "config.yaml"),
                 "--output", str(out / name / f"seed{seed}"), "-q"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).absolute()
    link = out.parent / "tree"
    if not (tree / "src" / "dpgrr").is_dir():
        print(f"{tree} is not a checkout of dpgrr", file=sys.stderr)
        return 2
    if out.exists() or (link.exists() and not link.is_symlink()):
        print(f"{out} or {link} is in the way", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    link.unlink(missing_ok=True)
    link.symlink_to(tree, target_is_directory=True)
    try:
        with tempfile.TemporaryDirectory() as work:
            write_outputs(tree, out, link, Path(work))
    except subprocess.CalledProcessError as exc:
        print(f"FAIL: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        link.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
