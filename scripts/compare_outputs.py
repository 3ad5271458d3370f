#!/usr/bin/env python3
"""Compare two trees of run outputs: every value within 1e-12 or fail.

Usage: python3 scripts/compare_outputs.py OLD NEW

OLD and NEW are directories of ``dpgrr run`` outputs, for instance the
``out/`` trees of two commits.  Files are matched by their path below
each directory.  For each metrics CSV the script prints
``byte-identical``, or the largest absolute and relative deviation of
each column whose values moved.  Each ``manifest.json`` is compared key
by key: floats within the tolerance, every other value exactly.  Any
other file must be byte-identical.

Exits 1 if a value moves by more than 1e-12, or if the set of files, a
header, a row count or a non-float cell differs; else 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

TOL = 1e-12


class Column:
    """Largest deviations seen in one column (or manifest key)."""

    def __init__(self) -> None:
        self.abs = 0.0
        self.rel = 0.0
        self.moved = False

    def add(self, old: float, new: float) -> bool:
        """Record two differently written values; False if they differ by
        more than TOL."""
        self.moved = True
        dev = 0.0 if math.isnan(old) and math.isnan(new) else abs(new - old)
        if math.isnan(dev):  # NaN against a number, or opposite infinities
            dev = math.inf
        self.abs = max(self.abs, dev)
        if dev:
            self.rel = max(self.rel, dev / abs(old) if old else math.inf)
        return dev <= TOL

    def render(self, name: str) -> str:
        return f"{name} abs {self.abs:.3g} rel {self.rel:.3g}"


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(old: str, new: str, problems: list[str]) -> list[str]:
    """Deviation lines of one CSV's moved columns; appends what fails."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if not old_lines or not new_lines or old_lines[0] != new_lines[0]:
        problems.append(f"header {old_lines[:1]} became {new_lines[:1]}")
        return []
    if len(old_lines) != len(new_lines):
        problems.append(f"{len(old_lines) - 1} rows became {len(new_lines) - 1}")
        return []
    header = old_lines[0].split(",")
    columns = [Column() for _ in header]
    for number, (old_row, new_row) in enumerate(zip(old_lines[1:], new_lines[1:]), 1):
        old_cells, new_cells = old_row.split(","), new_row.split(",")
        if len(old_cells) != len(header) or len(new_cells) != len(header):
            problems.append(f"row {number} does not have {len(header)} cells")
            continue
        for name, column, a, b in zip(header, columns, old_cells, new_cells):
            if a == b:
                continue
            x, y = _float(a), _float(b)
            if x is None or y is None:
                problems.append(f"row {number} {name}: {a!r} became {b!r}")
            elif not column.add(x, y):
                problems.append(f"row {number} {name}: {a} became {b}")
    return [c.render(name) for name, c in zip(header, columns) if c.moved]


def compare_json(old, new, path: str, moved: dict[str, Column], problems: list[str]) -> None:
    """Walk two JSON values together; floats within TOL, the rest exact."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            problems.append(f"{path or '.'}: keys {sorted(old)} became {sorted(new)}")
            return
        for key in old:
            compare_json(old[key], new[key], f"{path}.{key}" if path else key, moved, problems)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            compare_json(a, b, f"{path}[{i}]", moved, problems)
    elif type(old) is float and type(new) is float:
        if repr(old) == repr(new):
            return
        column = moved.setdefault(path, Column())
        if not column.add(old, new):
            problems.append(f"{path}: {old!r} became {new!r}")
    elif type(old) is not type(new) or old != new:
        problems.append(f"{path}: {old!r} became {new!r}")


def compare_file(old: Path, new: Path, problems: list[str]) -> list[str]:
    """Deviation lines of one pair of files; appends what fails."""
    old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
    if old_bytes == new_bytes:
        return []
    if old.suffix == ".csv":
        return compare_csv(old_bytes.decode(), new_bytes.decode(), problems)
    if old.suffix == ".json":
        moved: dict[str, Column] = {}
        compare_json(json.loads(old_bytes), json.loads(new_bytes), "", moved, problems)
        return [c.render(key) for key, c in moved.items()]
    problems.append("bytes differ")
    return []


def compare_trees(old: Path, new: Path) -> tuple[list[str], int, int]:
    """Report lines for every file under either tree, the count of files
    that fail and the count of files."""
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    lines, failures = [], 0
    for rel in sorted(old_files - new_files):
        lines.append(f"{rel}: FAIL missing in {new}")
        failures += 1
    for rel in sorted(new_files - old_files):
        lines.append(f"{rel}: FAIL not in {old}")
        failures += 1
    for rel in sorted(old_files & new_files):
        problems: list[str] = []
        deviations = compare_file(old / rel, new / rel, problems)
        if problems:
            failures += 1
            shown = problems[:5] + ([f"... {len(problems) - 5} more"] if len(problems) > 5 else [])
            lines.append(f"{rel}: FAIL " + "; ".join(shown))
        if deviations:
            lines.append(f"{rel}: moved " + "; ".join(deviations))
        elif not problems:
            lines.append(f"{rel}: byte-identical")
    return lines, failures, len(old_files | new_files)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(arg) for arg in argv)
    for root in (old, new):
        if not root.is_dir():
            print(f"{root} is not a directory", file=sys.stderr)
            return 2
    lines, failures, files = compare_trees(old, new)
    print("\n".join(lines))
    print(f"{'FAIL' if failures else 'PASS'}: {failures} of {files} files fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
