"""Print how far apart the differing files of two output directories are.

Usage: python tools/diff_sizes.py OLD_DIR NEW_DIR

For each file whose bytes differ between the two trees, prints one line:

* CSV: the largest absolute difference over the numeric cells (``#`` comment
  lines are skipped; any other cell must match as text);
* JSON: the largest absolute difference over the number leaves;
* either of them: ``structure differs`` when the shapes, keys or text cells
  do not line up;
* SVG and every other file: only that it differs.

Exits 1 if any file differs or exists on one side only, else 0.  Needs only
the standard library and NumPy.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np


class StructureDiffers(Exception):
    pass


def _gap(a: float, b: float) -> float:
    if a == b or (np.isnan(a) and np.isnan(b)):
        return 0.0
    return abs(a - b) if np.isfinite(a) and np.isfinite(b) else float("inf")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_gap(old: str, new: str) -> float:
    rows = [list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#"))) for text in (old, new)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        raise StructureDiffers
    gap = 0.0
    for row_a, row_b in zip(*rows):
        for a, b in zip(row_a, row_b):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    raise StructureDiffers
            else:
                gap = max(gap, _gap(x, y))
    return gap


def _json_gap(a, b) -> float:
    numeric = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if all(numeric):
        return _gap(float(a), float(b))
    if any(numeric) or type(a) is not type(b):
        raise StructureDiffers
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise StructureDiffers
        return max((_json_gap(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise StructureDiffers
        return max((_json_gap(x, y) for x, y in zip(a, b)), default=0.0)
    if a != b:
        raise StructureDiffers
    return 0.0


def describe(old: Path, new: Path) -> str:
    """One line on how the two differing files differ."""
    try:
        if old.suffix == ".csv":
            return f"max abs difference {_csv_gap(old.read_text(), new.read_text()):.3g}"
        if old.suffix == ".json":
            return f"max abs difference {_json_gap(json.loads(old.read_text()), json.loads(new.read_text())):.3g}"
    except (StructureDiffers, ValueError):
        return "structure differs"
    return "differs"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    names = sorted({p.relative_to(root) for root in (old_root, new_root) for p in root.rglob("*") if p.is_file()})
    differs = False
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_root if old.is_file() else new_root}")
        elif old.read_bytes() != new.read_bytes():
            print(f"{name}: {describe(old, new)}")
        else:
            continue
        differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
