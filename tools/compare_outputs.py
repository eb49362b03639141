"""Compare two output trees of ``tools/outputs.py`` cell by cell.

Usage, from any directory::

    python tools/compare_outputs.py <A> <B>

Every file of either tree gets one line, in path order:

* ``identical`` when its bytes are the same in both trees;
* ``missing in A`` or ``missing in B`` when only one tree holds it;
* otherwise the largest absolute and relative deviation between its numeric
  cells, with the count of cells that differ.

A file is cut into cells as it is written: a ``.json`` file into the leaves of
its parsed value (by key and position), any other file line by line into the
tokens between commas, whitespace and ``=``.  A token that parses as a float
is numeric; the relative deviation of two numbers is ``|a - b| / max(|a|,
|b|, RELATIVE_FLOOR)``, so a cell that is itself a rounding residual, such
as a ``max_dev`` of 1e-16, reads its move against 1e-12 and not against
itself.  Two non-finite numbers agree only when equal (NaN agrees with
NaN).  Two files whose cells do not pair up (another line or cell count,
another JSON key or length) or whose non-numeric cells differ are a mismatch.

Exit status: 0 when every file is present in both trees and pairs up, 1 on a
missing file or a mismatch, 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

_SEPARATORS = re.compile(r"[,\s=]+")
# magnitude below which a relative deviation is taken against this floor: the
# scale of a rounding residual in a cell of order 1 to 1e4
RELATIVE_FLOOR = 1e-12


class Mismatch(Exception):
    """The cells of two files do not pair up."""


def _leaves(value, path: str = ""):
    """(path, leaf) of a parsed JSON value, depth first, keys in sorted order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _cells(path: Path) -> list[tuple[str, object]]:
    """(position, cell) of each cell of ``path``; numeric cells as floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        cells = list(_leaves(json.loads(text)))
    else:
        cells = [(f"line {i + 1} cell {j + 1}", token)
                 for i, line in enumerate(text.splitlines())
                 for j, token in enumerate(t for t in _SEPARATORS.split(line) if t)]
    numeric = []
    for position, cell in cells:
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            cell = float(cell)
        elif isinstance(cell, str):
            try:
                cell = float(cell)
            except ValueError:
                pass
        numeric.append((position, cell))
    return numeric


def _deviation(a, b) -> tuple[float, float]:
    """(absolute, relative) deviation of two numeric cells."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    gap = abs(a - b)
    return gap, gap / max(abs(a), abs(b), RELATIVE_FLOOR)


def compare_files(a: Path, b: Path) -> tuple[float, float, int]:
    """(max absolute deviation, max relative deviation, cells that differ) of two files.

    Raises :class:`Mismatch` when their cells do not pair up.
    """
    cells_a, cells_b = _cells(a), _cells(b)
    if [p for p, _ in cells_a] != [p for p, _ in cells_b]:
        raise Mismatch(f"{len(cells_a)} cells against {len(cells_b)}, laid out differently")
    worst_abs = worst_rel = 0.0
    changed = 0
    for (position, x), (_, y) in zip(cells_a, cells_b):
        if isinstance(x, float) and isinstance(y, float):
            gap, rel = _deviation(x, y)
        elif x == y:
            continue
        else:
            raise Mismatch(f"{position}: {x!r} against {y!r}")
        if gap or rel:
            changed += 1
            worst_abs, worst_rel = max(worst_abs, gap), max(worst_rel, rel)
    return worst_abs, worst_rel, changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv]
    for root in roots:
        if not root.is_dir():
            print(f"compare_outputs: {root} is not a directory", file=sys.stderr)
            return 2
    files = sorted({p.relative_to(root) for root in roots for p in root.rglob("*") if p.is_file()})
    failed = False
    for rel in files:
        a, b = (root / rel for root in roots)
        if not a.is_file() or not b.is_file():
            print(f"missing in {'A' if not a.is_file() else 'B'}  {rel}")
            failed = True
        elif a.read_bytes() == b.read_bytes():
            print(f"identical  {rel}")
        else:
            try:
                gap, rel_gap, changed = compare_files(a, b)
            except (Mismatch, UnicodeDecodeError, ValueError) as exc:
                print(f"mismatch: {exc}  {rel}")
                failed = True
            else:
                print(f"max_abs={gap:.3e} max_rel={rel_gap:.3e} changed_cells={changed}  {rel}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
