"""Per-field diff of the golden CLI corpus between two revisions.

    python tools/stdout_diff.py OLD_REV [NEW_REV]

Renders every case of tests/test_golden.py with src/ of OLD_REV and of
NEW_REV (the working tree when NEW_REV is omitted), one subprocess per
revision.  src/ of a revision is extracted with git archive into a
temporary directory, so no worktree is added to the repository.  The
cases, inputs and rendering always come from the working tree.

It prints each moved case, and per field how many values moved and the
largest absolute and relative change.  A field is a JSON leaf with list
indices dropped (``invariants[].lhs``), a deform CSV column, a line of a
text report, or the exit code, stderr or warnings.  A totals section sums
each command's fields over the moved cases.  The exit status is 0 when
nothing moved and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = ("exit", "stdout", "stderr", "warnings")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

RENDER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden
json.dump({name: test_golden.render(argv).decode() for name, argv in test_golden.cases()},
          sys.stdout)
"""


@dataclass
class Moved:
    """The values of one field that moved, and their largest numeric change."""

    count: int = 0
    abs: float = 0.0
    rel: float = 0.0
    numeric: bool = True

    def add(self, old, new) -> None:
        self.count += 1
        a, b = _number(old), _number(new)
        if a is None or b is None:
            self.numeric = False
            return
        self.abs = max(self.abs, abs(b - a))
        self.rel = max(self.rel, abs(b - a) / abs(a) if a else math.inf)

    def merge(self, other: "Moved") -> None:
        self.count += other.count
        self.abs, self.rel = max(self.abs, other.abs), max(self.rel, other.rel)
        self.numeric = self.numeric and other.numeric

    def __str__(self) -> str:
        change = f"max abs {self.abs:.3g}, max rel {self.rel:.3g}"
        return f"{self.count} moved, {change}" + ("" if self.numeric else " (some non-numeric)")


def _number(x) -> float | None:
    if isinstance(x, bool) or x is None:
        return None
    if isinstance(x, (int, float)):
        return float(x)
    try:
        return float(Fraction(x))
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def sections(rendered: str) -> dict[str, str]:
    """The exit code, stdout, stderr and warnings of one rendered case."""
    head, rest = rendered.split("\n--- stdout\n", 1)
    stdout, rest = rest.split("--- stderr\n", 1)
    stderr, warnings = rest.split("--- warnings\n", 1)
    return {"exit": head.splitlines()[-1], "stdout": stdout, "stderr": stderr, "warnings": warnings}


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _csv_pairs(old: str, new: str):
    rows = [[line.split(",") for line in text.splitlines()] for text in (old, new)]
    header = rows[1][0]
    for i in range(1, max(map(len, rows))):
        olds, news = (r[i] if i < len(r) else [] for r in rows)
        for j, column in enumerate(header):
            yield column, olds[j] if j < len(olds) else None, news[j] if j < len(news) else None


def _json_pairs(old, new):
    leaves = [dict(_leaves(old)), dict(_leaves(new))]
    for path in dict.fromkeys([*leaves[0], *leaves[1]]):
        yield re.sub(r"\[\d+\]", "[]", path), leaves[0].get(path), leaves[1].get(path)


def _line_pairs(old: str, new: str):
    """Numbers in place on lines that differ only in them, else the whole line."""
    lines = [old.splitlines(), new.splitlines()]
    for i in range(max(map(len, lines))):
        a, b = (ls[i] if i < len(ls) else "" for ls in lines)
        if NUMBER.sub("#", a) == NUMBER.sub("#", b):
            yield from ((f"line {i + 1}", x, y) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))
        else:
            yield f"line {i + 1}", a, b


def _pairs(name: str, old: str, new: str):
    """(field, old value, new value) for every value of a stdout, missing ones as None."""
    if name.startswith("deform.") and old and new:
        return _csv_pairs(old, new)
    if name.endswith(".json"):
        try:
            return _json_pairs(json.loads(old), json.loads(new))
        except ValueError:  # an error exit prints no report
            pass
    return _line_pairs(old, new)


def field_diff(name: str, old: str, new: str) -> dict[str, Moved]:
    """The moved values of one case by field, from its two rendered outputs."""
    out: dict[str, Moved] = {}
    a, b = sections(old), sections(new)
    for section in SECTIONS:
        if a[section] == b[section]:
            continue
        pairs = (_pairs(name, a[section], b[section]) if section == "stdout"
                 else [(section, a[section], b[section])])
        for field, x, y in pairs:
            if x != y:
                out.setdefault(field, Moved()).add(x, y)
    return out


def render(src: Path) -> dict[str, str]:
    run = subprocess.run([sys.executable, "-c", RENDER, str(ROOT / "tests")], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return json.loads(run.stdout)


def extract(rev: str, into: Path) -> Path:
    """src/ of a revision, unpacked under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python tools/stdout_diff.py OLD_REV [NEW_REV]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old = render(extract(argv[0], Path(tmp) / "old"))
        new = render(extract(argv[1], Path(tmp) / "new") if len(argv) == 2 else ROOT / "src")
    label = f"{argv[0]} -> {argv[1] if len(argv) == 2 else 'working tree'}"
    moved = {name: field_diff(name, old[name], new[name]) for name in new if old.get(name) != new[name]}
    print(f"{label}: {len(new)} golden cases, {len(moved)} moved, {len(new) - len(moved)} unchanged")
    totals: dict[str, Moved] = {}
    for name, fields in moved.items():
        print(name)
        for field, stat in fields.items():
            print(f"  {field}: {stat}")
            totals.setdefault(f"{name.split('.')[0]} {field}", Moved()).merge(stat)
    if totals:
        print("totals by command and field")
        for key, stat in sorted(totals.items()):
            print(f"  {key}: {stat}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
