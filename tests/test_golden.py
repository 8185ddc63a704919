"""Golden stdout corpus: every single-graph CLI command, byte for byte.

Each command runs in text and JSON on the graphs in golden/inputs, at
default options except the ones a command needs (morse --seed 1,
zeta --s 2, deform --T 1, lefschetz --z 0.3), and distance runs on two
pairs of graphs.  A case records its exit code, stdout, stderr and any
Python warning in one file under golden/out; golden/SHA256SUMS lists
their digests in sha256sum format.

A change that moves output bytes on purpose rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py

and the diff of golden/out shows exactly what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

import pytest

from diracgraph import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
OUT = GOLDEN / "out"
MANIFEST = GOLDEN / "SHA256SUMS"

GRAPHS = ("example", "octahedron", "icosahedron", "truncated_cube", "k5", "c5",
          "one_vertex", "edgeless", "er8", "er9", "er10")
COMMANDS = {
    "analyze": [], "cohomology": [], "curvature": [], "morse": ["--seed", "1"],
    "spectrum": [], "zeta": ["--s", "2"], "magnitude": [], "trees": [],
    "deform": ["--T", "1"], "lefschetz": ["--z", "0.3"], "dimension": [], "contract": [],
}
PAIRS = ("example_perturbed", "er10a_er10b")
FORMATS = ("text", "json")


def cases() -> list[tuple[str, list[str]]]:
    """(output file name, argv with input names relative to golden/inputs)."""
    out = []
    for fmt in FORMATS:
        for graph in GRAPHS:
            for command, extra in COMMANDS.items():
                out.append((f"{command}.{graph}.{fmt}",
                            [command, f"{graph}.edges", "--format", fmt] + extra))
        for pair in PAIRS:
            out.append((f"distance.{pair}.{fmt}",
                        ["distance", f"{pair}.1.edges", f"{pair}.2.edges", "--format", fmt]))
    return out


def render(argv: list[str]) -> bytes:
    """One case run in-process: the argv, exit code, stdout, stderr and warnings."""
    paths = [str(INPUTS / a) if a.endswith(".edges") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(paths)
    text = (f"$ diracgraph {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}--- warnings\n"
            + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught))
    return text.encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest() -> dict[str, str]:
    """File name -> sha256 from golden/SHA256SUMS."""
    pairs = (line.split("  ", 1) for line in MANIFEST.read_text().splitlines())
    return {name.removeprefix("out/"): sha for sha, name in pairs}


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("DIRACGRAPH_SEED", raising=False)


def test_manifest_lists_every_output_file():
    files = {p.name: digest(p.read_bytes()) for p in OUT.iterdir()}
    assert files == manifest()
    assert sorted(files) == sorted(name for name, _ in cases())


def test_corpus_is_byte_identical():
    expected = manifest()
    moved = [name for name, argv in cases() if digest(render(argv)) != expected[name]]
    assert not moved, f"{len(moved)} golden outputs moved, first: {moved[:5]}"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        stale.unlink()
    lines = []
    for name, argv in cases():
        data = render(argv)
        (OUT / name).write_bytes(data)
        lines.append(f"{digest(data)}  out/{name}\n")
    MANIFEST.write_text("".join(lines))
    print(f"wrote {len(lines)} outputs to {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
