"""The per-field diff of tools/stdout_diff.py, on synthetic rendered outputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "stdout_diff", Path(__file__).resolve().parents[1] / "tools" / "stdout_diff.py")
stdout_diff = sys.modules["stdout_diff"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stdout_diff)


def rendered(stdout: str, code: int = 0, stderr: str = "", warnings: str = "") -> str:
    return (f"$ diracgraph case\nexit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"
            f"--- warnings\n{warnings}")


def summary(name, old, new):
    return {field: (m.count, m.abs, m.rel, m.numeric)
            for field, m in stdout_diff.field_diff(name, old, new).items()}


def test_identical_outputs_move_nothing():
    out = rendered('{"betti": [1, 1, 0]}\n')
    assert summary("cohomology.g.json", out, out) == {}


def test_json_leaves_group_list_indices():
    old = rendered('{"betti": [1, 1], "chi": 0, "x": [1.0, 2.0, 4.0], "k": "1/3"}\n')
    new = rendered('{"betti": [1, 1], "chi": 0, "x": [1.5, 2.0, 3.0], "k": "1/2"}\n')
    assert summary("analyze.g.json", old, new) == {
        "x[]": (2, 1.0, 0.5, True),
        "k": (1, pytest.approx(1 / 6), pytest.approx(0.5), True),
    }


def test_json_leaf_added_or_not_a_number():
    old = rendered('{"contractible": true, "removed": [1]}\n')
    new = rendered('{"contractible": null, "removed": [1, 2]}\n')
    assert summary("contract.g.json", old, new) == {
        "contractible": (1, 0.0, 0.0, False),
        "removed[]": (1, 0.0, 0.0, False),
    }


def test_deform_columns():
    old = rendered("t,trM,spectrumError\n0,1.0,1e-10\n0.1,0.5,2e-10\n")
    new = rendered("t,trM,spectrumError\n0,1.0,2e-10\n0.1,0.5,2e-10\n")
    assert summary("deform.g.text", old, new) == {"spectrumError": (1, 1e-10, 1.0, True)}


def test_text_lines_and_other_sections():
    old = rendered("betti : (1, 1)\nDet(D) : 1624\n", warnings="")
    new = rendered("betti : (1, 2)\nDet(D) : 1625\n", warnings="RuntimeWarning: overflow\n")
    assert summary("analyze.g.text", old, new) == {
        "line 1": (1, 1.0, 1.0, True),
        "line 2": (1, 1.0, 1 / 1624, True),
        "warnings": (1, 0.0, 0.0, False),
    }
    err = rendered("", code=2, stderr="computation error: overflow\n")
    assert set(summary("trees.g.json", old, err)) == {"exit", "line 1", "line 2", "stderr"}
