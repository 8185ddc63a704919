"""Command-line interface: reports, exit codes, reproducibility."""

import json

import pytest

from diracgraph import ConsistencyError, cli
from diracgraph.cli import main
from diracgraph.jsonutil import canonical_json

EXAMPLE_EDGES = "1 2\n2 3\n1 3\n3 4\n2 4\n3 5\n5 6\n4 6\n4 7\n"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.edges"
    path.write_text(EXAMPLE_EDGES)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(example_file, capsys):
    code, out, _ = run(capsys, "analyze", example_file)
    assert code == 0
    assert "(7, 9, 2)" in out
    assert "chi            : 0" in out
    assert "1624" in out


def test_analyze_json_golden(example_file, capsys):
    code, out, _ = run(capsys, "analyze", example_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["v"] == [7, 9, 2]
    assert report["chi"] == 0
    assert report["betti"] == [1, 1, 0]
    assert abs(report["diracPseudoDeterminant"] - 1624) < 1e-3
    assert report["characteristicPolynomial"][2] == -24
    assert all(inv["pass"] for inv in report["invariants"])
    assert {"name", "lhs", "rhs", "tolerance", "pass"} <= set(report["invariants"][0])


def test_json_round_trip_is_byte_identical(example_file, capsys):
    _, out, _ = run(capsys, "analyze", example_file, "--format", "json")
    assert canonical_json(json.loads(out)) == out
    _, out2, _ = run(capsys, "cohomology", example_file, "--format", "json")
    assert canonical_json(json.loads(out2)) == out2


def test_identical_runs_are_byte_identical(example_file, capsys):
    _, first, _ = run(capsys, "morse", example_file, "--seed", "42", "--format", "json")
    _, second, _ = run(capsys, "morse", example_file, "--seed", "42", "--format", "json")
    assert first == second


def test_seed_env_fallback(example_file, capsys, monkeypatch):
    monkeypatch.setenv("DIRACGRAPH_SEED", "7")
    _, env_out, _ = run(capsys, "morse", example_file, "--format", "json")
    monkeypatch.delenv("DIRACGRAPH_SEED")
    _, flag_out, _ = run(capsys, "morse", example_file, "--seed", "7", "--format", "json")
    assert env_out == flag_out


def test_curvature_command(c4_file, capsys):
    code, out, _ = run(capsys, "curvature", c4_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report["curvature"].values()) == {"0/1"}
    assert report["sum"] == "0/1"


def test_morse_requires_function_or_seed(example_file, capsys, monkeypatch):
    monkeypatch.delenv("DIRACGRAPH_SEED", raising=False)
    code, _, err = run(capsys, "morse", example_file)
    assert code == 1
    assert "--f" in err


def test_morse_explicit_function(example_file, capsys):
    code, out, _ = run(capsys, "morse", example_file, "--f", "1,2,3,4,5,6,7",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["sum"] == 0
    assert report["indices"]["1"] == 1
    assert report["indices"]["6"] == -1


def test_zeta_command(example_file, capsys):
    code, out, _ = run(capsys, "zeta", example_file, "--s", "-2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"]["re"] - 48) < 1e-6


def test_distance_command(tmp_path, c4_file, capsys):
    chord = tmp_path / "chord.edges"
    chord.write_text("1 2\n2 3\n3 4\n1 4\n1 3\n")
    code, out, _ = run(capsys, "distance", c4_file, str(chord), "--format", "json")
    assert code == 0
    report = json.loads(out)
    # chord edge + two triangles differ out of 15 simplices of K4
    assert report["simplexDistance"] == "1/5"
    assert report["spectralDistance"] <= report["lidskiiBound"]


def test_trees_and_magnitude(c4_file, capsys):
    code, out, _ = run(capsys, "trees", c4_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["spanningTrees"] == 4
    assert report["simplexGraphSpanningTrees"] == 8
    code, out, _ = run(capsys, "magnitude", c4_file)
    assert code == 0 and out.startswith("|G| =")


def test_dimension_and_contract(example_file, capsys):
    code, out, _ = run(capsys, "dimension", example_file)
    assert code == 0 and out.strip() == "dim = 41/28"
    code, out, _ = run(capsys, "contract", example_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["contractible"] is False


def test_deform_csv(example_file, capsys):
    code, out, _ = run(capsys, "deform", example_file, "--T", "0.1", "--h", "0.01")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,trM,spectrumError,nilpotencyError"
    assert len(lines) == 12
    tr = [float(line.split(",")[1]) for line in lines[1:]]
    assert tr == sorted(tr, reverse=True)


def test_deform_snapshots(example_file, tmp_path, capsys):
    snaps = tmp_path / "snaps.json"
    code, _, _ = run(capsys, "deform", example_file, "--T", "0.05", "--h", "0.01",
                     "--snapshot-every", "2", "--snapshots", str(snaps))
    assert code == 0
    data = json.loads(snaps.read_text())
    assert len(data) == 3
    assert len(data[0]["d"]) == 18


def test_lefschetz_command(tmp_path, capsys):
    c5 = tmp_path / "c5.edges"
    c5.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, out, _ = run(capsys, "lefschetz", str(c5), "--z", "0.3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 10
    values = sorted(e["lefschetz"] for e in report["automorphisms"])
    # identity and the four rotations have L = chi(C5) = 0, reflections L = 2
    assert values == [0, 0, 0, 0, 0, 2, 2, 2, 2, 2]


def test_exit_code_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\nnope\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line 2" in err
    code, _, _ = run(capsys, "analyze", str(tmp_path / "missing.edges"))
    assert code == 1
    code, _, _ = run(capsys, "nonsense", str(bad))
    assert code == 1


def test_exit_code_computation_error(tmp_path, capsys):
    disc = tmp_path / "disc.edges"
    disc.write_text("1 2\n3 4\n")
    code, _, err = run(capsys, "magnitude", str(disc))
    assert code == 2
    assert "disconnected" in err


def test_exit_code_capacity_error(tmp_path, capsys):
    big = tmp_path / "big.edges"
    big.write_text("\n".join(f"{i} {i+1}" for i in range(11)) + "\n")
    code, _, _ = run(capsys, "lefschetz", str(big))
    assert code == 3


def test_exit_code_internal_error(example_file, capsys, monkeypatch):
    def broken(args):
        raise ConsistencyError("d_1 d_0 != 0")

    monkeypatch.setitem(cli.COMMANDS, "cohomology", broken)
    code, out, err = run(capsys, "cohomology", example_file)
    assert code == 4
    assert out == ""
    assert err == "internal error: d_1 d_0 != 0\n"


def test_out_file(example_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "cohomology", example_file, "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["betti"] == [1, 1, 0]
