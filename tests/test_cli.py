"""Command-line interface: reports, exit codes, reproducibility."""

import argparse
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracgraph as dg
from diracgraph import ConsistencyError, SimpleGraph, cli
from diracgraph.cli import main
from diracgraph.jsonutil import canonical_json, fraction_str
from conftest import GOLDEN_CHARPOLY, erdos_renyi
from test_golden import COMMANDS as SINGLE_GRAPH_COMMANDS, OUT as GOLDEN_OUT, render

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
    assert report["characteristicPolynomial"] == GOLDEN_CHARPOLY
    assert all(inv["pass"] for inv in report["invariants"])
    assert {"name", "lhs", "rhs", "tolerance", "pass"} <= set(report["invariants"][0])


def test_json_round_trip_is_byte_identical(example_file, capsys):
    _, out, _ = run(capsys, "analyze", example_file, "--format", "json")
    assert canonical_json(json.loads(out)) == out
    _, out2, _ = run(capsys, "cohomology", example_file, "--format", "json")
    assert canonical_json(json.loads(out2)) == out2


def test_canonical_json_renders_arrays_and_rejects_other_types():
    assert canonical_json({"a": np.array([[1, 2], [3, 4]])}) == '{"a":[[1,2],[3,4]]}\n'
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"a": object()})


def test_identical_runs_are_byte_identical(example_file, capsys):
    _, first, _ = run(capsys, "morse", example_file, "--seed", "42", "--format", "json")
    _, second, _ = run(capsys, "morse", example_file, "--seed", "42", "--format", "json")
    assert first == second


def test_curvature_command(c4_file, capsys):
    code, out, _ = run(capsys, "curvature", c4_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report["curvature"].values()) == {"0/1"}
    assert report["sum"] == "0/1"


def test_morse_requires_function_or_seed(example_file, capsys):
    code, _, err = run(capsys, "morse", example_file)
    assert code == 1
    assert "--f" in err


def test_morse_rejects_both_function_and_seed(example_file, capsys):
    code, out, err = run(capsys, "morse", example_file, "--f", "1,2,3,4,5,6,7", "--seed", "5")
    assert (code, out) == (1, "")
    assert err == "error: morse takes --f or --seed, not both\n"


def test_morse_explicit_function(example_file, capsys):
    code, out, _ = run(capsys, "morse", example_file, "--f", "1,2,3,4,5,6,7",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["sum"] == 0
    assert report["indices"]["1"] == 1
    assert report["indices"]["6"] == -1


def test_morse_rejects_nan_value(tmp_path, capsys):
    # triangle with a pendant vertex (chi = 1); NaN used to give indices summing to 2
    path = tmp_path / "t.edges"
    path.write_text("1 2\n2 3\n1 3\n3 4\n")
    code, out, err = run(capsys, "morse", str(path), "--f", "nan,1,2,3")
    assert (code, out) == (1, "")
    assert err == "error: function values must not be NaN\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_morse_rejects_infinite_value_in_every_format(tmp_path, capsys, fmt, value):
    path = tmp_path / "t.edges"
    path.write_text("1 2\n2 3\n1 3\n3 4\n")
    code, out, err = run(capsys, "morse", str(path), f"--f={value},1,2,3", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: function values must not be infinite\n"


def test_zeta_command(example_file, capsys):
    code, out, _ = run(capsys, "zeta", example_file, "--s", "-2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"]["re"] - 48) < 1e-6


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_zeta_overflow_is_computation_error(example_file, capsys, fmt):
    # the example has eigenvalues below 1, so |lambda|^(-10000) overflows
    code, out, err = run(capsys, "zeta", example_file, "--s", "10000", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "computation error: zeta((10000+0j)) is not finite in double precision\n"


def test_distance_command(tmp_path, c4_file, capsys):
    chord = tmp_path / "chord.edges"
    chord.write_text("1 2\n2 3\n3 4\n1 4\n1 3\n")
    code, out, _ = run(capsys, "distance", c4_file, str(chord), "--format", "json")
    assert code == 0
    report = json.loads(out)
    # chord edge + two triangles differ out of 15 simplices of K4
    assert report["simplexDistance"] == "1/5"
    # their 2 + 3 + 3 incidences, in D and in D^T
    assert report["lidskiiBound"] == pytest.approx(16 / 15, rel=1e-11)
    assert report["spectralDistance"] <= report["lidskiiBound"]


def _edge_file(path, g):
    path.write_text("".join(f"{v}\n" for v in g.vertices) + "".join(f"{u} {v}\n" for u, v in g.edges))
    return str(path)


def test_distance_has_no_vertex_cap(tmp_path, capsys):
    # 2^40 - 1 simplices in the complete complex, which is never built
    rng = random.Random(40)
    g, h = erdos_renyi(40, 0.2, rng), erdos_renyi(40, 0.2, rng)
    code, out, _ = run(capsys, "distance", _edge_file(tmp_path / "g.edges", g),
                       _edge_file(tmp_path / "h.edges", h), "--format", "json")
    assert code == 0
    report = json.loads(out)
    # each graph's own spectrum, padded with zeros to the union of the two complexes
    sg, sh = set(dg.build_complex(g).simplices), set(dg.build_complex(h).simplices)
    spectra = [np.linalg.eigvalsh(dg.operators_for(x).dirac.astype(float)) for x in (g, h)]
    alpha, beta = (np.sort(np.concatenate([e, np.zeros(len(sg | sh) - len(e))])) for e in spectra)
    total = 2 ** 40 - 1
    assert report["spectralDistance"] == pytest.approx(np.sum(np.abs(alpha - beta)) / total, rel=1e-11)
    # a simplex in one complex only carries its |y| incidences twice, in D and in D^T
    incidences = 2 * sum(len(y) for y in sg ^ sh if len(y) > 1)
    assert report["lidskiiBound"] == pytest.approx(incidences / total, rel=1e-11)
    assert report["simplexDistance"] == fraction_str(dg.simplex_distance(g, h))
    assert report["spectralDistance"] <= report["lidskiiBound"]


def test_distance_beyond_float_range(tmp_path, capsys):
    # 2^1030 - 1 exceeds the largest double: the means are exact quotients
    g = SimpleGraph(range(1030), [(0, 1), (1, 2), (0, 2), (2, 3)])
    h = SimpleGraph(range(1030), [(0, 1), (1, 2), (3, 4)])
    code, out, err = run(capsys, "distance", _edge_file(tmp_path / "g.edges", g),
                         _edge_file(tmp_path / "h.edges", h), "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["simplexDistance"] == f"4/{2 ** 1030 - 1}"
    assert 0 < report["spectralDistance"] <= report["lidskiiBound"]


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


def test_deform_h_is_the_sampling_interval(example_file, capsys):
    code, out, _ = run(capsys, "deform", example_file, "--T", "1", "--h", "0.1")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == [f"{i * 0.1:.6f}" for i in range(11)]


def test_deform_snapshots(example_file, tmp_path, capsys):
    snaps = tmp_path / "snaps.json"
    code, _, _ = run(capsys, "deform", example_file, "--T", "0.05", "--h", "0.01",
                     "--snapshot-every", "2", "--snapshots", str(snaps))
    assert code == 0
    data = json.loads(snaps.read_text())
    assert len(data) == 3
    assert len(data[0]["d"]) == 18


def test_deform_complexified_snapshots_keep_imaginary_part(example_file, tmp_path, capsys):
    snaps = tmp_path / "snaps.json"
    code, _, _ = run(capsys, "deform", example_file, "--T", "0.05", "--h", "0.01",
                     "--variant", "complexified", "--snapshot-every", "5",
                     "--snapshots", str(snaps))
    assert code == 0
    last = json.loads(snaps.read_text())[-1]
    ops = dg.operators_for(dg.example_graph())
    state = dg.lax_deform(ops, 0.05, 0.01, variant="complexified")[-1]
    d, b = (np.array([[x["re"] + 1j * x["im"] for x in row] for row in last[name]])
            for name in ("d", "b"))
    # the phase exp(i log cosh 2st) rotates d; b stays real on the flow
    assert np.abs(d.imag).max() > 0
    assert np.abs(b.imag).max() == 0 and np.abs(b.real).max() > 0
    assert np.allclose(d, state.d, rtol=1e-11, atol=1e-15)
    assert np.allclose(b, state.b, rtol=1e-11, atol=1e-15)


def test_deform_snapshot_path_checked_before_integrating(example_file, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("lax_deform ran before the options were checked")

    monkeypatch.setattr(cli, "lax_deform", integrate)
    code, out, err = run(capsys, "deform", example_file, "--snapshot-every", "2")
    assert (code, out) == (1, "")
    assert err == "error: --snapshot-every needs --snapshots or --out\n"


@pytest.mark.parametrize("every", [[], ["--snapshot-every", "0"]])
def test_deform_snapshots_without_snapshot_every_exit_usage(tmp_path, capsys, every):
    triangle = tmp_path / "triangle.edges"
    triangle.write_text("1 2\n2 3\n1 3\n")
    snaps = tmp_path / "s.json"
    code, out, err = run(capsys, "deform", str(triangle), "--T", "0.02", "--snapshots", str(snaps), *every)
    assert (code, out) == (1, "")
    assert err == "error: --snapshots needs a positive --snapshot-every\n"
    assert not snaps.exists()


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


def test_lefschetz_on_the_petersen_graph(tmp_path, capsys):
    # 10 vertices, the automorphism cap; 120 automorphisms, v = 25, chi = -5
    edges = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    path = tmp_path / "petersen.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run(capsys, "lefschetz", str(path), "--z", "0.3", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["count"] == len({tuple(e["permutation"]) for e in report["automorphisms"]}) == 120
    ops = dg.operators_for(SimpleGraph(range(10), edges))
    assert ops.v == 25
    for e in report["automorphisms"]:
        assert e["lefschetz"] == sum(x["index"] for x in e["fixedSimplices"])
        assert e["lefschetz"] == round(sum((-1) ** k * tr for k, tr in enumerate(e["traces"])))
        # the batched entry equals the one-map calls, rendered alike
        t = dict(zip(range(10), e["permutation"]))
        rep = dg.lefschetz(ops, t)
        one = {"permutation": e["permutation"], "lefschetz": rep.lefschetz, "traces": rep.traces,
               "fixedSimplices": [{"simplex": x, "index": i} for x, i in rep.fixed_simplices],
               "zeta": dg.lefschetz_zeta(ops, t, 0.3)}
        assert json.loads(canonical_json(one)) == e
    identity = [e for e in report["automorphisms"] if e["permutation"] == list(range(10))]
    assert [e["lefschetz"] for e in identity] == [-5]


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
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    code, out, err = run(capsys, "distance", str(empty), str(empty))
    assert (code, out) == (2, "")
    assert err.startswith("computation error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, quantity", [("trees", "spanning-tree count"),
                                               ("analyze", "Det(D)^2")], ids=["trees", "analyze"])
def test_float_overflow_at_scale_exits_computation(tmp_path, capsys, command, quantity):
    # ER(100, .1) has 806 simplices: pseudo_det(L) and Det(D)^2 overflow a double,
    # and analyze says so before its exact charpoly, which takes about 2 s here
    g = erdos_renyi(100, 0.1, random.Random(1))
    path = tmp_path / "er100.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    code, out, err = run(capsys, command, str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("computation error: OverflowError:") and err.count("\n") == 1
    assert quantity in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(SINGLE_GRAPH_COMMANDS))
def test_every_command_reports_on_an_empty_graph(tmp_path, capsys, command, fmt):
    # a report, or a computation error naming why the empty graph has none;
    # never a usage error, which would say the input was malformed
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    code, out, err = run(capsys, command, str(empty), "--format", fmt, *SINGLE_GRAPH_COMMANDS[command])
    if code == 0:
        assert out and err == ""
    else:
        assert (code, out) == (2, "")
        assert err.startswith("computation error:") and err.count("\n") == 1


def test_exit_code_capacity_error(tmp_path, capsys):
    big = tmp_path / "big.edges"
    big.write_text("\n".join(f"{i} {i+1}" for i in range(11)) + "\n")
    code, _, _ = run(capsys, "lefschetz", str(big))
    assert code == 3


@pytest.mark.parametrize("t_final, asked", [("1e300", "1e+300"), ("1e12", "1e+12")])
def test_deform_beyond_the_sample_budget_exits_capacity(tmp_path, capsys, t_final, asked):
    triangle = tmp_path / "triangle.edges"
    triangle.write_text("1 2\n2 3\n1 3\n")
    code, out, err = run(capsys, "deform", str(triangle), "--T", t_final, "--h", "1")
    assert (code, out) == (3, "")
    assert err == f"capacity error: lax_deform takes at most 4194304 samples; t_final / h asks for {asked}\n"


def test_out_of_memory_exits_capacity(example_file, capsys, monkeypatch):
    def exhausted(c, orientation=None):
        raise MemoryError

    monkeypatch.setattr(cli, "build_operators", exhausted)
    code, out, err = run(capsys, "cohomology", example_file)
    assert (code, out) == (3, "")
    assert err == "capacity error: out of memory in cohomology\n"


def test_out_of_address_space_exits_capacity(tmp_path):
    # a real allocation failure, not a patched one: cohomology on ER(1500, .02)
    # in a child whose address space is capped at 1 GiB (set in preexec_fn, so
    # only the child is limited) reports, or exits 3 with one stderr line
    g = erdos_renyi(1500, 0.02, random.Random(1))
    path = tmp_path / "er1500.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(dg.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-m", "diracgraph.cli", "cohomology", str(path)],
                           capture_output=True, text=True, timeout=300, preexec_fn=limit,
                           env={**os.environ, "PYTHONPATH": src})
    if child.returncode == 0:
        assert child.stdout.startswith("v     :") and child.stderr == ""
    else:
        assert (child.returncode, child.stdout) == (3, ""), child.stderr
        assert child.stderr.startswith("capacity error:") and child.stderr.count("\n") == 1


def test_exit_code_internal_error(example_file, capsys, monkeypatch):
    def broken(args):
        raise ConsistencyError("d_1 d_0 != 0")

    monkeypatch.setitem(cli.COMMANDS, "cohomology", broken)
    code, out, err = run(capsys, "cohomology", example_file)
    assert code == 4
    assert out == ""
    assert err == "internal error: d_1 d_0 != 0\n"


@pytest.mark.parametrize("options", [
    ["deform", "--T", "-1"],
    ["deform", "--h", "0"],
    ["deform", "--T", "inf"],
    ["deform", "--h", "nan"],
    ["deform", "--T", "0.02", "--snapshot-every", "-1", "--snapshots", "{tmp}/snaps.json"],
    ["zeta", "--s", "inf", "--format", "json"],
    ["zeta", "--s", "1+nanj"],
    ["lefschetz", "--z", "nan", "--format", "json"],
])
def test_non_finite_or_negative_options_exit_usage(tmp_path, capsys, options):
    triangle = tmp_path / "triangle.edges"
    triangle.write_text("1 2\n2 3\n1 3\n")
    options = [x.format(tmp=tmp_path) for x in options]
    code, out, err = run(capsys, options[0], str(triangle), *options[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("options, message", [
    (["morse", "--f", "a,b"], "--f expects comma-separated numbers"),
    (["zeta", "--s", "foo"], "cannot parse complex number 'foo'"),
    (["deform", "--T", "1e300", "--h", "1e-300"], "t_final / h = inf is not a finite number of samples"),
])
def test_unusable_option_values_exit_usage(tmp_path, capsys, options, message):
    triangle = tmp_path / "triangle.edges"
    triangle.write_text("1 2\n2 3\n1 3\n")
    code, out, err = run(capsys, options[0], str(triangle), *options[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("options", [
    ["curvature", "--max-dim", "0"],
    ["trees", "--tol", "1e-6"],
    ["distance", "--seed", "3"],
    ["morse", "--f", "1,2,3", "--tol", "1e-6"],
    ["analyze", "--seed", "3"],
    ["lefschetz", "--order", "40"],
    ["cohomology", "--tol", "1e-6"],
])
def test_options_a_command_does_not_read_are_rejected(example_file, capsys, options):
    inputs = [example_file] * (2 if options[0] == "distance" else 1)
    code, out, err = run(capsys, options[0], *inputs, *options[1:])
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {options[-2]}" in err


@pytest.mark.parametrize("options", [
    ["cohomology", "--form", "json"],  # --format
    ["zeta", "--s", "2", "--max", "1"],  # --max-dim
])
def test_abbreviated_options_are_rejected(example_file, capsys, options):
    code, out, err = run(capsys, options[0], example_file, *options[1:])
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {' '.join(options[-2:])}\n"


# each command's own options, besides --format, --out and the positional inputs
COMMAND_OPTIONS = {
    "analyze": {"--max-dim"}, "cohomology": {"--max-dim"}, "curvature": set(),
    "morse": {"--f", "--seed"}, "spectrum": {"--max-dim"}, "zeta": {"--max-dim", "--s"},
    "distance": set(), "magnitude": set(), "trees": {"--max-dim"},
    "deform": {"--max-dim", "--T", "--h", "--variant", "--snapshot-every", "--snapshots"},
    "lefschetz": {"--max-dim", "--z"}, "dimension": set(), "contract": set(),
}


def test_each_command_offers_exactly_its_options():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert offered == {name: own | {"--format", "--out"} for name, own in COMMAND_OPTIONS.items()}
    assert sum(map(len, offered.values())) == 42


def test_one_parser_is_built_and_safely_reused():
    """main() calls in one process share the parser, and no call leaks into the next."""
    assert cli.build_parser() is cli.build_parser()
    morse_f = ["morse", "example.edges", "--f", "1,2,3,4,5,6,7"]
    first_morse_f = render(morse_f)
    assert first_morse_f.startswith(b"$ diracgraph morse example.edges --f 1,2,3,4,5,6,7\nexit 0\n")

    def golden(name):
        command, graph, fmt = name.split(".")
        argv = [command, f"{graph}.edges", "--format", fmt] + SINGLE_GRAPH_COMMANDS[command]
        return argv, (GOLDEN_OUT / name).read_bytes()

    # (earlier call, what it must print, later call and its expected bytes)
    for before, shown, (after, expected) in [
        (["spectrum", "example.edges", "--max-dim", "1"], "exit 0\n--- stdout\ndirac spectrum: ",
         golden("spectrum.example.text")),
        (["morse", "example.edges", "--seed", "3"], "exit 0\n--- stdout\ni(1) = ", (morse_f, first_morse_f)),
        (["zeta", "example.edges"],
         "exit 1\n--- stdout\n--- stderr\nerror: the following arguments are required: --s\n--- warnings",
         golden("zeta.example.json")),
        (["cohomology", "example.edges", "--form", "json"],
         "exit 1\n--- stdout\n--- stderr\nerror: unrecognized arguments: --form json\n--- warnings",
         golden("cohomology.example.text")),
        (["--help"], "exit 0\n--- stdout\nusage: diracgraph ", golden("analyze.example.json")),
    ]:
        assert shown in render(before).decode(), before
        assert render(after) == expected, (before, after)


def test_readme_lists_the_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n### ")[0]
    for option in set().union(*COMMAND_OPTIONS.values()) | {"--format", "--out"}:
        assert f"`{option}" in section, option
    assert "--tol" not in readme and "DIRACGRAPH_SEED" not in readme


def test_src_reads_no_environment_variable():
    for path in Path(cli.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert not any(word in text for word in ("environ", "getenv", "DIRACGRAPH_SEED")), path.name


def test_corrupted_lefschetz_trace_exits_internal(tmp_path, capsys, corrupted_trace):
    c5 = tmp_path / "c5.edges"
    c5.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, out, err = run(capsys, "lefschetz", str(c5))
    assert (code, out) == (4, "")
    assert err.startswith("internal error: harmonic traces miss") and err.count("\n") == 1


def test_unrenderable_report_exits_usage(example_file, capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "cohomology", lambda args: ({"chi": float("nan")}, ""))
    code, out, err = run(capsys, "cohomology", example_file, "--format", "json")
    assert (code, out) == (1, "")
    assert err == "error: reports must not contain NaN or infinity\n"


def test_out_file(example_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "cohomology", example_file, "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["betti"] == [1, 1, 0]
