"""The names the benchmark calls and wraps must exist in the package, and
its calls and command lines must bind to their current signatures.

The benchmark's files are read, never edited: a deletion that would break
a traced benchmark run fails here first.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import diracgraph
from diracgraph import Operators, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr",
    sorted({ref for refs in tracing.MODULE_SPANS.values() for ref in refs}),
)
def test_module_span_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(f"diracgraph.{module}"), attr))


@pytest.mark.parametrize("command", tracing.CLI_COMMANDS)
def test_cli_commands_exist(command):
    assert cli.COMMANDS[command] is getattr(cli, f"cmd_{command}")


@pytest.mark.parametrize("attr", sorted(tracing.PROPERTY_SPANS.values()))
def test_property_spans_are_cached_properties(attr):
    assert isinstance(Operators.__dict__[attr], cached_property)


@pytest.mark.parametrize(
    "name", sorted(set(re.findall(r"\bdg\.(\w+)", (PERFBENCH / "workloads.py").read_text())))
)
def test_workload_calls_resolve(name):
    assert hasattr(diracgraph, name)


def _dg_calls():
    """Each dg.NAME(...) or self.dg.NAME(...) call in workloads.py without *args or **kwargs."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if not (isinstance(owner, ast.Name) and owner.id == "dg"
                or isinstance(owner, ast.Attribute) and owner.attr == "dg"):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        calls.append((node.lineno, node.func.attr, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(calls)


DG_CALLS = _dg_calls()


def test_workload_call_count():
    assert len(DG_CALLS) == 36  # 32 through dg, 4 through self.dg


@pytest.mark.parametrize("line, name, positionals, keywords", DG_CALLS)
def test_workload_calls_bind(line, name, positionals, keywords):
    signature = inspect.signature(getattr(diracgraph, name))
    signature.bind(*[object()] * positionals, **dict.fromkeys(keywords))


def test_desk_cli_argv_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    desk = workloads.DeskCli(diracgraph, workloads.DeskCli.make_inputs(1, False), str(tmp_path))
    recorded = []
    desk.cli = SimpleNamespace(main=lambda argv: recorded.append(argv) or 0)
    for _, run, _ in desk.jobs():
        run()
    assert len(recorded) == 87
    parser = cli.build_parser()
    for argv in recorded:
        parser.parse_args(argv)
