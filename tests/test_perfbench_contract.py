"""The names the benchmark calls and wraps must exist in the package.

The benchmark's files are read, never edited: a deletion that would break
a traced benchmark run fails here first.
"""

import importlib
import importlib.util
import re
from functools import cached_property
from pathlib import Path

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
