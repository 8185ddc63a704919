"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload, on small inputs, runs one untraced and one traced
benchmark and asserts that every metric BENCHMARK.json names is reported
with its unit, that run.py and BENCHMARK.json agree on the metric lists,
that the result line is well formed, and that the traced and untraced
runs produced byte-identical outputs (equal output digests).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import END_TO_END, PER_LAYER, SEED_DEFECTS  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[3] for line in lines if line.startswith("# output digest"))
    return json.loads(lines[-1]), digest


def check_metrics(result: dict, declared: dict[str, str], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    metrics = result["metrics"]
    assert set(metrics) == set(declared), f"{where}: {sorted(set(metrics) ^ set(declared))}"
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{where}: {name}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert layer == PER_LAYER, "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(SEED_DEFECTS)
    for workload in SEED_DEFECTS:
        plain, plain_digest = run(workload, 0)
        traced, traced_digest = run(workload, 1)
        check_metrics(plain, e2e, f"{workload} untraced")
        check_metrics(traced, layer, f"{workload} traced")
        assert plain["correct"] and traced["correct"], f"{workload}: unexpected failure"
        assert plain_digest == traced_digest, f"{workload}: tracing changed the outputs"
        print(f"ok {workload}: {len(e2e)} end-to-end and {len(layer)} per-layer metrics,"
              f" digest {plain_digest[:12]} traced and untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
