"""One pass over a workload's job list, in a fresh process.

    python3 perfbench/worker.py --workload NAME --inputs FILE --trace 0|1

The BLAS thread cap is set before numpy is imported.  Set-up (imports,
loading the inputs run.py generated, writing edge-list files, warm-up
including the first LAPACK call) is timed as setup_s.  One closed-loop client then runs the jobs back to back; each
job's correctness checks run after its timer stops.  The last line of
stdout is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def import_package():
    """Import numpy and diracgraph from this checkout's src/, never elsewhere."""
    threads = str(blas_threads())
    for var in BLAS_VARS:
        os.environ[var] = threads
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import diracgraph as dg

    if Path(dg.__file__).resolve().parent != (src / "diracgraph").resolve():
        raise ImportError(f"diracgraph imported from {dg.__file__}, not from {src}")
    return np, dg


def warm_up(np, dg) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    a = a + a.T
    np.linalg.eigh(a)
    np.linalg.eigvalsh(a)
    np.linalg.solve(a, np.ones(64))
    np.linalg.lstsq(a, np.ones(64), rcond=None)
    np.linalg.slogdet(a)
    a @ a
    ops = dg.build_operators(dg.build_complex(dg.example_graph()))
    dg.betti_numbers(ops)
    ops.dirac_eigensystem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    np, dg = import_package()
    import diracgraph.cli  # noqa: F401  (part of set-up, like the other imports)
    from tracing import Tracer, install
    from workloads import WORKLOADS

    state_dir = ROOT / ".perfbench"
    state_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state_dir) as workdir:
        with open(args.inputs, encoding="utf-8") as fh:
            inputs = json.load(fh)
        workload = WORKLOADS[args.workload](dg, inputs, workdir)
        jobs = workload.jobs()
        warm_up(np, dg)
        setup_s = time.perf_counter() - START

        tracer = Tracer() if args.trace else None
        if tracer:
            install(tracer, dg)
        digest = hashlib.sha256()
        results = []
        for job_id, run, verify in jobs:
            t0 = time.perf_counter()
            try:
                output = tracer.job(run) if tracer else run()
                error = None
            except Exception as exc:  # a failed job is recorded, never fatal
                error = type(exc).__name__
                traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - t0
            if error is None:
                try:
                    summary, failed = verify(output)
                except Exception as exc:
                    summary, failed = f"verify:{type(exc).__name__}", [f"verify:{type(exc).__name__}"]
                    traceback.print_exc(file=sys.stderr)
                failure = "check:" + ",".join(dict.fromkeys(failed)) if failed else None
            else:
                summary, failure = f"error:{error}", error
            output = None
            digest.update(f"{job_id}={summary}\n".encode())
            results.append([job_id, seconds, failure])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "setup_s": setup_s,
        "pass_s": sum(r[1] for r in results),
        "jobs": results,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "counts": workload.counts,
        "per_graph": workload.per_graph,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }
    if tracer:
        record["self_s"] = tracer.self_times()
        record["spans"] = tracer.records()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
