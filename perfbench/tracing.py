"""Spans recorded from outside the package, around calls into each module.

The traced pass replaces public functions of diracgraph with wrappers that
record a span (id, parent, trace, name, start, end).  A job opens the root
span and its id is the trace id shared by every span below it.  Calls made
outside a job (the benchmark's own checks) are not recorded.  Nothing is
patched in an untraced pass.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) pairs wrapped under that name.  The CLI
# binds library names into its own namespace and keeps its commands in a
# dict, so every module attribute and dict value holding the function is
# replaced, not only the defining one.
MODULE_SPANS = {
    "complexes.parse": [("complexes", "parse_edge_list")],
    "complexes.build": [("complexes", "build_complex")],
    "operators.assemble": [("operators", "build_operators")],
    "hodge.betti": [("hodge", "betti_numbers")],
    "hodge.harmonic": [("hodge", "harmonic_basis"), ("hodge", "hodge_decompose")],
    "hodge.heat_kernel": [("hodge", "heat_kernel"), ("hodge", "super_trace")],
    "spectra.pseudo_det": [("spectra", "pseudo_det")],
    "spectra.zeta": [("spectra", "dirac_zeta"), ("spectra", "eta"),
                     ("spectra", "analytic_torsion")],
    "spectra.trees": [("spectra", "kirchhoff_trees"), ("spectra", "simplex_graph_trees")],
    "spectra.magnitude": [("spectra", "magnitude")],
    "spectra.charpoly": [("spectra", "charpoly_int")],
    "spectra.distance": [("spectra", "aligned_dirac_pair"), ("spectra", "spectral_distance")],
    "geometry.curvature": [("geometry", "curvature_vector")],
    "geometry.morse": [("geometry", "poincare_hopf")],
    "geometry.dimension": [("geometry", "dimension")],
    "geometry.contract": [("geometry", "contract")],
    "morphisms.automorphisms": [("morphisms", "automorphisms")],
    "morphisms.lefschetz": [("morphisms", "lefschetz")],
    "morphisms.lefschetz_zeta": [("morphisms", "lefschetz_zeta")],
    "dynamics.linear": [("dynamics", "poisson_solve"), ("dynamics", "heat_evolve"),
                        ("dynamics", "wave_evolve"), ("dynamics", "schrodinger_evolve")],
    "dynamics.lax": [("dynamics", "lax_deform")],
    "cli.render": [("jsonutil", "canonical_json")],
}

# cached properties of Operators: the eigendecompositions run on first access
PROPERTY_SPANS = {
    "operators.block_eigh": "block_eigensystems",
    "operators.dirac_eigh": "dirac_eigensystem",
}

CLI_COMMANDS = (
    "analyze", "cohomology", "curvature", "morse", "spectrum", "zeta", "distance",
    "magnitude", "trees", "deform", "lefschetz", "dimension", "contract",
)


class Tracer:
    """In-memory span log; spans are [id, parent, trace, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[0] if parent else None,
                parent[2] if parent else len(self.spans), name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def job(self, fn, *args):
        """Run one job under a root span."""
        span = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += end - start - child_time[sid]
        return dict(out)

    def records(self) -> list[dict]:
        keys = ("id", "parent", "trace", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


def _replace_everywhere(original, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if name != "diracgraph" and not name.startswith("diracgraph."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def install(tracer: Tracer, dg) -> None:
    """Wrap every traced entry point of an imported diracgraph package."""
    import importlib

    targets = dict(MODULE_SPANS)
    for command in CLI_COMMANDS:
        targets[f"cli.{command}"] = [("cli", f"cmd_{command}")]
    for span_name, refs in targets.items():
        for module_name, attr in refs:
            module = importlib.import_module(f"diracgraph.{module_name}")
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(span_name, original))
    ops_cls = dg.Operators
    for span_name, attr in PROPERTY_SPANS.items():
        prop = ops_cls.__dict__[attr]
        traced = functools.cached_property(tracer.wrap(span_name, prop.func))
        traced.__set_name__(ops_cls, attr)
        setattr(ops_cls, attr, traced)
