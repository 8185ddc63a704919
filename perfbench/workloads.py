"""The three seeded workloads: inputs, job lists and correctness checks.

``make_inputs`` draws a workload's graphs from the seed (in run.py, once
per run); the workload object, built in the worker's set-up phase, hands
the program only edge-list text, edge-list files or objects the program
itself returned.  Each job is
``(job_id, run, verify)``: ``run`` is the timed call into diracgraph and
``verify(output)`` runs outside the timed region, returning a summary that
goes into the output digest and a list of failed check names.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

import oracles

# ------------------------------------------------------------------ inputs

EXAMPLE = (list(range(1, 8)),
           [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (3, 5), (5, 6), (4, 6), (4, 7)])


def octahedron():
    antipodal = {(0, 3), (1, 4), (2, 5)}
    return list(range(6)), [e for e in combinations(range(6), 2) if e not in antipodal]


def icosahedron():
    """Apex 0, upper ring 1-5, lower ring 6-10, apex 11."""
    upper, lower = list(range(1, 6)), list(range(6, 11))
    edges = [(0, u) for u in upper] + [(v, 11) for v in lower]
    for i in range(5):
        edges += [(upper[i], upper[(i + 1) % 5]), (lower[i], lower[(i + 1) % 5]),
                  (upper[i], lower[i]), (upper[(i + 1) % 5], lower[i])]
    return list(range(12)), [tuple(sorted(e)) for e in edges]


def truncated_cube():
    """Each cube corner c becomes a triangle (c, 0..2); axis-i edges join them."""
    index = {(c, i): 3 * c + i for c in range(8) for i in range(3)}
    edges = [(index[(c, i)], index[(c, j)]) for c in range(8) for i, j in combinations(range(3), 2)]
    edges += [(index[(c, i)], index[(c ^ (1 << i), i)])
              for c in range(8) for i in range(3) if c < c ^ (1 << i)]
    return list(range(24)), edges


def erdos_renyi(n: int, p: float, rng: random.Random):
    return list(range(n)), [e for e in combinations(range(n), 2) if rng.random() < p]


def seeded_graph(n: int, p: float, target: int, window: int, rng: random.Random,
                 max_automorphisms: int | None = None):
    """First connected ER(n, p) draw whose simplex count is target +- window.

    Holding the size steady keeps the cost of a pass nearly independent of
    the seed; the first draw from random.Random(1) is the ROADMAP graph.
    """
    while True:
        vertices, edges = erdos_renyi(n, p, rng)
        strata = oracles.cliques(vertices, edges)
        if (abs(sum(map(len, strata)) - target) <= window
                and oracles.is_connected(vertices, edges)
                and (max_automorphisms is None
                     or len(oracles.automorphisms(vertices, edges)) <= max_automorphisms)):
            return vertices, edges


def edge_text(vertices, edges) -> str:
    """Edge-list format; every vertex is declared so none is lost."""
    return "".join(f"{v}\n" for v in vertices) + "".join(f"{u} {v}\n" for u, v in edges)


class Reference:
    """Oracle values of one input graph, computed on first use by a check."""

    def __init__(self, vertices, edges):
        self.vertices = sorted(vertices)
        self.edges = [tuple(e) for e in edges]

    @cached_property
    def adj(self):
        return oracles.adjacency(self.vertices, self.edges)

    @cached_property
    def strata(self):
        return oracles.cliques(self.vertices, self.edges)

    @cached_property
    def counts(self) -> list[int]:
        return [len(s) for s in self.strata]

    @property
    def v(self) -> int:
        return sum(self.counts)

    @property
    def chi(self) -> int:
        return oracles.euler(self.counts)

    @cached_property
    def lap_traces(self) -> list[int]:
        """tr(L_0) = 2 v_1, tr(L_p) = (p+2) v_{p+1} + (p+1) v_p."""
        c = self.counts + [0]
        return [(p + 2) * c[p + 1] + (p + 1) * c[p] * (p > 0) for p in range(len(self.counts))]

    @cached_property
    def betti(self) -> list[int]:
        return oracles.betti(self.strata)

    def laplacian_0(self, x: np.ndarray) -> np.ndarray:
        pos = {v: i for i, v in enumerate(self.vertices)}
        out = np.array([len(self.adj[v]) * x[pos[v]] for v in self.vertices], dtype=x.dtype)
        for u, v in self.edges:
            out[pos[u]] -= x[pos[v]]
            out[pos[v]] -= x[pos[u]]
        return out

    def laplacian_spectrum(self) -> np.ndarray:
        """Eigenvalues of every block L_k, built from the oracle incidence matrices."""
        blocks = []
        for k, st in enumerate(self.strata):
            n = len(st)
            lap = np.zeros((n, n))
            for lo, hi in ((k - 1, k), (k, k + 1)):
                if lo < 0 or hi >= len(self.strata):
                    continue
                d = np.zeros((len(self.strata[hi]), len(self.strata[lo])))
                for r, row in enumerate(oracles.incidence_rows(self.strata[lo], self.strata[hi])):
                    for c, x in row.items():
                        d[r, c] = x
                lap += d @ d.T if hi == k else d.T @ d
            blocks.append(np.linalg.eigvalsh(lap))
        return np.concatenate(blocks)


# ----------------------------------------------------------------- helpers

def stable(x) -> str:
    """Rendering for the output digest: ints exact, floats at 9 digits."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "0" if abs(x) < 1e-8 else format(x, ".9g")
    if isinstance(x, complex):
        return stable(x.real) + "," + stable(x.imag)
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{stable(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ",".join(stable(v) for v in x) + "]"
    return str(x)


def tree_problems(**claims) -> list[str]:
    """Each claim is (returned, exact).  A wrong count beyond 2**53 is the
    float-rounding defect, reported under its own name."""
    out = []
    for name, (value, exact) in claims.items():
        if value != exact:
            out.append("float_rounded_trees" if exact > 2 ** 53 else name)
    return out


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))


def problems(**checks) -> list[str]:
    """Names of the checks that are false."""
    return [name for name, ok in checks.items() if not ok]


def dense_bytes(obj, v: int) -> int:
    """Bytes of the v x v arrays an object holds (fields and cached values)."""
    total = 0
    stack = list(vars(obj).values())
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray) and x.shape == (v, v):
            total += x.nbytes
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return total


def nonzero(eigs: np.ndarray) -> np.ndarray:
    cut = 1e-9 * max(1.0, float(np.max(np.abs(eigs)))) if eigs.size else 0.0
    return eigs[np.abs(eigs) > cut]


class Workload:
    """Shared state of a pass: the package, the inputs and the exact counts.

    ``make_inputs(seed, smoke)`` draws the inputs once per run, in the
    parent process, so that their seed-dependent cost stays out of setup_s;
    it returns plain JSON data.
    """

    def __init__(self, dg, inputs: dict, workdir: str):
        self.dg = dg
        self.inputs = inputs
        self.workdir = workdir
        self.counts = {"complexes.simplices": 0, "operators.dense_bytes": 0,
                       "dynamics.lax_states_bytes": 0, "dynamics.lax_halvings": 0,
                       "dynamics.lax_steps": 0}
        self.per_graph: dict[str, dict] = {}

    def record(self, graph: str, **counts) -> None:
        for key, value in counts.items():
            self.counts[key] += value
            self.per_graph.setdefault(graph, {})[key] = value


# ---------------------------------------------------------- spectral-ladder

LADDER = [(30, 0.25, 232), (60, 0.15, 444), (100, 0.1, 806)]


class SpectralLadder(Workload):
    """The float pipeline through library calls on a seeded ER ladder."""

    @staticmethod
    def make_inputs(seed: int, smoke: bool) -> dict:
        rungs = []
        for n, p, target in LADDER[:1] if smoke else LADDER:
            vertices, edges = seeded_graph(n, p, target, max(1, target // 200), random.Random(seed))
            rng = np.random.default_rng([seed, n])
            v = sum(map(len, oracles.cliques(vertices, edges)))
            j0 = rng.standard_normal(n)
            vectors = {
                "f1": rng.standard_normal(len(edges)),
                "j0": j0 - j0.mean(),  # orthogonal to ker L_0 (connected)
                "u0": rng.standard_normal(n),
                "v0": rng.standard_normal(n),
                "psi": rng.standard_normal(v) + 1j * rng.standard_normal(v),
            }
            rungs.append({"name": f"er{n}", "vertices": vertices, "edges": edges,
                          "vectors": {k: [x.real.tolist(), x.imag.tolist()] for k, x in vectors.items()}})
        return {"rungs": rungs}

    def jobs(self):
        out = []
        for rung in self.inputs["rungs"]:
            vectors = {k: np.array(re) + 1j * np.array(im) if any(im) else np.array(re)
                       for k, (re, im) in rung["vectors"].items()}
            ref = Reference(rung["vertices"], rung["edges"])
            out += self._rung(rung["name"], edge_text(ref.vertices, ref.edges), ref, vectors)
        return out

    def _rung(self, name, text, ref, vec):
        dg, s = self.dg, {}

        def job(label, run, verify):
            return f"{name}.{label}", run, verify

        def run_complex():
            s["g"] = dg.parse_edge_list(text)
            s["c"] = dg.build_complex(s["g"])
            return s["c"]

        def verify_complex(c):
            self.record(name, **{"complexes.simplices": c.v})
            return list(c.counts), problems(clique_counts=list(c.counts) == ref.counts)

        def run_operators():
            s["ops"] = dg.build_operators(s["c"])
            return s["ops"]

        def verify_operators(ops):
            nnz = int(np.count_nonzero(ops.dirac))
            return nnz, problems(dirac_support=nnz == sum(ref.lap_traces),
                                 dirac_symmetric=bool((ops.dirac == ops.dirac.T).all()))

        def verify_blocks(systems):
            sums = [float(np.sum(eigs)) for eigs, _ in systems]
            return sums, problems(
                block_count=len(sums) == len(ref.counts),
                block_traces=all(close(a, b, 1e-9) for a, b in zip(sums, ref.lap_traces)))

        def verify_dirac(system):
            eigs = np.sort(system[0])
            scale = max(1.0, float(np.max(np.abs(eigs))))
            return len(eigs) - len(nonzero(eigs)), problems(
                symmetric_spectrum=float(np.max(np.abs(eigs + eigs[::-1]))) <= 1e-8 * scale,
                trace_d2=close(float(np.sum(eigs ** 2)), sum(ref.lap_traces), 1e-9))

        def verify_betti(b):
            return list(b), problems(
                exact_betti=list(b) == ref.betti,
                euler_poincare=oracles.euler(b) == ref.chi)

        def run_harmonic():
            basis = dg.harmonic_basis(s["ops"], 1)
            return basis, dg.hodge_decompose(s["ops"], dg.Cochain(1, vec["f1"]))

        def verify_harmonic(out):
            basis, dec = out
            f = vec["f1"]
            h = np.column_stack([b.values for b in basis]) if basis else np.zeros((len(f), 0))
            parts = [dec.exact.values, dec.coexact.values, dec.harmonic.values]
            tol = 1e-8 * float(f @ f)
            return [len(basis)] + [float(np.linalg.norm(x)) for x in parts], problems(
                harmonic_dim=len(basis) == ref.betti[1],
                orthonormal=bool(np.allclose(h.T @ h, np.eye(h.shape[1]), atol=1e-8)),
                parts_sum=bool(np.allclose(sum(parts), f, atol=1e-8)),
                parts_orthogonal=all(abs(float(a @ b)) <= tol
                                     for a, b in combinations(parts, 2)))

        def run_heat_kernel():
            return dg.super_trace(dg.heat_kernel(s["ops"], 1.0), s["ops"].parity)

        def verify_heat_kernel(value):
            return value, problems(mckean_singer=close(value, ref.chi, 1e-8))

        def log_pdet_l():
            eigs = np.concatenate([e for e, _ in s["ops"].block_eigensystems])
            return float(np.sum(np.log(nonzero(eigs)))), len(nonzero(eigs))

        def verify_pdet_d(value):
            log_l, n = log_pdet_l()
            return value, problems(
                finite=math.isfinite(value),
                det_d_squared_is_det_l=math.isfinite(value) and value != 0
                and close(2 * math.log(abs(value)), log_l, 1e-9),
                sign=math.copysign(1, value) == (-1) ** (n // 2))

        def verify_pdet_l(value):
            log_l, _ = log_pdet_l()
            return value if math.isfinite(value) else "inf", problems(
                finite=math.isfinite(value),
                cauchy_binet=math.isfinite(value) and value > 0
                and close(math.log(value), log_l, 1e-9))

        def run_zeta():
            return dg.dirac_zeta(s["ops"], 2).value, dg.dirac_zeta(s["ops"], -2).value

        def verify_zeta(values):
            eigs = np.concatenate([e for e, _ in s["ops"].block_eigensystems])
            inv_sum = float(np.sum(1.0 / nonzero(eigs)))
            plus, minus = values
            return list(values), problems(
                zeta_2=close(plus.real, inv_sum, 1e-9) and abs(plus.imag) <= 1e-9 * inv_sum,
                zeta_minus_2_is_trace=close(minus.real, sum(ref.lap_traces), 1e-9))

        def verify_eta(value):
            eigs = np.concatenate([e for e, _ in s["ops"].block_eigensystems])
            scale = float(np.sum(1.0 / nonzero(eigs)))
            return value, problems(mckean_singer_pairing=abs(value) <= 1e-8 * scale)

        def verify_torsion(value):
            return value, problems(torsion_is_one=close(value, 1.0, 1e-8))

        def verify_poisson(a):
            j = vec["j0"]
            residual = ref.laplacian_0(a.values) - j
            return float(np.linalg.norm(a.values)), problems(
                residual=float(np.linalg.norm(residual)) <= 1e-8 * float(np.linalg.norm(j)))

        def verify_heat(u):
            u0 = vec["u0"]
            return float(np.linalg.norm(u.values)), problems(
                mass=close(float(np.sum(u.values)), float(np.sum(u0)), 1e-9),
                contraction=float(np.linalg.norm(u.values)) <= float(np.linalg.norm(u0)) * (1 + 1e-12))

        def energy(u, v):
            return float(v @ v + u @ ref.laplacian_0(u))

        def verify_wave(w):
            before = energy(vec["u0"], vec["v0"])
            return energy(w.u.values, w.v.values), problems(
                energy=close(energy(w.u.values, w.v.values), before, 1e-9))

        def verify_schrodinger(psi):
            n0 = float(np.linalg.norm(vec["psi"]))
            return float(np.linalg.norm(psi)), problems(unitary=close(float(np.linalg.norm(psi)), n0, 1e-9))

        def verify_kirchhoff(trees):
            return trees, tree_problems(
                exact_matrix_tree=(trees, oracles.spanning_trees(ref.vertices, ref.edges)))

        def verify_simplex_trees(trees):
            n, edges = oracles.simplex_graph_edges(ref.strata)
            ok = close(math.log(trees), oracles.log_spanning_trees(n, edges), 1e-9) if trees > 0 else False
            return trees, problems(simplex_graph_trees=ok)

        def verify_magnitude(value):
            return value, problems(magnitude=close(value, oracles.magnitude(ref.vertices, ref.edges), 1e-9))

        def verify_curvature(ks):
            total = sum(ks.values(), Fraction(0))
            self.record(name, **{"operators.dense_bytes": dense_bytes(s["ops"], ref.v)})
            return str(total), problems(vertices=sorted(ks) == ref.vertices,
                                        gauss_bonnet=total == ref.chi)

        ops = lambda: s["ops"]  # noqa: E731
        return [
            job("complex", run_complex, verify_complex),
            job("operators", run_operators, verify_operators),
            job("block_eigh", lambda: ops().block_eigensystems, verify_blocks),
            job("dirac_eigh", lambda: ops().dirac_eigensystem, verify_dirac),
            job("betti", lambda: dg.betti_numbers(ops()), verify_betti),
            job("harmonic", run_harmonic, verify_harmonic),
            job("heat_kernel", run_heat_kernel, verify_heat_kernel),
            job("pseudo_det_D", lambda: dg.pseudo_det(ops().dirac), verify_pdet_d),
            job("pseudo_det_L", lambda: dg.pseudo_det(ops().laplacian), verify_pdet_l),
            job("dirac_zeta", run_zeta, verify_zeta),
            job("eta", lambda: dg.eta(ops(), 2), verify_eta),
            job("torsion", lambda: dg.analytic_torsion(ops()), verify_torsion),
            job("poisson", lambda: dg.poisson_solve(ops(), 0, vec["j0"]), verify_poisson),
            job("heat_evolve", lambda: dg.heat_evolve(ops(), dg.Cochain(0, vec["u0"]), 1.0),
                verify_heat),
            job("wave_evolve", lambda: dg.wave_evolve(
                ops(), dg.WaveState(dg.Cochain(0, vec["u0"]), dg.Cochain(0, vec["v0"])), 1.0),
                verify_wave),
            job("schrodinger", lambda: dg.schrodinger_evolve(ops(), vec["psi"], 1.0),
                verify_schrodinger),
            job("kirchhoff", lambda: dg.kirchhoff_trees(s["g"]), verify_kirchhoff),
            job("simplex_graph_trees", lambda: dg.simplex_graph_trees(s["c"]), verify_simplex_trees),
            job("magnitude", lambda: dg.magnitude(s["g"]), verify_magnitude),
            job("curvature", lambda: dg.curvature_vector(s["g"]), verify_curvature),
        ]


# ----------------------------------------------------------------- desk-cli

DESK_ER = [("er8", 8, 0.5, 31), ("er9", 9, 0.45, 33), ("er10", 10, 0.4, 35)]
DESK_LEFSCHETZ = ("example", "octahedron", "er8", "er9", "er10")
EXACT_SIMPLEX_TREES = 120  # largest simplex graph whose tree count is checked exactly


class DeskCli(Workload):
    """An interactive user running every CLI command in-process, JSON output."""

    @staticmethod
    def make_inputs(seed: int, smoke: bool) -> dict:
        rng = random.Random(seed)
        graphs = {"example": EXAMPLE, "octahedron": octahedron()}
        if not smoke:
            graphs.update(icosahedron=icosahedron(), truncated_cube=truncated_cube())
        for name, n, p, target in DESK_ER[:1] if smoke else DESK_ER:
            graphs[name] = seeded_graph(n, p, target, 1, rng, max_automorphisms=2)
        # distance compares graphs on one vertex list
        vertices, edges = EXAMPLE
        flip = rng.choice(list(combinations(vertices, 2)))
        perturbed = [e for e in edges if e != flip] + ([] if flip in edges else [flip])
        pairs = [("er10a_er10b", erdos_renyi(10, 0.4, rng), erdos_renyi(10, 0.4, rng)),
                 ("example_perturbed", EXAMPLE, (vertices, perturbed))]
        left = erdos_renyi(5, 0.7, rng)[1]
        right = [(u + 5, v + 5) for u, v in erdos_renyi(4, 0.7, rng)[1]]
        lines = edge_text(*EXAMPLE).splitlines()
        lines[rng.randint(2, 6)] = f"{rng.randint(0, 9)} {rng.randint(0, 9)} {rng.randint(0, 9)}"
        return {"seed": seed, "graphs": graphs, "pairs": pairs,
                "disconnected": (list(range(9)), left + right),
                "malformed": "\n".join(lines) + "\n"}

    def __init__(self, *args):
        super().__init__(*args)
        self.seed = self.inputs["seed"]
        self.graphs = self.inputs["graphs"]
        self.refs = {name: Reference(*g) for name, g in self.graphs.items()}
        self.pairs = self.inputs["pairs"]
        self.files = {name: self._write(name, g) for name, g in self.graphs.items()}
        for name, g, h in self.pairs:
            self.files[name + ".1"] = self._write(name + ".1", g)
            self.files[name + ".2"] = self._write(name + ".2", h)
        self.files["disconnected"] = self._write("disconnected", self.inputs["disconnected"])
        self.files["malformed"] = self._write_text("malformed", self.inputs["malformed"])
        self.cli = importlib.import_module("diracgraph.cli")
        self._library = {}

    def _write(self, name, graph):
        return self._write_text(name, edge_text(*graph))

    def _write_text(self, name, text):
        path = os.path.join(self.workdir, name + ".edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _graph(self, name):
        """The library's own graph object, for comparing against its values."""
        if name not in self._library:
            self._library[name] = self.dg.SimpleGraph(*self.graphs[name])
        return self._library[name]

    def jobs(self):
        extra = {"morse": ["--seed", str(self.seed)], "zeta": ["--s", "2"], "deform": ["--T", "1"]}
        out = []
        for name in self.graphs:
            for command in ("analyze", "cohomology", "curvature", "morse", "spectrum", "zeta",
                            "magnitude", "trees", "deform", "dimension", "contract"):
                argv = [command, self.files[name], "--format", "json"] + extra.get(command, [])
                out.append(self._job(f"{command}.{name}", argv, getattr(self, f"_check_{command}"),
                                     name, raw=command == "deform"))
            if name in DESK_LEFSCHETZ:
                argv = ["lefschetz", self.files[name], "--format", "json", "--z", "0.3"]
                out.append(self._job(f"lefschetz.{name}", argv, self._check_lefschetz, name))
        for name, _, _ in self.pairs:
            argv = ["distance", self.files[name + ".1"], self.files[name + ".2"], "--format", "json"]
            out.append(self._job(f"distance.{name}", argv, self._check_distance, name))
        expected_errors = [
            ("cohomology.malformed", ["cohomology", self.files["malformed"], "--format", "json"], 1),
            ("trees.disconnected", ["trees", self.files["disconnected"], "--format", "json"], 2),
        ]
        if "icosahedron" in self.graphs:
            expected_errors.append(("lefschetz.icosahedron", ["lefschetz", self.files["icosahedron"],
                                                              "--format", "json", "--z", "0.3"], 3))
        for job_id, argv, code in expected_errors:
            out.append(self._job(job_id, argv, None, None, expected_code=code))
        return out

    def _job(self, job_id, argv, check, name, expected_code=0, raw=False):
        def verify(result):
            code, stdout, stderr = result
            summary = f"{code}:{stdout}"
            if code != expected_code:
                return summary, [f"exit_{code}"]
            if expected_code:
                return summary, problems(one_stderr_line=stderr.count("\n") == 1,
                                         empty_stdout=stdout == "")
            if raw:  # deform prints CSV whatever the format
                return summary, check(name, stdout)
            try:
                report = json.loads(stdout)
            except ValueError:
                return summary, ["json"]
            return summary, check(name, report)

        return job_id, lambda: self._run(argv), verify

    # each check compares a report with oracles or with the library's values

    def _check_analyze(self, name, rep):
        ref = self.refs[name]
        coeffs = rep["characteristicPolynomial"]
        kernel = rep["kernelDim"]
        low = coeffs[ref.v - kernel] if kernel <= ref.v else 0
        pdet = rep["diracPseudoDeterminant"]
        positive = rep["positiveDiracEigenvalues"]
        return problems(
            counts=rep["v"] == ref.counts,
            chi=rep["chi"] == ref.chi,
            exact_betti=rep["betti"] == ref.betti,
            kernel_is_harmonic=kernel == sum(ref.betti),
            charpoly_degree=len(coeffs) == ref.v + 1 and coeffs[0] == 1,
            charpoly_even=all(c == 0 for c in coeffs[1::2]),
            charpoly_trace=len(coeffs) > 2 and coeffs[2] == -sum(ref.lap_traces) // 2,
            charpoly_kernel=all(c == 0 for c in coeffs[ref.v - kernel + 1:]) and low != 0,
            charpoly_pdet=close(low * (-1) ** (ref.v - kernel), pdet, 1e-6),
            positive_count=2 * len(positive) == ref.v - kernel,
            positive_trace=close(2 * sum(x * x for x in positive), sum(ref.lap_traces), 1e-9),
            torsion=close(rep["analyticTorsion"], 1.0, 1e-8),
            invariants=all(i["pass"] for i in rep["invariants"]),
        )

    def _check_cohomology(self, name, rep):
        ref = self.refs[name]
        self.record(name, **{"complexes.simplices": sum(rep["v"])})
        spectra = [rep["spectrumByDegree"][str(k)] for k in range(len(ref.counts))]
        return problems(
            counts=rep["v"] == ref.counts,
            exact_betti=rep["betti"] == ref.betti,
            library_betti=rep["betti"] == list(self.dg.betti_numbers(
                self.dg.operators_for(self._graph(name)))),
            chi=rep["chi"] == ref.chi,
            kernels=[len(s) - len(nonzero(np.array(s))) for s in spectra] == ref.betti,
            traces=all(close(sum(s), t, 1e-9) for s, t in zip(spectra, ref.lap_traces)),
        )

    def _check_curvature(self, name, rep):
        ref = self.refs[name]
        library = {str(v): f"{k.numerator}/{k.denominator}"
                   for v, k in self.dg.curvature_vector(self._graph(name)).items()}
        return problems(
            gauss_bonnet=Fraction(rep["sum"]) == ref.chi and rep["chi"] == ref.chi,
            library_curvature=rep["curvature"] == library,
        )

    def _check_morse(self, name, rep):
        ref = self.refs[name]
        f = {int(v): x for v, x in rep["f"].items()}
        data = self.dg.poincare_hopf(self._graph(name), f)
        return problems(
            poincare_hopf=rep["sum"] == ref.chi,
            library_indices=rep["indices"] == {str(v): i for v, i in data.indices.items()},
            critical=rep["critical"] == [v for v in ref.vertices if rep["indices"][str(v)] != 0],
        )

    def _check_spectrum(self, name, rep):
        ref = self.refs[name]
        eigs = np.sort(np.array(rep["dirac"]))
        scale = max(1.0, float(np.max(np.abs(eigs))))
        by_degree = [rep["byDegree"][str(k)] for k in range(len(ref.counts))]
        return problems(
            size=len(eigs) == ref.v,
            symmetric=float(np.max(np.abs(eigs + eigs[::-1]))) <= 1e-8 * scale,
            trace_d2=close(float(np.sum(eigs ** 2)), sum(ref.lap_traces), 1e-9),
            kernels=[len(s) - len(nonzero(np.array(s))) for s in by_degree] == ref.betti,
        )

    def _check_zeta(self, name, rep):
        expected = float(np.sum(1.0 / nonzero(self.refs[name].laplacian_spectrum())))
        value = rep["value"]
        return problems(zeta_2=close(value["re"], expected, 1e-8) and abs(value["im"]) <= 1e-8 * expected)

    def _check_magnitude(self, name, rep):
        ref = self.refs[name]
        return problems(magnitude=close(rep["magnitude"], oracles.magnitude(ref.vertices, ref.edges), 1e-9))

    def _check_trees(self, name, rep):
        ref = self.refs[name]
        n, edges = oracles.simplex_graph_edges(ref.strata)
        value = rep["simplexGraphSpanningTrees"]
        out = tree_problems(exact_matrix_tree=(rep["spanningTrees"],
                                               oracles.spanning_trees(ref.vertices, ref.edges)))
        if n <= EXACT_SIMPLEX_TREES:
            out += tree_problems(simplex_graph_trees=(value, oracles.spanning_trees(range(n), edges)))
        elif not close(math.log(value), oracles.log_spanning_trees(n, edges), 1e-9):
            out.append("simplex_graph_trees")
        return out

    def _check_deform(self, name, csv):
        rows = [line.split(",") for line in csv.strip().splitlines()]
        body = [[float(x) for x in row] for row in rows[1:]]
        tr = [r[1] for r in body]
        self.record(name, **{"dynamics.lax_steps": len(body) - 1})
        return problems(
            header=rows[0] == ["t", "trM", "spectrumError", "nilpotencyError"],
            steps=len(body) == 101,
            spectrum_bound=all(r[2] <= 1e-6 for r in body),
            nilpotency_bound=all(r[3] <= 1e-8 for r in body),
            tr_m_nonincreasing=all(b <= a + 1e-12 for a, b in zip(tr, tr[1:])),
        )

    def _check_lefschetz(self, name, rep):
        ref = self.refs[name]
        autos = oracles.automorphisms(ref.vertices, ref.edges)
        perms = {tuple(t[v] for v in ref.vertices) for t in autos}
        entries = {tuple(e["permutation"]): e for e in rep["automorphisms"]}
        pos = {v: i for i, v in enumerate(ref.vertices)}

        def power_lefschetz(perm, n):
            image = list(ref.vertices)
            for _ in range(n):
                image = [perm[pos[x]] for x in image]
            return entries[tuple(image)]["lefschetz"]

        def zeta(perm):
            s = sum(power_lefschetz(perm, n) * 0.3 ** n / n for n in range(1, 41))
            return math.exp(s)

        identity = tuple(ref.vertices)
        product = 1.0
        ok_zeta = True
        for perm, e in entries.items():
            value = zeta(perm)
            product *= value
            ok_zeta &= close(e["zeta"]["re"], value, 1e-9) and abs(e["zeta"]["im"]) <= 1e-9 * value
        return problems(
            automorphisms=rep["count"] == len(autos) and set(entries) == perms,
            fixed_point_theorem=all(e["lefschetz"] == sum(x["index"] for x in e["fixedSimplices"])
                                    for e in entries.values()),
            trace_sum=all(e["lefschetz"] == round(sum((-1) ** k * t for k, t in enumerate(e["traces"])))
                          for e in entries.values()),
            identity_is_chi=entries[identity]["lefschetz"] == ref.chi,
            zeta=ok_zeta,
            zeta_product=close(rep["zetaProduct"]["re"], product, 1e-9),
        )

    def _check_dimension(self, name, rep):
        ref = self.refs[name]
        return problems(dimension=Fraction(rep["dimension"]) == oracles.dimension(ref.vertices, ref.edges))

    def _check_contract(self, name, rep):
        ref = self.refs[name]
        removed, remaining = rep["removed"], rep["remaining"]
        b = ref.betti
        verdict = rep["contractible"]
        return problems(
            partition=sorted(removed + remaining) == ref.vertices,
            verdict=(verdict is None
                     or (verdict is True and len(remaining) == 1 and b[0] == 1 and not any(b[1:]))
                     or (verdict is False and (b[0] > 1 or any(b[1:])))),
        )

    def _check_distance(self, name, rep):
        g, h = next((g, h) for n, g, h in self.pairs if n == name)
        sg = {s for st in oracles.cliques(*g) for s in st}
        sh = {s for st in oracles.cliques(*h) for s in st}
        expected = Fraction(len(sg ^ sh), 2 ** len(g[0]) - 1)
        dist = Fraction(rep["simplexDistance"])
        return problems(
            simplex_distance=dist == expected,
            lidskii=rep["spectralDistance"] <= rep["lidskiiBound"] + 1e-12,
            degree_times_distance=close(rep["degreeTimesDistance"],
                                        float(rep["maxSimplexDegree"] * dist), 1e-12),
        )


# --------------------------------------------------------------- lax-deform

SPECTRUM_BOUND = 1e-6
NILPOTENCY_BOUND = 1e-8


class LaxDeform(Workload):
    """The Lax isospectral flow: dense RK4 on ER(30, .25) and the icosahedron."""

    @staticmethod
    def make_inputs(seed: int, smoke: bool) -> dict:
        er = seeded_graph(30, 0.25, 232, 1, random.Random(seed))
        t_er, t_ico = (0.2, 0.2) if smoke else (5.0, 1.0)
        return {"runs": [("er30", er, t_er, "real"),
                         ("icosahedron", icosahedron(), t_ico, "complexified")]}

    def jobs(self):
        return [job for name, graph, t_final, variant in self.inputs["runs"]
                for job in self._graph_jobs(name, graph, t_final, variant)]

    def _graph_jobs(self, name, graph, t_final, variant):
        """One job per graph, as a user deforms it: parse, assemble,
        integrate, render the trajectory."""
        dg, h = self.dg, 0.01
        ref = Reference(*graph)
        text = edge_text(*graph)

        def run():
            ops = dg.build_operators(dg.build_complex(dg.parse_edge_list(text)))
            states = dg.lax_deform(ops, t_final, h, variant=variant,
                                   nilpotency_bound=NILPOTENCY_BOUND, spectrum_bound=SPECTRUM_BOUND)
            return ops, states, dg.trajectory_csv(states)

        def verify(out):
            ops, states, csv = out
            step = states[1].t - states[0].t
            tr = [x.tr_m for x in states]
            rows = csv.strip().splitlines()
            last = [float(x) for x in rows[-1].split(",")]
            self.record(name, **{
                "complexes.simplices": ops.v,
                "operators.dense_bytes": dense_bytes(ops, ref.v),
                "dynamics.lax_states_bytes": sum(x.d.nbytes + x.b.nbytes for x in states),
                "dynamics.lax_halvings": round(math.log2(h / step)),
                "dynamics.lax_steps": len(states) - 1,
            })
            return [list(ops.complex.counts), len(states), tr[0], tr[-1]], problems(
                clique_counts=list(ops.complex.counts) == ref.counts,
                steps=len(states) == round(t_final / step) + 1,
                spectrum_bound=max(x.spectrum_error for x in states) <= SPECTRUM_BOUND,
                nilpotency_bound=max(x.nilpotency_error for x in states) <= NILPOTENCY_BOUND,
                laplacian_bound=max(x.laplacian_error for x in states) <= SPECTRUM_BOUND,
                tr_m_nonincreasing=all(b <= a + 1e-12 for a, b in zip(tr, tr[1:])),
                csv_rows=len(rows) == len(states) + 1,
                csv_last_row=close(last[0], states[-1].t, 1e-6) and close(last[1], tr[-1], 1e-9),
            )

        return [(f"{name}.deform", run, verify)]


WORKLOADS = {
    "spectral-ladder": SpectralLadder,
    "desk-cli": DeskCli,
    "lax-deform": LaxDeform,
}
