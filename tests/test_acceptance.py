"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values marked "printed" come from the worked 7-vertex example.
One of its printed decimals is corrected here: the positive spectrum is
determined by the (also printed, integer-exact) characteristic polynomial,
whose fourth positive root is 1.6188, printed as 1.69 by an evident typo
(the polynomial evaluates to 3.36 at 1.69).  The suite asserts the roots
of the polynomial it also verifies, to the same 2-decimal precision.
"""

import math
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import diracgraph as dg
from conftest import (
    cauchy_binet_minor_sum,
    erdos_renyi,
    index_expectation_brute,
    random_suite,
    spanning_trees_brute,
    trace_lefschetz,
)

GOLDEN_CHARPOLY = [1, 0, -24, 0, 242, 0, -1334, 0, 4377, 0, -8706, 0,
                   10187, 0, -6370, 0, 1624, 0, 0]
GOLDEN_POSITIVE_SPECTRUM = [0.92, 1.05, 1.41, 1.62, 1.78, 2.00, 2.15, 2.38]
# the kernel vector [1,-1,-3,2,-5,8,-8,0,8] of L1 is quoted against the edge
# order (1,3),(1,2),(2,4),(2,3),...; reindexed to our lexicographic order
# (1,2),(1,3),(2,3),(2,4),... it reads:
GOLDEN_HARMONIC_1FORM = [-1, 1, 2, -3, -5, 8, -8, 0, 8]
GOLDEN_CURVATURES = [Fraction(k, 6) for k in (2, 1, -2, -4, 0, 0, 3)]


def report(criterion: str, checks: list[tuple[str, bool]]):
    ok = all(passed for _, passed in checks)
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    for name, passed in checks:
        if not passed:
            print(f"    failed sub-check: {name}")
    assert ok, f"{criterion}: " + ", ".join(n for n, p in checks if not p)


@pytest.fixture(scope="module")
def fixture_graph():
    text = resources.files("diracgraph").joinpath("data/example.edges").read_text()
    return dg.parse_edge_list(text)


@pytest.fixture(scope="module")
def fixture_ops(fixture_graph):
    return dg.operators_for(fixture_graph)


@pytest.fixture(scope="module")
def suite():
    return random_suite(count=50, seed=20130605, n_max=8, ps=(0.3, 0.5, 0.7))


def rank_one_agreement(a, b):
    return abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_criterion_1_golden_example(fixture_graph, fixture_ops):
    g, ops = fixture_graph, fixture_ops
    c = ops.complex
    checks = [("v = (7,9,2)", c.counts == (7, 9, 2)),
              ("chi = 0", dg.euler_characteristic(c) == 0),
              ("b0 = b1 = 1", dg.betti_numbers(ops) == (1, 1, 0))]
    checks.append(("characteristic polynomial",
                   dg.charpoly_int(ops.dirac) == GOLDEN_CHARPOLY))
    checks.append(("characteristic polynomial from the blocks d_k",
                   dg.dirac_charpoly(ops) == GOLDEN_CHARPOLY))
    pdet = dg.pseudo_det(ops.dirac)
    checks.append(("Det(D) = 1624 (1e-6 rel)", abs(pdet - 1624) <= 1624e-6))
    eigs = ops.dirac_eigensystem[0]
    positive = np.sort(eigs[eigs > 1e-9])
    checks.append(("8 positive eigenvalues", positive.size == 8))
    checks.append(("positive spectrum to 0.005",
                   np.max(np.abs(positive - GOLDEN_POSITIVE_SPECTRUM)) <= 0.005))
    checks.append(("L2 = [[3,1],[1,3]]",
                   np.array_equal(ops.lap_blocks[2], [[3, 1], [1, 3]])))
    h0 = dg.harmonic_basis(ops, 0)
    h1 = dg.harmonic_basis(ops, 1)
    checks.append(("ker L0 parallel to all-ones",
                   len(h0) == 1
                   and rank_one_agreement(h0[0].values, np.ones(7)) >= 1 - 1e-8))
    checks.append(("ker L1 parallel to printed vector",
                   len(h1) == 1
                   and rank_one_agreement(h1[0].values, GOLDEN_HARMONIC_1FORM) >= 1 - 1e-8))
    checks.append(("curvatures (2,1,-2,-4,0,0,3)/6",
                   [dg.curvature(g, x) for x in g.vertices] == GOLDEN_CURVATURES))
    ph = dg.poincare_hopf(g, {x: x for x in g.vertices})
    checks.append(("Poincare-Hopf indices (1,0,0,0,0,-1,0)",
                   [ph.indices[x] for x in g.vertices] == [1, 0, 0, 0, 0, -1, 0]))
    report("criterion 1 (golden example reproduction)", checks)


def test_criterion_2_structural_identities(suite):
    rng = random.Random(424242)
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    for idx, g in enumerate(suite):
        c = dg.build_complex(g)
        ops = dg.build_operators(c)
        chi = dg.euler_characteristic(c)
        for k in range(len(ops.dblocks) - 1):
            check(f"g{idx} d_{k+1}d_{k} = 0",
                  not (ops.dblocks[k + 1] @ ops.dblocks[k]).any())
        pd = np.diag(ops.parity)
        check(f"g{idx} DP+PD = 0", not (ops.dirac @ pd + pd @ ops.dirac).any())
        d_raw = ops.dirac_eigensystem[0]
        l_raw = np.linalg.eigvalsh(ops.laplacian.astype(float))
        # kernel noise of order 1e-14 would blow up to 1e-7 under the square
        # root, so zero decisions use the library's documented threshold
        d_eigs = np.sort(np.where(np.abs(d_raw) < dg.kernel_cut(d_raw), 0.0,
                                  np.abs(d_raw)))
        l_eigs = np.sort(np.sqrt(np.where(l_raw < dg.kernel_cut(l_raw), 0.0,
                                          l_raw)))
        check(f"g{idx} sigma(D) = +-sqrt(sigma(L))",
              np.allclose(d_eigs, l_eigs, atol=1e-8))
        power = ops.laplacian.copy()
        for k in range(1, 5):
            check(f"g{idx} str(L^{k}) = 0",
                  dg.super_trace(power, ops.parity) == 0)
            power = power @ ops.laplacian
        for t in (0.5, 2.0):
            check(f"g{idx} McKean-Singer t={t}",
                  abs(dg.super_trace(dg.heat_kernel(ops, t), ops.parity) - chi) <= 1e-8)
        ep = dg.euler_poincare_check(ops)
        check(f"g{idx} v(-1) = p(-1)",
              ep["chiCombinatorial"] == ep["chiCohomological"] == chi)
        check(f"g{idx} Gauss-Bonnet",
              sum(dg.curvature_vector(g).values()) == chi)
        for _ in range(20):
            values = list(range(g.n))
            rng.shuffle(values)
            if g.n and dg.poincare_hopf(g, values).total != chi:
                check(f"g{idx} Poincare-Hopf", False)
                break
        # orientation invariance: D conjugates by the flip signs, leaving
        # the Dirac spectrum, block spectra, |L| and diag(L) unchanged;
        # flips constant on each stratum leave L entrywise identical
        flips = dg.OrientationAssignment.random(c, rng)
        flipped = dg.build_operators(c, flips)
        s = np.array([flips.sign(x) for x in c.simplices], dtype=np.int64)
        check(f"g{idx} D' = SDS",
              np.array_equal(flipped.dirac, s[:, None] * ops.dirac * s[None, :]))
        check(f"g{idx} sigma(D) flip-invariant",
              np.allclose(flipped.dirac_eigensystem[0],
                          ops.dirac_eigensystem[0], atol=1e-8))
        check(f"g{idx} |L| and diag(L) flip-invariant",
              np.array_equal(np.abs(flipped.laplacian), np.abs(ops.laplacian))
              and np.array_equal(np.diag(flipped.laplacian), np.diag(ops.laplacian)))
        for k in range(len(c.strata)):
            check(f"g{idx} sigma(L_{k}) flip-invariant",
                  np.allclose(flipped.block_eigensystems[k][0],
                              ops.block_eigensystems[k][0], atol=1e-8))
        per_stratum = {k: rng.choice((1, -1)) for k in range(len(c.strata))}
        stratum_flips = dg.OrientationAssignment(
            {x: per_stratum[len(x) - 1] for x in c.simplices})
        check(f"g{idx} stratum-constant flips leave L identical",
              np.array_equal(dg.build_operators(c, stratum_flips).laplacian,
                             ops.laplacian))
    report("criterion 2 (structural identity suite, 50 random graphs)",
           [(name, False) for name in failures] or [("all identities", True)])


def test_criterion_3_index_expectation_oracle():
    rng = random.Random(999)
    subsuite = []
    while len(subsuite) < 10:
        g = erdos_renyi(rng.randint(2, 6), rng.choice((0.4, 0.6, 0.8)), rng)
        if g.is_connected():
            subsuite.append(g)
    checks = []
    for idx, g in enumerate(subsuite):
        for x in g.vertices:
            oracle = index_expectation_brute(g, x)
            checks.append((f"g{idx} vertex {x}: E[i] = K", oracle == dg.curvature(g, x)))
    report("criterion 3 (index expectation equals curvature, exact)", checks)


def test_criterion_4_matrix_tree():
    rng = random.Random(515)
    checks = []
    count = 0
    while count < 10:
        g = erdos_renyi(rng.randint(2, 6), rng.choice((0.5, 0.7)), rng)
        if not g.is_connected():
            continue
        checks.append((f"trees of graph {count}",
                       dg.kirchhoff_trees(g) == spanning_trees_brute(g)))
        count += 1
    c4 = dg.build_complex(dg.SimpleGraph.cycle(4))
    checks.append(("simplex-graph trees of C4 = 8", dg.simplex_graph_trees(c4) == 8))
    report("criterion 4 (matrix-tree counts)", checks)


def test_criterion_5_cauchy_binet_pythagoras():
    rng = random.Random(282)
    checks = []
    for trial in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        f = np.array([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        g = np.array([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        ok = all(
            dg.cauchy_binet_coeffs(f, g, k) == cauchy_binet_minor_sum(f, g, k)
            for k in range(min(n, m) + 1)
        )
        checks.append((f"pair {trial} all k", ok))
    for trial in range(50):
        n = rng.randint(1, 4)
        a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        a = a + a.T
        coeffs = dg.charpoly_int(a)
        rank = max(i for i in range(n + 1) if coeffs[i] != 0)
        det_sq = ((-1) ** rank * coeffs[rank]) ** 2
        checks.append((f"symmetric {trial} Pythagoras",
                       dg.cauchy_binet_coeffs(a, a, rank) == det_sq))
    report("criterion 5 (Cauchy-Binet and Pythagoras, exact)", checks)


def test_criterion_6_lidskii():
    rng = np.random.default_rng(330)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = rng.integers(-1, 2, size=(n, n))
        b = rng.integers(-1, 2, size=(n, n))
        a = np.triu(a) + np.triu(a, 1).T
        b = np.triu(b) + np.triu(b, 1).T
        rep = dg.spectral_distance(a, b)
        if rep.distance > rep.bound + 1e-12:
            violations += 1
    report("criterion 6 (Lidskii bound, 200 random pairs)",
           [("zero violations", violations == 0)])


def test_criterion_7_lax_deformation(fixture_ops):
    states = dg.lax_deform(fixture_ops, 10.0, 0.01)
    tr = [s.tr_m for s in states]
    checks = [
        ("spectral drift <= 1e-6", max(s.spectrum_error for s in states) <= 1e-6),
        ("L drift <= 1e-6", max(s.laplacian_error for s in states) <= 1e-6),
        ("nilpotency <= 1e-8", max(s.nilpotency_error for s in states) <= 1e-8),
        ("tr M non-increasing", all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1))),
        ("final tr M <= 0.05 tr M(0)", tr[-1] <= 0.05 * tr[0]),
    ]
    report("criterion 7 (Lax deformation, T=10, h=0.01)", checks)


def test_criterion_8_lefschetz(suite):
    checks = []
    c5 = dg.SimpleGraph.cycle(5)
    ops5 = dg.operators_for(c5)
    rep = dg.lefschetz(ops5, {1: 1, 2: 5, 5: 2, 3: 4, 4: 3})
    checks.append(("C5 reflection L(T) = 2", rep.lefschetz == 2))
    checks.append(("C5 reflection fixed simplices",
                   rep.fixed_simplices == (((1,), 1), ((3, 4), 1))))
    zeta = dg.lefschetz_zeta(ops5, {1: 1, 2: 5, 5: 2, 3: 4, 4: 3}, 0.3)
    checks.append(("zeta_T(0.3) = 13/7", abs(zeta - 13 / 7) <= 1e-12))
    for idx, g in enumerate(suite):
        if g.n > 6:
            continue  # keep the automorphism enumeration affordable
        ops = dg.operators_for(g)
        chi = dg.euler_characteristic(dg.build_complex(g))
        ident = {v: v for v in g.vertices}
        checks.append((f"g{idx} identity L = chi",
                       dg.lefschetz(ops, ident).lefschetz == chi))
        ok = True
        for t in dg.automorphisms(g):
            r = dg.lefschetz(ops, t)
            if not trace_lefschetz(r.traces) == r.lefschetz == sum(i for _, i in r.fixed_simplices):
                ok = False
        checks.append((f"g{idx} L(T) = sum of indices", ok))
    report("criterion 8 (Lefschetz fixed point data)", checks)


def test_criterion_9_zeta_torsion(fixture_ops):
    ops = fixture_ops
    checks = [
        ("zeta(-2) = tr L",
         abs(dg.dirac_zeta(ops, -2).value - np.trace(ops.laplacian)) <= 1e-8),
        ("zeta(-1) = 0", abs(dg.dirac_zeta(ops, -1).value) <= 1e-8),
    ]
    det = np.exp(-dg.zeta_derivative_at_zero(ops))
    pdet = dg.pseudo_det(ops.dirac)
    checks.append(("exp(-zeta'(0)) = Det(D) (1e-9 rel)",
                   abs(det - pdet) <= 1e-9 * abs(pdet)))
    for name, g in (("fixture", None), ("C4", dg.SimpleGraph.cycle(4)),
                    ("K5", dg.SimpleGraph.complete(5))):
        o = ops if g is None else dg.operators_for(g)
        checks.append((f"torsion({name}) = 1",
                       abs(dg.analytic_torsion(o) - 1) <= 1e-8))
    for n in (4, 5, 6):
        o = dg.operators_for(dg.SimpleGraph.cycle(n))
        eigs = o.dirac_eigensystem[0]
        positive = np.sort(eigs[eigs > 1e-9])
        expected = np.sort([2 * math.sin(math.pi * k / n) for k in range(1, n)])
        checks.append((f"C{n} positive spectrum = 2 sin(pi k/n)",
                       positive.size == expected.size
                       and np.max(np.abs(positive - expected)) <= 1e-8))
    report("criterion 9 (zeta and torsion identities)", checks)


def test_criterion_10_pde(fixture_ops):
    ops = fixture_ops
    rng = np.random.default_rng(808)
    u0 = dg.Cochain(1, rng.normal(size=9))
    v0 = dg.Cochain(1, rng.normal(size=9))
    l1 = ops.lap_blocks[1].astype(float)

    def energy(w):
        return w.v.values @ w.v.values + w.u.values @ (l1 @ w.u.values)

    w0 = dg.WaveState(u0, v0)
    e0 = energy(w0)
    drift = max(abs(energy(dg.wave_evolve(ops, w0, t)) - e0)
                for t in np.linspace(0.0, 10.0, 41))
    checks = [("wave energy drift <= 1e-9", drift <= 1e-9)]
    psi = rng.normal(size=18) + 1j * rng.normal(size=18)
    out = dg.schrodinger_evolve(ops, psi, 3.7)
    checks.append(("Schroedinger norm drift <= 1e-10",
                   abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-10))
    k5 = dg.operators_for(dg.SimpleGraph.complete(5))
    j = rng.normal(size=k5.complex.count(1))
    eigs, vecs = k5.block_eigensystems[1]
    kernel = vecs[:, eigs < 1e-9]
    j -= kernel @ (kernel.T @ j)
    a = dg.poisson_solve(k5, 1, j)
    residual = np.linalg.norm(k5.lap_blocks[1] @ a.values - j)
    checks.append(("Poisson residual <= 1e-8 ||j||",
                   residual <= 1e-8 * np.linalg.norm(j)))
    report("criterion 10 (PDE solvers)", checks)
