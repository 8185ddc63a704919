"""Betti numbers, harmonic forms, super traces, heat kernel."""

import random

import numpy as np
import pytest

from diracgraph import (
    Cochain,
    SimpleGraph,
    betti,
    betti_numbers,
    build_complex,
    cohomology_report,
    euler_characteristic,
    euler_poincare_check,
    harmonic_basis,
    heat_kernel,
    hodge_decompose,
    kernel_cut,
    operators_for,
    super_trace,
)
from diracgraph.hodge import nonzero
from conftest import betti_exact, erdos_renyi, icosahedron, octahedron

# the example's harmonic 1-form, translated from the printed edge order
# ((1,3),(1,2),(2,4),(2,3),...) to lexicographic ((1,2),(1,3),(2,3),(2,4),...)
EXAMPLE_HARMONIC_1FORM = np.array([-1, 1, 2, -3, -5, 8, -8, 0, 8], dtype=float)


def rank_one_agreement(a, b) -> float:
    return abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_betti_example(example_ops):
    assert betti(example_ops, 0) == 1
    assert betti(example_ops, 1) == 1
    assert betti(example_ops, 2) == 0
    assert betti(example_ops, 5) == 0  # beyond the top dimension


def test_betti_cycles_and_complete_graphs():
    for n in (4, 5, 6):
        assert betti_numbers(operators_for(SimpleGraph.cycle(n))) == (1, 1)
    for n in (2, 3, 4, 5, 6):
        b = betti_numbers(operators_for(SimpleGraph.complete(n)))
        assert b[0] == 1 and not any(b[1:])


def test_betti_matches_exact_rank_oracle():
    rng = random.Random(17)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)), rng)
        assert list(betti_numbers(operators_for(g))) == betti_exact(g)


def test_betti_counts_components():
    g = SimpleGraph(range(6), [(0, 1), (2, 3)])
    assert betti(operators_for(g), 0) == 3 + 1  # two edges + two isolated


def test_harmonic_basis_example(example_ops):
    h0 = harmonic_basis(example_ops, 0)
    assert len(h0) == 1
    assert rank_one_agreement(h0[0].values, np.ones(7)) >= 1 - 1e-8
    h1 = harmonic_basis(example_ops, 1)
    assert len(h1) == 1
    assert rank_one_agreement(h1[0].values, EXAMPLE_HARMONIC_1FORM) >= 1 - 1e-8


def test_harmonic_basis_is_harmonic(example_ops):
    d0 = example_ops.dblocks[0].astype(float)
    d1 = example_ops.dblocks[1].astype(float)
    (h,) = harmonic_basis(example_ops, 1)
    assert np.linalg.norm(d1 @ h.values) < 1e-9
    assert np.linalg.norm(d0.T @ h.values) < 1e-9


def test_harmonic_one_form_on_cycle_is_constant():
    ops = operators_for(SimpleGraph.cycle(4))
    (h,) = harmonic_basis(ops, 1)
    # stratum order (1,2),(1,4),(2,3),(3,4): ascending orientation traverses
    # (1,4) against the cycle, so the coherent constant class flips there
    coherent = h.values * np.array([1, -1, 1, 1])
    assert np.allclose(coherent, coherent[0])
    assert abs(coherent[0]) > 0


def test_hodge_decomposition_properties():
    rng = np.random.default_rng(5)
    ops = operators_for(SimpleGraph.cycle(4))
    for _ in range(5):
        f = Cochain(1, rng.normal(size=4))
        parts = hodge_decompose(ops, f)
        vecs = [parts.exact.values, parts.coexact.values, parts.harmonic.values]
        assert np.linalg.norm(sum(vecs) - f.values) < 1e-10
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vecs[i] @ vecs[j]) < 1e-10


def test_hodge_decomposition_special_inputs(example_ops):
    (h,) = harmonic_basis(example_ops, 1)
    parts = hodge_decompose(example_ops, h)
    assert np.linalg.norm(parts.exact.values) < 1e-10
    assert np.linalg.norm(parts.coexact.values) < 1e-10
    rng = np.random.default_rng(0)
    g = rng.normal(size=7)
    exact_input = Cochain(1, example_ops.dblocks[0] @ g)
    parts = hodge_decompose(example_ops, exact_input)
    assert np.linalg.norm(parts.coexact.values) < 1e-10
    assert np.linalg.norm(parts.harmonic.values) < 1e-10
    # closed input has no coexact part
    closed = Cochain(1, example_ops.dblocks[0] @ g + h.values)
    parts = hodge_decompose(example_ops, closed)
    assert np.linalg.norm(parts.coexact.values) < 1e-10


def test_super_trace_identity_and_powers(example_ops):
    ops = example_ops
    assert super_trace(np.eye(18), ops.parity) == 0  # chi of the example
    power = ops.laplacian.copy()
    for _ in range(4):
        assert super_trace(power, ops.parity) == 0
        power = power @ ops.laplacian
    with pytest.raises(ValueError):
        super_trace(np.eye(5), ops.parity)


def test_mckean_singer(example_ops):
    for t in (0.3, 0.7, 2.0):
        assert abs(super_trace(heat_kernel(example_ops, t), example_ops.parity)) < 1e-10


def test_heat_kernel_limits(example_ops):
    assert np.allclose(heat_kernel(example_ops, 0.0), np.eye(18))
    k = heat_kernel(example_ops, 50.0)
    h0 = harmonic_basis(example_ops, 0)[0].values
    h1 = harmonic_basis(example_ops, 1)[0].values
    proj = np.zeros((18, 18))
    proj[:7, :7] = np.outer(h0, h0)
    proj[7:16, 7:16] = np.outer(h1, h1)
    assert np.max(np.abs(k - proj)) < 1e-8
    with pytest.raises(ValueError):
        heat_kernel(example_ops, -1.0)


def test_heat_kernel_scalar_block_row_sums(example_ops):
    for t in (0.1, 1.0, 7.0):
        block = heat_kernel(example_ops, t)[:7, :7]
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-10)
        assert abs(block.sum() - 7) < 1e-9


def test_euler_poincare(example_ops):
    rep = euler_poincare_check(example_ops)
    assert rep == {"chiCombinatorial": 0, "chiCohomological": 0}
    k3 = operators_for(SimpleGraph.complete(3))
    assert euler_poincare_check(k3) == {"chiCombinatorial": 1, "chiCohomological": 1}


def test_icosahedron_is_a_homology_sphere():
    g = icosahedron()
    # structural certificate: 12 vertices, 30 edges, every sphere a 5-cycle
    assert (g.n, g.m) == (12, 30)
    for x in g.vertices:
        s = g.induced(g.adjacency[x])
        assert s.n == 5 and all(s.degree(v) == 2 for v in s.vertices) and s.is_connected()
    ops = operators_for(g)
    assert betti_numbers(ops) == (1, 0, 1)
    rep = euler_poincare_check(ops)
    assert rep["chiCombinatorial"] == rep["chiCohomological"] == 2
    assert betti_exact(g) == [1, 0, 1]  # oracle agrees, no floating point


def test_octahedron_betti():
    assert betti_numbers(operators_for(octahedron())) == (1, 0, 1)


def test_duality_pairing_of_nonzero_spectra():
    rng = random.Random(41)
    for _ in range(6):
        g = erdos_renyi(rng.randint(3, 8), 0.5, rng)
        ops = operators_for(g)
        even, odd = [], []
        for k in range(len(ops.complex.strata)):
            eigs = ops.block_eigensystems[k][0]
            (even if k % 2 == 0 else odd).extend(eigs[eigs > 1e-8])
        assert np.allclose(np.sort(even), np.sort(odd), atol=1e-8)


def test_dirac_spectrum_is_pm_sqrt_laplacian(example_ops):
    d_eigs = np.sort(np.abs(example_ops.dirac_eigensystem[0]))
    l_eigs = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh(
        example_ops.laplacian.astype(float)), 0, None)))
    assert np.allclose(d_eigs, l_eigs, atol=1e-8)


def test_poincare_polynomial_at_one_counts_kernel(example_ops):
    b = betti_numbers(example_ops)
    eigs = example_ops.dirac_eigensystem[0]
    kernel = int(np.sum(np.abs(eigs) < 1e-9))
    assert sum(b) == kernel
    assert example_ops.v - sum(b) == int(np.sum(np.abs(eigs) >= 1e-9))


def test_df_is_eigenvector(example_ops):
    ops = example_ops
    eigs, vecs = np.linalg.eigh(ops.laplacian.astype(float))
    idx = np.argmax(eigs)
    f = vecs[:, idx]
    lam = eigs[idx]
    df = ops.dirac.astype(float) @ f
    assert np.linalg.norm(ops.laplacian @ df - lam * df) < 1e-8
    assert abs(f @ df) < 1e-8  # f lives in one parity sector


def test_betti_and_cohomology_report(example_ops):
    assert betti(example_ops, 1) == 1
    assert (example_ops.block_eigensystems[1][0] >= -1e-9).all()
    report = cohomology_report(example_ops)
    assert report["v"] == [7, 9, 2]
    assert report["betti"] == [1, 1, 0]
    assert report["chi"] == 0
    assert len(report["spectrumByDegree"]["1"]) == 9


def test_zero_test_counts_the_cut_as_zero(example_ops):
    eigs = np.array([-3e-9, 0.0, 2e-9, 3e-9, 2.0])
    assert kernel_cut(eigs, 1e-9) == 2e-9
    assert nonzero(eigs, 1e-9).tolist() == [True, False, False, True, True]
    # tol = 1 puts the cut at the largest eigenvalue of each block, which
    # then counts as zero: every cochain is harmonic
    assert betti_numbers(example_ops, 1.0) == (7, 9, 2)
    assert len(harmonic_basis(example_ops, 2, 1.0)) == 2
