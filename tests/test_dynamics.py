"""Heat, wave, Schroedinger flows and the Lax isospectral deformation."""

import numpy as np
import pytest

from diracgraph import (
    Cochain,
    SimpleGraph,
    UnsolvableError,
    WaveState,
    harmonic_basis,
    heat_evolve,
    lax_deform,
    operators_for,
    poisson_solve,
    schrodinger_evolve,
    trajectory_csv,
    wave_evolve,
)


def _random_cochain(ops, k, seed=0, complex_valued=False):
    rng = np.random.default_rng(seed)
    n = ops.complex.count(k)
    values = rng.normal(size=n)
    if complex_valued:
        values = values + 1j * rng.normal(size=n)
    return Cochain(k, values)


def test_poisson_zero_rhs(example_ops):
    a = poisson_solve(example_ops, 1, np.zeros(9))
    assert np.linalg.norm(a.values) == 0


def test_poisson_k5_maxwell():
    ops = operators_for(SimpleGraph.complete(5))
    rng = np.random.default_rng(4)
    j = rng.normal(size=ops.complex.count(1))
    eigs, vecs = ops.block_eigensystems[1]
    kernel = vecs[:, eigs < 1e-9]
    j -= kernel @ (kernel.T @ j)  # project off the kernel
    a = poisson_solve(ops, 1, j)
    residual = np.linalg.norm(ops.lap_blocks[1] @ a.values - j)
    assert residual <= 1e-8 * np.linalg.norm(j)
    field = ops.dblocks[1].astype(float) @ a.values
    assert field.shape == (10,)  # a function on the 10 triangles of K5
    # minimum norm: the solution itself is orthogonal to the kernel
    assert np.linalg.norm(kernel.T @ a.values) < 1e-10


def test_poisson_rejects_kernel_component():
    ops = operators_for(SimpleGraph.cycle(4))
    (h,) = harmonic_basis(ops, 1)
    with pytest.raises(UnsolvableError) as err:
        poisson_solve(ops, 1, h.values)
    assert err.value.kernel_norm == pytest.approx(1.0, abs=1e-9)


def test_poisson_residual_is_kernel_projection(example_ops):
    rng = np.random.default_rng(9)
    j = rng.normal(size=9)
    eigs, vecs = example_ops.block_eigensystems[1]
    kernel = vecs[:, eigs < 1e-9]
    kernel_part = kernel @ (kernel.T @ j)
    coerced = j - kernel_part
    a = poisson_solve(example_ops, 1, coerced)
    assert np.linalg.norm(example_ops.lap_blocks[1] @ a.values - coerced) < 1e-9
    # against the original j, the unsolved residual is exactly its kernel part
    residual = example_ops.lap_blocks[1] @ a.values - j
    assert np.allclose(residual, -kernel_part, atol=1e-9)


def test_heat_evolution(example_ops):
    (h,) = harmonic_basis(example_ops, 1)
    out = heat_evolve(example_ops, h, 3.0)
    assert np.allclose(out.values, h.values, atol=1e-12)
    eigs, vecs = example_ops.block_eigensystems[1]
    u0 = Cochain(1, vecs[:, -1])
    out = heat_evolve(example_ops, u0, 0.5)
    assert np.allclose(out.values, np.exp(-0.5 * eigs[-1]) * u0.values, atol=1e-12)
    # long-time limit is the harmonic projection
    f = _random_cochain(example_ops, 1, seed=2)
    limit = heat_evolve(example_ops, f, 50.0)
    proj = h.values * (h.values @ f.values)
    assert np.max(np.abs(limit.values - proj)) < 1e-8


def test_heat_commutes_with_spectral_split(example_ops):
    f = _random_cochain(example_ops, 1, seed=3)
    eigs, vecs = example_ops.block_eigensystems[1]
    total = np.zeros(9)
    for i in range(9):
        component = Cochain(1, vecs[:, i] * (vecs[:, i] @ f.values))
        total += heat_evolve(example_ops, component, 1.3).values
    assert np.allclose(total, heat_evolve(example_ops, f, 1.3).values, atol=1e-10)


def test_wave_and_schrodinger_commute_with_spectral_split(example_ops):
    ops = example_ops
    f = _random_cochain(ops, 1, seed=21)
    v = _random_cochain(ops, 1, seed=22)
    eigs, vecs = ops.block_eigensystems[1]
    u_sum = np.zeros(9)
    for i in range(9):
        mode_u = Cochain(1, vecs[:, i] * (vecs[:, i] @ f.values))
        mode_v = Cochain(1, vecs[:, i] * (vecs[:, i] @ v.values))
        u_sum += wave_evolve(ops, WaveState(mode_u, mode_v), 2.3).u.values
    whole = wave_evolve(ops, WaveState(f, v), 2.3)
    assert np.max(np.abs(u_sum - whole.u.values)) < 1e-10
    rng = np.random.default_rng(23)
    psi = rng.normal(size=ops.v) + 1j * rng.normal(size=ops.v)
    d_eigs, d_vecs = ops.dirac_eigensystem
    psi_sum = np.zeros(ops.v, dtype=complex)
    for i in range(ops.v):
        component = d_vecs[:, i] * (d_vecs[:, i] @ psi)
        psi_sum += schrodinger_evolve(ops, component, 1.7)
    assert np.max(np.abs(psi_sum - schrodinger_evolve(ops, psi, 1.7))) < 1e-10


def test_wave_eigenmode(example_ops):
    eigs, vecs = example_ops.block_eigensystems[1]
    lam = eigs[-1]
    w = WaveState(Cochain(1, vecs[:, -1]), Cochain(1, np.zeros(9)))
    out = wave_evolve(example_ops, w, 2.0)
    assert np.allclose(out.u.values, np.cos(np.sqrt(lam) * 2.0) * vecs[:, -1], atol=1e-10)


def test_wave_energy_conservation(example_ops):
    w = WaveState(_random_cochain(example_ops, 1, 5), _random_cochain(example_ops, 1, 6))
    l1 = example_ops.lap_blocks[1].astype(float)

    def energy(state):
        return state.v.values @ state.v.values + state.u.values @ (l1 @ state.u.values)

    e0 = energy(w)
    drift = max(abs(energy(wave_evolve(example_ops, w, t)) - e0)
                for t in np.linspace(0.0, 10.0, 41))
    assert drift <= 1e-9


def test_wave_kernel_velocity_drifts_linearly(example_ops):
    (h,) = harmonic_basis(example_ops, 1)
    w = WaveState(Cochain(1, np.zeros(9)), h)
    out = wave_evolve(example_ops, w, 4.0)
    assert np.allclose(out.u.values, 4.0 * h.values, atol=1e-10)
    assert np.allclose(out.v.values, h.values, atol=1e-10)


def test_wave_matches_schrodinger(example_ops):
    ops = example_ops
    k = 1
    u0 = _random_cochain(ops, k, 7)
    v0 = _random_cochain(ops, k, 8)
    # psi = u0 - i D+ v0 evolved by e^{iDt} reproduces the wave solution
    eigs, vecs = ops.dirac_eigensystem
    inv = np.divide(1.0, eigs, out=np.zeros_like(eigs), where=np.abs(eigs) > 1e-9)
    s = ops.block_slice(k)
    u_full = np.zeros(ops.v)
    v_full = np.zeros(ops.v)
    u_full[s] = u0.values
    v_full[s] = v0.values
    dplus_v = vecs @ (inv * (vecs.T @ v_full))
    kernel_proj = vecs @ (np.where(np.abs(eigs) <= 1e-9, 1.0, 0.0) * (vecs.T @ v_full))
    for t in (0.9, 3.7):
        psi_t = schrodinger_evolve(ops, u_full - 1j * dplus_v, t)
        wave = wave_evolve(ops, WaveState(u0, v0), t)
        assert np.max(np.abs(psi_t.real[s] + t * kernel_proj[s] - wave.u.values)) < 1e-9


def test_schrodinger_unitary(example_ops):
    rng = np.random.default_rng(11)
    psi = rng.normal(size=18) + 1j * rng.normal(size=18)
    assert np.allclose(schrodinger_evolve(example_ops, psi, 0.0), psi)
    out = schrodinger_evolve(example_ops, psi, 3.7)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-10
    eigs, vecs = example_ops.dirac_eigensystem
    mode = vecs[:, -1].astype(complex)
    out = schrodinger_evolve(example_ops, mode, 1.2)
    assert np.allclose(out, np.exp(1j * eigs[-1] * 1.2) * mode, atol=1e-10)


def test_lax_deformation_fixture(example_ops):
    states = lax_deform(example_ops, 10.0, 0.01)
    assert len(states) == 1001
    assert max(s.spectrum_error for s in states) <= 1e-6
    assert max(s.nilpotency_error for s in states) <= 1e-8
    assert max(s.laplacian_error for s in states) <= 1e-6
    tr = [s.tr_m for s in states]
    assert all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1))
    assert tr[-1] <= 0.05 * tr[0]
    # d decays, the block diagonal b absorbs the operator: b^2 = L(0)
    final = states[-1]
    assert np.max(np.abs(final.d)) < 1e-6
    assert np.max(np.abs(final.b @ final.b - example_ops.laplacian)) < 1e-6


def test_lax_invariants_along_trajectory(example_ops):
    states = lax_deform(example_ops, 2.0, 0.01)
    l0 = example_ops.laplacian.astype(float)
    for s in states[:: len(states) // 10]:
        anti = s.d @ s.b + s.b @ s.d
        assert np.max(np.abs(anti)) < 1e-7
        dd = s.d @ s.d.T + s.d.T @ s.d + s.b @ s.b
        assert np.max(np.abs(dd - l0)) < 1e-7


def test_lax_transports_cocycles(example_ops):
    # co-evolve f' = b f with the flow; d(t) f(t) stays zero
    ops = example_ops
    h = 0.01
    d = ops.d.astype(float)
    b = np.zeros_like(d)
    f = np.zeros(ops.v)
    f[ops.block_slice(1)] = harmonic_basis(ops, 1)[0].values  # df = 0

    def rhs(d, b, f):
        return d @ b - b @ d, 2.0 * (d @ d.T - d.T @ d), b @ f

    for _ in range(200):
        k1 = rhs(d, b, f)
        k2 = rhs(d + h / 2 * k1[0], b + h / 2 * k1[1], f + h / 2 * k1[2])
        k3 = rhs(d + h / 2 * k2[0], b + h / 2 * k2[1], f + h / 2 * k2[2])
        k4 = rhs(d + h * k3[0], b + h * k3[1], f + h * k3[2])
        d = d + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        f = f + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    assert np.max(np.abs(d @ f)) < 1e-7


def test_lax_complexified_variant(example_ops):
    states = lax_deform(example_ops, 2.0, 0.01, variant="complexified")
    assert max(s.spectrum_error for s in states) <= 1e-6
    assert max(s.nilpotency_error for s in states) <= 1e-8
    tr = [s.tr_m for s in states]
    assert tr[-1] < tr[0]


def test_lax_input_validation(example_ops):
    with pytest.raises(ValueError):
        lax_deform(example_ops, -1.0, 0.01)
    with pytest.raises(ValueError):
        lax_deform(example_ops, 1.0, 0.0)
    with pytest.raises(ValueError):
        lax_deform(example_ops, 1.0, 0.01, variant="imaginary")


def test_trajectory_csv(example_ops):
    states = lax_deform(example_ops, 0.05, 0.01)
    csv = trajectory_csv(states)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,trM,spectrumError,nilpotencyError"
    assert len(lines) == 7
    assert lines[1].startswith("0.000000,48")
