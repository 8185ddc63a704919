"""Heat, wave, Schroedinger flows and the Lax isospectral deformation."""

import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from diracgraph import (
    Cochain,
    ConsistencyError,
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
from diracgraph import dynamics

from conftest import dense_lax_deform, erdos_renyi, exact_lax_blocks, exact_product, octahedron


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
    s = slice(ops.offsets[k], ops.offsets[k] + ops.complex.count(k))
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


@pytest.mark.parametrize("graph, variant", [
    ("example", "real"),
    ("octahedron", "complexified"),
])
def test_lax_closed_form_matches_dense_oracle(example, graph, variant):
    ops = operators_for(example if graph == "example" else octahedron())
    # RK4's error at h = 0.0025 is about 3e-10 here and falls as h^4
    states = lax_deform(ops, 2.0, 0.0025, variant=variant)
    # the run reads the blocks d_k alone: no dense D, L, L_k or Dirac spectrum
    assert not {"dirac_eigensystem", "dirac", "laplacian", "lap_blocks"} & set(vars(ops))
    oracle = dense_lax_deform(ops, 2.0, 0.0025, variant=variant)
    assert [s.t for s in states] == [o.t for o in oracle]
    for s, o in zip(states, oracle):
        for name in ("d", "b"):
            got, want = getattr(s, name), getattr(o, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.max(np.abs(got - want)) <= 1e-9
    # storage: one shared factor object per run, and no matrix in a state,
    # so a state's size depends neither on v nor on the length of the run
    assert len({id(s.factors) for s in states}) == 1
    for s in states:
        assert all(not isinstance(x, np.ndarray) for x in vars(s).values())


@pytest.mark.parametrize("corrupt", ["singular value", "singular vector"])
def test_consistency_error_on_corrupt_factors(example_ops, monkeypatch, corrupt):
    exact = dynamics._lax_factors

    def corrupted(ops, complexified):
        factors = exact(ops, complexified)
        (u0, s0, w0), (u1, s1, w1) = factors.triples
        if corrupt == "singular value":
            s1 = s1 + 1e-3  # moves the spectrum of D
        else:
            w1 = w1.copy()  # tilts a row of d_1 towards the range of d_0
            w1[:, 0] = (w1[:, 0] + 1e-3 * u0[:, 0]) / np.hypot(1.0, 1e-3)
        return replace(factors, triples=((u0, s0, w0), (u1, s1, w1)))

    monkeypatch.setattr(dynamics, "_lax_factors", corrupted)
    with pytest.raises(ConsistencyError, match="breaches its bounds"):
        lax_deform(example_ops, 1.0, 0.1)


def _samples_per_chunk(ops):
    """How many samples lax_deform evaluates together on ops."""
    frame = dynamics._eigenframe(dynamics._lax_factors(ops, False), ops)
    return dynamics._CHUNK // frame.singular.size


@pytest.mark.parametrize("variant", ["real", "complexified"])
def test_chunked_samples_equal_single_samples(example_ops, variant):
    # lax_deform evaluates its times in chunks; every state must carry, bit
    # for bit, the diagnostics of its own t evaluated alone.  At h = 0.007,
    # a matrix product over each chunk in place of one matrix-vector product
    # per sample, and ** 0.5 in place of np.sqrt (a 0-d value takes pow,
    # an array sqrt), each moved a nilpotency bound by one ulp (OpenBLAS,
    # numpy 2.4)
    h = 0.007
    factors = dynamics._lax_factors(example_ops, variant == "complexified")
    frame = dynamics._eigenframe(factors, example_ops)
    states = lax_deform(example_ops, 50.0, h, variant=variant)
    assert len(states) > 2 * _samples_per_chunk(example_ops)  # three chunks at least
    for i, s in enumerate(states):
        assert s.t == i * h
        want = frame.diagnostics(factors.coefficients(s.t))
        assert (s.tr_m, s.spectrum_error, s.nilpotency_error, s.laplacian_error) == want


def test_consistency_error_names_the_first_breach_in_a_later_chunk(example_ops, monkeypatch):
    # a fault in beta from a time in the third chunk on; a fault in the
    # factors themselves would breach at t = 0 already
    h = 0.01
    onset = (2 * _samples_per_chunk(example_ops) + 17) * h
    exact = dynamics.LaxFactors.coefficients

    def late_fault(self, t):
        scale = np.where(np.asarray(t) >= onset, 1.0 + 1e-3, 1.0)[..., None]
        return [(a, scale * beta) for a, beta in exact(self, t)]

    monkeypatch.setattr(dynamics.LaxFactors, "coefficients", late_fault)
    with pytest.raises(ConsistencyError, match=re.escape(f"Lax state at t = {onset:g} breaches")):
        lax_deform(example_ops, 50.0, h)


def test_transient_memory_does_not_grow_with_run_length():
    # the peak above what the returned states hold stays put when the run
    # is ten times longer, because the samples are evaluated in chunks
    ops = operators_for(erdos_renyi(30, 0.25, random.Random(1)))
    lax_deform(ops, 1.0, 0.01)  # the first LAPACK calls allocate too

    def transient(t_final):
        tracemalloc.start()
        try:
            states = lax_deform(ops, t_final, 0.01)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == round(t_final / 0.01) + 1
        return peak - current

    short, long = transient(5.0), transient(50.0)
    assert long <= 1.5 * short, (short, long)


def _dense_drift(ops, state):
    """max |eig D(t) - eig D| from a dense eigendecomposition of the state."""
    return float(np.max(np.abs(np.linalg.eigvalsh(state.dirac) - ops.dirac_eigensystem[0])))


@pytest.mark.parametrize("variant", ["real", "complexified"])
def test_spectrum_bound_covers_a_perturbed_b(example_ops, monkeypatch, variant):
    # scale beta(t) by 1 + 1e-6 in every coefficient, so the states' own
    # dirac and the certificate both carry the fault; the certified bound
    # must still cover its drift
    exact = dynamics.LaxFactors.coefficients

    def perturbed(self, t):
        return [(a, (1.0 + 1e-6) * beta) for a, beta in exact(self, t)]

    monkeypatch.setattr(dynamics.LaxFactors, "coefficients", perturbed)
    states = lax_deform(example_ops, 2.0, 0.1, variant=variant, spectrum_bound=1.0)
    drifts = [_dense_drift(example_ops, s) for s in states]
    assert max(drifts) > 1e-7  # the fault is visible in the spectrum
    for s, drift in zip(states, drifts):
        assert drift <= s.spectrum_error
        dirac = s.dirac
        assert np.max(np.abs(dirac @ dirac - example_ops.laplacian)) <= s.laplacian_error


def _square_distance(got, want) -> Fraction:
    """||got - want||_F^2, exactly, for a float array and a Fraction array."""
    return sum(((Fraction(float(x)) - y) ** 2 for x, y in zip(got.ravel(), want.ravel())), Fraction(0))


def _max_square(re, im) -> Fraction:
    """max |z|^2 over the entries z = re + i im."""
    return max((x * x + y * y for x, y in zip(re.ravel(), im.ravel())), default=Fraction(0))


@pytest.mark.parametrize("graph, variant", [
    ("example", "real"),
    ("octahedron", "complexified"),
])
def test_bounds_against_exact_arithmetic(example, graph, variant):
    # the a-priori bounds e_k >= ||Delta d_k||_F and ||Delta D||_F against
    # the blocks that the same float factors define over Q, and the
    # nilpotency and Laplacian bounds against the exact residuals of the
    # rounded blocks, with no slack for a float product
    ops = operators_for(example if graph == "example" else octahedron())
    factors = dynamics._lax_factors(ops, variant == "complexified")
    frame = dynamics._eigenframe(factors, ops)
    for t in (0.0, 0.3, 2.0):
        coefficients = factors.coefficients(t)
        d, b = factors._assemble(coefficients)
        exact_d, exact_b = exact_lax_blocks(factors, coefficients)
        e, total = frame.rounding(coefficients)
        square = sum((_square_distance(got, want) for got, want in zip(b, exact_b)), Fraction(0))
        for got, (re, im), bound in zip(d, exact_d, e):
            err = _square_distance(np.real(got), re) + _square_distance(np.imag(got), im)
            assert err <= Fraction(bound) ** 2
            square += 2 * err  # d_k and its adjoint
        assert 0 < square <= Fraction(total) ** 2
        _, _, nilpotency, laplacian = frame.diagnostics(coefficients)
        for lower, upper in zip(d, d[1:]):
            assert _max_square(*exact_product(upper, lower)) <= Fraction(nilpotency) ** 2
        dirac = factors.dense(d, b, adjoint=True)
        re, im = exact_product(dirac, dirac)
        assert _max_square(re - ops.laplacian, im) <= Fraction(laplacian) ** 2


@pytest.mark.parametrize("fault", ["singular vector", "singular value", "u column"])
@pytest.mark.parametrize("variant", ["real", "complexified"])
def test_bounds_cover_faulty_factors(example_ops, monkeypatch, fault, variant):
    # a 1e-6 fault in the factors: a row of d_1 tilted towards the range of
    # d_0 reaches d(t)^2, a moved singular value reaches D(t)^2 - L and the
    # spectrum, and a u column of d_0 tilted off its true direction moves
    # D(0) away from D; each bound must cover what the rebuilt matrices show
    exact = dynamics._lax_factors

    def faulty(ops, complexified):
        factors = exact(ops, complexified)
        (u0, s0, w0), (u1, s1, w1) = factors.triples
        if fault == "singular value":
            s1 = s1 + 1e-6
        elif fault == "singular vector":
            w1 = w1.copy()
            w1[:, 0] = (w1[:, 0] + 1e-6 * u0[:, 0]) / np.hypot(1.0, 1e-6)
        else:
            tilt = np.random.default_rng(5).normal(size=len(u0))
            u0 = u0.copy()
            u0[:, 0] = (u0[:, 0] + 1e-6 * tilt / np.linalg.norm(tilt)) / np.hypot(1.0, 1e-6)
        return replace(factors, triples=((u0, s0, w0), (u1, s1, w1)))

    monkeypatch.setattr(dynamics, "_lax_factors", faulty)
    states = lax_deform(example_ops, 1.0, 0.25, variant=variant,
                        nilpotency_bound=1.0, spectrum_bound=1.0)
    residuals = []
    for s in states:
        d, dirac = s.d, s.dirac
        residuals.append((float(np.max(np.abs(d @ d))),
                          float(np.max(np.abs(dirac @ dirac - example_ops.laplacian))),
                          _dense_drift(example_ops, s)))
    seen = np.max(residuals, axis=0)
    assert seen[0 if fault == "singular vector" else 1] > 1e-7  # the fault is visible
    for s, (nilpotency, laplacian, drift) in zip(states, residuals):
        assert nilpotency <= s.nilpotency_error
        assert laplacian <= s.laplacian_error
        assert drift <= s.spectrum_error


def test_frame_with_delta_above_half_certifies_nothing(example_ops):
    factors = dynamics._lax_factors(example_ops, False)
    (u0, s0, w0), (u1, s1, w1) = factors.triples
    w1 = w1.copy()
    w1[:, 1] = w1[:, 0]  # two equal columns: ||G - I|| >= 1
    frame = dynamics._eigenframe(replace(factors, triples=((u0, s0, w0), (u1, s1, w1))), example_ops)
    assert frame.delta > 0.5 and frame.residual == np.inf
    _, spectrum, _, laplacian = frame.diagnostics(factors.coefficients(0.3))
    assert spectrum == laplacian == np.inf


@pytest.mark.parametrize("graph", [
    SimpleGraph([0], []),
    SimpleGraph(range(4), []),  # edgeless: no triples, the frame is all kernel
    SimpleGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),  # triangle-free
])
@pytest.mark.parametrize("variant", ["real", "complexified"])
def test_lax_deform_on_degenerate_frames(graph, variant):
    ops = operators_for(graph)
    states = lax_deform(ops, 1.0, 0.25, variant=variant)
    assert len(states) == 5
    for s in states:
        assert _dense_drift(ops, s) <= s.spectrum_error <= 1e-13
        assert s.nilpotency_error == 0.0


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
    d = np.tril(ops.dirac).astype(float)  # d sits below the diagonal of D = d + d^T
    b = np.zeros_like(d)
    f = np.zeros(ops.v)
    f[ops.offsets[1] : ops.offsets[2]] = harmonic_basis(ops, 1)[0].values  # df = 0

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


def test_trajectory_csv_rounds_the_bounds_up(example_ops):
    states = lax_deform(example_ops, 1.0, 0.05, variant="complexified")
    rows = [line.split(",") for line in trajectory_csv(states).strip().split("\n")[1:]]
    assert len(rows) == len(states)
    for row, s in zip(rows, states):
        for text, value in ((row[2], s.spectrum_error), (row[3], s.nilpotency_error)):
            assert float(text) >= value
            assert len(text.split("e")[0].replace(".", "").lstrip("0")) <= 3
