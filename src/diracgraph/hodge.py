"""Hodge theory: Betti numbers, harmonic forms, super traces, heat kernel.

Betti numbers are integer claims made from floating-point eigenvalues, so
the kernel cut is one constant: nonzero is the package's one zero test,
and an eigenvalue counts as zero when
|lambda| <= KERNEL_TOL * max(1, max |lambda|), with KERNEL_TOL = 1e-9.
That keeps a wide margin at desk scale, where the smallest nonzero
eigenvalue of an integer Laplacian stays far above it; no caller can move
the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import euler_characteristic
from .operators import Operators, place

KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class Cochain:
    """A scalar function on the k-simplices, in stratum order."""

    degree: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        )


@dataclass(frozen=True)
class HodgeDecomposition:
    exact: Cochain
    coexact: Cochain
    harmonic: Cochain


def kernel_cut(eigs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    return KERNEL_TOL * scale


def nonzero(eigs: np.ndarray) -> np.ndarray:
    """The mask of the eigenvalues that count as nonzero: |lambda| > kernel_cut(eigs).

    This is the package's one zero test; an eigenvalue at the cut is zero.
    """
    return np.abs(eigs) > kernel_cut(eigs)


def betti(ops: Operators, k: int) -> int:
    """dim ker(L_k); zero for degrees beyond the top dimension."""
    if not 0 <= k < len(ops.complex.strata):
        return 0
    return int(np.sum(~nonzero(ops.block_eigensystems[k][0])))


def betti_numbers(ops: Operators) -> tuple[int, ...]:
    return tuple(betti(ops, k) for k in range(len(ops.complex.strata)))


def harmonic_basis(ops: Operators, k: int) -> list[Cochain]:
    """Orthonormal basis of ker(L_k), each vector killed by both d and d*."""
    if not 0 <= k < len(ops.complex.strata):
        return []
    eigs, vecs = ops.block_eigensystems[k]
    return [Cochain(k, vecs[:, i].copy()) for i in np.flatnonzero(~nonzero(eigs))]


def hodge_decompose(ops: Operators, f: Cochain) -> HodgeDecomposition:
    """Split f into exact + coexact + harmonic, pairwise orthogonal.

    The harmonic part is the kernel projection; the exact part is the
    least-squares image of d_{k-1}; the coexact remainder lies in im(d_k^T)
    by the Hodge decomposition.
    """
    k = f.degree
    values = np.asarray(f.values, dtype=float)
    eigs, vecs = ops.block_eigensystems[k]
    kernel = vecs[:, ~nonzero(eigs)]
    harmonic = kernel @ (kernel.T @ values)
    rest = values - harmonic
    if k >= 1:
        dk = ops.dblocks[k - 1].astype(float)
        coeffs, *_ = np.linalg.lstsq(dk, rest, rcond=None)
        exact = dk @ coeffs
    else:
        exact = np.zeros_like(rest)
    coexact = rest - exact
    return HodgeDecomposition(
        exact=Cochain(k, exact), coexact=Cochain(k, coexact), harmonic=Cochain(k, harmonic)
    )


def super_trace(m: np.ndarray, parity: np.ndarray) -> float:
    """Parity-weighted trace tr(m P)."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1] or m.shape[0] != len(parity):
        raise ValueError(
            f"matrix of shape {m.shape} does not match parity vector of length {len(parity)}"
        )
    return float(np.sum(np.diag(m) * parity))


def heat_kernel(ops: Operators, t: float) -> np.ndarray:
    """exp(-t L) assembled block-by-block from eigendecompositions.

    For t -> infinity this converges to the orthogonal projection onto
    ker(L), because every positive eigenvalue decays exponentially.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("heat kernel requires a finite t >= 0")
    blocks = ((k, k, (vecs * np.exp(-t * eigs)) @ vecs.T)
              for k, (eigs, vecs) in enumerate(ops.block_eigensystems))
    return place(ops.offsets, ops.v, blocks, float)


def euler_poincare_check(ops: Operators) -> dict[str, int]:
    """v(-1) and p(-1); the Euler-Poincare formula makes them equal."""
    chi_comb = euler_characteristic(ops.complex)
    chi_coh = sum((-1) ** k * b for k, b in enumerate(betti_numbers(ops)))
    return {"chiCombinatorial": chi_comb, "chiCohomological": chi_coh}


def cohomology_report(ops: Operators) -> dict:
    """JSON-ready summary: counts, Betti numbers, chi, spectra by degree."""
    b = betti_numbers(ops)
    return {
        "v": list(ops.complex.counts),
        "betti": list(b),
        "chi": euler_characteristic(ops.complex),
        "spectrumByDegree": {
            str(k): [float(x) for x in ops.block_eigensystems[k][0]]
            for k in range(len(ops.complex.strata))
        },
    }
