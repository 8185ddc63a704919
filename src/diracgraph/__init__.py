"""Dirac operators on the clique complexes of finite simple graphs.

The package builds the signed incidence structure D = d + d^T of a
graph's clique complex and everything the operator carries: Hodge theory
and Betti numbers, curvature and index theorems, spectral invariants
(pseudo-determinant, zeta function, analytic torsion), discrete PDE
evolution, graph automorphism and Lefschetz analysis, and the Lax-pair
isospectral deformation.
"""

from .complexes import (
    CliqueComplex,
    OrientationAssignment,
    SimpleGraph,
    build_complex,
    euler_characteristic,
    example_graph,
    load_edge_list,
    parse_edge_list,
    simplex_distance,
    simplex_graph,
)
from .dynamics import (
    DeformationState,
    WaveState,
    heat_evolve,
    lax_deform,
    poisson_solve,
    schrodinger_evolve,
    trajectory_csv,
    wave_evolve,
)
from .errors import (
    CapacityError,
    ComputationError,
    ConsistencyError,
    DiracGraphError,
    EdgeListError,
    GraphMismatchError,
    UnsolvableError,
)
from .geometry import (
    ContractionResult,
    MonteCarloEstimate,
    MorseData,
    contract,
    curvature,
    curvature_vector,
    dimension,
    index_expectation,
    is_geometric,
    poincare_hopf,
    unit_sphere,
)
from .hodge import (
    KERNEL_TOL,
    Cochain,
    HodgeDecomposition,
    betti,
    betti_numbers,
    cohomology_report,
    euler_poincare_check,
    harmonic_basis,
    heat_kernel,
    hodge_decompose,
    kernel_cut,
    super_trace,
)
from .morphisms import (
    LefschetzReport,
    automorphisms,
    compose,
    induced_cohomology_map,
    is_automorphism,
    lefschetz,
    lefschetz_zeta,
)
from .operators import (
    Operators,
    build_operators,
    exterior_derivative,
    operators_for,
    parity_vector,
    path_count,
    simplex_degree,
)
from .spectra import (
    SpectralDistanceReport,
    ZetaEvaluation,
    aligned_dirac_pair,
    analytic_torsion,
    cauchy_binet_coeffs,
    charpoly_int,
    dirac_charpoly,
    dirac_zeta,
    eta,
    invariant_report,
    kirchhoff_trees,
    magnitude,
    max_simplex_degree,
    pseudo_det,
    simplex_graph_trees,
    spectral_distance,
    zeta_derivative_at_zero,
)

__version__ = "0.1.0"
