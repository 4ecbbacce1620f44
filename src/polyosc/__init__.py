"""Polynomial oscillator Hamiltonians with a dialled point spectrum.

Build P(h) from an arbitrary finite list of target energies by exact linear
algebra, inspect the induced spectrum and its nodal ordering, and cross-check
both on a finite-difference grid.
"""

from .exactalg import (
    EnergyMatrix,
    PolynomialHamiltonian,
    SingularMatrixError,
    SpectrumTarget,
    build_energy_matrix,
    determinant,
    determinant_closed_form,
    dial,
    dial_partial,
    solve_linear_exact,
)
from .gridverify import (
    EigensolverError,
    GridEigenSolution,
    GridOperator,
    GridSpec,
    LevelCheck,
    VerificationReport,
    build_oscillator_grid,
    count_nodes,
    diagonalize,
    matrix_polynomial,
    verify_dialled,
)
from .oscillator import (
    analytic_node_count,
    eigenfunction_samples,
    oscillator_energy,
)
from .spectrum import (
    LevelRecord,
    OrderingReport,
    classical_cross_section,
    evaluate_polynomial,
    evaluate_spectrum,
    ordering_report,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyMatrix",
    "PolynomialHamiltonian",
    "SingularMatrixError",
    "SpectrumTarget",
    "build_energy_matrix",
    "determinant",
    "determinant_closed_form",
    "dial",
    "dial_partial",
    "solve_linear_exact",
    "EigensolverError",
    "GridEigenSolution",
    "GridOperator",
    "GridSpec",
    "LevelCheck",
    "VerificationReport",
    "build_oscillator_grid",
    "count_nodes",
    "diagonalize",
    "matrix_polynomial",
    "verify_dialled",
    "analytic_node_count",
    "eigenfunction_samples",
    "oscillator_energy",
    "LevelRecord",
    "OrderingReport",
    "classical_cross_section",
    "evaluate_polynomial",
    "evaluate_spectrum",
    "ordering_report",
    "__version__",
]
