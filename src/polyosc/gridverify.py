"""Independent grid cross-check of dialled spectra and node ordering.

The oscillator is discretized by central finite differences on a uniform grid with
hard walls, the polynomial is applied to the resulting matrix by dense Horner
steps, and the lowest eigenpairs are compared against the exact analytic spectrum.
Because the route runs through an eigensolver rather than the defining linear
system, agreement is evidence and not tautology.

The Laplacian stencil is the 5-point fourth-order one.  The classic 3-point stencil
has eigenvalue error (dx^2/24)<p^4> per level, which the polynomial amplifies by
P'(h_n); at the default spacing that amplified error (about 7e-3 near a dialled
zero of P for the quadratic used throughout the tests) overwhelms a 1e-3 check.
The 5-point stencil pushes the discretization error three orders of magnitude
below the verification tolerance at identical cost.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.typing as npt
import scipy.linalg

from . import EigensolverError
from .exactalg import PolynomialHamiltonian
from .oscillator import oscillator_energy
from .spectrum import evaluate_polynomial, evaluate_spectrum, ordering_report

SIGN_THRESHOLD_RATIO = 1e-9
RESIDUAL_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
DEGENERACY_FACTOR = 10.0
# Dense verification holds about six k x k float64 copies at once; grids whose
# copies would not fit in the byte budget are refused before anything is allocated.
GRID_BYTE_BUDGET = 2 * 2**30
MAX_GRID_POINTS = math.isqrt(GRID_BYTE_BUDGET // (6 * 8))


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid spanning [-half_width, half_width] with `points` samples."""

    half_width: float = 10.0
    points: int = 1001

    def __post_init__(self) -> None:
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half width must be positive and finite, got {self.half_width}")
        if self.points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def positions(self) -> npt.NDArray[np.float64]:
        return np.linspace(-self.half_width, self.half_width, self.points)


@dataclass(frozen=True)
class GridOperator:
    """Real symmetric dense matrix acting on grid samples."""

    spec: GridSpec
    entries: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.entries.shape != (self.spec.points, self.spec.points):
            raise ValueError(
                f"operator shape {self.entries.shape} does not match "
                f"{self.spec.points} grid points"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("grid operator has non-finite entries (float64 overflow)")
        if not np.array_equal(self.entries, self.entries.T):
            raise ValueError("grid operator must be exactly symmetric")


@dataclass(frozen=True)
class GridEigenSolution:
    """Lowest eigenpairs of a grid operator, eigenvalues ascending."""

    spec: GridSpec
    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.float64]


@dataclass(frozen=True)
class LevelCheck:
    """Comparison of one grid eigenpair against its analytic counterpart.

    Attributes:
        position: Rank k of the eigenpair (ascending by eigenvalue).
        grid_eigenvalue: The computed grid eigenvalue.
        node_count: Sign changes of the eigenvector above the noise threshold.
        matched_level: Analytic level n paired with this eigenpair (by node count,
            or by sorted position when the spectrum is degenerate).
        analytic_energy: Exact P(n + 1/2) for the matched level.
        abs_error: |grid - analytic|.
        rel_error: abs_error / |analytic|, or None where the analytic energy is 0.0 in float64.
        within_tolerance: Relative check, absolute where rel_error is None.
    """

    position: int
    grid_eigenvalue: float
    node_count: int
    matched_level: int
    analytic_energy: Fraction
    abs_error: float
    rel_error: float | None
    within_tolerance: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the grid cross-check of a dialled polynomial."""

    spec: GridSpec
    tolerance: float
    checks: tuple[LevelCheck, ...]
    expected_sequence: tuple[int, ...]
    node_sequence: tuple[int, ...]
    sequence_matches: bool
    degenerate: bool
    warning: str | None
    passed: bool


def build_oscillator_grid(spec: GridSpec) -> GridOperator:
    """Discretized oscillator -(1/2) D2 + diag(x_i^2 / 2) with Dirichlet walls.

    D2 is the symmetric 5-point fourth-order central-difference Laplacian
    (-1, 16, -30, 16, -1)/(12 dx^2); rows near the walls drop the samples that fall
    outside, which implicitly clamps the wavefunction to zero there.  Grids above
    MAX_GRID_POINTS, and spacings whose 1/(24 dx^2) is not finite, raise ValueError.
    """
    if spec.points > MAX_GRID_POINTS:
        raise ValueError(f"{spec.points} grid points exceed the dense limit of {MAX_GRID_POINTS}")
    x = spec.positions()
    dx = spec.spacing
    scale = 24.0 * dx * dx
    # A spacing so large that scale is inf gives c = 0 and is caught as a non-finite
    # operator; one so small that scale underflows would divide by zero.
    if not (scale > 0.0 and math.isfinite(1.0 / scale)):
        raise ValueError(f"grid spacing {dx!r} is too small for float64 differences")
    c = 1.0 / scale
    entries = np.diag(30.0 * c + 0.5 * x * x)
    for offset, value in ((1, -16.0 * c), (2, c)):
        rows = np.arange(spec.points - offset)
        entries[rows, rows + offset] = entries[rows + offset, rows] = value
    return GridOperator(spec, entries)


def matrix_polynomial(operator: GridOperator, ham: PolynomialHamiltonian) -> GridOperator:
    """Dense P(A) by Horner steps, symmetrized against roundoff drift.

    The zero-constant-term convention means the Horner chain starts from a_d A and
    ends with one final multiplication by A, so the zero polynomial maps to the zero
    matrix.  Each lower coefficient is added to the diagonal in place: no identity
    matrix is built or multiplied.
    """
    a = operator.entries
    dense = [float(c) for c in ham.dense_coefficients()]
    if not dense:
        return GridOperator(operator.spec, np.zeros_like(a))
    result = dense[-1] * a
    for coeff in reversed(dense[:-1]):
        result[np.diag_indices_from(result)] += coeff
        result = result @ a
    return GridOperator(operator.spec, 0.5 * (result + result.T))


def diagonalize(operator: GridOperator, count: int) -> GridEigenSolution:
    """Lowest `count` eigenpairs of a grid operator.

    Eigenvalues come back ascending with unit-norm eigenvectors in the columns;
    each retained pair is validated against the residual bound
    ||A v - lambda v|| <= 1e-8 ||A||.

    Raises:
        EigensolverError: On LAPACK non-convergence or a failed validity check.
    """
    k = operator.spec.points
    if not 1 <= count <= k:
        raise ValueError(f"can retain between 1 and {k} eigenpairs, got {count}")
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(
            operator.entries, subset_by_index=[0, count - 1]
        )
    except scipy.linalg.LinAlgError as err:
        raise EigensolverError(
            f"eigensolver failed to converge on the {k}x{k} grid operator "
            f"(LAPACK cap of ~30 iteration sweeps per eigenvalue): {err}"
        ) from err

    if np.any(np.diff(eigenvalues) < 0):
        raise EigensolverError(f"eigensolver returned non-ascending eigenvalues for size {k}")
    norms = np.linalg.norm(eigenvectors, axis=0)
    if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE:
        raise EigensolverError(f"eigenvector norms off unity beyond {NORM_TOLERANCE} for size {k}")
    # Residuals and the bound 1e-8 max(||A||inf, 1) are compared in units of the
    # largest entry (at least 1), which is finite wherever the entries are: ||A||inf
    # itself overflows for entries near 1e307, and the squares summed inside a
    # residual norm overflow for residuals near 1e155.
    magnitudes = np.abs(operator.entries)
    unit = max(float(magnitudes.max()), 1.0)
    magnitudes /= unit
    bound = RESIDUAL_TOLERANCE * max(float(magnitudes.sum(axis=1).max()), 1.0 / unit)
    residuals = operator.entries @ eigenvectors - eigenvectors * eigenvalues
    worst = float(np.max(np.linalg.norm(residuals / unit, axis=0)))
    if worst > bound:
        raise EigensolverError(
            f"eigenpair residual {worst * unit:.3e} exceeds {RESIDUAL_TOLERANCE:.0e} * ||A|| "
            f"for size {k}"
        )
    return GridEigenSolution(operator.spec, eigenvalues, eigenvectors)


def count_nodes(vector: npt.NDArray[np.float64]) -> int:
    """Sign changes of a sampled function, ignoring near-zero samples.

    A sample participates only if its magnitude exceeds SIGN_THRESHOLD_RATIO times the
    largest magnitude; counting sign changes among the survivors means a zero
    crossing is counted once even when a sample lands on it.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("node counting needs a non-empty 1-D sample vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("node counting needs finite samples")
    peak = np.max(np.abs(v))
    if peak == 0.0:
        raise ValueError("node counting needs a nonzero vector")
    live = v[np.abs(v) > SIGN_THRESHOLD_RATIO * peak]
    signs = np.sign(live)  # sign comparison, not products: products underflow
    return int(np.sum(signs[:-1] != signs[1:]))


def _error_budget_warning(
    ham: PolynomialHamiltonian, spec: GridSpec, levels_to_check: int, tolerance: float
) -> str | None:
    """Crude a-priori bound on grid error versus the verification tolerance.

    Discretization: the stencil shifts the oscillator level h by about
    dx^4 <p^6>/180 with <p^6> of order (2h)^3, and the polynomial amplifies that by
    |P'| <= degree * max|a_j| * h^(degree-1).  Roundoff: forming P(A) in floats
    perturbs every eigenvalue by about machine epsilon times ||P(A)||.
    """
    dense = [abs(float(c)) for c in ham.dense_coefficients()]
    degree = ham.degree
    if degree == 0:
        return None
    dx = spec.spacing
    h_top = levels_to_check - 0.5
    # Products, not `**`: a float64 product saturates at inf where `**` raises.
    grid_shift = dx * dx * dx * dx * (2.0 * h_top) ** 3 / 180.0
    disc = degree * max(dense)
    for _ in range(degree - 1):
        disc *= h_top
    disc *= grid_shift
    mu_max = 8.0 / (3.0 * dx * dx) + 0.5 * spec.half_width * spec.half_width
    horner = 0.0  # sum_j |a_j| mu_max^(j+1) by Horner on the dense |a_j|
    for c in reversed(dense):
        horner = (horner + c) * mu_max
    roundoff = np.finfo(float).eps * horner
    if disc + roundoff <= tolerance:
        return None
    return (
        f"estimated grid error {disc + roundoff:.2e} (discretization {disc:.2e}, "
        f"roundoff {roundoff:.2e}) exceeds tolerance {tolerance:.0e}; "
        "raise the grid resolution or the tolerance"
    )


def verify_dialled(
    ham: PolynomialHamiltonian,
    spec: GridSpec | None = None,
    levels_to_check: int = 9,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """Cross-check a polynomial Hamiltonian's spectrum and node ordering on a grid.

    The lowest eigenpairs of P(oscillator grid) are compared level by level with
    the exact analytic spectrum: eigenvalues must agree within `tolerance`
    (relative, or absolute where the exact energy is 0.0 in float64) and the
    eigenvector node counts must reproduce the analytic ascending permutation.
    Disagreement produces a failure report, not an exception.

    When two exact energies sit closer than 10x the tolerance the report is marked
    degenerate: eigenvalues are still checked against the sorted exact spectrum,
    but node counts are only reported, since the eigensolver may mix nearly
    degenerate eigenvectors freely.

    Args:
        ham: Polynomial to verify.
        spec: Grid to verify on; defaults to half-width 10 with 1001 points.
        levels_to_check: Number of lowest levels to compare (clamped to the grid size).
        tolerance: Relative eigenvalue tolerance.
    """
    if spec is None:
        spec = GridSpec()
    if levels_to_check < 1:
        raise ValueError(f"need at least one level to check, got {levels_to_check}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    count = min(levels_to_check, spec.points)

    records = evaluate_spectrum(ham, count)
    permutation = ordering_report(records).ascending_permutation
    sorted_exact = [records[level].energy for level in permutation]
    gaps = [float(b - a) for a, b in zip(sorted_exact, sorted_exact[1:])]
    degenerate = any(g <= DEGENERACY_FACTOR * tolerance for g in gaps)

    solution = diagonalize(matrix_polynomial(build_oscillator_grid(spec), ham), count)
    node_sequence = tuple(
        count_nodes(solution.eigenvectors[:, i]) for i in range(count)
    )
    sequence_matches = node_sequence == permutation

    checks = []
    for i in range(count):
        grid_value = float(solution.eigenvalues[i])
        matched = permutation[i] if degenerate else node_sequence[i]
        exact = (
            records[matched].energy
            if matched < count
            else evaluate_polynomial(ham, oscillator_energy(matched))
        )
        exact_float = float(exact)
        abs_error = abs(grid_value - exact_float)
        if exact_float == 0.0:
            rel_error = None
            within = abs_error <= tolerance
        else:
            rel_error = abs_error / abs(exact_float)
            within = rel_error <= tolerance
        checks.append(
            LevelCheck(
                position=i,
                grid_eigenvalue=grid_value,
                node_count=node_sequence[i],
                matched_level=matched,
                analytic_energy=exact,
                abs_error=abs_error,
                rel_error=rel_error,
                within_tolerance=within,
            )
        )

    passed = all(c.within_tolerance for c in checks) and (degenerate or sequence_matches)
    return VerificationReport(
        spec=spec,
        tolerance=tolerance,
        checks=tuple(checks),
        expected_sequence=permutation,
        node_sequence=node_sequence,
        sequence_matches=sequence_matches,
        degenerate=degenerate,
        warning=_error_budget_warning(ham, spec, count, tolerance),
        passed=passed,
    )
