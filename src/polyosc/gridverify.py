"""Independent grid cross-check of dialled spectra and node ordering.

The oscillator is discretized by central finite differences on a uniform grid with
hard walls and held as a symmetric band matrix.  The polynomial is applied to it by
Horner steps on a few probe vectors, each step one band matrix-vector product, and
the band of P(A) is read back from the probes; the lowest eigenpairs are then
compared against the exact analytic spectrum.  The eigenvalues come from LAPACK's
band reduction without eigenvectors, and each eigenvector from inverse iteration on
one banded LU, so nothing of size k x k is formed.  Because the route runs through
an eigensolver rather than the defining linear system, agreement is evidence and
not tautology.

The Laplacian stencil is the 5-point fourth-order one.  The classic 3-point stencil
has eigenvalue error (dx^2/24)<p^4> per level, which the polynomial amplifies by
P'(h_n); at the default spacing that amplified error (about 7e-3 near a dialled
zero of P for the quadratic used throughout the tests) overwhelms a 1e-3 check.
The 5-point stencil pushes the discretization error three orders of magnitude
below the verification tolerance, for a band of half width 2 deg P instead of deg P.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.typing as npt

from . import EigensolverError
from .exactalg import PolynomialHamiltonian
from .oscillator import _as_index, oscillator_energy
from .spectrum import evaluate_polynomial, evaluate_spectrum, ordering_report

SIGN_THRESHOLD_RATIO = 1e-9
RESIDUAL_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
ORTHOGONALITY_TOLERANCE = 1e-8
DEGENERACY_FACTOR = 10.0
# The band reduction behind the eigenvalues costs O(k^2 w) time for half bandwidth
# w = 2 deg P; a quintic at 6001 points takes about 1.3 s and under 70 MB on a 2-core
# machine, so grids above this size are refused before anything is allocated.
MAX_GRID_POINTS = 6688
# Inverse iteration: solves per eigenvector, and the seed of the start vectors,
# fixed so that repeated runs give identical bytes.
INVERSE_STEPS = 3
START_SEED = 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid spanning [-half_width, half_width] with `points` samples."""

    half_width: float = 10.0
    points: int = 1001

    def __post_init__(self) -> None:
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half width must be positive and finite, got {self.half_width}")
        object.__setattr__(self, "points", _as_index(self.points, "grid points", 3))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def positions(self) -> npt.NDArray[np.float64]:
        return np.linspace(-self.half_width, self.half_width, self.points)


@dataclass(frozen=True)
class GridOperator:
    """Real symmetric band matrix acting on grid samples, held as its lower band.

    `band` has shape (w + 1, k) for half bandwidth w: band[d, j] is the entry
    (j + d, j), the LAPACK lower symmetric band layout.  The upper half is implied,
    so the operator is symmetric by its storage.  The last d slots of row d lie
    outside the matrix and must be zero.
    """

    spec: GridSpec
    band: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        k = self.spec.points
        shape = self.band.shape
        if len(shape) != 2 or not 1 <= shape[0] <= k or shape[1] != k:
            raise ValueError(f"operator band shape {shape} does not match {k} grid points")
        if not np.all(np.isfinite(self.band)):
            raise ValueError("grid operator has non-finite entries (float64 overflow)")
        if any(np.any(row[k - d:]) for d, row in enumerate(self.band)):
            raise ValueError("grid operator band holds entries outside the matrix")


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
    (-1, 16, -30, 16, -1)/(12 dx^2), so the operator is a band of half width 2 and
    is stored as its three lower diagonals; rows near the walls drop the samples that
    fall outside, which implicitly clamps the wavefunction to zero there.  Grids above
    MAX_GRID_POINTS, and spacings whose 1/(24 dx^2) is not finite, raise ValueError.
    """
    if spec.points > MAX_GRID_POINTS:
        raise ValueError(f"{spec.points} grid points exceed the grid limit of {MAX_GRID_POINTS}")
    x = spec.positions()
    dx = spec.spacing
    scale = 24.0 * dx * dx
    # A spacing so large that scale is inf gives c = 0 and is caught as a non-finite
    # operator; one so small that scale underflows would divide by zero.
    if not (scale > 0.0 and math.isfinite(1.0 / scale)):
        raise ValueError(f"grid spacing {dx!r} is too small for float64 differences")
    c = 1.0 / scale
    band = np.zeros((3, spec.points))
    with np.errstate(over="ignore"):  # GridOperator reports the overflow
        band[0] = 30.0 * c + 0.5 * x * x
    band[1, :-1] = -16.0 * c
    band[2, :-2] = c
    return GridOperator(spec, band)


def _band_matvec(
    band: npt.NDArray[np.float64], v: npt.NDArray[np.float64]
) -> npt.NDArray[np.float64]:
    """M v for the symmetric band matrix M and each column of v."""
    k = band.shape[1]
    out = band[0, :, None] * v
    for d in range(1, band.shape[0]):
        entries = band[d, : k - d, None]
        out[d:] += entries * v[:-d]
        out[:-d] += entries * v[d:]
    return out


def matrix_polynomial(operator: GridOperator, ham: PolynomialHamiltonian) -> GridOperator:
    """Band of P(A) by Horner steps on probe vectors, each one band matvec.

    P(A) has half width W = w p for an operator of half width w and highest stored
    power p, clipped to k - 1.  Probe r, for r < m = min(2W + 1, k), is the sum of
    the unit vectors e_j with j = r (mod m).  Row i of P(A) is nonzero only in the
    at most m consecutive columns i - W..i + W, which hold at most one column of
    each probe, so entry (i, j) of P(A) is entry (i, j mod m) of P(A) E, E holding
    the probes as columns: m products per step recover the band exactly (Curtis,
    Powell and Reid, J. Inst. Maths Applics 13, 117, 1974).  The Horner chain
    Y <- A (Y + a_j E) runs from a_p down to a_1, from Y = 0, and ends with a
    multiplication by A, as the zero constant term requires: the zero polynomial
    maps to the zero matrix, and a_j E adds a_j to the diagonal without forming I.
    """
    a = operator.band
    k = operator.spec.points
    dense = [float(c) for c in ham.dense_coefficients()]
    width = min((a.shape[0] - 1) * len(dense), k - 1)
    period = min(2 * width + 1, k)
    rows = np.arange(k)
    columns = rows % period
    probes = np.zeros((k, period))
    probes[rows, columns] = 1.0
    y = np.zeros((k, period))
    with np.errstate(over="ignore", invalid="ignore"):  # GridOperator reports the overflow
        for coeff in reversed(dense):
            y = _band_matvec(a, y + coeff * probes)
    band = np.zeros((width + 1, k))
    for d in range(width + 1):
        band[d, : k - d] = y[rows[d:], columns[: k - d]]
    return GridOperator(operator.spec, band)


def _inverse_iteration(
    band: npt.NDArray[np.float64], values: npt.NDArray[np.float64], norm: float
) -> npt.NDArray[np.float64]:
    """Unit eigenvectors of a symmetric band matrix for its ascending eigenvalues.

    Each vector takes INVERSE_STEPS solves with the LU of M - value I from a seeded
    random start (Parlett, The Symmetric Eigenvalue Problem, 1980), orthogonalised
    after every solve against the vectors found before it: that is what separates
    the members of an exactly degenerate pair, which share one shift.  A pivot of U
    smaller than one ulp of `norm` = ||M||inf is moved out to that size, as LAPACK's
    dlagts does: it is exactly zero where M - value I is singular (the zero matrix)
    and subnormal where the entries span the float64 range, and the solves would
    divide by it.  That perturbs the shift by at most one ulp of ||M||.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    w, k = band.shape[0] - 1, band.shape[1]
    floor = np.finfo(np.float64).eps * norm
    # dgbtrf layout: entry (i, j) at row 2w + i - j; rows 0..w-1 take the fill-in.
    general = np.zeros((3 * w + 1, k))
    for d in range(w + 1):
        general[2 * w + d, : k - d] = band[d, : k - d]
        general[2 * w - d, d:] = band[d, : k - d]
    rng = np.random.default_rng(START_SEED)
    vectors = np.empty((k, len(values)))
    for i, value in enumerate(values):
        shifted = general.copy()
        shifted[2 * w] -= value
        # info > 0 reports an exactly zero pivot, which the floor below replaces
        lu, pivots, _info = dgbtrf(shifted, w, w, overwrite_ab=True)
        diagonal = lu[2 * w]
        small = np.abs(diagonal) < floor
        diagonal[small] = np.where(diagonal[small] < 0.0, -floor, floor)
        x = rng.standard_normal(k)
        found = vectors[:, :i]
        for _ in range(INVERSE_STEPS):
            x, _info = dgbtrs(lu, w, w, x, pivots)
            x -= found @ (found.T @ x)
            x /= np.linalg.norm(x)
        vectors[:, i] = x
    return vectors


def diagonalize(operator: GridOperator, count: int) -> GridEigenSolution:
    """Lowest `count` eigenpairs of a grid operator.

    The eigenvalues come from the band reduction without its k x k transformation,
    the eigenvectors from inverse iteration, both in units of the operator's largest
    entry rounded down to a power of two: ||A||inf itself overflows for entries near
    1e307, the squares summed inside a residual norm overflow for residuals near
    1e155, and a factorization of tiny entries would divide by subnormal pivots.
    Eigenvalues come back ascending with orthonormal eigenvectors in the columns,
    validated by max|V^T V - I| <= 1e-8 and, pair by pair, by the residual bound
    ||A v - lambda v|| <= 1e-8 max(||A||inf, 1).

    Raises:
        EigensolverError: On LAPACK non-convergence or a failed validity check.
    """
    import scipy.linalg

    k = operator.spec.points
    count = _as_index(count, "eigenpair count", 1)
    if count > k:
        raise ValueError(f"can retain at most {k} eigenpairs, got {count}")
    peak = float(np.abs(operator.band).max())
    # A power of two, so that scaling adds no rounding; the entries end up below 2.
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    band = operator.band / unit
    norm = float(_band_matvec(np.abs(band), np.ones((k, 1))).max())
    try:
        values = scipy.linalg.eigvals_banded(
            band, lower=True, select="i", select_range=(0, count - 1)
        )
    except scipy.linalg.LinAlgError as err:
        raise EigensolverError(
            f"eigensolver failed to converge on the {k}-point band operator: {err}"
        ) from err
    vectors = _inverse_iteration(band, values, max(norm, 1.0))

    # Each test is written so that a NaN fails it.
    if not np.all(np.diff(values) >= 0):
        raise EigensolverError(f"eigensolver returned non-ascending eigenvalues for size {k}")
    norms = np.linalg.norm(vectors, axis=0)
    if not np.max(np.abs(norms - 1.0)) <= NORM_TOLERANCE:
        raise EigensolverError(f"eigenvector norms off unity beyond {NORM_TOLERANCE} for size {k}")
    overlap = float(np.max(np.abs(vectors.T @ vectors - np.eye(count))))
    if not overlap <= ORTHOGONALITY_TOLERANCE:
        raise EigensolverError(
            f"eigenvectors off orthonormal by {overlap:.3e} beyond "
            f"{ORTHOGONALITY_TOLERANCE:.0e} for size {k}"
        )
    bound = RESIDUAL_TOLERANCE * max(norm, 1.0 / unit)
    residuals = _band_matvec(band, vectors) - vectors * values
    worst = float(np.max(np.linalg.norm(residuals, axis=0)))
    if not worst <= bound:
        raise EigensolverError(
            f"eigenpair residual {worst * unit:.3e} exceeds {RESIDUAL_TOLERANCE:.0e} * ||A|| "
            f"for size {k}"
        )
    return GridEigenSolution(operator.spec, values * unit, vectors)


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

    A negative leading coefficient makes P unbounded below on the levels, so the
    checked levels are not the lowest ones and a grid cannot confirm them: such a
    report fails and its warning says why, even where the grid's finite spectrum
    stops short of the levels that fall below.

    Args:
        ham: Polynomial to verify.
        spec: Grid to verify on; defaults to half-width 10 with 1001 points.
        levels_to_check: Number of lowest levels to compare (clamped to the grid size).
        tolerance: Relative eigenvalue tolerance.
    """
    if spec is None:
        spec = GridSpec()
    levels_to_check = _as_index(levels_to_check, "level count", 1)
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

    leading = ham.coefficient(ham.degree)
    unbounded = (
        f"P is unbounded below (leading coefficient {leading} < 0), so levels 0..{count - 1} "
        "are not its lowest"
        if leading < 0
        else None
    )
    budget = _error_budget_warning(ham, spec, count, tolerance)
    passed = (
        unbounded is None
        and all(c.within_tolerance for c in checks)
        and (degenerate or sequence_matches)
    )
    return VerificationReport(
        spec=spec,
        tolerance=tolerance,
        checks=tuple(checks),
        expected_sequence=permutation,
        node_sequence=node_sequence,
        sequence_matches=sequence_matches,
        degenerate=degenerate,
        warning="; ".join(w for w in (unbounded, budget) if w) or None,
        passed=passed,
    )
