"""Independent grid cross-check of dialled spectra and node ordering.

The oscillator is discretized by central finite differences on a uniform grid with
hard walls and held as a symmetric band matrix A.  P(A) has A's eigenvectors, with
eigenvalue P(mu) for each eigenvalue mu of A, so the verifier never forms P(A).  Its
grid side, one function that reads only P's coefficients, takes A's lowest modes,
maps each mu through P by one float Horner step, keeps the lowest mapped values and
counts the nodes of their eigenvectors.  Where P rises at infinity and a higher mode
may still map lower, it solves again up to where P stays above the kept values, or
marks the run unresolved beyond the grid's reach.  Whether and from where P stays
above a value is decided exactly from P's coefficients, by Descartes' rule of signs
and Collins-Akritas bisection (spectrum._positive_from and _root_ceiling).  The
exact side judges what it returns against the exact analytic spectrum.  A's
lowest eigenpairs come from shift-invert Lanczos on one banded Cholesky factor of
A, checked complete by a Sturm count of the band, so nothing of size k x k is
formed.  Because the route runs through an eigensolver rather than the defining
linear system, agreement is evidence and not tautology.  A depends on the grid
alone, never on P, so build_oscillator_grid keeps its last MEMO_ENTRIES operators,
one per grid, and diagonalize memoises its validated solutions, keyed on that
operator and the count of modes: it keeps the last MEMO_ENTRIES used, none with
eigenvectors above MEMO_BYTES, and returns their arrays read-only.  One process
that verifies many P on one grid thus builds and solves that grid once.

The Laplacian stencil is the 5-point fourth-order one.  The classic 3-point stencil
has eigenvalue error (dx^2/24)<p^4> per level, which the polynomial amplifies by
P'(h_n); at the default spacing that amplified error (about 7e-3 near a dialled
zero of P for the quadratic used throughout the tests) overwhelms a 1e-3 check.
The 5-point stencil pushes the discretization error three orders of magnitude
below the verification tolerance, for a band of half width 2 instead of 1.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.typing as npt

from . import EigensolverError
from .exactalg import PolynomialHamiltonian, _common_denominator
from .oscillator import _as_index
from .spectrum import _positive_from, _root_ceiling, evaluate_spectrum, ordering_report

SIGN_THRESHOLD_RATIO = 1e-9
RESIDUAL_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
ORTHOGONALITY_TOLERANCE = 1e-8
DEGENERACY_FACTOR = 10.0
# Set when a band reduction cost O(k^2) time.  Lanczos costs O(k) per step on the whole
# band: `verify` at this size takes about 0.5 s and 66 MB as a process on a 2-core
# machine, whatever the degree of P, 0.45 s and 56 MB of it the interpreter and imports.
# Grids above it are refused before anything is allocated.
MAX_GRID_POINTS = 6688
# Lanczos: the seed of the start vectors, fixed so that repeated runs give identical
# bytes, and the residual estimate, relative to the largest Ritz value of the inverse,
# at which a Ritz pair counts as converged: 64 eps, so that eigenvalues closer than
# that need not be told apart.
START_SEED = 0
CONVERGED = 2.0**-46
EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)
# diagonalize's memo: the last MEMO_ENTRIES solutions used, eight so that retry solves
# leave room for the base ones, none whose eigenvectors exceed MEMO_BYTES: at most 8 MiB
# of them (the eleven modes of a 1001-point grid take 88 KiB).  build_oscillator_grid
# keeps as many operators.
MEMO_ENTRIES = 8
MEMO_BYTES = 1 << 20


def _as_real(value, name: str) -> float:
    # The one check of a float argument, the half width or the tolerance: any real
    # number (int, float, Fraction, numpy floats) is rounded once to a float, +-inf past
    # its range; a bool is refused, not read as 0 or 1, and so is any non-number.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} must be a real number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid spanning [-half_width, half_width] with `points` samples."""

    half_width: float = 10.0
    points: int = 1001

    def __post_init__(self) -> None:
        half_width = _as_real(self.half_width, "half width")
        if not (math.isfinite(half_width) and half_width > 0):
            raise ValueError(f"half width must be positive and finite, got {half_width}")
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "points", _as_index(self.points, "grid points", 3))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def positions(self) -> npt.NDArray[np.float64]:
        return np.linspace(-self.half_width, self.half_width, self.points)


@dataclass(frozen=True, eq=False)
class GridOperator:
    """Real symmetric band matrix acting on k grid samples, held as its lower band.

    `band` has shape (w + 1, k) for half bandwidth w < k: band[d, j] is the entry
    (j + d, j), the LAPACK lower symmetric band layout.  The upper half is implied,
    so the operator is symmetric by its storage.  The last d slots of row d lie
    outside the matrix and must be zero.  The operator keeps a read-only copy of the
    band, in its dtype, so that these checks hold for its life; it compares by identity.
    """

    band: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        band = self.band.copy()
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        shape = band.shape
        if len(shape) != 2 or not 1 <= shape[0] <= shape[1]:
            raise ValueError(f"operator band shape {shape} is not (w + 1, k) with w < k")
        k = shape[1]
        if not np.isfinite(band).all():
            raise ValueError("grid operator has non-finite entries (float64 overflow)")
        if any(row[k - d:].any() for d, row in enumerate(band[1:], 1)):
            raise ValueError("grid operator band holds entries outside the matrix")


@dataclass(frozen=True)
class GridEigenSolution:
    """Lowest eigenvalues of a grid operator, ascending, and eigenvectors in columns."""

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.float64]


@dataclass(frozen=True)
class LevelCheck:
    """Comparison of one grid eigenpair against its analytic counterpart.

    Checks run ascending by eigenvalue; check i belongs to the eigenvector whose node
    count is the report's node_sequence[i], and is matched to that level n.

    Attributes:
        grid_eigenvalue: The computed grid eigenvalue.
        analytic_energy: Exact P(n + 1/2) for the level n of the node count.
        abs_error: |grid - analytic|.
        rel_error: abs_error / |analytic|, or None where the analytic energy is 0.0 in float64.
        within_tolerance: rel_error within the tolerance; where rel_error is None,
            abs_error within the tolerance times the smallest nonzero |analytic|
            among the checked levels (0 if there is none).
    """

    grid_eigenvalue: float
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


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def build_oscillator_grid(spec: GridSpec) -> GridOperator:
    """Discretized oscillator -(1/2) D2 + diag(x_i^2 / 2) with Dirichlet walls.

    D2 is the symmetric 5-point fourth-order central-difference Laplacian
    (-1, 16, -30, 16, -1)/(12 dx^2), so the operator is a band of half width 2 and
    is stored as its three lower diagonals; rows near the walls drop the samples that
    fall outside, which implicitly clamps the wavefunction to zero there.  Grids above
    MAX_GRID_POINTS, and spacings whose 1/(24 dx^2) is not finite, raise ValueError.
    The operator depends on the spec alone, so the last MEMO_ENTRIES built are kept
    and an equal spec gets the same one, which diagonalize's memo then finds.
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
    return GridOperator(band)


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


def matrix_polynomial(
    eigenvalues: npt.NDArray[np.float64], ham: PolynomialHamiltonian
) -> npt.NDArray[np.float64]:
    """P(A) in A's eigenbasis: P(mu) for each eigenvalue mu of A, by float Horner.

    The chain y <- (y + a_j) mu runs from a_{deg P} down to a_1, from y = 0, and ends
    with a multiplication by mu, as the zero constant term requires: the zero
    polynomial maps every mu to exactly 0.  Each of its 2 deg P operations rounds
    once, so by the standard Horner induction (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 5) each value lies within
    gamma_{2 deg P} sum_j |a_j| |mu|^j of the exact P(mu) on the float coefficients,
    gamma_n = n u / (1 - n u).  A non-finite value raises ValueError naming P(mu).
    """
    y = np.zeros_like(eigenvalues)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for coeff in reversed([float(c) for c in ham.dense_coefficients()]):
            y = (y + coeff) * eigenvalues
    if not np.all(np.isfinite(y)):
        raise ValueError("P(mu) is not finite in float64 (overflow)")
    return y


def _count_below(band: npt.NDArray[np.float64], tau: float) -> int:
    """Eigenvalues below tau of the symmetric band matrix M with lower band `band`.

    By Sylvester's law of inertia, the negative pivots of the unpivoted LDL^T
    factorization of M - tau I, in Python floats; a zero pivot counts as negative.
    """
    w, n = band.shape[0] - 1, band.shape[1]
    shifted = np.zeros((w + 1, n + w))  # w spare columns take the updates past the end
    shifted[:, :n] = band
    shifted[0] -= tau
    columns = shifted.T.tolist()  # column j holds M[j + d, j], d = 0..w
    updates = [(r, c, r + c) for r in range(1, w + 1) for c in range(w + 1 - r)]
    negative = 0
    for j, column in enumerate(columns[:n]):
        pivot = column[0] or -TINY
        negative += pivot < 0.0
        for r, c, rc in updates:  # M[j + r + c, j + r] -= M[j + r, j] M[j + rc, j] / pivot
            columns[j + r][c] -= column[r] / pivot * column[rc]
    return negative


def _lanczos(
    band: npt.NDArray[np.float64], ask: int, norm: float
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Lowest `ask` eigenpairs of a symmetric band matrix M, ascending, by Lanczos.

    Spectral transformation (Ericsson & Ruhe, Math. Comp. 35, 1980): Lanczos runs on
    the inverse of M - sigma I, factored by banded Cholesky at sigma = -2^-30 `norm`,
    just below the oscillator's positive semidefinite spectrum, or where that fails at
    -(2 `norm` + 1), below Gershgorin's bound.  The Gram-Schmidt coefficients of each
    step against the basis, which grows with the steps, give H, the inverse projected
    on the basis; so the run can go on from a fresh START_SEED vector, as it does where
    the residual beta vanishes or the count below fails.  A Ritz pair (theta, s) of H
    has converged when beta |s|, summed over the last step and the restarts, is at most
    CONVERGED times H's largest theta.  This is checked at step 3 `ask` (the oscillator's
    pairs take 3 to 13 steps each) and then every `ask` steps, or sooner where the fall
    of the worst estimate since the last check says it passes.  The `ask` Ritz vectors
    then turn by a Rayleigh-Ritz step on M itself, which tells apart eigenvalues closer
    than their residuals, and their Rayleigh quotients on M are returned once M has no
    more eigenvalues below tau, 32 eps `norm` under the top quotient, than they have;
    or once the basis spans M.  Each quotient bounds its eigenvalue of M from above
    (Cauchy interlacing), so the count finds any eigenvalue left out below tau: a copy
    of a multiple eigenvalue, for one Krylov sequence holds one vector of it, or a
    member of a cluster tighter than the Ritz residuals.
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    n, slack = band.shape[1], 32.0 * EPS * norm
    if not ask:
        return np.empty(0), np.empty((n, 0))
    for shift in (-math.ldexp(norm, -30), -(2.0 * norm + 1.0)):
        factor, info = dpbtrf(np.vstack([band[:1] - shift, band[1:]]), lower=1)
        if not info:
            break
    else:
        raise np.linalg.LinAlgError(f"banded Cholesky failed below Gershgorin's bound ({info})")
    rng = np.random.default_rng(START_SEED)
    basis = np.empty((min(4 * ask, n), n))  # Lanczos vectors in rows, doubled when full
    h = np.zeros((len(basis), len(basis)))  # H's upper triangle
    loose = []  # (step, beta) where the residual was not taken as the next vector

    def fresh(j):  # a seeded unit vector orthogonal to the first j basis vectors
        v = rng.standard_normal(n)
        for _ in range(2 if j else 0):
            v -= basis[:j].T @ (basis[:j] @ v)
        return v / math.sqrt(v @ v)

    basis[0], j, check, broke, last = fresh(0), 0, 3 * ask, True, (0, 0.0)
    while True:
        q = basis[j]
        x, _info = dpbtrs(factor, q, lower=1)
        size = math.sqrt(x @ x)
        if not broke:
            h[j - 1, j] = b
            x -= b * basis[j - 1]
        h[j, j] = a = q @ x
        x -= a * q
        j += 1
        for _ in range(2):  # twice where once cancels (Daniel et al., Math. Comp. 30, 1976)
            coeffs = basis[:j] @ x
            x -= coeffs @ basis[:j]
            h[:j, j - 1] += coeffs
            b = math.sqrt(x @ x)
            if b > size / 1024:
                break
        broke = b <= n * EPS * size
        if j == n or broke or j >= check:
            theta, s = np.linalg.eigh(h[:j, :j], UPLO="U")
            top = s[:, :-ask - 1:-1]
            estimate = b * np.abs(top[-1]) + sum(beta * np.abs(top[i]) for i, beta in loose)
            worst = float(np.max(estimate)) / (CONVERGED * theta[-1])
            if j == n or j >= ask and worst <= 1.0:
                vectors = basis[:j].T @ top
                values, turn = np.linalg.eigh(vectors.T @ _band_matvec(band, vectors))
                vectors = vectors @ turn
                tau = values[-1] - slack
                if j == n or _count_below(band, tau) <= np.searchsorted(values, tau):
                    return values, vectors
                broke = True
            steps = ask  # or fewer, where the worst estimate's fall says it will pass
            if last[1] > worst > 1.0:
                steps = min(steps, math.ceil((j - last[0]) * math.log(worst, last[1] / worst)))
            last, check = (j, worst), j + max(1, steps)
        if j == len(basis):
            basis = np.concatenate([basis, np.empty((min(j, n - j), n))])
            h, old = np.zeros((len(basis), len(basis))), h
            h[:j, :j] = old
        if broke:
            loose.append((j - 1, b))
        basis[j] = fresh(j) if broke else x / b


def diagonalize(operator: GridOperator, count: int) -> GridEigenSolution:
    """Lowest `count` eigenvalues of a symmetric grid operator, with eigenvectors.

    The eigenpairs come from one _lanczos run on the whole band, in units of the
    operator's largest entry rounded down to a power of two: ||A||inf itself
    overflows for entries near 1e307, the squares summed inside a residual norm
    overflow for residuals near 1e155, and a factorization of tiny entries would
    divide by subnormal pivots.
    Eigenvalues come back ascending with orthonormal eigenvectors on all k samples
    in the columns, validated against the full band by max|V^T V - I| <= 1e-8 and,
    pair by pair, by the residual bound ||A v - lambda v|| <= 1e-8 max(||A||inf, 1).

    Both arrays are read-only, for a validated solution is memoised: keyed on the
    operator, by identity, and on `count`, the last MEMO_ENTRIES solutions used are
    kept, unless their eigenvectors exceed MEMO_BYTES, and a call that matches one
    returns it as it is.  The solve is a function of the band's content and the count
    alone, seeded Lanczos included, and an operator's band is a read-only copy, so a
    hit is bit for bit the solve it skips.  build_oscillator_grid gives an equal grid
    the same operator, so one process that verifies many P on one grid solves that
    grid once.  A solution for another count is never cut down or reused: the count
    sets where each Lanczos run stops, and so the last bits of its eigenvalues.

    Raises:
        EigensolverError: On a LAPACK or Lanczos failure or a failed validity check.
    """
    k = operator.band.shape[1]
    count = _as_index(count, "eigenpair count", 1)
    if count > k:
        raise ValueError(f"can retain at most {k} eigenpairs, got {count}")
    # 8 k count bytes are exactly the float64 eigenvectors' nbytes.
    solve = _solve if 8 * k * count <= MEMO_BYTES else _solve.__wrapped__
    return solve(operator, count)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _solve(operator: GridOperator, count: int) -> GridEigenSolution:
    """diagonalize's validated solve, for a count it has checked."""
    k = operator.band.shape[1]
    peak = float(np.abs(operator.band).max())
    # A power of two, so that scaling adds no rounding; the entries end up below 2.
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    band = operator.band / unit
    norm = float(_band_matvec(np.abs(band), np.ones((k, 1))).max())
    bound = RESIDUAL_TOLERANCE * max(norm, 1.0 / unit)
    try:
        values, vectors = _lanczos(band, count, max(norm, 1.0))
    except np.linalg.LinAlgError as err:
        raise EigensolverError(
            f"eigensolver failed to converge on the {k}-point band operator: {err}"
        ) from err

    # Each test is written so that a NaN fails it.
    if not np.all(np.diff(values) >= 0):
        raise EigensolverError(f"eigensolver returned non-ascending eigenvalues for size {k}")
    norms = np.linalg.norm(vectors, axis=0)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE):
        raise EigensolverError(f"eigenvector norms off unity beyond {NORM_TOLERANCE} for size {k}")
    overlap = float(np.max(np.abs(vectors.T @ vectors - np.eye(count))))
    if not overlap <= ORTHOGONALITY_TOLERANCE:
        raise EigensolverError(
            f"eigenvectors off orthonormal by {overlap:.3e} beyond "
            f"{ORTHOGONALITY_TOLERANCE:.0e} for size {k}"
        )
    residuals = _band_matvec(band, vectors) - vectors * values
    worst = float(np.max(np.linalg.norm(residuals, axis=0)))
    if not worst <= bound:
        raise EigensolverError(
            f"eigenpair residual {worst * unit:.3e} exceeds {RESIDUAL_TOLERANCE:.0e} * ||A|| "
            f"for size {k}"
        )
    solution = GridEigenSolution(values * unit, vectors)
    solution.eigenvalues.flags.writeable = False
    solution.eigenvectors.flags.writeable = False
    return solution


def count_nodes(vector: npt.NDArray[np.float64]) -> int:
    """Sign changes of a sampled function, ignoring near-zero samples.

    A sample participates only if its magnitude exceeds SIGN_THRESHOLD_RATIO times the
    largest magnitude; counting sign changes among the survivors means a zero
    crossing is counted once even when a sample lands on it.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("node counting needs a non-empty 1-D sample vector")
    magnitude = np.abs(v)
    peak = float(magnitude.max())  # NaN or inf if any sample is
    if not math.isfinite(peak):
        raise ValueError("node counting needs finite samples")
    if peak == 0.0:
        raise ValueError("node counting needs a nonzero vector")
    # Live samples are nonzero, so their signs are their sides of zero; comparing
    # sides, not products, keeps underflow out.
    positive = v[magnitude > SIGN_THRESHOLD_RATIO * peak] > 0.0
    return int(np.count_nonzero(positive[:-1] != positive[1:]))


def _measure_grid(ham: PolynomialHamiltonian, spec: GridSpec, count: int) -> tuple:
    """The grid side reads only P's coefficients.  It diagonalises the oscillator grid A
    for its lowest M = min(count + 2, k) modes, maps their eigenvalues mu through P by
    float Horner with matrix_polynomial(eigenvalues, ham), and keeps the `count` lowest
    mapped values, ties to the lower mode, with the node counts of their eigenvectors:
    it returns (values, nodes, warning).  For P rising at infinity and M < k, they are
    P's lowest if P(h) stays above them for every h >= mu_{M-1}.  That is decided
    exactly, in integers, for Q = P minus the highest kept value: Descartes' rule on Q
    moved to mu_{M-1} settles it where the shifted coefficients have no sign change (no
    root above mu_{M-1}), and Collins-Akritas bisection on Q's square-free part
    otherwise.  If not, A is solved once more for min(count + 2 + s, k) modes, s the
    least integer above Q's largest real root, where s lies below the grid's reach
    ceil(min(L, 1/dx)^2 / 2) (the box resolves modes with turning point sqrt(2 mu) < L
    and sqrt(2 mu) dx <= 1).  Where s does not, or if the last of those modes still lies
    below where P stays above the kept values, the run fails as unresolved, with the
    rows of its last solve and a warning that says why.

    A negative leading coefficient makes P unbounded below on the levels, so the
    checked levels are not the lowest ones and a grid cannot confirm them: such a
    report fails and its warning says why; its grid side maps the first M modes
    only, and its levels may all agree.
    """
    operator = build_oscillator_grid(spec)
    dense = ham.dense_coefficients()

    def solve(modes):  # A's lowest modes, through P, and the count lowest of them
        solution = diagonalize(operator, modes)
        mapped = matrix_polynomial(solution.eigenvalues, ham)
        return solution, mapped, np.argsort(mapped, kind="stable")[:count]

    def lifted(floor):  # integer coefficients of a positive multiple of P - floor
        return _common_denominator([-Fraction(floor), *dense])[0]

    # The modes asked for set where each Lanczos run stops, and so the eigenvalues' last
    # bits, so the first ask stays count + 2: any other would change the printed values.
    solution, mapped, kept = solve(min(count + 2, spec.points))
    warning = None
    if dense and dense[-1] < 0:
        warning = (f"P is unbounded below (leading coefficient {dense[-1]} < 0), so levels "
                   f"0..{count - 1} are not its lowest")
    elif dense and len(mapped) < spec.points:
        q = lifted(mapped[kept[-1]])
        if not _positive_from(q, solution.eigenvalues[-1]):
            reach = math.ceil(min(spec.half_width, 1.0 / spec.spacing) ** 2 / 2)
            rise = min(reach, _root_ceiling(q))  # q has a root at or above A's mode > 0
            covered = False
            if rise < reach:  # mode count + 1 + rise lies above rise where A resolves it
                solution, mapped, kept = solve(min(count + 2 + rise, spec.points))
                covered = len(mapped) == spec.points or _positive_from(
                    lifted(mapped[kept[-1]]), solution.eigenvalues[-1])
            if not covered:
                warning = (f"P does not stay above the kept values beyond the {len(mapped)} "
                           f"modes solved, and this grid resolves only h < {reach}, so levels "
                           f"0..{count - 1} may not be its lowest")
    node_sequence = tuple([count_nodes(vector) for vector in solution.eigenvectors.T[kept]])
    return mapped[kept].tolist(), node_sequence, warning


def verify_dialled(
    ham: PolynomialHamiltonian,
    spec: GridSpec | None = None,
    levels_to_check: int = 9,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """Cross-check a polynomial Hamiltonian's spectrum and node ordering on a grid.

    The grid side, _measure_grid, reads only P's coefficients, and what it returns is
    judged here.  Each kept mode is an eigenvector of A, whose eigenvalues are all
    simple, so its node count n names its level and its mapped value is compared with
    the exact P(n + 1/2).  A report passes if the grid side warns of nothing, the node
    counts are a permutation of 0..count-1 and every check passes; disagreement produces
    a failure report, not an exception.  Each check is relative, so scaling P by a power
    of two, which scales each mapped value exactly, changes no verdict: an eigenvalue
    passes within `tolerance` of its exact energy, relatively; where that energy is 0.0
    in float64, its absolute error must stay within `tolerance` times the smallest
    nonzero |energy| among the checked levels (0 if none is).  The node order needs no
    rule of its own: the mapped values ascend, so the exact energies taken in node order
    fall by no more than the checks allow, and an exact tie may come in either order.
    `sequence_matches` (the node counts are the exact ascending permutation) and
    `degenerate` (two adjacent sorted exact energies a <= b lie within
    b - a <= DEGENERACY_FACTOR * tolerance * max(|a|, |b|)) are for information only.
    The degeneracy test is exact and runs in integers: the float product
    DEGENERACY_FACTOR * tolerance is read exactly as near / far, and with the energies
    A / D and B / D over one common denominator D it asks (B - A) far <= near max(|A|, |B|).

    Args:
        ham: Polynomial to verify.
        spec: Grid to verify on; defaults to half-width 10 with 1001 points.
        levels_to_check: Number of lowest levels to compare (clamped to the grid size).
        tolerance: Relative eigenvalue tolerance.
    """
    if spec is None:
        spec = GridSpec()
    levels_to_check = _as_index(levels_to_check, "level count", 1)
    tolerance = _as_real(tolerance, "tolerance")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    count = min(levels_to_check, spec.points)

    # The grid side first, from P's coefficients alone; the exact side then judges it.
    values, node_sequence, warning = _measure_grid(ham, spec, count)
    records = evaluate_spectrum(ham, max(count, max(node_sequence) + 1))
    permutation = ordering_report(records[:count]).ascending_permutation
    # Exact, so that nothing overflows or rounds: near / far is the float product.
    near, far = (DEGENERACY_FACTOR * tolerance).as_integer_ratio()
    nums = sorted(_common_denominator([rec.energy for rec in records[:count]])[0])
    degenerate = any((b - a) * far <= near * max(abs(a), abs(b)) for a, b in zip(nums, nums[1:]))
    exact = [records[level].energy for level in node_sequence]
    exact_floats = [float(e) for e in exact]
    zero_floor = tolerance * min((abs(e) for e in exact_floats if e != 0.0), default=0.0)
    checks = []
    for grid_value, energy, exact_float in zip(values, exact, exact_floats):
        abs_error = abs(grid_value - exact_float)
        if exact_float == 0.0:
            rel_error = None
            within = abs_error <= zero_floor
        else:
            rel_error = abs_error / abs(exact_float)
            within = rel_error <= tolerance
        checks.append(LevelCheck(grid_value, energy, abs_error, rel_error, within))

    passed = (warning is None and all(c.within_tolerance for c in checks)
              and sorted(node_sequence) == list(range(count)))
    return VerificationReport(
        spec=spec,
        tolerance=tolerance,
        checks=tuple(checks),
        expected_sequence=permutation,
        node_sequence=node_sequence,
        sequence_matches=node_sequence == permutation,
        degenerate=degenerate,
        warning=warning,
        passed=passed,
    )
