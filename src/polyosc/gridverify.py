"""Independent grid cross-check of dialled spectra and node ordering.

The oscillator is discretized by central finite differences on a uniform grid with
hard walls and held as a symmetric band matrix A.  P(A) has A's eigenvectors, with
eigenvalue P(mu) for each eigenvalue mu of A, so the verifier never forms P(A): it
takes A's lowest modes, maps each mu through P by one float Horner step, keeps the
lowest mapped values, counts the nodes of their eigenvectors and compares all of it
against the exact analytic spectrum.  With a positive leading coefficient it takes
more modes until the last one lies where P is increasing and maps above the kept
values, so no higher mode can map lower.  The grid is uniform on [-L, L], the
potential even and the stencil symmetric, so A commutes with the mirror x -> -x and
its spectrum splits exactly into a block of mirror-even and one of mirror-odd
vectors, each on about half the samples.  Each block's eigenvalues come from
LAPACK's band reduction without eigenvectors, and each eigenvector from inverse
iteration on one banded LU of its block, so nothing of size k x k is formed.  The
parity is a symmetry of the discretisation, not of the exact answer, and because
the route runs through an eigensolver rather than the defining linear system,
agreement is evidence and not tautology.

The Laplacian stencil is the 5-point fourth-order one.  The classic 3-point stencil
has eigenvalue error (dx^2/24)<p^4> per level, which the polynomial amplifies by
P'(h_n); at the default spacing that amplified error (about 7e-3 near a dialled
zero of P for the quadratic used throughout the tests) overwhelms a 1e-3 check.
The 5-point stencil pushes the discretization error three orders of magnitude
below the verification tolerance, for a band of half width 2 instead of 1.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.typing as npt

from . import EigensolverError
from .exactalg import PolynomialHamiltonian
from .oscillator import _as_index
from .spectrum import evaluate_spectrum, ordering_report

SIGN_THRESHOLD_RATIO = 1e-9
RESIDUAL_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
ORTHOGONALITY_TOLERANCE = 1e-8
DEGENERACY_FACTOR = 10.0
# The band reduction behind the eigenvalues costs O(k^2 w) time, here on A's band of
# half width w = 2, run on two mirror blocks of about k/2 points; `verify` at this size
# takes about 0.8 s and 62 MB as a process on a 2-core machine, whatever the degree of
# P, so grids above it are refused before anything is allocated.
MAX_GRID_POINTS = 6688
# Inverse iteration: solves per eigenvector, and the seed of the start vectors,
# fixed so that repeated runs give identical bytes.
INVERSE_STEPS = 3
START_SEED = 0
# Eigenvalues closer than this times ||A||inf share a cluster, as in LAPACK's dstein;
# inverse iteration orthogonalises a vector only against its own cluster.
CLUSTER_GAP = 1e-3


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


@dataclass(frozen=True)
class GridOperator:
    """Real symmetric band matrix acting on k grid samples, held as its lower band.

    `band` has shape (w + 1, k) for half bandwidth w < k: band[d, j] is the entry
    (j + d, j), the LAPACK lower symmetric band layout.  The upper half is implied,
    so the operator is symmetric by its storage.  The last d slots of row d lie
    outside the matrix and must be zero.
    """

    band: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        shape = self.band.shape
        if len(shape) != 2 or not 1 <= shape[0] <= shape[1]:
            raise ValueError(f"operator band shape {shape} is not (w + 1, k) with w < k")
        k = shape[1]
        if not np.all(np.isfinite(self.band)):
            raise ValueError("grid operator has non-finite entries (float64 overflow)")
        if any(np.any(row[k - d:]) for d, row in enumerate(self.band)):
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


def matrix_polynomial(operator: GridOperator, ham: PolynomialHamiltonian) -> GridOperator:
    """Band of P(A) by Horner steps on probe vectors, each one band matvec.

    P(A) has half width W = w deg P for an operator of half width w, clipped to
    k - 1.  Probe r, for r < m = min(2W + 1, k), is the sum of
    the unit vectors e_j with j = r (mod m).  Row i of P(A) is nonzero only in the
    at most m consecutive columns i - W..i + W, which hold at most one column of
    each probe, so entry (i, j) of P(A) is entry (i, j mod m) of P(A) E, E holding
    the probes as columns: m products per step recover the band exactly (Curtis,
    Powell and Reid, J. Inst. Maths Applics 13, 117, 1974).  The Horner chain
    Y <- A (Y + a_j E) runs from a_{deg P} down to a_1, from Y = 0, and ends with a
    multiplication by A, as the zero constant term requires: the zero polynomial
    maps to the zero matrix, and a_j E adds a_j to the diagonal without forming I.
    """
    a = operator.band
    k = a.shape[1]
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
    return GridOperator(band)


def _inverse_iteration(
    band: npt.NDArray[np.float64], values: npt.NDArray[np.float64], norm: float
) -> npt.NDArray[np.float64]:
    """Unit eigenvectors of a symmetric band matrix for its ascending eigenvalues.

    Called once per mirror block, with the eigenvalues that block contributes.  Each
    vector takes INVERSE_STEPS solves with the LU of M - value I from a seeded
    random start (Parlett, The Symmetric Eigenvalue Problem, 1980), orthogonalised
    after every solve against the vectors found before it in its cluster: the run of
    eigenvalues in the block whose gaps are at most CLUSTER_GAP * `norm`, as in
    LAPACK's dstein.  That is what separates the members of an exactly degenerate
    pair, which share one shift (a pair split across the two blocks is orthogonal by
    parity); farther apart, inverse iteration alone leaves the vectors orthogonal,
    and diagonalize checks that they are.  A pivot of U
    smaller than one ulp of `norm` = ||A||inf of the whole operator is moved out to
    that size, as LAPACK's dlagts does: it is exactly zero where M - value I is
    singular (the zero matrix) and subnormal where the entries span the float64
    range, and the solves would divide by it.  That perturbs the shift by at most
    one ulp of ||A||.
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
    start = 0  # first vector of the current cluster
    for i, value in enumerate(values):
        if i and value - values[i - 1] > CLUSTER_GAP * norm:
            start = i
        shifted = general.copy()
        shifted[2 * w] -= value
        # info > 0 reports an exactly zero pivot, which the floor below replaces
        lu, pivots, _info = dgbtrf(shifted, w, w, overwrite_ab=True)
        diagonal = lu[2 * w]
        small = np.abs(diagonal) < floor
        diagonal[small] = np.where(diagonal[small] < 0.0, -floor, floor)
        x = rng.standard_normal(k)
        found = vectors[:, start:i]
        for _ in range(INVERSE_STEPS):
            x, _info = dgbtrs(lu, w, w, x, pivots)
            x -= found @ (found.T @ x)
            x /= np.linalg.norm(x)
        vectors[:, i] = x
    return vectors


def _mirror_blocks(
    band: npt.NDArray[np.float64],
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Lower bands of a mirror-symmetric band matrix M on its even and odd vectors.

    M[i, j] = M[k-1-i, k-1-j] makes M commute with the reversal J, so in the
    orthonormal basis (e_i + e_{k-1-i})/sqrt(2) and (e_i - e_{k-1-i})/sqrt(2),
    i < k // 2, it is block diagonal with blocks M[i, j] + M[i, k-1-j] (even) and
    M[i, j] - M[i, k-1-j] (odd).  For odd k the centre sample c joins the even block
    as the unit vector e_c, which scales row and column c of the even formula by
    1/sqrt(2); odd vectors are 0 there.  The cross term M[i, k-1-j] is nonzero only
    where i + j >= k-1-w, in the last w rows and columns of each block, so a block
    keeps half width <= w.  Only the left half of M is read: the symmetric part
    (M + JMJ)/2 is what the blocks represent.
    """
    w, k = band.shape[0] - 1, band.shape[1]
    half = k // 2
    blocks = []
    for sign, n in ((1.0, k - half), (-1.0, half)):
        width = min(w, n - 1)
        block = np.zeros((width + 1, n))
        for d in range(width + 1):
            block[d, : n - d] = band[d, : n - d]
            # Entry (j + d, j) gains M[j + d, k-1-j], which lies t = k-1-2j-d >= 0
            # columns right of the diagonal and is stored at band[t, j + d] for t <= w.
            j = np.arange(max(0, (k - d - w) // 2), n - d)
            block[d, j] += sign * band[k - 1 - 2 * j - d, j + d]
        if n > half:  # odd k: the centre is the last even sample
            block[np.arange(width + 1), n - 1 - np.arange(width + 1)] *= math.sqrt(0.5)
            block[0, n - 1] *= math.sqrt(0.5)
        blocks.append(block)
    return blocks[0], blocks[1]


def _parity_eigenpairs(
    band: npt.NDArray[np.float64], count: int, norm: float, keep: npt.NDArray[np.intp]
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Lowest `count` eigenvalues of a mirror-symmetric band, block by mirror block,
    and the eigenvectors of those at the positions `keep`, in keep's order.

    Each block first gives its min(size, ceil(count/2) + 1) lowest eigenvalues from
    the band reduction.  A block whose last value lies strictly above the pooled
    count-th lowest holds no more of the lowest `count`; any other is asked again for
    min(count, size), which holds every one of them, since its own first `count` all
    rank before the rest.  A second ask only lowers the cutoff, so one pass decides
    both blocks, and the result is that of asking each block for `count`.
    A stable sort of the even block's values followed by the odd block's merges them,
    ties to the even block, and keeps the lowest `count`.  Inverse iteration then
    runs in each block for the kept values it won, ascending, and the block vectors
    are unfolded onto all k samples.
    """
    from scipy.linalg import eigvals_banded

    def lowest(block, ask):
        return eigvals_banded(block, lower=True, select="i", select_range=(0, ask - 1))

    k = band.shape[1]
    half = k // 2
    blocks = _mirror_blocks(band)
    found = [lowest(block, min(block.shape[1], (count + 1) // 2 + 1)) for block in blocks]
    cutoff = np.sort(np.concatenate(found))[count - 1]
    for side, block in enumerate(blocks):
        if len(found[side]) < min(count, block.shape[1]) and not cutoff < found[side][-1]:
            found[side] = lowest(block, min(count, block.shape[1]))
    pooled = np.concatenate(found)
    order = np.argsort(pooled, kind="stable")[:count]
    values, sides = pooled[order], np.repeat([0, 1], [len(v) for v in found])[order]
    vectors = np.zeros((k, len(keep)))
    for side, (sign, block) in enumerate(zip((1.0, -1.0), blocks)):
        columns = np.flatnonzero(sides[keep] == side)
        if not columns.size:
            continue
        columns = columns[np.argsort(keep[columns])]
        u = _inverse_iteration(block, values[keep[columns]], norm)
        folded = u[:half] * math.sqrt(0.5)
        vectors[:half, columns] = folded
        vectors[k - half :, columns] = sign * folded[::-1]
        if block.shape[1] > half:
            vectors[half, columns] = u[half]
    return values, vectors


def diagonalize(
    operator: GridOperator, count: int, keep: npt.ArrayLike | None = None
) -> GridEigenSolution:
    """Lowest `count` eigenvalues of a mirror-symmetric grid operator, with eigenvectors.

    The eigenvectors are those of the eigenvalues at the positions `keep`, distinct
    and below `count`, in keep's order; by default every one of them.

    The operator is solved as its two mirror-parity blocks (see _mirror_blocks),
    each of about k/2 samples, which quarters the band reduction and halves every
    LU.  The eigenvalues come from the band reduction without its transformation,
    the eigenvectors from inverse iteration, both in units of the operator's largest
    entry rounded down to a power of two: ||A||inf itself overflows for entries near
    1e307, the squares summed inside a residual norm overflow for residuals near
    1e155, and a factorization of tiny entries would divide by subnormal pivots.
    Eigenvalues come back ascending with orthonormal eigenvectors on all k samples
    in the columns, validated against the full band by max|V^T V - I| <= 1e-8 and,
    pair by pair, by the residual bound ||A v - lambda v|| <= 1e-8 max(||A||inf, 1).

    Raises:
        ValueError: If `keep` names a position twice or one outside 0..count-1, or
            if the operator is not mirror-symmetric, that is if ||A - JAJ||inf, J
            the reversal of the samples, exceeds that same bound.
        EigensolverError: On LAPACK non-convergence or a failed validity check.
    """
    import scipy.linalg

    k = operator.band.shape[1]
    count = _as_index(count, "eigenpair count", 1)
    if count > k:
        raise ValueError(f"can retain at most {k} eigenpairs, got {count}")
    keep = np.arange(count) if keep is None else np.asarray(keep, dtype=np.intp)
    if keep.ndim != 1 or len(np.unique(keep)) < len(keep) or np.any((keep < 0) | (keep >= count)):
        raise ValueError(f"eigenvector positions must be distinct and below {count}")
    peak = float(np.abs(operator.band).max())
    # A power of two, so that scaling adds no rounding; the entries end up below 2.
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    band = operator.band / unit
    norm = float(_band_matvec(np.abs(band), np.ones((k, 1))).max())
    bound = RESIDUAL_TOLERANCE * max(norm, 1.0 / unit)
    # The blocks represent (A + JAJ)/2, whose eigenpairs leave residuals of at most
    # ||A - JAJ||/2 against A: refuse an operator whose skew part would show there.
    skew = band.copy()
    for d, row in enumerate(skew):
        row[: k - d] -= band[d, k - d - 1 :: -1]
    asymmetry = float(_band_matvec(np.abs(skew), np.ones((k, 1))).max())
    if not asymmetry <= bound:
        raise ValueError(
            f"grid operator is not mirror-symmetric: ||A - JAJ||inf {asymmetry * unit:.3e} "
            f"exceeds {RESIDUAL_TOLERANCE:.0e} * ||A||"
        )
    try:
        values, vectors = _parity_eigenpairs(band, count, max(norm, 1.0), keep)
    except scipy.linalg.LinAlgError as err:
        raise EigensolverError(
            f"eigensolver failed to converge on the {k}-point band operator: {err}"
        ) from err

    # Each test is written so that a NaN fails it, and passes with no vector kept.
    if not np.all(np.diff(values) >= 0):
        raise EigensolverError(f"eigensolver returned non-ascending eigenvalues for size {k}")
    norms = np.linalg.norm(vectors, axis=0)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE):
        raise EigensolverError(f"eigenvector norms off unity beyond {NORM_TOLERANCE} for size {k}")
    overlap = float(np.max(np.abs(vectors.T @ vectors - np.eye(len(keep))), initial=0.0))
    if not overlap <= ORTHOGONALITY_TOLERANCE:
        raise EigensolverError(
            f"eigenvectors off orthonormal by {overlap:.3e} beyond "
            f"{ORTHOGONALITY_TOLERANCE:.0e} for size {k}"
        )
    residuals = _band_matvec(band, vectors) - vectors * values[keep]
    worst = float(np.max(np.linalg.norm(residuals, axis=0), initial=0.0))
    if not worst <= bound:
        raise EigensolverError(
            f"eigenpair residual {worst * unit:.3e} exceeds {RESIDUAL_TOLERANCE:.0e} * ||A|| "
            f"for size {k}"
        )
    return GridEigenSolution(values * unit, vectors)


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


def _rises_from(dense: tuple[Fraction, ...], point: float) -> bool:
    """Whether every coefficient of the Taylor shift P'(point + x) is >= 0.

    `dense` holds a_1..a_d of P.  By Descartes' rule of signs P' then has no root
    above `point`, so P, with a positive leading coefficient, increases on
    [point, inf) (Collins and Akritas, SYMSAC 1976).  The shift runs in integers:
    with point = n / q and L the common denominator of the a_j,
    L q^(d-1) P'((n + y) / q) = sum_i (i + 1) a_{i+1} L q^(d-1-i) (n + y)^i has
    integer coefficients in y, of the signs of P'(point + x)'s.
    """
    n, q = float(point).as_integer_ratio()
    top = len(dense) - 1
    common = math.lcm(*(a.denominator for a in dense))
    shifted = [(i + 1) * (a * common).numerator * q ** (top - i) for i, a in enumerate(dense)]
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            shifted[j] += n * shifted[j + 1]
    return min(shifted) >= 0


def verify_dialled(
    ham: PolynomialHamiltonian,
    spec: GridSpec | None = None,
    levels_to_check: int = 9,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """Cross-check a polynomial Hamiltonian's spectrum and node ordering on a grid.

    The grid side reads only P's coefficients.  It diagonalises the oscillator grid A
    for its lowest M = min(count + 2, k) modes, maps each eigenvalue mu through P by
    float Horner (matrix_polynomial on the width-0 band of the mu), and keeps the
    `count` lowest mapped values, ties to the lower mode, with the node counts of
    their eigenvectors.  With a positive leading coefficient M grows by half, up to
    k, until P(mu_{M-1}) lies strictly above the kept values and every coefficient of
    the exact Taylor shift P'(mu_{M-1} + x) is >= 0: by Descartes' rule of signs P
    then increases on [mu_{M-1}, inf), so no higher mode maps below the kept ones.
    A grown M is diagonalised for its eigenvalues alone, and then for the
    eigenvectors of the kept modes only.

    Each kept mode is an eigenvector of A, whose eigenvalues are all simple, so its
    node count n names its level and its mapped value is compared with the exact
    P(n + 1/2).  The report passes if P is bounded below, the node counts are a
    permutation of 0..count-1 and every check passes; disagreement produces a failure
    report, not an exception.  Each check is relative, so scaling P by a power of two,
    which scales each mapped value exactly, changes no verdict: an eigenvalue passes
    within `tolerance` of its exact energy, relatively; where that energy is 0.0 in
    float64, its absolute error must stay within `tolerance` times the smallest nonzero
    |energy| among the checked levels (0 if none is).  The node order needs no rule of
    its own: the mapped values ascend, so the exact energies taken in node order fall
    by no more than the checks allow, and an exact tie may come in either order.
    `sequence_matches` (the node counts are the exact ascending permutation) and
    `degenerate` (two adjacent sorted exact energies a <= b lie within
    b - a <= DEGENERACY_FACTOR * tolerance * max(|a|, |b|)) are for information only.

    A negative leading coefficient makes P unbounded below on the levels, so the
    checked levels are not the lowest ones and a grid cannot confirm them: such a
    report fails and its warning says why; its grid side maps the first M modes
    only, and its levels may all agree.

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
    operator = build_oscillator_grid(spec)
    dense = ham.dense_coefficients()
    rising = bool(dense) and dense[-1] > 0
    modes = min(count + 2, spec.points)
    keep = None  # every vector of the first few modes; none of a grown M until it stops
    while True:  # A's lowest modes mapped through P; more while a higher one may map lower
        solution = diagonalize(operator, modes, keep)
        mu = solution.eigenvalues
        mapped = matrix_polynomial(GridOperator(mu[None, :]), ham).band[0]
        kept = np.argsort(mapped, kind="stable")[:count]
        if not rising or modes == spec.points or (
            mapped[-1] > mapped[kept[-1]] and _rises_from(dense, mu[-1])
        ):
            break
        modes, keep = min(modes + modes // 2, spec.points), ()
    vectors = solution.eigenvectors[:, kept] if keep is None else (
        diagonalize(operator, modes, kept).eigenvectors)
    node_sequence = tuple([count_nodes(vector) for vector in vectors.T])

    records = evaluate_spectrum(ham, max(count, max(node_sequence) + 1))
    permutation = ordering_report(records[:count]).ascending_permutation
    sorted_exact = [records[level].energy for level in permutation]
    closeness = Fraction(DEGENERACY_FACTOR * tolerance)  # exact, so that nothing overflows
    degenerate = any(b - a <= closeness * max(abs(a), abs(b))
                     for a, b in zip(sorted_exact, sorted_exact[1:]))
    exact = [records[level].energy for level in node_sequence]
    exact_floats = [float(e) for e in exact]
    zero_floor = tolerance * min((abs(e) for e in exact_floats if e != 0.0), default=0.0)
    checks = []
    for grid_value, energy, exact_float in zip(mapped[kept].tolist(), exact, exact_floats):
        abs_error = abs(grid_value - exact_float)
        if exact_float == 0.0:
            rel_error = None
            within = abs_error <= zero_floor
        else:
            rel_error = abs_error / abs(exact_float)
            within = rel_error <= tolerance
        checks.append(LevelCheck(grid_value, energy, abs_error, rel_error, within))

    leading = ham.coefficient(ham.degree)
    unbounded = (
        f"P is unbounded below (leading coefficient {leading} < 0), so levels 0..{count - 1} "
        "are not its lowest"
        if leading < 0
        else None
    )
    passed = (
        unbounded is None
        and all(c.within_tolerance for c in checks)
        and sorted(node_sequence) == list(range(count))
    )
    return VerificationReport(
        spec=spec,
        tolerance=tolerance,
        checks=tuple(checks),
        expected_sequence=permutation,
        node_sequence=node_sequence,
        sequence_matches=node_sequence == permutation,
        degenerate=degenerate,
        warning=unbounded,
        passed=passed,
    )
