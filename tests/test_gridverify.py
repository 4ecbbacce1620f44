import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from polyosc import gridverify
from polyosc.exactalg import PolynomialHamiltonian, SpectrumTarget, dial
from polyosc.gridverify import (
    EigensolverError,
    GridOperator,
    GridSpec,
    build_oscillator_grid,
    count_nodes,
    diagonalize,
    matrix_polynomial,
    verify_dialled,
)
from polyosc.spectrum import evaluate_polynomial

QUADRATIC = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])
IDENTITY = PolynomialHamiltonian.from_dense([Fraction(1)])

EPS = np.finfo(np.float64).eps


def dense(op):
    """The full k x k matrix of a grid operator or lower band, rebuilt from the band."""
    band = op.band if isinstance(op, GridOperator) else op
    k = band.shape[1]
    matrix = np.diag(band[0])
    for d in range(1, band.shape[0]):
        matrix += np.diag(band[d, : k - d], -d) + np.diag(band[d, : k - d], d)
    return matrix


# -------------------------------------------------------------------- GridSpec

def test_grid_spec_geometry():
    spec = GridSpec(half_width=10.0, points=1001)
    assert spec.spacing == pytest.approx(0.02, rel=0, abs=0)
    xs = spec.positions()
    assert xs[0] == -10.0 and xs[-1] == 10.0
    assert len(xs) == 1001
    assert np.diff(xs) == pytest.approx(np.full(1000, 0.02), rel=1e-12)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0, points=11)
    with pytest.raises(ValueError):
        GridSpec(half_width=5.0, points=2)
    with pytest.raises(ValueError):
        GridSpec(half_width=math.inf, points=11)


NOT_REAL = [True, False, "10", None, 1j, np.bool_(True)]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_grid_float_arguments_refuse_bools_and_non_reals(value):
    # a bool is not read as 1.0 or 0.0, and a string or None is named, not handed to
    # numpy's isfinite
    with pytest.raises(ValueError) as err:
        GridSpec(half_width=value, points=11)
    assert str(err.value) == f"half width {value!r} must be a real number"
    with pytest.raises(ValueError) as err:
        verify_dialled(IDENTITY, GridSpec(half_width=2.0, points=11), tolerance=value)
    assert str(err.value) == f"tolerance {value!r} must be a real number"


@pytest.mark.parametrize("value", [Fraction(1, 3), 3, np.float32(0.25), np.float64(0.5)],
                         ids=repr)
def test_grid_float_arguments_store_any_real_as_float(value):
    spec = GridSpec(half_width=value, points=11)
    assert type(spec.half_width) is float and spec.half_width == float(value)
    assert spec.spacing == 2.0 * float(value) / 10
    report = verify_dialled(IDENTITY, GridSpec(half_width=2.0, points=11), tolerance=value)
    assert type(report.tolerance) is float and report.tolerance == float(value)


@pytest.mark.parametrize(
    ("value", "message"),
    [(math.nan, "half width must be positive and finite, got nan"),
     (-math.inf, "half width must be positive and finite, got -inf"),
     (0, "half width must be positive and finite, got 0.0")],
)
def test_grid_half_width_range_messages(value, message):
    with pytest.raises(ValueError) as err:
        GridSpec(half_width=value, points=11)
    assert str(err.value) == message


def test_grid_size_limit_is_pinned():
    # the limit bounds band-reduction time, O(k^2 w); building the operator at the
    # limit allocates only its three diagonals
    assert gridverify.MAX_GRID_POINTS == 6688
    assert build_oscillator_grid(GridSpec(half_width=10.0, points=6688)).band.shape == (3, 6688)
    with pytest.raises(ValueError, match="exceed the grid limit of 6688"):
        build_oscillator_grid(GridSpec(half_width=10.0, points=6689))


# -------------------------------------------------------------- grid operator

def test_oscillator_grid_diagonal_entries():
    spec = GridSpec(half_width=10.0, points=1001)
    op = dense(build_oscillator_grid(spec))
    dx = spec.spacing
    # kinetic center of the five-point stencil plus the potential x^2/2
    assert op[500, 500] == pytest.approx(1.25 / dx**2, rel=1e-15)  # x = 0
    assert op[0, 0] == pytest.approx(1.25 / dx**2 + 50.0, rel=1e-15)  # x = -10
    assert op[500, 501] == pytest.approx(-16.0 / (24.0 * dx**2), rel=1e-15)
    assert op[500, 502] == pytest.approx(1.0 / (24.0 * dx**2), rel=1e-15)
    assert op[500, 503] == 0.0


@pytest.mark.parametrize("points", [3, 4, 5, 11, 51, 401])
def test_oscillator_grid_equals_its_banded_sum(points):
    # reference: the operator as the sum of its five diagonals
    spec = GridSpec(half_width=10.0, points=points)
    dx, x = spec.spacing, spec.positions()
    c = 1.0 / (24.0 * dx * dx)
    expected = np.diag(30.0 * c + 0.5 * x * x)
    for offset, value in ((1, -16.0 * c), (2, c)):
        band = np.full(points - offset, value)
        expected = expected + np.diag(band, offset) + np.diag(band, -offset)
    assert np.array_equal(dense(build_oscillator_grid(spec)), expected)


def test_oscillator_grid_is_exactly_symmetric():
    op = dense(build_oscillator_grid(GridSpec(half_width=6.0, points=301)))
    assert np.array_equal(op, op.T)


def test_grid_operator_rejects_asymmetry():
    # The operator holds only its lower band, so the one way to state an entry with
    # no mirror image is a value outside the matrix: this array read as a band puts
    # a 1 at (4, 2).  A band of the wrong shape is refused too.
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="outside the matrix"):
        GridOperator(bad)
    with pytest.raises(ValueError, match="band shape"):
        GridOperator(np.ones((4, 3)))


def test_grid_eigenvalues_match_oscillator_ladder():
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    sol = diagonalize(op, 9)
    for n in range(9):
        assert sol.eigenvalues[n] == pytest.approx(n + 0.5, abs=2e-6)


# ---------------------------------------------------------- matrix polynomial

def test_matrix_polynomial_identity_returns_operator():
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=101))
    poly = matrix_polynomial(op, IDENTITY)
    assert np.array_equal(dense(poly), dense(op))


def test_matrix_polynomial_zero():
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=51))
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    assert np.array_equal(dense(matrix_polynomial(op, zero)), np.zeros((51, 51)))


def test_matrix_polynomial_ignores_stored_zeros_above_the_degree():
    # The band of P(A) has half width 2 deg P however P was stored.
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=41))
    padded = PolynomialHamiltonian.from_dense([Fraction(-13, 2), 1, 0, 0])
    band = matrix_polynomial(op, padded).band
    assert band.shape == (5, 41)
    assert np.array_equal(band, matrix_polynomial(op, QUADRATIC).band)


def _exact_product(x, y):
    k = len(x)
    return [[sum(x[i][m] * y[m][j] for m in range(k) if x[i][m] and y[m][j]) for j in range(k)]
            for i in range(k)]


# The 21-point cases keep their degree alone as id.  On 3, 5 and 7 points the band
# of P(A) is clipped at k - 1 for some degrees, where every probe is a unit column.
@pytest.mark.parametrize(
    ("degree", "points"),
    [pytest.param(degree, 21, id=str(degree)) for degree in range(6)]
    + [pytest.param(degree, points, id=f"{degree}-{points}pts")
       for points in (3, 5, 7) for degree in range(6)],
)
def test_matrix_polynomial_equals_identity_matrix_horner(degree, points):
    # Reference: P(A) = sum_j a_j A^j in exact rationals, from the float64 entries of
    # A and the float64 coefficients the band route uses.  The route rounds once per
    # diagonal addition and sums at most 5 products per entry in each Horner step,
    # so by the standard Horner induction (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, ch. 5) every entry lies within
    # gamma_{6d} sum_j |a_j| (|A|^j) of the exact value, gamma_n = n u / (1 - n u).
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    ham = PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)])
    got = dense(matrix_polynomial(op, ham))
    a = [[Fraction(v) for v in row] for row in dense(op)]
    a_abs = [[abs(v) for v in row] for row in a]
    k = len(a)
    exact = [[Fraction(0)] * k for _ in range(k)]
    bound = [[Fraction(0)] * k for _ in range(k)]
    power, power_abs = a, a_abs
    for c in (Fraction(float(c)) for c in coeffs):
        exact = [[e + c * p for e, p in zip(er, pr)] for er, pr in zip(exact, power)]
        bound = [[b + abs(c) * p for b, p in zip(br, pr)] for br, pr in zip(bound, power_abs)]
        power, power_abs = _exact_product(power, a), _exact_product(power_abs, a_abs)
    n_u = Fraction(6 * degree, 2**53)
    gamma = n_u / (1 - n_u)
    for i in range(k):
        for j in range(k):
            assert abs(Fraction(got[i, j]) - exact[i][j]) <= gamma * bound[i][j], (i, j)


def test_matrix_polynomial_trace_identity():
    # tr P(A) must equal sum of P over the eigenvalues of A
    op = build_oscillator_grid(GridSpec(half_width=5.0, points=201))
    poly = matrix_polynomial(op, QUADRATIC)
    lam = scipy.linalg.eigvalsh(dense(op))
    expected = np.sum(lam**2 - 6.5 * lam)
    assert np.trace(dense(poly)) == pytest.approx(expected, rel=1e-12)


def _mapping_check(ham, tail_scale):
    """Full-spectrum spectral-mapping comparison on the default grid.

    tail_scale multiplies the machine-precision floor 8 u ||B||_2, which is what
    float matrix products leave behind once P amplifies the operator norm.
    """
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    poly = matrix_polynomial(op, ham)
    lam_a = scipy.linalg.eigvalsh(dense(op))
    lam_b = scipy.linalg.eigvalsh(dense(poly))
    coeffs = [float(c) for c in ham.dense_coefficients()]
    mapped = np.zeros_like(lam_a)
    for c in reversed(coeffs):
        mapped = mapped * lam_a + c
    mapped *= lam_a
    mapped.sort()
    floor = tail_scale * EPS * np.max(np.abs(lam_b))
    for got, want in zip(lam_b, mapped):
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)) + floor


def test_spectral_mapping_quadratic():
    _mapping_check(QUADRATIC, tail_scale=8.0)


def test_spectral_mapping_cubic():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    _mapping_check(ham, tail_scale=8.0)


def test_spectral_mapping_quartic_at_coefficient_cap():
    ham = PolynomialHamiltonian.from_dense([Fraction(10)] * 4)
    _mapping_check(ham, tail_scale=8.0)


# ---------------------------------------------------------------- diagonalize

def test_diagonalize_orders_and_normalizes():
    op = build_oscillator_grid(GridSpec(half_width=8.0, points=401))
    sol = diagonalize(op, 6)
    assert np.all(np.diff(sol.eigenvalues) > 0)
    for k in range(6):
        vec = sol.eigenvectors[:, k]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        residual = dense(op) @ vec - sol.eigenvalues[k] * vec
        assert np.linalg.norm(residual, np.inf) <= 1e-8 * np.linalg.norm(dense(op), np.inf)


def test_diagonalize_count_validation():
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=11))
    with pytest.raises(ValueError):
        diagonalize(op, 0)
    with pytest.raises(ValueError):
        diagonalize(op, 12)


def test_diagonalize_wraps_lapack_failure(monkeypatch):
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=11))

    def boom(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", boom)
    with pytest.raises(EigensolverError, match="converge"):
        diagonalize(op, 3)


@pytest.mark.parametrize("half_width", [2.0, 1e-150, 2.9853826189179203e-153])
def test_diagonalize_rejects_a_perturbed_eigenvector(monkeypatch, half_width):
    # Eigenvectors 0 and 1 rotated 1e-3 within their plane stay orthonormal but have
    # residuals ~1e-3 (lambda_1 - lambda_0); the check must see them at any scale,
    # also where ||A|| is ~2e303 and its square overflows, and where ||A||inf itself
    # overflows while every entry is finite.
    op = build_oscillator_grid(GridSpec(half_width=half_width, points=51))
    parity_eigenpairs = gridverify._parity_eigenpairs

    def rotated(*args, **kwargs):
        values, vectors = parity_eigenpairs(*args, **kwargs)
        c, s = math.cos(1e-3), math.sin(1e-3)
        v0, v1 = vectors[:, 0].copy(), vectors[:, 1].copy()
        vectors[:, 0], vectors[:, 1] = c * v0 + s * v1, c * v1 - s * v0
        return values, vectors

    monkeypatch.setattr(gridverify, "_parity_eigenpairs", rotated)
    with pytest.raises(EigensolverError, match="eigenpair residual"):
        diagonalize(op, 3)


def test_diagonalize_scales_without_rounding(monkeypatch):
    # the band folded into the mirror blocks is P(A) divided by a power of two,
    # exactly: scaling by the largest entry itself would add a rounding to every entry
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=51))
    poly = matrix_polynomial(op, PolynomialHamiltonian.from_dense([Fraction(1, 3)] * 3))
    mirror_blocks = gridverify._mirror_blocks
    seen = []

    def spy(band, *args, **kwargs):
        seen.append(band.copy())
        return mirror_blocks(band, *args, **kwargs)

    monkeypatch.setattr(gridverify, "_mirror_blocks", spy)
    diagonalize(poly, 3)
    (scaled,) = seen
    ratio = np.abs(poly.band).max() / np.abs(scaled).max()
    assert math.frexp(ratio)[0] == 0.5  # a power of two
    assert np.array_equal(scaled * ratio, poly.band)


def test_diagonalize_rejects_a_repeated_eigenvector(monkeypatch):
    # unit norms and small residuals, but not an orthonormal set
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=51))
    parity_eigenpairs = gridverify._parity_eigenpairs

    def repeated(*args, **kwargs):
        values, vectors = parity_eigenpairs(*args, **kwargs)
        vectors[:, 1] = vectors[:, 0]
        return values, vectors

    monkeypatch.setattr(gridverify, "_parity_eigenpairs", repeated)
    with pytest.raises(EigensolverError, match="orthonormal"):
        diagonalize(op, 3)


def test_diagonalize_computes_the_eigenvectors_asked_for():
    # the kept positions, in the order given, are the same eigenvectors up to sign;
    # the eigenvalues do not depend on which vectors are kept
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=401))
    full = diagonalize(op, 12)
    some = diagonalize(op, 12, [11, 3, 4])
    assert np.array_equal(some.eigenvalues, full.eigenvalues)
    overlaps = np.abs(some.eigenvectors.T @ full.eigenvectors[:, [11, 3, 4]])
    assert np.max(np.abs(overlaps - np.eye(3))) <= 1e-10
    assert diagonalize(op, 12, []).eigenvectors.shape == (401, 0)
    for keep in ([1, 1], [12], [-1], [[0]]):
        with pytest.raises(ValueError, match="distinct and below 12"):
            diagonalize(op, 12, keep)


@pytest.mark.parametrize("points", [51, 52, 200, 201, 401])
@pytest.mark.parametrize("degree", range(6))
def test_diagonalize_agrees_with_dense_eigh(degree, points):
    # control: the dense symmetric eigensolver on the rebuilt matrix; degrees 1 and 2
    # have a negative leading coefficient, so their lowest modes are the exactly
    # degenerate wall pairs, one mirror-even and one mirror-odd; even point counts
    # have no centre sample
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    poly = matrix_polynomial(op, PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)]))
    matrix = dense(poly)
    expected = scipy.linalg.eigh(matrix, eigvals_only=True, subset_by_index=[0, 8])
    got = diagonalize(poly, 9).eigenvalues
    norm = np.linalg.norm(matrix, np.inf)
    assert np.max(np.abs(got - expected)) <= 1e-12 * norm


def _mirror_basis(points):
    """Columns (e_i +- e_{k-1-i})/sqrt(2), i < k // 2, and e_c for odd k: even, odd."""
    half = points // 2
    even, odd = np.zeros((points, points - half)), np.zeros((points, half))
    for i in range(half):
        even[i, i] = even[points - 1 - i, i] = odd[i, i] = math.sqrt(0.5)
        odd[points - 1 - i, i] = -math.sqrt(0.5)
    if points % 2:
        even[half, half] = 1.0
    return even, odd


def _parities(vectors):
    """Per column: 1 if mirror-even, -1 if mirror-odd, bit for bit, else 0."""
    return [1 if np.array_equal(v[::-1], v) else -1 if np.array_equal(v[::-1], -v) else 0
            for v in vectors.T]


@pytest.mark.parametrize("points", [3, 4, 5, 6, 11, 12, 52, 53])
@pytest.mark.parametrize("degree", range(6))
def test_mirror_blocks_are_the_compressions_onto_each_parity(degree, points):
    # reference: Q^T M Q on the dense matrix for the orthonormal even and odd bases;
    # the folded band rounds once per cross term and once per sqrt(1/2) scaling
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    poly = matrix_polynomial(op, PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)]))
    matrix = dense(poly)
    for basis, block in zip(_mirror_basis(points), gridverify._mirror_blocks(poly.band)):
        expected = basis.T @ matrix @ basis
        assert np.max(np.abs(dense(block) - expected)) <= 4 * EPS * np.abs(matrix).max()


@pytest.mark.parametrize(
    ("points", "coeffs"),
    [pytest.param(points, coeffs, id=f"{points}-{'/'.join(coeffs)}")
     for points in (3, 4) for coeffs in (["1"], ["-13/2", "1"], ["1", "0", "-1"])]
    + [pytest.param(51, ["0"], id="51-zero"), pytest.param(401, ["1"], id="401-1")],
)
def test_diagonalize_returns_every_eigenpair(points, coeffs):
    # count = k takes every eigenpair of both blocks; the zero polynomial makes every
    # shift exactly singular, so each block must still give an orthonormal basis; at
    # 401 points A's gaps exceed CLUSTER_GAP ||A|| high in its spectrum, so inverse
    # iteration runs there without orthogonalising across them
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=points))
    poly = matrix_polynomial(op, PolynomialHamiltonian.from_dense([Fraction(c) for c in coeffs]))
    sol = diagonalize(poly, points)
    expected = scipy.linalg.eigvalsh(dense(poly))
    assert np.max(np.abs(sol.eigenvalues - expected)) <= 1e-13 * max(np.abs(expected).max(), 1)
    vectors = sol.eigenvectors
    assert np.max(np.abs(vectors.T @ vectors - np.eye(points))) <= 1e-12
    parities = _parities(vectors)
    assert parities.count(1) == points - points // 2 and parities.count(-1) == points // 2


@pytest.mark.parametrize("points", [4, 5, 51])
def test_diagonalize_breaks_ties_to_the_even_block(points):
    # the zero band: every eigenvalue of both blocks is 0, and the even block's
    # eigenvectors come first, in both the full set and a lowest few
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=points))
    zero = matrix_polynomial(op, PolynomialHamiltonian.from_dense([Fraction(0)]))
    even = points - points // 2
    for count in (points, even - 1):
        sol = diagonalize(zero, count)
        assert np.array_equal(sol.eigenvalues, np.zeros(count))
        assert _parities(sol.eigenvectors) == [1] * min(count, even) + [-1] * (count - even)


def _with_roots(roots):
    """Dense coefficients, from power 1, of h * prod (h - r) over the roots."""
    poly = [Fraction(0), Fraction(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([Fraction(0), *poly], [*poly, Fraction(0)])]
    return poly[1:]


# h (h - h_0)^2 (h - h_2)^2 (h - h_4)^2: its lowest three levels are all mirror-even
EVEN_ZEROS = _with_roots([Fraction(1, 2), Fraction(5, 2), Fraction(9, 2)] * 2)


@pytest.mark.parametrize(
    ("coeffs", "asked"),
    [(["1"], [3, 3]), (["-1"], [3, 3]), (["0"], [3, 3, 4, 4]), (EVEN_ZEROS, [3, 3, 4])],
    ids=["h", "minus-h", "zero", "even-zeros"],
)
def test_parity_blocks_ask_again_only_when_a_block_may_hold_more(monkeypatch, coeffs, asked):
    # each block is first asked for ceil(4/2) + 1 = 3 values; a block whose third
    # value is not strictly above the pooled fourth lowest is asked again for 4.  The
    # zero band ties everywhere, and EVEN_ZEROS puts levels 0, 2, 4 and then level 1
    # lowest, three of the four in the even block.  Reference: each block asked for 4
    # values, pooled by a stable sort, even block first, as before the asks shrank.
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=51))
    poly = matrix_polynomial(op, PolynomialHamiltonian.from_dense(
        [Fraction(c) for c in coeffs]))
    eigvals_banded = scipy.linalg.eigvals_banded
    seen = []

    def spy(block, **kwargs):
        seen.append(kwargs["select_range"][1] + 1)
        return eigvals_banded(block, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", spy)
    sol = diagonalize(poly, 4)
    assert seen == asked
    full = [eigvals_banded(block, lower=True, select="i", select_range=(0, 3))
            for block in gridverify._mirror_blocks(poly.band)]
    pooled = np.concatenate(full)
    order = np.argsort(pooled, kind="stable")[:4]
    norm = np.linalg.norm(dense(poly), np.inf)
    assert np.max(np.abs(sol.eigenvalues - pooled[order])) <= 1e-13 * norm
    assert _parities(sol.eigenvectors) == [1 if i < 4 else -1 for i in order]


def test_diagonalize_resolves_the_wall_pairs_of_minus_h():
    # P = -h: the lowest modes of P(A) are wall modes in left/right pairs whose
    # eigenvalues coincide, one mirror-even and one mirror-odd; the second of each
    # pair must come out orthogonal to the first, or diagonalize would raise
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=401))
    sol = diagonalize(matrix_polynomial(op, PolynomialHamiltonian.from_dense([-1])), 9)
    values = sol.eigenvalues
    assert values[0] == pytest.approx(values[1], rel=1e-14, abs=0)
    assert sorted(_parities(sol.eigenvectors[:, :2])) == [-1, 1]
    assert np.max(np.abs(sol.eigenvectors.T @ sol.eigenvectors - np.eye(9))) <= 1e-8


@pytest.mark.parametrize("points", [400, 401])
def test_oscillator_node_counts_at_odd_and_even_grids(points):
    report = verify_dialled(IDENTITY, GridSpec(half_width=10.0, points=points))
    assert report.node_sequence == tuple(range(9))
    assert report.passed


@pytest.mark.parametrize(("relative", "refused"), [(1e-10, False), (1e-6, True)])
def test_diagonalize_refuses_an_operator_that_is_not_mirror_symmetric(relative, refused):
    # one end-diagonal entry moved: the mirror blocks would answer for the symmetric
    # part only, so a skew part beyond the residual bound is refused, not answered
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=101))
    band = op.band.copy()
    band[0, 0] *= 1.0 + relative
    skewed = GridOperator(band)
    if refused:
        with pytest.raises(ValueError, match="grid operator is not mirror-symmetric"):
            diagonalize(skewed, 3)
    else:
        assert diagonalize(skewed, 3).eigenvalues[0] == pytest.approx(0.5, abs=1e-3)


# ----------------------------------------------------------------- node count

def test_count_nodes_basic():
    assert count_nodes(np.array([1.0, -1.0])) == 1
    assert count_nodes(np.array([1.0, 2.0, 3.0])) == 0
    assert count_nodes(np.array([1.0, -2.0, 3.0, -4.0])) == 3


def test_count_nodes_ignores_numerical_dust():
    # a near-zero sample between two true sign changes is not its own crossing
    assert count_nodes(np.array([1.0, 1e-12, -1.0])) == 1
    assert count_nodes(np.array([1.0, -1e-12, 1.0])) == 0


def test_count_nodes_threshold_is_relative():
    assert count_nodes(np.array([1e-300, -1e-300])) == 1


def test_count_nodes_oscillator_states():
    xs = np.linspace(-10.0, 10.0, 4001)
    from polyosc.oscillator import eigenfunction_samples

    for n in (0, 1, 5, 12, 20):
        assert count_nodes(eigenfunction_samples(n, xs)) == n


def test_count_nodes_validation():
    with pytest.raises(ValueError):
        count_nodes(np.zeros(5))
    with pytest.raises(ValueError):
        count_nodes(np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        count_nodes(np.array([[1.0, -1.0]]))


# -------------------------------------------------------------- verify_dialled

def test_verify_quadratic_defaults():
    report = verify_dialled(QUADRATIC)
    assert report.passed
    assert report.node_sequence == (3, 2, 4, 1, 5, 0, 6, 7, 8)
    assert report.expected_sequence == (3, 2, 4, 1, 5, 0, 6, 7, 8)
    assert report.sequence_matches
    assert not report.degenerate
    assert report.warning is None
    assert len(report.checks) == 9
    for check in report.checks:
        assert check.within_tolerance
        if check.analytic_energy != 0:
            assert check.rel_error is not None and check.rel_error <= 1e-3
        else:
            assert check.abs_error <= 1e-3


def test_verify_quadratic_eigenvalues_close():
    report = verify_dialled(QUADRATIC)
    by_level = dict(zip(report.node_sequence, report.checks))
    for level, energy in ((3, -10.5), (6, 0.0), (8, 17.0)):
        assert by_level[level].grid_eigenvalue == pytest.approx(energy, abs=2e-5)


def test_verify_identity_oscillator():
    report = verify_dialled(IDENTITY, levels_to_check=5)
    assert report.passed
    assert report.node_sequence == (0, 1, 2, 3, 4)
    for n, check in enumerate(report.checks):
        assert check.analytic_energy == Fraction(2 * n + 1, 2)
        assert check.abs_error < 1e-5


def test_verify_identity_dial_is_the_identity_report():
    # dial stores powers 1..9 with a_2..a_9 = 0; the grid check sees P = h alone.
    dialled = dial(SpectrumTarget.from_energies([Fraction(2 * n + 1, 2) for n in range(9)]))
    assert len(dialled.terms) == 9
    assert verify_dialled(dialled) == verify_dialled(IDENTITY)


def test_verify_cubic_reordering():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    report = verify_dialled(ham)
    assert report.passed
    assert report.node_sequence[:3] == (1, 0, 2)
    assert report.warning is None
    assert max(c.abs_error for c in report.checks) < 1e-3


def test_verify_degenerate_pair_passes():
    ham = dial(SpectrumTarget.from_energies([Fraction(1), Fraction(1), Fraction(5)]))
    assert ham.dense_coefficients() == (Fraction(11, 3), Fraction(-4), Fraction(4, 3))
    report = verify_dialled(ham)
    assert report.degenerate
    assert report.passed


def test_verify_verdict_does_not_depend_on_the_scale_of_p():
    # Scaling P by 2^m scales every grid eigenvalue and exact energy exactly, so only
    # absolute errors may change.  With absolute thresholds, level 6's exact zero
    # failed at 2^10 (error 4.2e-3) and every gap was degenerate at 2^-10.
    def outcome(m):
        scale = Fraction(2) ** m
        ham = PolynomialHamiltonian.from_dense([a * scale for a in QUADRATIC.dense_coefficients()])
        report = verify_dialled(ham)
        return (report.degenerate, report.sequence_matches, report.passed,
                [(c.within_tolerance, c.rel_error) for c in report.checks])

    assert outcome(-10) == outcome(0) == outcome(10)
    degenerate, matches, passed, rows = outcome(0)
    assert (degenerate, matches, passed) == (False, True, True)
    assert rows[6] == (True, None)  # level 6, E = 0


@pytest.mark.parametrize(
    ("ham", "swap", "gap"),
    [(dial(SpectrumTarget.from_energies([Fraction(1), Fraction(201, 200), Fraction(5)])),
      (0, 1), 5e-3),
     (PolynomialHamiltonian.from_dense([-8, 1]), (7, 8), 8.0)],
    ids=["near-tie", "exact-pairs"],
)
def test_verify_checks_the_node_count_of_every_level(monkeypatch, ham, swap, gap):
    # dial(1, 201/200, 5) puts levels 0 and 1 5e-3 apart, a degenerate gap; h^2 - 8h
    # pairs levels n and 7 - n exactly and leaves level 8 alone at the top.  Every
    # eigenvalue of A is simple, so every mode is matched to the level of its node
    # count: with two counts swapped, each of the two modes meets the other level's
    # energy, off by their gap, and the report fails
    report = verify_dialled(ham)
    assert report.degenerate and report.passed
    count = gridverify.count_nodes
    a, b = swap
    monkeypatch.setattr(gridverify, "count_nodes", lambda v: {a: b, b: a}.get(count(v), count(v)))
    report = verify_dialled(ham)
    failed = {n: c.abs_error for n, c in zip(report.node_sequence, report.checks)
              if not c.within_tolerance}
    assert failed == {a: pytest.approx(gap, rel=1e-3), b: pytest.approx(gap, rel=1e-3)}
    assert not report.passed


def test_verify_zero_polynomial_trivially_degenerate():
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    report = verify_dialled(zero, GridSpec(half_width=6.0, points=201), levels_to_check=4)
    assert report.degenerate
    assert report.passed
    for check in report.checks:
        assert check.analytic_energy == 0


def test_verify_unbounded_below_fails_with_its_reason():
    # leading coefficient -17/8190: on 401 points the grid's spectrum stops before P
    # turns down, so its lowest modes do match levels 0..8, but those are not the
    # lowest levels of P and the report must not pass
    energies = [Fraction(41, 13), Fraction(-37, 6), Fraction(-11), Fraction(19)]
    ham = dial(SpectrumTarget.from_energies(energies))
    report = verify_dialled(ham, GridSpec(half_width=10.0, points=401))
    assert all(c.within_tolerance for c in report.checks) and report.sequence_matches
    assert not report.passed
    assert report.warning == (
        "P is unbounded below (leading coefficient -17/8190 < 0), so levels 0..8 "
        "are not its lowest"
    )


# dialled from -10, -11, -10/3, -57/13: bounded below, with its lowest levels near
# n = 18, so the verifier needs 24 of A's modes before P rises past the kept ones
FAR_QUARTIC = dial(SpectrumTarget.from_energies(
    [Fraction(-10), Fraction(-11), Fraction(-10, 3), Fraction(-57, 13)]))
# h^2 (h - 25)(h - 30) rises through levels 0..10 and then falls to its minimum near
# h = 27.7: the first 11 modes map in order, and only the sign rule on P' sees past
# them, at M = 36
HUMP = PolynomialHamiltonian.from_dense([0, 750, -55, 1])
# h^2 - 96/5 h is lowest at h = 9.6: beyond mode 10 it rises, but modes 11..13 still
# map below the lowest nine of the first 11, so M grows to 16
VALLEY = PolynomialHamiltonian.from_dense([Fraction(-96, 5), 1])


def _diagonalize_counts(monkeypatch):
    """The `count` of every diagonalize call verify_dialled makes, in order."""
    diagonalize_ = gridverify.diagonalize
    sizes = []
    monkeypatch.setattr(gridverify, "diagonalize", lambda op, count, keep: (
        sizes.append(count) or diagonalize_(op, count, keep)))
    return sizes


@pytest.mark.parametrize("points", [401, 1001])
@pytest.mark.parametrize(
    ("ham", "counts"),
    [(FAR_QUARTIC, [11, 16, 24, 24]), (HUMP, [11, 16, 24, 36, 36]), (VALLEY, [11, 16, 16]),
     (PolynomialHamiltonian.from_dense([3, 1, 4, 1, 5]), [11]), (QUADRATIC, [11]),
     (PolynomialHamiltonian.from_dense([-1]), [11]),
     (PolynomialHamiltonian.from_dense([0]), [11])],
    ids=["far-quartic", "hump", "valley", "quintic", "quadratic", "minus-h", "zero"],
)
def test_verify_keeps_the_lowest_of_p_over_the_whole_grid_spectrum(
    monkeypatch, ham, counts, points
):
    # Reference: every eigenvalue of A from one eigvals_banded call on the full band,
    # no mirror split, mapped through P by float Horner.  The verifier must keep the
    # nine lowest, as values and as modes, whose node count is their index.  P with a
    # leading coefficient <= 0 has no lowest; the verifier maps A's first 11 modes.
    # `counts` are the diagonalize calls: a grown M is solved once more for vectors.
    spec = GridSpec(half_width=10.0, points=points)
    mu = scipy.linalg.eigvals_banded(build_oscillator_grid(spec).band, lower=True)
    dense_coeffs = [float(c) for c in ham.dense_coefficients()]
    mapped = np.zeros_like(mu)
    for c in reversed(dense_coeffs):
        mapped = mu * (mapped + c)
    if not (dense_coeffs and dense_coeffs[-1] > 0):
        mapped = mapped[:11]
    modes = np.argsort(mapped, kind="stable")[:9]
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(ham, spec)
    assert report.node_sequence == tuple(modes.tolist())
    got = np.array([check.grid_eigenvalue for check in report.checks])
    assert np.max(np.abs(got - mapped[modes])) <= 1e-9 * np.max(np.abs(mapped[modes]))
    assert sizes == counts


def test_verify_maps_every_mode_when_p_never_provably_rises(monkeypatch):
    # P = h^2 - 200 h falls up to h = 100, beyond the top mode of a 21-point grid
    # (about 52), so M grows 11 -> 16 -> 21 = k and stops at k without the rule
    ham = PolynomialHamiltonian.from_dense([-200, 1])
    spec = GridSpec(half_width=10.0, points=21)
    mu = scipy.linalg.eigvals_banded(build_oscillator_grid(spec).band, lower=True)
    lowest = np.sort(mu * (mu - 200.0))[:9]
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(ham, spec)
    assert sizes == [11, 16, 21, 21]
    got = np.array([check.grid_eigenvalue for check in report.checks])
    assert np.max(np.abs(got - lowest)) <= 1e-9 * np.max(np.abs(lowest))
    assert not report.passed


def test_verify_coarse_grid_fails_without_raising():
    report = verify_dialled(QUADRATIC, GridSpec(half_width=10.0, points=5))
    assert not report.passed
    assert len(report.checks) == 5  # clamped to the grid size


@pytest.mark.parametrize("coeffs", [[10] * 4, [3, 1, 4, 1, 5]],
                         ids=["quartic-at-cap", "quintic"])
def test_verify_high_degree_passes_without_a_warning(coeffs):
    # ||P(A)|| reaches ~2e16 for the all-10 quartic, so eigenvalues of P(A) itself
    # would carry O(1) absolute noise; mapping A's own eigenvalues through P keeps the
    # error at the grid's discretisation, and P is bounded below, so nothing is warned
    report = verify_dialled(PolynomialHamiltonian.from_dense(coeffs))
    assert report.warning is None
    assert report.passed
    assert report.node_sequence == tuple(range(9))
    assert max(check.rel_error for check in report.checks) < 1e-5


def test_verify_matches_exact_spectrum():
    # 3h - h^2 (degenerate) and -h are both matched by node count, up to A's mode
    # count + 1 = 7, above the window: every check carries P(h_n) of its level
    for coeffs in ([3, -1], [-1]):
        ham = PolynomialHamiltonian.from_dense(coeffs)
        report = verify_dialled(ham, levels_to_check=6)
        assert max(report.node_sequence) == 7
        for level, check in zip(report.node_sequence, report.checks):
            exact = evaluate_polynomial(ham, Fraction(2 * level + 1, 2))
            assert check.analytic_energy == exact


@pytest.mark.parametrize("ham", [QUADRATIC, PolynomialHamiltonian.from_dense([-1])],
                         ids=["quadratic", "unbounded"])
def test_verify_measures_the_grid_before_it_reads_the_exact_side(monkeypatch, ham):
    # every exact entry point raises until count_nodes has run once per checked level,
    # so the grid's eigenpairs and node counts are fixed before any exact energy exists
    expected = verify_dialled(ham)
    counted = []
    count_nodes = gridverify.count_nodes

    def counting(vector):
        counted.append(1)
        return count_nodes(vector)

    def after_the_grid(fn):
        def guarded(*args, **kwargs):
            if len(counted) < 9:
                raise AssertionError(f"{fn.__name__} ran before the grid's node counts")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(gridverify, "count_nodes", counting)
    for name in ("evaluate_spectrum", "ordering_report"):
        monkeypatch.setattr(gridverify, name, after_the_grid(getattr(gridverify, name)))
    assert verify_dialled(ham) == expected
    assert len(counted) == 9


def test_verify_passing_reports_order_the_exact_energies_within_the_checks():
    # Seeded dials of degree 1-4, each with a near tie of its first two targets that
    # the grid may order either way.  No rule orders the node sequence, yet in every
    # passing report the exact energies, taken in node order, fall by no more than the
    # two checks allow: the mapped values ascend and each lies within tolerance of
    # its energy, or within the zero floor of an energy that is 0.0.
    rng = random.Random(4)
    spec = GridSpec(half_width=10.0, points=401)
    passed = falls = 0
    for _ in range(30):
        energies = [Fraction(rng.randint(-60, 60), rng.randint(1, 20))
                    for _ in range(rng.randint(1, 4))]
        if len(energies) > 1:
            energies[1] = energies[0] + Fraction(rng.randint(-9, 9), 10**7)
        report = verify_dialled(dial(SpectrumTarget.from_energies(energies)), spec)
        if not report.passed:
            continue
        passed += 1
        exact = [float(check.analytic_energy) for check in report.checks]
        floor = report.tolerance * min((abs(e) for e in exact if e != 0.0), default=0.0)
        for a, b in zip(exact, exact[1:]):
            falls += a > b
            slack = report.tolerance * (abs(a) + abs(b)) + floor * ((a == 0.0) + (b == 0.0))
            assert a - b <= slack
    assert passed >= 10 and falls > 0


def test_verify_levels_validation():
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, levels_to_check=0)
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, tolerance=0.0)
