"""Exact rational linear algebra for dialling oscillator spectra.

A polynomial Hamiltonian P(h) = sum_j a_j h^j (no constant term) applied to the
dimensionless oscillator h has eigenvalues P(n + 1/2).  Prescribing the energies of
N levels therefore means solving the N x N linear system

    sum_j (n + 1/2)^j a_j = E_n,   one row per level n, one column per power j,

whose matrix is a generalized Vandermonde matrix in the oscillator energies.  The
matrix is held as its row levels and column powers alone; times 2^top, with top the
largest power, its entries are the integers (2n + 1)^j 2^(top - j).  All arithmetic
here is exact.  With powers 1..N, row n is h_n (1, h_n, ..., h_n^{N-1}), so the
system is polynomial interpolation of E_n / h_n at the distinct positive nodes h_n,
solved by Newton divided differences in O(N^2) (Bjorck and Pereyra, Math. Comp. 24,
1970).  Every other power list goes through fraction-free (Bareiss) elimination of
the integer rows, which `determinant` also uses.  It needs no pivoting: with
0 < h_0 < h_1 < ... and distinct powers, a generalized Vandermonde matrix with its
powers sorted is strictly totally positive (Gantmacher and Krein, 1950; Karlin,
1968), so every leading minor in the given row and column order is nonzero, with
the sign of the permutation that sorts its columns.  Either way the solution is
substituted back into every integer row, so a coefficient vector returned by
`solve_linear_exact`, `dial` or `dial_partial` reproduces the requested energies
with zero residual.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .oscillator import _as_index, oscillator_energy


def _as_fraction(value) -> Fraction:
    # The one check of an exact rational, as oscillator._as_index is of an integer.  A
    # binary float is refused, since 0.1 is never meant as 3602879701896397/36028797018963968,
    # and so is a bool.  Every other refusal, a zero denominator or None included, is a
    # ValueError naming the value.
    if isinstance(value, (float, bool)):
        raise ValueError(f"expected an exact rational, got {type(value).__name__} {value!r}; "
                         "pass a Fraction, an int, or a 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"cannot parse {value!r} as an exact rational") from None


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers c_i and one denominator D with values[i] = c_i / D."""
    # The lcm of a list, not of a generator: star-unpacking a generator builds its tuple
    # by resizing, which fills CPython's per-size tuple free lists (MBs over a run).
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _check_increasing(values: Sequence[int], name: str) -> None:
    # Levels this way have distinct energies h_n, and terms one coefficient per power.
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError(f"{name} must be strictly increasing, got {a} then {b}")


@dataclass(frozen=True)
class EnergyMatrix:
    """Square, non-empty matrix with entry (h_n)^j, h_n = n + 1/2, at row level n, column power j.

    Attributes:
        levels: Oscillator level labelling each row; non-negative, strictly increasing.
        column_powers: h-power labelling each column, one per level; each >= 1, distinct,
            in any order.
    """

    levels: tuple[int, ...]
    column_powers: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = tuple(_as_index(n, "level", 0) for n in self.levels)
        powers = tuple(_as_index(j, "column power", 1) for j in self.column_powers)
        if not levels or len(levels) != len(powers):
            raise ValueError(
                f"energy matrix must be square and non-empty, got {len(levels)}x{len(powers)}"
            )
        _check_increasing(levels, "levels")
        # A repeated power is the only way to a singular matrix (see the module docstring).
        if len(set(powers)) != len(powers):
            repeated = next(j for j in powers if powers.count(j) > 1)
            raise ValueError(f"column power {repeated} is repeated")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "column_powers", powers)

    @property
    def n_rows(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class SpectrumTarget:
    """Requested point spectrum: (level, energy) pairs with strictly increasing levels."""

    pairs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a spectrum target needs at least one level")
        coerced = tuple((_as_index(lvl, "level", 0), _as_fraction(e)) for lvl, e in self.pairs)
        object.__setattr__(self, "pairs", coerced)
        _check_increasing(self.levels, "levels")

    @classmethod
    def from_energies(cls, energies: Sequence) -> "SpectrumTarget":
        """Target assigning the given energies to levels 0..N-1 in order."""
        return cls(tuple(enumerate(energies)))

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(lvl for lvl, _ in self.pairs)

    @property
    def energies(self) -> tuple[Fraction, ...]:
        return tuple(e for _, e in self.pairs)


@dataclass(frozen=True)
class PolynomialHamiltonian:
    """Polynomial in the oscillator Hamiltonian, P(h) = sum over terms a_j h^j.

    Powers start at 1: P has no constant term, so P(0) = 0 always.  Terms are kept
    even when a coefficient solves to zero, which preserves the shape of the system
    the polynomial came from.
    """

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        coerced = tuple((_as_index(p, "term power", 1), _as_fraction(a)) for p, a in self.terms)
        object.__setattr__(self, "terms", coerced)
        _check_increasing([p for p, _ in coerced], "term powers")

    @classmethod
    def from_dense(cls, coefficients: Sequence) -> "PolynomialHamiltonian":
        """Build from dense coefficients [a_1, a_2, ...] starting at power 1."""
        return cls(tuple((j + 1, c) for j, c in enumerate(coefficients)))

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient (0 for the zero polynomial)."""
        return max((p for p, a in self.terms if a != 0), default=0)

    def coefficient(self, power: int) -> Fraction:
        for p, a in self.terms:
            if p == power:
                return a
        return Fraction(0)

    def dense_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients a_1..a_P for every power up to the largest stored one."""
        top = max((p for p, _ in self.terms), default=0)
        dense = [Fraction(0)] * top
        for p, a in self.terms:
            dense[p - 1] = a
        return tuple(dense)


def build_energy_matrix(levels: Sequence[int], powers: Sequence[int]) -> EnergyMatrix:
    """Energy matrix for the given row levels and column powers (rules as in EnergyMatrix)."""
    return EnergyMatrix(levels, powers)


def _integer_rows(matrix: EnergyMatrix) -> list[list[int]]:
    """The entries times 2^top, top the largest power: (2n + 1)^j 2^(top - j) at (n, j)."""
    top = max(matrix.column_powers)
    return [[(2 * n + 1) ** j << (top - j) for j in matrix.column_powers] for n in matrix.levels]


def _forward_eliminate(m: list[list[int]], n: int) -> None:
    """Fraction-free (Bareiss) elimination of the first n columns, in place, unpivoted.

    Rows may be wider than n (augmented columns ride along).  Afterwards m[k][k] is
    the leading (k+1) x (k+1) minor of the integer rows, nonzero for an energy matrix,
    and the division in each update is exact by Sylvester's identity.
    """
    prev = 1
    for k in range(n):
        piv = m[k][k]
        for r in range(k + 1, len(m)):
            factor = m[r][k]
            row = m[r]
            for c in range(k, len(row)):
                row[c] = (piv * row[c] - factor * m[k][c]) // prev
        prev = piv


def determinant(matrix: EnergyMatrix) -> Fraction:
    """Exact determinant by unpivoted fraction-free elimination.

    It is never zero, and its sign is that of the permutation sorting the column
    powers (see the module docstring).  The integer rows are the matrix times 2^top,
    so their determinant is 2^(n top) times the one returned.
    """
    n = matrix.n_rows
    m = _integer_rows(matrix)
    _forward_eliminate(m, n)
    return Fraction(m[n - 1][n - 1], 2 ** (n * max(matrix.column_powers)))


def determinant_closed_form(n: int) -> Fraction:
    """Closed form prod_{g=1}^{n-1} g! (2g+1) / 2^n for the full n x n energy matrix.

    It is the Vandermonde product prod_{i<j} (h_j - h_i) = prod_{g<n} g! times
    prod_n h_n = prod_{g<n} (2g+1) / 2^n, because row n is h_n (1, h_n, ..., h_n^{n-1}).
    """
    n = _as_index(n, "matrix size", 1)
    numerator = math.prod(math.factorial(g) * (2 * g + 1) for g in range(1, n))
    return Fraction(numerator, 2**n)


def solve_linear_exact(matrix: EnergyMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve the square system matrix * x = rhs exactly, re-checked against every equation.

    The route follows from the column powers alone: powers exactly 1..n are solved
    by interpolation at the nodes h_n in O(n^2), any other power list by Bareiss
    elimination of the integer rows.  `rhs` holds one exact rational per row.

    Raises:
        RuntimeError: If the solution misses an equation on substitution (an internal
            fault, never a property of the input); the message names its level.
    """
    n = matrix.n_rows
    b = [_as_fraction(v) for v in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries for {n} rows")

    rows = _integer_rows(matrix)
    top = max(matrix.column_powers)
    if matrix.column_powers == tuple(range(1, n + 1)):
        # P(h_i) = h_i Q(h_i) = b_i: Q interpolates b_i / h_i, and a_{j+1} is Q's x^j.
        nodes = [oscillator_energy(level) for level in matrix.levels]
        x = _interpolate(nodes, [bi / h for bi, h in zip(b, nodes)])
    else:
        # The integer rows are the matrix times 2^top, so the augmented column is
        # 2^top b_i, written as integers over the common denominator of b.
        b_nums, b_den = _common_denominator(b)
        m = [row + [c << top] for row, c in zip(rows, b_nums)]
        _forward_eliminate(m, n)
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(m[i][n], b_den)
            for j in range(i + 1, n):
                acc -= m[i][j] * x[j]
            x[i] = acc / m[i][i]

    # Substitute into every integer row, x written as numerators over one common
    # denominator: sum_j row_j x_j must equal 2^top b_i.  Neither route computes this
    # power sum, so it is the one back-check of every solve, dial's included.
    nums, den = _common_denominator(x)
    for level, row, bi in zip(matrix.levels, rows, b):
        if sum(map(operator.mul, row, nums)) * bi.denominator != (bi.numerator << top) * den:
            raise RuntimeError(
                f"internal consistency failure: exact solve residual is nonzero at level {level}"
            )
    return tuple(x)


def _interpolate(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> list[Fraction]:
    """Monomial coefficients c_0..c_{n-1} of the polynomial taking values[i] at nodes[i].

    Bjorck and Pereyra's two stages, O(n^2): Newton divided differences, then the
    Newton form expanded into monomial coefficients.  Both run on integers over one
    common denominator for the whole vector, with the nodes written as u_i / v, so
    only the n returned Fractions are reduced.
    """
    n = len(nodes)
    u, v = _common_denominator(nodes)
    c, den = _common_denominator(values)
    # Order k: c_i <- (c_i - c_{i-1}) / (x_i - x_{i-k}) = v (c_i - c_{i-1}) / (u_i - u_{i-k});
    # the common denominator grows by the lcm of this order's node gaps.
    for k in range(1, n):
        grow = math.lcm(*[u[i] - u[i - k] for i in range(k, n)])
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * v * (grow // (u[i] - u[i - k]))
        for i in range(k):
            c[i] *= grow
        den *= grow
    # Expansion c_i <- c_i - x_k c_{i+1}: with c_i scaled by v^(n-1-i) it is c_i - u_k c_{i+1}.
    c = [ci * v ** (n - 1 - i) for i, ci in enumerate(c)]
    for k in range(n - 2, -1, -1):
        for i in range(k, n - 1):
            c[i] -= u[k] * c[i + 1]
    return [Fraction(ci, den * v ** (n - 1 - i)) for i, ci in enumerate(c)]


def dial(target: SpectrumTarget) -> PolynomialHamiltonian:
    """Polynomial Hamiltonian whose first N eigenvalues are the target energies.

    The target must assign levels 0..N-1 exactly (use `dial_partial` to leave gaps).
    The solution is unique because the full energy matrix has nonzero determinant,
    and `solve_linear_exact` substitutes it into every level's equation before it
    is returned.
    """
    n = len(target.pairs)
    if target.levels != tuple(range(n)):
        raise ValueError(
            f"dial needs levels 0..{n - 1} exactly, got {target.levels}; "
            "use dial_partial to leave levels unassigned"
        )
    return _fit(target, range(1, n + 1))


def dial_partial(
    target: SpectrumTarget, drop_powers: Sequence[int] | None = None
) -> PolynomialHamiltonian:
    """Dial a spectrum that assigns only some levels, stripping matching h-powers.

    Leaving a level unassigned removes its row from the energy matrix; the same
    number of power columns must go to keep the system square.  By default the
    highest powers are dropped, so k assigned levels are fitted with powers 1..k.

    Args:
        target: Levels (not necessarily contiguous) and their energies.
        drop_powers: Explicit powers to remove from 1..(k + len(drop_powers)).
            Defaults to dropping everything above power k.

    Returns:
        A polynomial with one term per retained power.
    """
    k = len(target.pairs)
    if drop_powers is None:
        retained = tuple(range(1, k + 1))
    else:
        dropped = [_as_index(p, "drop power", 1) for p in drop_powers]
        n_full = k + len(dropped)
        seen = set()
        for p in dropped:
            if p > n_full:
                raise ValueError(
                    f"drop power {p} is outside 1..{n_full} "
                    f"({k} targets plus {len(dropped)} dropped columns)"
                )
            if p in seen:
                raise ValueError(f"drop power {p} listed twice")
            seen.add(p)
        retained = tuple(p for p in range(1, n_full + 1) if p not in seen)

    return _fit(target, retained)


def _fit(target: SpectrumTarget, powers: Sequence[int]) -> PolynomialHamiltonian:
    # Build and solve, the one fit shared by dial and dial_partial; the solve's own
    # row check is the back-check of the returned coefficients.
    matrix = build_energy_matrix(target.levels, powers)
    coeffs = solve_linear_exact(matrix, target.energies)
    return PolynomialHamiltonian(tuple(zip(matrix.column_powers, coeffs)))
