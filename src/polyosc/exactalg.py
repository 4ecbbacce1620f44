"""Exact rational linear algebra for dialling oscillator spectra.

A polynomial Hamiltonian P(h) = sum_j a_j h^j (no constant term) applied to the
dimensionless oscillator h has eigenvalues P(n + 1/2).  Prescribing the first N
eigenvalues therefore means solving the N x N linear system

    sum_j (n + 1/2)^j a_j = E_n,   n = 0..N-1, j = 1..N,

whose matrix is a generalized Vandermonde matrix in the oscillator energies.  All
arithmetic here is exact: matrices hold `fractions.Fraction` entries and the solver
is fraction-free (Bareiss) elimination over scaled integer rows, so a returned
coefficient vector reproduces the requested energies with zero residual.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .oscillator import oscillator_energy


class SingularMatrixError(ValueError):
    """Raised when elimination cannot find a nonzero pivot."""


def _as_fraction(value) -> Fraction:
    # Binary floats are refused everywhere an exact rational is expected: silently
    # converting 0.1 to 3602879701896397/36028797018963968 is never what was meant.
    if isinstance(value, float):
        raise ValueError(
            f"expected an exact rational, got float {value!r}; "
            "pass a Fraction, an int, or a 'p/q' string"
        )
    return Fraction(value)


@dataclass(frozen=True)
class EnergyMatrix:
    """Matrix of oscillator-energy powers (h_n)^j with exact rational entries.

    Attributes:
        entries: Row-major rational entries.
        column_powers: h-power j labelling each column.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    column_powers: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("matrix rows have unequal lengths")
        width = widths.pop() if widths else 0
        if width != len(self.column_powers):
            raise ValueError("one column power per matrix column required")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.column_powers)


@dataclass(frozen=True)
class SpectrumTarget:
    """Requested point spectrum: (level, energy) pairs with strictly increasing levels."""

    pairs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a spectrum target needs at least one level")
        coerced = tuple((int(lvl), _as_fraction(e)) for lvl, e in self.pairs)
        object.__setattr__(self, "pairs", coerced)
        levels = [lvl for lvl, _ in coerced]
        if levels[0] < 0:
            raise ValueError(f"level indices must be non-negative, got {levels[0]}")
        for a, b in zip(levels, levels[1:]):
            if b <= a:
                raise ValueError(f"levels must be strictly increasing, got {a} then {b}")

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
        coerced = tuple((int(p), _as_fraction(a)) for p, a in self.terms)
        object.__setattr__(self, "terms", coerced)
        powers = [p for p, _ in coerced]
        if any(p < 1 for p in powers):
            raise ValueError(f"term powers must be >= 1, got {powers}")
        for a, b in zip(powers, powers[1:]):
            if b <= a:
                raise ValueError(f"term powers must be strictly increasing, got {powers}")

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
    """Matrix with entry (h_n)^j for each requested level n and power j.

    Args:
        levels: Oscillator levels labelling the rows, each >= 0.
        powers: h-powers labelling the columns, each >= 1.
    """
    pw = tuple(int(j) for j in powers)
    if any(j < 1 for j in pw):
        raise ValueError(f"column powers must be >= 1, got {pw}")
    rows = []
    for n in levels:
        h = oscillator_energy(int(n))
        rows.append(tuple(h**j for j in pw))
    return EnergyMatrix(tuple(rows), pw)


def _scaled_integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and the row scales."""
    out, scales = [], []
    for row in rows:
        scale = 1
        for entry in row:
            scale = scale * entry.denominator // math.gcd(scale, entry.denominator)
        out.append([int(entry * scale) for entry in row])
        scales.append(scale)
    return out, scales


def _forward_eliminate(m: list[list[int]], powers: Sequence[int]) -> int:
    """Fraction-free (Bareiss) elimination of one column per h-power, in place.

    Rows may be wider than `powers` (augmented columns ride along).  Pivots are the
    largest-magnitude entries for modest integer growth; the division in each
    update is exact by Sylvester's identity.

    Returns:
        +1 or -1 for the row-swap parity.

    Raises:
        SingularMatrixError: If a pivot column contains only zeros.
    """
    sign = 1
    prev = 1
    for k, power in enumerate(powers):
        pivot_row = max(
            (r for r in range(k, len(m)) if m[r][k] != 0),
            key=lambda r: abs(m[r][k]),
            default=None,
        )
        if pivot_row is None:
            raise SingularMatrixError(
                f"matrix is singular: no pivot available in the h^{power} column"
            )
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        piv = m[k][k]
        for r in range(k + 1, len(m)):
            factor = m[r][k]
            row = m[r]
            for c in range(k, len(row)):
                row[c] = (piv * row[c] - factor * m[k][c]) // prev
        prev = piv
    return sign


def determinant(matrix: EnergyMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination (0 for a singular matrix)."""
    n = matrix.n_rows
    if n != matrix.n_cols:
        raise ValueError(f"determinant needs a square matrix, got {n}x{matrix.n_cols}")
    rows, scales = _scaled_integer_rows(matrix.entries)
    try:
        sign = _forward_eliminate(rows, matrix.column_powers)
    except SingularMatrixError:
        return Fraction(0)
    det_scaled = Fraction(sign * rows[n - 1][n - 1])
    return det_scaled / math.prod(scales)


def determinant_closed_form(n: int) -> Fraction:
    """Closed form prod_{g=1}^{n-1} g! (2g+1) / 2^n for the full n x n energy matrix."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    numerator = math.prod(math.factorial(g) * (2 * g + 1) for g in range(1, n))
    return Fraction(numerator, 2**n)


def solve_linear_exact(matrix: EnergyMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve matrix * x = rhs exactly.

    Args:
        matrix: Square rational matrix.
        rhs: Right-hand side, one exact rational per row.

    Returns:
        The unique solution as Fractions, re-checked against every equation.

    Raises:
        SingularMatrixError: If the matrix is singular; the message names the
            h-power of the pivot column where elimination failed.
    """
    n = matrix.n_rows
    if n != matrix.n_cols:
        raise ValueError(f"solver needs a square matrix, got {n}x{matrix.n_cols}")
    b = [_as_fraction(v) for v in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries for {n} rows")

    augmented = [tuple(row) + (b[i],) for i, row in enumerate(matrix.entries)]
    rows, _ = _scaled_integer_rows(augmented)
    _forward_eliminate(rows, matrix.column_powers)

    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]

    for i, row in enumerate(matrix.entries):
        if sum(row[j] * x[j] for j in range(n)) != b[i]:
            raise RuntimeError("internal consistency failure: exact solve residual is nonzero")
    return tuple(x)


def dial(target: SpectrumTarget) -> PolynomialHamiltonian:
    """Polynomial Hamiltonian whose first N eigenvalues are the target energies.

    The target must assign levels 0..N-1 exactly (use `dial_partial` to leave gaps).
    The solution is unique because the full energy matrix has nonzero determinant,
    and it is verified term by term before being returned.
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

    Raises:
        SingularMatrixError: Never for valid input: a stripped energy matrix is a
            generalized Vandermonde matrix in the distinct positive h_n, so it is
            never singular.
    """
    k = len(target.pairs)
    if drop_powers is None:
        retained = tuple(range(1, k + 1))
    else:
        dropped = [int(p) for p in drop_powers]
        n_full = k + len(dropped)
        seen = set()
        for p in dropped:
            if p < 1 or p > n_full:
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
    # Build, solve and back-check: the one fit shared by dial and dial_partial.
    matrix = build_energy_matrix(target.levels, powers)
    coeffs = solve_linear_exact(matrix, target.energies)
    ham = PolynomialHamiltonian(tuple(zip(matrix.column_powers, coeffs)))
    _check_dialled(ham, target)
    return ham


def _check_dialled(ham: PolynomialHamiltonian, target: SpectrumTarget) -> None:
    # Deliberately not Horner: an independent power-sum route for the back-check.
    for level, energy in target.pairs:
        h = oscillator_energy(level)
        value = sum((a * h**p for p, a in ham.terms), start=Fraction(0))
        if value != energy:
            raise RuntimeError(
                f"internal consistency failure: P(h_{level}) = {value} != {energy}"
            )
