"""Exact rational linear algebra for dialling oscillator spectra.

A polynomial Hamiltonian P(h) = sum_j a_j h^j (no constant term) applied to the
dimensionless oscillator h has eigenvalues P(n + 1/2).  Prescribing the energies of
N levels therefore means solving the N x N linear system

    sum_j (n + 1/2)^j a_j = E_n,   one row per level n, one column per power j,

whose matrix is a generalized Vandermonde matrix in the oscillator energies, held
as its row levels and column powers alone.  All arithmetic here is exact, in the odd
integer t = 2h: with P(h) = sum_j y_j t^j, y_j = a_j / 2^j, the matrix becomes the
integers t_n^j, t_n = 2n + 1, and a_j = 2^j y_j.  In P(t) = t Q(t), y_p is Q's x^(p-1)
coefficient and Q takes E_n / t_n at the N nodes t_n, so every solve interpolates by
Newton divided differences in O(N^2) (Bjorck and Pereyra, Math. Comp. 24, 1970).  That
L, of degree below N, is the answer for powers 1..N.  Otherwise m = max(powers) - N
powers below the top one are missing, Q = L + W R with W = prod (x - t_n), deg R < m,
and Q's coefficients at the missing powers vanish: an m x m integer system, solved by
fraction-free (Bareiss) elimination as `determinant` solves the full matrix.  Neither
pivots.  With 0 < t_0 < t_1 < ... and distinct powers, a generalized Vandermonde
matrix with its powers sorted is strictly totally positive (Gantmacher and Krein,
1950; Karlin, 1968), so every leading minor in the given row and column order is
nonzero, with the sign of the permutation that sorts its columns.  The first r missing
powers are at most N + r - 1, the top power being kept, so the leading r x r block of
the m x m system is the system for powers 1..N+r less those r: with zero right sides
that energy matrix forces Q = 0, so R = 0, and the block is nonsingular.  The solve
stays in integers until it returns a, and a is substituted back into every level by
Horner's scheme in t_n, which the solve does not use: an a returned by
`solve_linear_exact`, `dial` or `dial_partial` reproduces its energies with zero residual.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .oscillator import _as_index


def _as_fraction(value) -> Fraction:
    # The one check of an exact rational, as oscillator._as_index is of an integer.  A
    # binary float is refused, since 0.1 is never meant as 3602879701896397/36028797018963968,
    # and so is a bool.  A string is read in ASCII without digit separators: Fraction
    # also takes non-ASCII digits, and '1_0' as 10 on Python 3.11 but not on 3.10.
    # Every other refusal, a zero denominator or None included, is a ValueError naming
    # the value.  A Fraction itself, not a subclass, is already one and passes as it is.
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"expected an exact rational, got {type(value).__name__} {value!r}; "
                         "pass a Fraction, an int, or a 'p/q' string")
    if isinstance(value, str) and (not value.isascii() or "_" in value):
        raise ValueError(f"cannot parse {value!r} as an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"cannot parse {value!r} as an exact rational") from None


def _as_rationals(values, name: str) -> Sequence:
    # A str or bytes is a sequence of characters: "12" would read as the values 1, 2.
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{name} must be a sequence of rationals, not the string {values!r}")
    return values


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers c_i and one denominator D with values[i] = c_i / D."""
    # A list, not a generator, here and in every tuple([...]) of the exact half: a tuple
    # built from a generator is resized, filling CPython's per-size free lists over a run.
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
        levels = tuple([_as_index(n, "level", 0) for n in self.levels])
        powers = tuple([_as_index(j, "column power", 1) for j in self.column_powers])
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


@dataclass(frozen=True)
class SpectrumTarget:
    """Requested point spectrum: (level, energy) pairs with strictly increasing levels."""

    pairs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a spectrum target needs at least one level")
        coerced = tuple([(_as_index(lvl, "level", 0), _as_fraction(e)) for lvl, e in self.pairs])
        object.__setattr__(self, "pairs", coerced)
        _check_increasing(self.levels, "levels")

    @classmethod
    def from_energies(cls, energies: Sequence) -> "SpectrumTarget":
        """Target assigning the given energies to levels 0..N-1 in order."""
        return cls(list(enumerate(_as_rationals(energies, "energies"))))

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple([lvl for lvl, _ in self.pairs])

    @property
    def energies(self) -> tuple[Fraction, ...]:
        return tuple([e for _, e in self.pairs])


@dataclass(frozen=True)
class PolynomialHamiltonian:
    """Polynomial in the oscillator Hamiltonian, P(h) = sum over terms a_j h^j.

    Powers start at 1: P has no constant term, so P(0) = 0 always.  Terms are kept
    even when a coefficient solves to zero, which preserves the shape of the system
    the polynomial came from.
    """

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        coerced = tuple([(_as_index(p, "term power", 1), _as_fraction(a)) for p, a in self.terms])
        object.__setattr__(self, "terms", coerced)
        _check_increasing([p for p, _ in coerced], "term powers")

    @classmethod
    def from_dense(cls, coefficients: Sequence) -> "PolynomialHamiltonian":
        """Build from dense coefficients [a_1, a_2, ...] starting at power 1."""
        coefficients = _as_rationals(coefficients, "coefficients")
        return cls(list(enumerate(coefficients, 1)))

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient (0 for the zero polynomial)."""
        return next((p for p, a in reversed(self.terms) if a), 0)

    def coefficient(self, power: int) -> Fraction:
        for p, a in self.terms:
            if p == power:
                return a
        return Fraction(0)

    def dense_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients a_1..a_d, d = deg P: empty for P = 0, and no stored zero above d."""
        stored, zero = dict(self.terms), Fraction(0)
        return tuple([stored.get(p, zero) for p in range(1, self.degree + 1)])


def build_energy_matrix(levels: Sequence[int], powers: Sequence[int]) -> EnergyMatrix:
    """Energy matrix for the given row levels and column powers (rules as in EnergyMatrix)."""
    return EnergyMatrix(levels, powers)


def _forward_eliminate(m: list[list[int]], n: int) -> None:
    """Fraction-free (Bareiss) elimination of the first n columns, in place, unpivoted.

    Rows may be wider than n (augmented columns ride along).  Afterwards m[k][k] is
    the leading (k+1) x (k+1) minor of the integer rows, nonzero for an energy matrix
    and for the missing-power system (see the module docstring), and the division in
    each update is exact by Sylvester's identity.
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
    powers (see the module docstring).  Column j of the integer rows t_n^j is column
    j of the matrix times 2^j, so the determinant is det[t_n^j] / 2^(sum of powers).
    """
    n = len(matrix.levels)
    m = [[(2 * level + 1) ** j for j in matrix.column_powers] for level in matrix.levels]
    _forward_eliminate(m, n)
    return Fraction(m[n - 1][n - 1], 1 << sum(matrix.column_powers))


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

    Q(t) = P(t) / t interpolates b_n / t_n at the nodes t_n, and an m x m Bareiss system
    clears the m = max(powers) - n missing powers, if any (see the module docstring), in
    integers over one denominator.  x_j = 2^j y_j is built once and substituted into
    every row by Horner's scheme in t_n.  `rhs` holds one exact rational per row.

    Raises:
        RuntimeError: If the solution misses an equation on substitution (an internal
            fault, never a property of the input); the message names its level.
    """
    n = len(matrix.levels)
    b = [_as_fraction(v) for v in _as_rationals(rhs, "right-hand side")]
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries for {n} rows")

    powers, top = matrix.column_powers, max(matrix.column_powers)
    # P(t_i) = t_i Q(t_i) = b_i: L interpolates b_i / t_i, and y_p is Q's x^(p-1).
    nodes = [2 * level + 1 for level in matrix.levels]
    nums, den = _interpolate(nodes, [bi.numerator for bi in b],
                             [bi.denominator * t for bi, t in zip(b, nodes)])
    if top > n:  # powers are not a permutation of 1..n: Q = L + W R, deg R < m
        m, w = top - n, [1]
        for t in nodes:  # W = prod (x - t), ascending coefficients
            w = [a - t * c for a, c in zip([0] + w, w + [0])]
        # Q's x^k coefficient is L_k + rows[k] . R, rows[k][i] = w_{k-i}; zero at a missing k + 1
        w, nums = [0] * m + w + [0] * m, nums + [0] * m
        rows = [w[k + 1 : k + 1 + m][::-1] for k in range(top)]
        system = [rows[g - 1] + [-nums[g - 1]]
                  for g in sorted(set(range(1, top)).difference(powers))]
        _forward_eliminate(system, m)
        d, r = system[m - 1][m - 1], [0] * m  # by Cramer, each r_i = d den R_i is an integer
        for i in range(m - 1, -1, -1):
            tail = sum(map(operator.mul, system[i][i + 1 : m], r[i + 1 :]))
            r[i] = (d * system[i][m] - tail) // system[i][i]
        nums = [d * c + sum(map(operator.mul, row, r)) for c, row in zip(nums, rows)]
        den *= d  # Q = (d L_num + W r) / (d den), all over one denominator
    x = [Fraction(nums[j - 1] << j, den) for j in powers]

    # Substitute the returned x into every row: over one common denominator, 2^top y_j =
    # 2^(top-j) x_j (zero at an absent power), and Horner in t_n must give 2^top b_n.  The
    # solve never evaluates P this way: it is the one back-check of every solve and of x = 2^j y.
    x_nums, x_den = _common_denominator(x)
    shifted = [0] * top
    for c, j in zip(x_nums, powers):
        shifted[top - j] = c << (top - j)  # highest power first
    for level, bi in zip(matrix.levels, b):
        t, acc = 2 * level + 1, 0
        for c in shifted:
            acc = acc * t + c
        if acc * t * bi.denominator != (bi.numerator << top) * x_den:
            raise RuntimeError(
                f"internal consistency failure: exact solve residual is nonzero at level {level}"
            )
    return tuple(x)


def _interpolate(nodes: Sequence[int], nums: Sequence[int], dens: Sequence[int]):
    """Integers c_0..c_{n-1} and D, c_i / D the x^i coefficient of the polynomial taking
    nums[i] / dens[i] at nodes[i].

    Bjorck and Pereyra's two stages, O(n^2), on distinct integer nodes: Newton
    divided differences, then the Newton form expanded into monomial coefficients.
    Both run on integers, and no Fraction is built.
    """
    n = len(nodes)
    den = math.lcm(*dens)
    c = [num * (den // d) for num, d in zip(nums, dens)]
    # Order k: c_i <- (c_i - c_{i-1}) / (x_i - x_{i-k}) for i >= k, over a denominator
    # grown by the lcm of this order's node gaps; c_{k-1} is final and keeps its own.
    grows = []
    for k in range(1, n):
        grow = math.lcm(*[nodes[i] - nodes[i - k] for i in range(k, n)])
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * (grow // (nodes[i] - nodes[i - k]))
        grows.append(grow)
    # Expansion c_i <- c_i - x_k c_{i+1}, once c_k is brought over the last denominator:
    # scale is the product of the grows of the orders above k.
    scale = 1
    for k in range(n - 2, -1, -1):
        scale *= grows[k]
        c[k] *= scale
        for i in range(k, n - 1):
            c[i] -= nodes[k] * c[i + 1]
    return c, den * scale


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


def dial_partial(target: SpectrumTarget, drop_powers: Sequence[int] = ()) -> PolynomialHamiltonian:
    """Dial a spectrum that assigns only some levels, stripping matching h-powers.

    Leaving a level unassigned removes its row from the energy matrix; the same
    number of power columns must go to keep the system square.  With no powers
    dropped, k assigned levels are fitted with powers 1..k.

    Args:
        target: Levels (not necessarily contiguous) and their energies.
        drop_powers: Powers to remove from 1..(k + len(drop_powers)); none by
            default, so the fit uses powers 1..k.

    Returns:
        A polynomial with one term per retained power.
    """
    k = len(target.pairs)
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
    return _fit(target, [p for p in range(1, n_full + 1) if p not in seen])


def _fit(target: SpectrumTarget, powers: Sequence[int]) -> PolynomialHamiltonian:
    # Build and solve, the one fit shared by dial and dial_partial; the solve's own
    # row check is the back-check of the returned coefficients.
    matrix = build_energy_matrix(target.levels, powers)
    coeffs = solve_linear_exact(matrix, target.energies)
    return PolynomialHamiltonian(list(zip(matrix.column_powers, coeffs)))
