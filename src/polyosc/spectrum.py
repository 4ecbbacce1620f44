"""Forward spectrum evaluation and Sturm-Liouville ordering analysis.

For a polynomial Hamiltonian P(h) the n-th eigenstate is the oscillator eigenstate
phi_n, so its node count stays n while its energy moves to P(t_n / 2), t_n = 2n + 1,
found by integer Horner in t_n.  Sorting the exact energies therefore reveals every
violation of the usual Sturm-Liouville rule that energies increase with node count.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import PolynomialHamiltonian, _as_fraction, _common_denominator
from .oscillator import _as_index


@dataclass(frozen=True)
class LevelRecord:
    """One analytic level: index n and exact energy P(n + 1/2).

    Its eigenstate is the oscillator's phi_n, so its node count is n, the level itself.
    """

    level: int
    energy: Fraction


@dataclass(frozen=True)
class OrderingReport:
    """How a point spectrum sits relative to Sturm-Liouville node ordering.

    Attributes:
        ascending_permutation: Level indices sorted by (energy, index); the stable
            tie-break keeps degenerate levels in index order.
        violations: Adjacent pairs (n, n+1) with E_n >= E_{n+1}.  The inequality is
            weak on purpose: a degeneracy already breaks strict ordering.
        is_sturm_liouville_ordered: True when there are no violations.
    """

    ascending_permutation: tuple[int, ...]
    violations: tuple[tuple[int, int], ...]
    is_sturm_liouville_ordered: bool


def _scaled_numerators(ham: PolynomialHamiltonian, v: int) -> tuple[list[int], int]:
    # P(u / v) = sum_j s_j u^j / D: with a_j = c_j / D0, s_j = c_j v^(top-j) and D = D0 v^top.
    coeffs, den = _common_denominator(ham.dense_coefficients())
    scaled, scale = [], 1  # scale = v^(top-j), a running power from j = top down
    for c in reversed(coeffs):
        scaled.append(c * scale)
        scale *= v
    return scaled[::-1], den * scale


def _horner(coeffs: Sequence[int], den: int, u: int) -> Fraction:
    # sum_j coeffs[j - 1] u^j / den: no constant term, so the last step multiplies by u.
    acc = 0
    for c in reversed(coeffs):
        acc = acc * u + c
    return Fraction(acc * u, den)


def evaluate_polynomial(ham: PolynomialHamiltonian, xi: Fraction) -> Fraction:
    """Exact value of P at a rational point, by Horner's scheme.

    The constant term is implicitly zero, so P(0) = 0.  With xi = u / v the scheme
    runs on integers, in u over coefficients scaled once by powers of v.
    """
    xi = _as_fraction(xi)
    return _horner(*_scaled_numerators(ham, xi.denominator), xi.numerator)


def evaluate_spectrum(ham: PolynomialHamiltonian, count: int) -> tuple[LevelRecord, ...]:
    """Exact energies P(n + 1/2) for levels n = 0..count-1, by Horner at t_n = 2n + 1.

    Args:
        ham: The polynomial Hamiltonian.
        count: Number of levels, >= 1.
    """
    count = _as_index(count, "level count", 1)
    coeffs, den = _scaled_numerators(ham, 2)  # h_n = t_n / 2, for every level at once
    return tuple([LevelRecord(n, _horner(coeffs, den, 2 * n + 1)) for n in range(count)])


def ordering_report(records: Sequence[LevelRecord]) -> OrderingReport:
    """Sort levels by energy and list every adjacent node-ordering violation."""
    if not records:
        raise ValueError("ordering needs at least one level record")
    for i, rec in enumerate(records):
        if rec.level != i:
            raise ValueError(f"records must cover levels 0..{len(records) - 1} in order")
    # Numerators over one common denominator order as the energies do, and compare
    # as plain integers; the sort is stable, so ties keep index order.
    nums, _ = _common_denominator([rec.energy for rec in records])
    order = sorted(range(len(nums)), key=nums.__getitem__)
    violations = tuple([(i, i + 1) for i in range(len(nums) - 1) if nums[i] >= nums[i + 1]])
    return OrderingReport(tuple(order), violations, not violations)


def classical_cross_section(ham: PolynomialHamiltonian, x: float) -> float:
    """Zero-momentum cut P(x^2 / 2) through the classical Hamiltonian surface.

    The position enters only through x^2/2, which is the classical counterpart of
    the oscillator energy; the single float product keeps the evaluation exact
    afterwards, so the cut is symmetric in x by construction.
    """
    xi = Fraction(x * x / 2.0)
    return float(evaluate_polynomial(ham, xi))
