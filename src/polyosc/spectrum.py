"""Forward spectrum evaluation and Sturm-Liouville ordering analysis.

For a polynomial Hamiltonian P(h) the n-th eigenstate is the oscillator eigenstate
phi_n, so its node count stays n while its energy moves to P(n + 1/2).  Sorting the
exact energies therefore reveals every violation of the usual Sturm-Liouville rule
that energies increase with node count.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import PolynomialHamiltonian, _as_fraction, _common_denominator
from .oscillator import _as_index, analytic_node_count, oscillator_energy


@dataclass(frozen=True)
class LevelRecord:
    """One analytic level: index, exact energy, and node count (= index)."""

    level: int
    energy: Fraction
    node_count: int


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


def _horner(coeffs: Sequence[int], den: int, point: Fraction) -> Fraction:
    # Integer Horner, as evaluate_polynomial describes.
    u, v = point.numerator, point.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c * scale
        scale *= v
    return Fraction(acc * u, den * scale)


def evaluate_polynomial(ham: PolynomialHamiltonian, xi: Fraction) -> Fraction:
    """Exact value of P at a rational point, by Horner's scheme.

    The constant term is implicitly zero, so the final Horner step multiplies by xi
    once more and P(0) = 0 for every polynomial.  The scheme runs on integers: with
    xi = u / v and a_j = c_j / D it accumulates sum_j c_j u^(j-1) v^(top-j) and
    builds one Fraction at the end.
    """
    return _horner(*_common_denominator(ham.dense_coefficients()), _as_fraction(xi))


def evaluate_spectrum(ham: PolynomialHamiltonian, count: int) -> tuple[LevelRecord, ...]:
    """Exact energies P(n + 1/2) for levels n = 0..count-1, one set of integer coefficients.

    Args:
        ham: The polynomial Hamiltonian.
        count: Number of levels, >= 1.
    """
    count = _as_index(count, "level count", 1)
    coeffs, den = _common_denominator(ham.dense_coefficients())
    records = []
    for n in range(count):
        energy = _horner(coeffs, den, oscillator_energy(n))
        records.append(LevelRecord(n, energy, analytic_node_count(n)))
    return tuple(records)


def ordering_report(records: Sequence[LevelRecord]) -> OrderingReport:
    """Sort levels by energy and list every adjacent node-ordering violation."""
    if not records:
        raise ValueError("ordering needs at least one level record")
    for i, rec in enumerate(records):
        if rec.level != i:
            raise ValueError(f"records must cover levels 0..{len(records) - 1} in order")
    order = sorted(range(len(records)), key=lambda i: (records[i].energy, i))
    violations = tuple(
        (i, i + 1)
        for i in range(len(records) - 1)
        if records[i].energy >= records[i + 1].energy
    )
    return OrderingReport(tuple(order), violations, not violations)


def classical_cross_section(ham: PolynomialHamiltonian, x: float) -> float:
    """Zero-momentum cut P(x^2 / 2) through the classical Hamiltonian surface.

    The position enters only through x^2/2, which is the classical counterpart of
    the oscillator energy; the single float product keeps the evaluation exact
    afterwards, so the cut is symmetric in x by construction.
    """
    xi = Fraction(x * x / 2.0)
    return float(evaluate_polynomial(ham, xi))
