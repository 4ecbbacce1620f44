"""Forward spectrum evaluation and Sturm-Liouville ordering analysis.

For a polynomial Hamiltonian P(h) the n-th eigenstate is the oscillator eigenstate
phi_n, so its node count stays n while its energy moves to P(t_n / 2), t_n = 2n + 1,
found by integer Horner in t_n.  Sorting the exact energies therefore reveals every
violation of the usual Sturm-Liouville rule that energies increase with node count.
"""

import math
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


# Exact real roots of an integer polynomial Q = sum_j q[j] x^j, q[-1] != 0, by
# Descartes' rule of signs: the sign changes of Q's coefficients exceed its positive
# roots by an even number.  Where that leaves an even count open, Collins-Akritas
# bisection (Collins & Akritas, SYMSAC 1976) decides it on Q's square-free part.

_PRIME = (1 << 61) - 1  # for the square-free screen


def _taylor_shift(q: Sequence[int], n: int, e: int = 0) -> list[int]:
    """2^(e deg Q) Q((n + y) / 2^e) in y: Q moved to x0 = n / 2^e, in integers.

    Its roots above y = 0 are Q's above x0, scaled by 2^e.
    """
    d = len(q) - 1
    a = [c << e * (d - j) for j, c in enumerate(q)]
    if n:
        for i in range(d):  # Horner's shift: d synthetic divisions by y - n
            for j in range(d - 1, i - 1, -1):
                a[j] += n * a[j + 1]
    return a


def _sign_changes(q: Sequence[int]) -> int:
    signs = [c > 0 for c in q if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bits(q: Sequence[int]) -> int:
    # b >= 0 with every complex root of Q below 2^b in modulus, by Fujiwara's bound
    # 2 max_j |q[d-j] / q[d]|^(1/j), each ratio rounded up to a power of two.
    d, top = len(q) - 1, abs(q[-1]).bit_length()
    return max([0] + [1 - (top - abs(c).bit_length() - 1) // (d - i)
                      for i, c in enumerate(q[:-1]) if c])


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _remainder(a: list[int], b: Sequence[int], p: int = 0) -> list[int]:
    # a mod b over the integers mod p, or b[-1]^k a mod b over the integers for p = 0
    a, inverse = a[:], pow(b[-1], -1, p) if p else 1
    while len(a) >= len(b):
        f, k = a[-1] * inverse % p if p else a[-1], len(a) - len(b)
        if not p:
            a = [c * b[-1] for c in a]
        for i, c in enumerate(b):
            a[k + i] = (a[k + i] - f * c) % p if p else a[k + i] - f * c
        _trim(a)
    return a


def _square_free(q: list[int]) -> list[int]:
    """A polynomial with the roots of Q, each once."""
    dq = [j * c for j, c in enumerate(q)][1:]
    a, b = [c % _PRIME for c in q], _trim([c % _PRIME for c in dq])
    while b and a[-1]:  # gcd(Q, Q') mod p has at least the degree of gcd(Q, Q')
        a, b = b, _remainder(a, b, _PRIME)
    if len(a) == 1:
        return q
    a, b = q, dq  # the primitive remainder sequence of Q and Q' ends in their gcd
    while b:
        a, b = b, _remainder(a, b)
        content = math.gcd(*b) if b else 1
        b = [c // content for c in b]
    content = math.gcd(*a)
    a = [c // content for c in a]
    quotient, rest = [], q[:]  # Q / gcd in integers, by Gauss's lemma
    while len(rest) >= len(a):
        f = rest[-1] // a[-1]
        quotient.append(f)
        for i, c in enumerate(a):
            rest[len(rest) - len(a) + i] -= f * c
        rest.pop()
    return quotient[::-1]


def _has_positive_root(t: list[int]) -> bool:
    """Whether T, with T(0) != 0, has a root above 0."""
    changes = _sign_changes(t)
    if changes % 2 or not changes:
        return bool(changes)
    t = _square_free(t)
    b = _root_bits(t)
    stack = [[c << b * j for j, c in enumerate(t)]]  # T(2^b x), its roots in (0, 1)
    while stack:  # each A maps a part of (0, 2^b) to (0, 1), its ends no roots
        a = stack.pop()
        changes = _sign_changes(_taylor_shift(a[::-1], 1))  # of (1 + x)^d A(1 / (1 + x))
        if changes % 2:
            return True
        if changes:
            left = [c << len(a) - 1 - j for j, c in enumerate(a)]  # 2^d A(x / 2)
            right = _taylor_shift(left, 1)  # 2^d A((1 + x) / 2)
            if not right[0]:
                return True
            stack += [left, right]
    return False


def _positive_from(q: Sequence[int], point) -> bool:
    """Whether Q(h) > 0 for every h >= point, an int or a float, read exactly."""
    n, den = point.as_integer_ratio()
    t = _taylor_shift(q, n, den.bit_length() - 1)
    return t[0] > 0 and not _has_positive_root(t)


def _root_ceiling(q: Sequence[int]) -> int | None:
    """The least integer above Q's largest real root, or None where Q has none.

    Q rises at infinity, q[-1] > 0, so it has no root from h on where it stays positive.
    """
    hi = 1 << _root_bits(q)
    lo = -hi
    if _positive_from(q, lo):
        return None
    while hi - lo > 1:  # Q has a root at or above lo, and none at or above hi
        mid = (lo + hi) // 2
        if _positive_from(q, mid):
            hi = mid
        else:
            lo = mid
    return hi


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
