import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from polyosc.oscillator import analytic_node_count, eigenfunction_samples, oscillator_energy

# ---------------------------------------------------------------- test oracle
# Exact Hermite polynomials give phi_n by the explicit formula, a route that
# shares nothing with the normalized recurrence in eigenfunction_samples.


@dataclass(frozen=True)
class HermitePoly:
    """Physicists' Hermite polynomial eta_n with exact integer coefficients.

    Attributes:
        n: Polynomial degree.
        coefficients: Coefficients from constant to leading term, length n + 1.
    """

    n: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"degree must be non-negative, got {self.n}")
        if len(self.coefficients) != self.n + 1:
            raise ValueError(
                f"degree-{self.n} polynomial needs {self.n + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def evaluate(self, x: float) -> float:
        """Evaluate at x by Horner's scheme."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def hermite(n: int) -> HermitePoly:
    """Physicists' Hermite polynomial via eta_{k+1} = 2x eta_k - 2k eta_{k-1}.

    Coefficients are exact integers; the leading coefficient is 2^n.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    prev = [1]
    if n == 0:
        return HermitePoly(0, tuple(prev))
    cur = [0, 2]
    for k in range(1, n):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return HermitePoly(n, tuple(cur))


def phi_direct(n: int, x: float) -> float:
    """phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) from the Hermite oracle."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return hermite(n).evaluate(x) * math.exp(-x * x / 2.0) / norm


def phi(n: int, x: float) -> float:
    return float(eigenfunction_samples(n, np.array([x]))[0])


# ------------------------------------------------------------------- tests

def test_oscillator_energy_first_values():
    assert oscillator_energy(0) == Fraction(1, 2)
    assert oscillator_energy(1) == Fraction(3, 2)
    assert oscillator_energy(7) == Fraction(15, 2)


def test_oscillator_energy_rejects_negative():
    with pytest.raises(ValueError):
        oscillator_energy(-1)


# Hand-expanded from the recurrence H_{k+1} = 2x H_k - 2k H_{k-1}.
HERMITE_TABLE = {
    0: (1,),
    1: (0, 2),
    2: (-2, 0, 4),
    3: (0, -12, 0, 8),
    4: (12, 0, -48, 0, 16),
    5: (0, 120, 0, -160, 0, 32),
}


def test_hermite_low_orders():
    for n, coeffs in HERMITE_TABLE.items():
        assert hermite(n).coefficients == coeffs


def test_hermite_parity():
    # H_n has only terms of the parity of n
    for n in range(12):
        for i, c in enumerate(hermite(n).coefficients):
            if (i - n) % 2:
                assert c == 0


def test_hermite_poly_validates_length():
    with pytest.raises(ValueError):
        HermitePoly(2, (1, 2))


def test_hermite_evaluate():
    h3 = hermite(3)
    assert h3.evaluate(2.0) == 8 * 8.0 - 12 * 2.0
    assert h3.evaluate(0.0) == 0.0


def test_eigenfunction_against_explicit_formula():
    # frozen from an explicit H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) evaluation
    assert phi(0, 0.0) == pytest.approx(0.7511255444649425, rel=1e-14)
    assert phi(3, 0.7) == pytest.approx(-0.4799535030961139, rel=1e-13)
    assert phi(7, -1.9) == pytest.approx(0.30500530049199953, rel=1e-13)
    assert phi(12, 3.25) == pytest.approx(-0.3189889915889105, rel=1e-13)
    for n, x in ((0, 0.0), (3, 0.7), (7, -1.9), (12, 3.25)):
        assert phi(n, x) == pytest.approx(phi_direct(n, x), rel=1e-12)


def test_eigenfunction_far_tail_is_stable():
    # deep under the barrier the normalized recurrence must not blow up
    assert phi(20, 10.0) == pytest.approx(3.3140237863718264e-09, rel=1e-10)
    assert phi(20, 10.0) == pytest.approx(phi_direct(20, 10.0), rel=1e-10)
    assert abs(phi(32, 12.0)) < 1e-9


def test_eigenfunction_matches_direct_formula_randomized():
    rng = random.Random(420)
    for _ in range(60):
        n = rng.randrange(0, 15)
        x = rng.uniform(-4.0, 4.0)
        assert phi(n, x) == pytest.approx(phi_direct(n, x), rel=1e-11, abs=1e-13)


def test_eigenfunction_samples_vectorized():
    xs = np.linspace(-3.0, 3.0, 7)
    vals = eigenfunction_samples(2, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == phi(2, float(x))  # elementwise, the same value as a one-point call
        assert v == pytest.approx(phi_direct(2, float(x)), rel=1e-13, abs=1e-15)


def test_eigenfunction_symmetry():
    xs = np.linspace(0.1, 5.0, 23)
    for n in (0, 1, 4, 9):
        left = eigenfunction_samples(n, -xs)
        right = eigenfunction_samples(n, xs)
        sign = 1.0 if n % 2 == 0 else -1.0
        assert np.allclose(left, sign * right, rtol=0, atol=0)


def test_eigenfunction_orthonormality_trapezoid():
    xs = np.linspace(-12.0, 12.0, 2001)
    funcs = [eigenfunction_samples(n, xs) for n in range(8)]
    for n in range(8):
        for m in range(n, 8):
            overlap = np.trapezoid(funcs[n] * funcs[m], xs)
            expected = 1.0 if n == m else 0.0
            assert overlap == pytest.approx(expected, abs=1e-12)


def test_eigenfunction_input_validation():
    with pytest.raises(ValueError):
        eigenfunction_samples(-1, np.array([0.0]))
    with pytest.raises(ValueError):
        eigenfunction_samples(2, np.array([math.inf]))
    with pytest.raises(ValueError):
        eigenfunction_samples(1, np.array([0.0, math.nan]))


def test_analytic_node_count():
    assert [analytic_node_count(n) for n in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        analytic_node_count(-3)
