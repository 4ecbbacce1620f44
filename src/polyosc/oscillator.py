"""Harmonic-oscillator reference data: energies, eigenfunctions and node counts.

Everything is in dimensionless form (unit mass, unit frequency, hbar = 1), so the
oscillator Hamiltonian is p^2/2 + x^2/2 with eigenvalues n + 1/2 and eigenfunctions
phi_n(x) = eta_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) for the physicists' Hermite
polynomials eta_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads only when eigenfunctions are sampled
    import numpy as np
    import numpy.typing as npt


def oscillator_energy(n: int) -> Fraction:
    """Exact oscillator eigenvalue n + 1/2 for level n.

    Args:
        n: Level index, n >= 0.

    Returns:
        The eigenvalue as an exact rational.
    """
    if n < 0:
        raise ValueError(f"level index must be non-negative, got {n}")
    return Fraction(2 * n + 1, 2)


def eigenfunction_samples(n: int, x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Normalized oscillator eigenfunction phi_n sampled on an array of positions.

    Uses the normalized three-term recurrence
        phi_0 = pi^(-1/4) exp(-x^2/2),
        phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1},
    which keeps the Gaussian factor inside every iterate.  Below the classical
    turning point of level n the recurrence tracks the dominant solution, so it is
    stable for the ranges used here (n up to a few tens, |x| up to ~12).

    Args:
        n: Level index, n >= 0.
        x: Sample positions, all finite.

    Returns:
        Array of phi_n values with the same shape as x.
    """
    import numpy as np

    if n < 0:
        raise ValueError(f"level index must be non-negative, got {n}")
    xs = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample positions must be finite")
    p_prev = np.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if n == 0:
        return p_prev
    p_cur = math.sqrt(2.0) * xs * p_prev
    for k in range(1, n):
        p_prev, p_cur = p_cur, (
            math.sqrt(2.0 / (k + 1)) * xs * p_cur - math.sqrt(k / (k + 1.0)) * p_prev
        )
    return p_cur


def analytic_node_count(n: int) -> int:
    """Number of real zeros of phi_n, which is exactly n."""
    if n < 0:
        raise ValueError(f"level index must be non-negative, got {n}")
    return n
