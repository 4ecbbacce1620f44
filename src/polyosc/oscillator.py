"""Harmonic-oscillator reference data: energies and eigenfunctions.

Everything is in dimensionless form (unit mass, unit frequency, hbar = 1), so the
oscillator Hamiltonian is p^2/2 + x^2/2 with eigenvalues n + 1/2 and eigenfunctions
phi_n(x) = eta_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) for the physicists' Hermite
polynomials eta_n.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads only when eigenfunctions are sampled
    import numpy as np
    import numpy.typing as npt


def _as_index(value, name: str, least: int) -> int:
    # The one check of an integer argument, be it a level, power, count or grid size.
    # Anything with __index__ (int, numpy integers) passes, from `least` up; bools do
    # not, and a float is refused, not truncated as int() would: 1.7 is not level 1.
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} {value!r} must be an integer")
    index = operator.index(value)
    if index < least:
        raise ValueError(f"{name} {index} must be >= {least}")
    return index


def oscillator_energy(n: int) -> Fraction:
    """Exact oscillator eigenvalue n + 1/2 for level n.

    Args:
        n: Level index, n >= 0.

    Returns:
        The eigenvalue as an exact rational.
    """
    return Fraction(2 * _as_index(n, "level", 0) + 1, 2)


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
    n = _as_index(n, "level", 0)
    import numpy as np

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
