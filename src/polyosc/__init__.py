"""Polynomial oscillator Hamiltonians with a dialled point spectrum.

Build P(h) from an arbitrary finite list of target energies by exact linear
algebra, inspect the induced spectrum and its nodal ordering, and cross-check
both on a finite-difference grid.

The exact half (exactalg, spectrum, oscillator) needs only the standard library;
numpy loads with gridverify, scipy with its eigensolve.  Each exported name is
looked up in its module on first use, so `import polyosc` imports no submodule yet.
"""

import importlib

# Submodule -> the names it exports, in `__all__` order.
_EXPORTS = {
    "exactalg": ("EnergyMatrix", "PolynomialHamiltonian", "SpectrumTarget",
                 "build_energy_matrix", "determinant", "determinant_closed_form", "dial",
                 "dial_partial", "solve_linear_exact"),
    "gridverify": ("EigensolverError", "GridEigenSolution", "GridOperator", "GridSpec",
                   "LevelCheck", "VerificationReport", "build_oscillator_grid",
                   "count_nodes", "diagonalize", "matrix_polynomial", "verify_dialled"),
    "oscillator": ("eigenfunction_samples", "oscillator_energy"),
    "spectrum": ("LevelRecord", "OrderingReport", "classical_cross_section",
                 "evaluate_polynomial", "evaluate_spectrum", "ordering_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


class EigensolverError(RuntimeError):
    """Raised when the symmetric band eigensolver fails or returns junk.

    Defined here rather than in gridverify so that the CLI can map it to its exit
    code without importing numpy; gridverify re-exports it.
    """


def __getattr__(name: str):
    # Nothing is cached, so an exported name is always the object its module
    # holds now, a monkeypatched or wrapped function included.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
