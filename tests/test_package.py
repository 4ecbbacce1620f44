import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyosc

PUBLIC = [
    "EnergyMatrix",
    "PolynomialHamiltonian",
    "SpectrumTarget",
    "build_energy_matrix",
    "determinant",
    "determinant_closed_form",
    "dial",
    "dial_partial",
    "solve_linear_exact",
    "EigensolverError",
    "GridEigenSolution",
    "GridOperator",
    "GridSpec",
    "LevelCheck",
    "VerificationReport",
    "build_oscillator_grid",
    "count_nodes",
    "diagonalize",
    "matrix_polynomial",
    "verify_dialled",
    "analytic_node_count",
    "eigenfunction_samples",
    "oscillator_energy",
    "LevelRecord",
    "OrderingReport",
    "classical_cross_section",
    "evaluate_polynomial",
    "evaluate_spectrum",
    "ordering_report",
    "__version__",
]

HOMES = {
    "exactalg": PUBLIC[0:9],
    "gridverify": PUBLIC[9:20],
    "oscillator": PUBLIC[20:23],
    "spectrum": PUBLIC[23:29],
}


def test_public_names_are_pinned():
    assert polyosc.__all__ == PUBLIC
    assert polyosc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"polyosc.{module}")
    assert getattr(polyosc, module) is home
    for name in HOMES[module]:
        assert getattr(polyosc, name) is getattr(home, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'dial_all'"):
        polyosc.dial_all
    assert not hasattr(polyosc, "numpy")
    assert set(PUBLIC) <= set(dir(polyosc))


EXACT_SESSION = """
import contextlib, io, sys
import polyosc, polyosc.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [polyosc.cli.main(argv) for argv in (
        ["dial", "--targets", "0:2,1:3,2:5", "--format", "json"],
        ["spectrum", "--coeffs=-13/2,1"],
        ["det", "6"],
    )]
assert codes == [0, 0, 0], codes
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_exact_commands_import_neither_numpy_nor_scipy():
    src = str(Path(polyosc.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", EXACT_SESSION], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\n"


FIGURE_SESSION = """
import sys, tempfile
import polyosc.cli
with tempfile.TemporaryDirectory() as out:
    code = polyosc.cli.main(["figure", "--coeffs=-13/2,1", "--levels", "3", "--out", out])
assert code == 0, code
print(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}))
"""


def test_figure_loads_numpy_but_not_scipy():
    src = str(Path(polyosc.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", FIGURE_SESSION], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['numpy']\n"
