"""Check the exact spectrum against a matrix that never saw the algebra.

The verifier discretizes the oscillator on a uniform grid, diagonalizes that
matrix with LAPACK and sends its eigenvalues through the same polynomial, whose
matrix would share its eigenvectors. If the exact story is right, the lowest
mapped values land on the dialled energies and each eigenvector keeps the node
count of the oscillator state it came from.
"""

from fractions import Fraction

from polyosc import PolynomialHamiltonian, verify_dialled

QUADRATIC = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])
IDENTITY = PolynomialHamiltonian.from_dense([Fraction(1)])


def show(ham: PolynomialHamiltonian, title: str) -> None:
    report = verify_dialled(ham)
    print(title)
    print(f"  grid: {report.spec.points} points on [-{report.spec.half_width:g}, {report.spec.half_width:g}]")
    print(f"  {'k':>3} {'grid eigenvalue':>18} {'nodes':>6} {'exact':>8} {'rel err':>10}")
    for k, (check, nodes) in enumerate(zip(report.checks, report.node_sequence)):
        rel = f"{check.rel_error:.2e}" if check.rel_error is not None else "(zero)"
        print(
            f"  {k:>3} {check.grid_eigenvalue:>18.10f} {nodes:>6}"
            f" {str(check.analytic_energy):>8} {rel:>10}"
        )
    print(f"  node sequence: {','.join(str(n) for n in report.node_sequence)}")
    print(f"  passed: {report.passed}\n")


def main() -> None:
    show(QUADRATIC, "dialled quadratic P(h) = h^2 - (13/2) h:")
    # control: the identity polynomial must reproduce the plain oscillator,
    # nodes in the usual 0,1,2,... order
    show(IDENTITY, "identity control P(h) = h:")


if __name__ == "__main__":
    main()
