"""The headline effect: node counts frozen, energies reshuffled.

For the ordinary oscillator the n-th eigenfunction has n nodes and the
energies climb with n. Feeding the oscillator through a polynomial keeps
every eigenfunction (and so its node count) but moves its energy to P(h_n),
which need not be monotone. The result is a Hamiltonian whose third excited
state is its ground state.
"""

from fractions import Fraction

from polyosc import PolynomialHamiltonian, evaluate_spectrum, ordering_report

# P(h) = h^2 - 13 h / 2: two dialled levels, seven spectators
HAM = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])


def main() -> None:
    records = evaluate_spectrum(HAM, 9)
    print("P(h) = h^2 - (13/2) h applied to the oscillator:")
    print(f"{'n':>3} {'h_n':>6} {'E_n = P(h_n)':>14} {'decimal':>9} {'nodes':>6}")
    for rec in records:  # phi_n has n nodes, so level n's node count is n
        h = Fraction(2 * rec.level + 1, 2)
        print(f"{rec.level:>3} {str(h):>6} {str(rec.energy):>14} {float(rec.energy):>9.2f} {rec.level:>6}")

    report = ordering_report(records)
    print("\nenergies sorted ascending, labelled by node count:")
    print("  ", " < ".join(str(n) for n in report.ascending_permutation))
    print("\nadjacent pairs where the node ordering runs backwards:")
    for a, b in report.violations:
        print(f"  E_{a} >= E_{b} although state {a} has fewer nodes than state {b}")
    print(f"\nSturm-Liouville ordered: {report.is_sturm_liouville_ordered}")
    print("the 3-node state sits at the bottom of the spectrum — a textbook")
    print("impossibility for any Schroedinger operator with a local potential.")


if __name__ == "__main__":
    main()
