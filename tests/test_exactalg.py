import random
from fractions import Fraction

import pytest

from polyosc import exactalg
from polyosc.exactalg import (
    EnergyMatrix,
    PolynomialHamiltonian,
    SingularMatrixError,
    SpectrumTarget,
    build_energy_matrix,
    determinant,
    determinant_closed_form,
    dial,
    dial_partial,
    solve_linear_exact,
)
from polyosc.oscillator import oscillator_energy
from polyosc.spectrum import evaluate_polynomial


def cofactor_det(rows):
    """Textbook cofactor expansion along the first row. O(n!) — keep n small."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# ------------------------------------------------------------------ dataclasses

def test_spectrum_target_from_energies():
    target = SpectrumTarget.from_energies([-3, Fraction(-15, 2)])
    assert target.levels == (0, 1)
    assert target.energies == (Fraction(-3), Fraction(-15, 2))


def test_spectrum_target_validation():
    with pytest.raises(ValueError):
        SpectrumTarget(())
    with pytest.raises(ValueError):
        SpectrumTarget(((1, Fraction(1)), (0, Fraction(2))))  # not increasing
    with pytest.raises(ValueError):
        SpectrumTarget(((0, Fraction(1)), (0, Fraction(2))))  # duplicate level
    with pytest.raises(ValueError):
        SpectrumTarget(((-1, Fraction(1)),))


def test_spectrum_target_refuses_floats():
    with pytest.raises(ValueError, match="float"):
        SpectrumTarget(((0, -3.5),))
    with pytest.raises(ValueError, match="float"):
        SpectrumTarget.from_energies([0.25])


def test_polynomial_hamiltonian_validation():
    with pytest.raises(ValueError):
        PolynomialHamiltonian(((0, Fraction(1)),))  # constant term forbidden
    with pytest.raises(ValueError):
        PolynomialHamiltonian(((2, Fraction(1)), (1, Fraction(1))))  # powers must climb
    ham = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])
    assert ham.terms == ((1, Fraction(-13, 2)), (2, Fraction(1)))
    assert ham.degree == 2
    assert ham.coefficient(1) == Fraction(-13, 2)
    assert ham.coefficient(7) == 0
    assert ham.dense_coefficients() == (Fraction(-13, 2), Fraction(1))


def test_polynomial_hamiltonian_zero_and_sparse():
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    assert zero.degree == 0
    sparse = PolynomialHamiltonian(((1, Fraction(-13, 2)), (2, Fraction(1)), (4, Fraction(0))))
    assert sparse.degree == 2  # trailing explicit zero does not raise the degree
    assert sparse.dense_coefficients() == (Fraction(-13, 2), Fraction(1), Fraction(0), Fraction(0))


def test_energy_matrix_entries():
    matrix = build_energy_matrix(range(3), range(1, 4))
    assert matrix.n_rows == matrix.n_cols == 3
    assert matrix.entries[0] == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert matrix.entries[2] == (Fraction(5, 2), Fraction(25, 4), Fraction(125, 8))
    assert matrix.column_powers == (1, 2, 3)


def test_energy_matrix_validation():
    with pytest.raises(ValueError):
        EnergyMatrix(((Fraction(1),),), column_powers=(1, 2))
    with pytest.raises(ValueError):
        build_energy_matrix(range(2), [0, 1])  # powers start at 1


# ------------------------------------------------------------------ determinant

def test_determinant_against_cofactor_expansion():
    for n in range(1, 7):
        matrix = build_energy_matrix(range(n), range(1, n + 1))
        rows = [list(r) for r in matrix.entries]
        assert determinant(matrix) == cofactor_det(rows)


def test_determinant_closed_form_values():
    # independently recomputed: prod_{g<N} g!(2g+1) / 2^N
    expected = {
        1: Fraction(1, 2),
        2: Fraction(3, 4),
        3: Fraction(15, 4),
        4: Fraction(315, 4),
        5: Fraction(8505),
        6: Fraction(5613300),
    }
    for n, value in expected.items():
        assert determinant_closed_form(n) == value
        assert determinant(build_energy_matrix(range(n), range(1, n + 1))) == value


def test_determinant_closed_form_matches_elimination_to_n12():
    for n in range(7, 13):
        matrix = build_energy_matrix(range(n), range(1, n + 1))
        assert determinant(matrix) == determinant_closed_form(n)


def test_determinant_singular_and_nonsquare():
    row = tuple(Fraction(1, 2) ** j for j in (1, 2))
    singular = EnergyMatrix((row, row), column_powers=(1, 2))
    assert determinant(singular) == 0
    wide = build_energy_matrix(range(2), range(1, 4))
    with pytest.raises(ValueError):
        determinant(wide)


def test_determinant_random_rational_matrices():
    # Bareiss vs cofactor on arbitrary rational matrices, sign included
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 5)
        rows = [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        matrix = EnergyMatrix(
            tuple(tuple(r) for r in rows),
            column_powers=tuple(range(1, n + 1)),
        )
        assert determinant(matrix) == cofactor_det(rows)


# ----------------------------------------------------------------- exact solve

def test_solve_linear_exact_known_system():
    matrix = build_energy_matrix(range(2), range(1, 3))
    solution = solve_linear_exact(matrix, (Fraction(-3), Fraction(-15, 2)))
    assert solution == (Fraction(-13, 2), Fraction(1))


def test_solve_linear_exact_singular_names_column():
    row = (Fraction(1, 2), Fraction(1, 4))
    matrix = EnergyMatrix((row, row), column_powers=(1, 2))
    with pytest.raises(SingularMatrixError, match=r"h\^2"):
        solve_linear_exact(matrix, (Fraction(1), Fraction(2)))
    zero = EnergyMatrix(((Fraction(0),),), column_powers=(3,))
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_exact(zero, (Fraction(1),))
    assert str(err.value) == "matrix is singular: no pivot available in the h^3 column"
    # a zero node is not interpolation: it goes to elimination, which names the column
    zero_node = EnergyMatrix(((Fraction(0), Fraction(0)), row), column_powers=(1, 2))
    with pytest.raises(SingularMatrixError, match=r"h\^2"):
        solve_linear_exact(zero_node, (Fraction(1), Fraction(2)))


def test_interpolation_and_elimination_agree_on_gapped_levels():
    # Powers 1..n are solved by interpolation; listing them as n..1 is not recognised
    # as an energy matrix, so the same system goes through Bareiss elimination.
    rng = random.Random(20240)
    for _ in range(30):
        n = rng.randrange(2, 17)
        levels = sorted(rng.sample(range(n + rng.randrange(0, 2 * n)), n))
        rhs = [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(n)]
        ascending = build_energy_matrix(levels, range(1, n + 1))
        descending = build_energy_matrix(levels, range(n, 0, -1))
        assert exactalg._vandermonde_nodes(ascending) is not None
        assert exactalg._vandermonde_nodes(descending) is None
        assert solve_linear_exact(ascending, rhs) == solve_linear_exact(descending, rhs)[::-1]


def test_solve_linear_exact_random_rational_rows_with_energy_powers():
    # column powers 1..n but arbitrary entries: solved by elimination, checked here
    rng = random.Random(4711)
    for _ in range(40):
        n = rng.randrange(1, 7)
        rows = tuple(
            tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n))
            for _ in range(n)
        )
        matrix = EnergyMatrix(rows, column_powers=tuple(range(1, n + 1)))
        if determinant(matrix) == 0:
            continue
        rhs = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(n)]
        x = solve_linear_exact(matrix, rhs)
        for row, b in zip(rows, rhs):
            assert sum((a * xj for a, xj in zip(row, x)), start=Fraction(0)) == b


def test_solve_linear_exact_residual_check_catches_a_wrong_interpolant(monkeypatch):
    interpolate = exactalg._interpolate

    def off_by_tiny(nodes, values):
        coeffs = interpolate(nodes, values)
        coeffs[-1] += Fraction(1, 10**30)
        return coeffs

    monkeypatch.setattr(exactalg, "_interpolate", off_by_tiny)
    matrix = build_energy_matrix(range(4), range(1, 5))
    with pytest.raises(RuntimeError, match="exact solve residual is nonzero"):
        solve_linear_exact(matrix, (Fraction(1), Fraction(2), Fraction(3), Fraction(5)))


def test_solve_linear_exact_rhs_length():
    matrix = build_energy_matrix(range(2), range(1, 3))
    with pytest.raises(ValueError):
        solve_linear_exact(matrix, (Fraction(1),))


# ------------------------------------------------------------------------ dial

def test_dial_two_level_example():
    ham = dial(SpectrumTarget.from_energies([Fraction(-3), Fraction(-15, 2)]))
    assert ham.dense_coefficients() == (Fraction(-13, 2), Fraction(1))


def test_dial_three_levels_frozen():
    # frozen from an independent fraction Gaussian elimination of the 3x3 system
    ham = dial(SpectrumTarget.from_energies([Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]))
    assert ham.dense_coefficients() == (
        Fraction(116, 105),
        Fraction(-104, 105),
        Fraction(8, 35),
    )


def test_dial_requires_contiguous_levels():
    target = SpectrumTarget(((0, Fraction(1)), (2, Fraction(2))))
    with pytest.raises(ValueError, match="dial_partial"):
        dial(target)


def test_dial_round_trip_randomized():
    rng = random.Random(31173)
    for _ in range(50):
        n = rng.randrange(1, 9)
        energies = [
            Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100)) for _ in range(n)
        ]
        ham = dial(SpectrumTarget.from_energies(energies))
        for level, energy in enumerate(energies):
            assert evaluate_polynomial(ham, oscillator_energy(level)) == energy


def test_dial_sixty_levels_round_trip():
    rng = random.Random(6060)
    energies = [
        Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12)) for _ in range(60)
    ]
    ham = dial(SpectrumTarget.from_energies(energies))
    assert [p for p, _ in ham.terms] == list(range(1, 61))
    for level, energy in enumerate(energies):
        assert evaluate_polynomial(ham, oscillator_energy(level)) == energy


def test_back_check_catches_a_perturbed_coefficient():
    target = SpectrumTarget.from_energies([Fraction(-3), Fraction(-15, 2)])
    ham = PolynomialHamiltonian.from_dense([Fraction(-13, 2), 1 + Fraction(1, 10**30)])
    with pytest.raises(RuntimeError) as err:
        exactalg._check_dialled(ham, target)
    value = Fraction(-3) + Fraction(1, 4 * 10**30)  # P(h_0) = -13/4 + (1 + 1e-30)/4
    assert str(err.value) == f"internal consistency failure: P(h_0) = {value} != -3"

    rng = random.Random(1212)
    pairs = tuple((lvl, Fraction(rng.randrange(-999, 999), rng.randrange(1, 99)))
                  for lvl in sorted(rng.sample(range(20), 12)))
    terms = list(dial_partial(SpectrumTarget(pairs)).terms)
    p, a = terms[5]
    terms[5] = (p, a + Fraction(1, 10**30))
    with pytest.raises(RuntimeError, match=r"P\(h_\d+\) = -?\d+/\d+ != "):
        exactalg._check_dialled(PolynomialHamiltonian(tuple(terms)), SpectrumTarget(pairs))


def test_dial_identity_spectrum():
    # asking for h_n itself must return the identity polynomial
    ham = dial(SpectrumTarget.from_energies([Fraction(2 * n + 1, 2) for n in range(5)]))
    assert ham.dense_coefficients() == (
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


# ---------------------------------------------------------------- dial_partial

def test_dial_partial_default_drops_highest():
    target = SpectrumTarget(((0, Fraction(1)), (2, Fraction(2))))
    ham = dial_partial(target)
    assert ham.terms == ((1, Fraction(23, 10)), (2, Fraction(-3, 5)))
    assert evaluate_polynomial(ham, Fraction(1, 2)) == 1
    assert evaluate_polynomial(ham, Fraction(5, 2)) == 2


def test_dial_partial_explicit_drop():
    target = SpectrumTarget.from_energies([Fraction(-3), Fraction(-15, 2), Fraction(-10)])
    ham = dial_partial(target, drop_powers=[3])
    assert ham.coefficient(1) == Fraction(-13, 2)
    assert ham.coefficient(2) == Fraction(1)
    assert ham.coefficient(4) == Fraction(0)
    assert 3 not in dict(ham.terms)


def test_dial_partial_matches_dial_for_contiguous():
    energies = [Fraction(5), Fraction(-2), Fraction(7, 3)]
    target = SpectrumTarget.from_energies(energies)
    assert dial_partial(target).terms == dial(target).terms


def test_dial_partial_drop_validation():
    target = SpectrumTarget.from_energies([Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        dial_partial(target, drop_powers=[0])
    with pytest.raises(ValueError):
        dial_partial(target, drop_powers=[4])  # exceeds k + len(drop) = 3
    with pytest.raises(ValueError):
        dial_partial(target, drop_powers=[1, 1])


def test_dial_partial_round_trip_randomized():
    rng = random.Random(7741)
    for _ in range(40):
        k = rng.randrange(1, 6)
        levels = sorted(rng.sample(range(10), k))
        pairs = tuple(
            (lvl, Fraction(rng.randrange(-500, 500), rng.randrange(1, 40))) for lvl in levels
        )
        target = SpectrumTarget(pairs)
        n_drop = rng.randrange(0, 3)
        n_full = k + n_drop
        drop = sorted(rng.sample(range(1, n_full + 1), n_drop)) if n_drop else None
        ham = dial_partial(target, drop_powers=drop)
        for level, energy in pairs:
            assert evaluate_polynomial(ham, oscillator_energy(level)) == energy
