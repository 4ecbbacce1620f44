import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial

import pytest

from polyosc import exactalg
from polyosc.exactalg import (
    EnergyMatrix,
    PolynomialHamiltonian,
    SpectrumTarget,
    build_energy_matrix,
    determinant,
    determinant_closed_form,
    dial,
    dial_partial,
    solve_linear_exact,
)
from polyosc.oscillator import eigenfunction_samples, oscillator_energy
from polyosc.spectrum import evaluate_polynomial, evaluate_spectrum


def energy_rows(levels, powers):
    """The energy matrix as Fraction rows, built here from oscillator_energy."""
    return [[oscillator_energy(n) ** j for j in powers] for n in levels]


def cofactor_det(rows):
    """Textbook cofactor expansion along the first row, recursively.

    Each minor is memoised by its first row and its remaining columns, so the
    expansion costs O(n^2 2^n) rather than O(n!); keep n small all the same.
    """
    n = len(rows)

    @cache
    def expand(r, cols):
        if r == n - 1:
            return rows[r][cols[0]]
        total = Fraction(0)
        for k, j in enumerate(cols):
            term = rows[r][j] * expand(r + 1, cols[:k] + cols[k + 1 :])
            total += term if k % 2 == 0 else -term
        return total

    return expand(0, tuple(range(n)))


def gauss_jordan(rows, rhs):
    """Solve rows * x = rhs in Fractions by Gauss-Jordan elimination with row pivoting."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for k in range(n):
        p = next(r for r in range(k, n) if m[r][k])
        m[k], m[p] = m[p], m[k]
        m[k] = [v / m[k][k] for v in m[k]]
        for r in range(n):
            if r != k and m[r][k]:
                m[r] = [a - m[r][k] * c for a, c in zip(m[r], m[k])]
    return [row[n] for row in m]


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


# Each value the parent misread (1.7 as level 1, True as energy 1, 2.5 as drop power 2)
# or crashed on (ZeroDivisionError, TypeError) is refused with a ValueError naming it.
_TWO_LEVELS = SpectrumTarget(((0, 1), (2, 2)))
_LINEAR = PolynomialHamiltonian.from_dense([1])
REFUSED_INPUTS = [
    pytest.param(lambda: SpectrumTarget(((1.7, 2),)), "level 1.7 must be an integer",
                 id="target-level-1.7"),
    pytest.param(lambda: SpectrumTarget(((True, 2),)), "level True must be an integer",
                 id="target-level-true"),
    pytest.param(lambda: SpectrumTarget(((0, True),)), "got bool True", id="target-energy-true"),
    pytest.param(lambda: SpectrumTarget(((0, "1/0"),)), "zero denominator in '1/0'",
                 id="target-energy-zero-denominator"),
    pytest.param(lambda: SpectrumTarget(((0, None),)), "cannot parse None as an exact rational",
                 id="target-energy-none"),
    pytest.param(lambda: SpectrumTarget(((0, Decimal("Infinity")),)),
                 "cannot parse Decimal('Infinity') as an exact rational", id="target-energy-inf"),
    pytest.param(lambda: PolynomialHamiltonian(((1.9, 1),)), "term power 1.9 must be an integer",
                 id="term-power-1.9"),
    pytest.param(lambda: PolynomialHamiltonian(((1, [1]),)), "cannot parse [1] as an exact",
                 id="term-coefficient-list"),
    pytest.param(lambda: dial_partial(_TWO_LEVELS, [2.5]), "drop power 2.5 must be an integer",
                 id="drop-power-2.5"),
    pytest.param(lambda: dial_partial(_TWO_LEVELS, [True]), "drop power True must be an integer",
                 id="drop-power-true"),
    pytest.param(lambda: EnergyMatrix((0.5,), (1,)), "level 0.5 must be an integer",
                 id="matrix-level-0.5"),
    pytest.param(lambda: build_energy_matrix([0], [Fraction(1)]),
                 "column power Fraction(1, 1) must be an integer", id="matrix-power-fraction"),
    pytest.param(lambda: evaluate_polynomial(_LINEAR, 0.1), "got float 0.1", id="point-float"),
]


@pytest.mark.parametrize(("make", "message"), REFUSED_INPUTS)
def test_inexact_or_non_integer_input_is_refused(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert message in str(err.value)


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "\uff11", "1/\uff12", "\u0661", "1\u00a0"])
def test_rational_strings_are_ascii_without_separators(text):
    with pytest.raises(ValueError) as err:
        exactalg._as_fraction(text)
    assert str(err.value) == f"cannot parse {text!r} as an exact rational"


def test_exact_fraction_passes_unchanged():
    # a Fraction is already exact and is returned as the same object; a subclass is
    # read through Fraction() like any other value
    f = Fraction(-15, 2)
    assert exactalg._as_fraction(f) is f

    class Half(Fraction):
        pass

    sub = Half(1, 2)
    assert type(exactalg._as_fraction(sub)) is Fraction
    assert exactalg._as_fraction(sub) == Fraction(1, 2)


def test_rational_strings_keep_ascii_forms():
    assert exactalg._as_fraction(" -15/2 ") == Fraction(-15, 2)
    assert exactalg._as_fraction("1.25e1") == Fraction(25, 2)


# A string iterates as its characters, each a digit Fraction would accept: "12" is
# not the coefficients 1, 2, nor "35" the energies 3, 5.
STRING_SEQUENCES = {
    "from_dense": (lambda: PolynomialHamiltonian.from_dense("12"), "coefficients", "'12'"),
    "from_energies": (lambda: SpectrumTarget.from_energies(b"35"), "energies", "b'35'"),
    "solve_linear_exact": (
        lambda: solve_linear_exact(build_energy_matrix(range(2), range(1, 3)), "35"),
        "right-hand side", "'35'"),
}


@pytest.mark.parametrize("site", sorted(STRING_SEQUENCES))
def test_a_string_is_refused_as_a_sequence_of_rationals(site):
    make, name, text = STRING_SEQUENCES[site]
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == f"{name} must be a sequence of rationals, not the string {text}"


def _gridverify():
    # needs numpy; without it the cases that use it skip
    return pytest.importorskip("polyosc.gridverify")


# Every integer argument, its name in the refusal and its least value: each is
# checked once, by oscillator._as_index, for type and lower bound.
INTEGER_ARGUMENTS = {
    "oscillator_energy": (oscillator_energy, "level", 0),
    "eigenfunction_samples": (lambda n: eigenfunction_samples(n, [0.0]), "level", 0),
    "matrix-level": (lambda n: EnergyMatrix((n,), (1,)), "level", 0),
    "matrix-power": (lambda j: EnergyMatrix((0,), (j,)), "column power", 1),
    "target-level": (lambda n: SpectrumTarget(((n, 1),)), "level", 0),
    "term-power": (lambda p: PolynomialHamiltonian(((p, 1),)), "term power", 1),
    "drop-power": (lambda p: dial_partial(_TWO_LEVELS, [p]), "drop power", 1),
    "determinant_closed_form": (determinant_closed_form, "matrix size", 1),
    "evaluate_spectrum": (lambda c: evaluate_spectrum(_LINEAR, c), "level count", 1),
    "gridverify-points": (lambda k: _gridverify().GridSpec(points=k), "grid points", 3),
    "gridverify-levels": (lambda c: _gridverify().verify_dialled(_LINEAR, levels_to_check=c),
                          "level count", 1),
    "gridverify-eigenpairs": (
        lambda c: _gridverify().diagonalize(
            _gridverify().build_oscillator_grid(_gridverify().GridSpec(1.0, 3)), c),
        "eigenpair count", 1),
}
REFUSED_INTEGERS = [
    pytest.param(partial(call, value), message, id=f"{site}-{value}")
    for site, (call, name, least) in INTEGER_ARGUMENTS.items()
    for value, message in ((2.5, f"{name} 2.5 must be an integer"),
                           (True, f"{name} True must be an integer"),
                           (least - 1, f"{name} {least - 1} must be >= {least}"))
] + [
    pytest.param(partial(build_energy_matrix, [], []),
                 "energy matrix must be square and non-empty, got 0x0", id="matrix-empty"),
    pytest.param(lambda: determinant(build_energy_matrix([], [])),
                 "energy matrix must be square and non-empty, got 0x0", id="determinant-empty"),
    pytest.param(partial(build_energy_matrix, range(2), range(1, 4)),
                 "energy matrix must be square and non-empty, got 2x3", id="matrix-wide"),
]


@pytest.mark.parametrize(("make", "message"), REFUSED_INTEGERS)
def test_integer_arguments_and_matrix_shape_are_refused(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert message == str(err.value)


class _Index:
    # An integer type that is not int, as numpy's integers are.
    def __index__(self):
        return 2


def test_integer_like_levels_and_powers_are_accepted():
    assert SpectrumTarget(((_Index(), " 7/2 "),)).pairs == ((2, Fraction(7, 2)),)
    assert PolynomialHamiltonian(((_Index(), "0.5"),)).terms == ((2, Fraction(1, 2)),)
    assert build_energy_matrix(range(2), [_Index(), 1]).column_powers == (2, 1)
    assert dial_partial(_TWO_LEVELS, [_Index()]) == dial_partial(_TWO_LEVELS, [2])


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
    # The dense form ends at the degree; the stored zero stays a term.
    assert sparse.dense_coefficients() == (Fraction(-13, 2), Fraction(1))
    assert sparse.terms[-1] == (4, Fraction(0))


def test_energy_matrix_entries():
    matrix = build_energy_matrix(range(3), range(1, 4))
    assert matrix.levels == (0, 1, 2)
    assert matrix.column_powers == (1, 2, 3)
    # gapped levels and unordered powers are kept as given
    matrix = build_energy_matrix([1, 4], [3, 1])
    assert (matrix.levels, matrix.column_powers) == ((1, 4), (3, 1))


def test_energy_matrix_validation():
    with pytest.raises(ValueError, match="level -1 must be >= 0"):
        build_energy_matrix([-1, 0], [1, 2])
    with pytest.raises(ValueError, match="strictly increasing, got 1 then 1"):
        build_energy_matrix([0, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="strictly increasing, got 2 then 1"):
        EnergyMatrix(levels=(2, 1), column_powers=(1, 2))
    with pytest.raises(ValueError, match="column power 0 must be >= 1"):
        build_energy_matrix(range(2), [0, 1])
    with pytest.raises(ValueError, match="column power -2 must be >= 1"):
        EnergyMatrix(levels=(0,), column_powers=(-2,))
    # powers in any order stay allowed; a repeat, the one way to a singular matrix, is not
    assert build_energy_matrix(range(2), [2, 1]).column_powers == (2, 1)
    with pytest.raises(ValueError, match="column power 2 is repeated"):
        build_energy_matrix(range(2), [2, 2])


# ------------------------------------------------------------------ determinant

def test_determinant_against_cofactor_expansion():
    for n in range(1, 7):
        matrix = build_energy_matrix(range(n), range(1, n + 1))
        rows = energy_rows(range(n), range(1, n + 1))
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
    # a singular energy matrix takes a repeated power, refused at construction
    with pytest.raises(ValueError, match="column power 2 is repeated"):
        determinant(build_energy_matrix(range(2), (2, 2)))
    with pytest.raises(ValueError, match="column power 1 is repeated"):
        determinant(build_energy_matrix([1, 3, 4], (1, 3, 1)))
    with pytest.raises(ValueError):
        wide = build_energy_matrix(range(2), range(1, 4))
        determinant(wide)


def test_determinant_random_gapped_energy_matrices():
    # Bareiss vs cofactor on gapped levels and shuffled powers: the shuffles flip the
    # sign, which unpivoted elimination must carry through its leading minors.
    rng = random.Random(99)
    signs = set()
    for _ in range(60):
        n = rng.randrange(1, 6)
        levels = sorted(rng.sample(range(3 * n), n))
        powers = rng.sample(range(1, n + 4), n)
        expected = cofactor_det(energy_rows(levels, powers))
        assert determinant(build_energy_matrix(levels, powers)) == expected
        signs.add(expected > 0)
    assert signs == {True, False}


# ----------------------------------------------------------------- exact solve

def test_solve_linear_exact_known_system():
    matrix = build_energy_matrix(range(2), range(1, 3))
    solution = solve_linear_exact(matrix, (Fraction(-3), Fraction(-15, 2)))
    assert solution == (Fraction(-13, 2), Fraction(1))


def test_solve_linear_exact_singular_names_column():
    # a repeated power, the one way to a singular system, is refused by name before any solve
    with pytest.raises(ValueError) as err:
        solve_linear_exact(build_energy_matrix(range(2), (3, 3)), (Fraction(1), Fraction(2)))
    assert str(err.value) == "column power 3 is repeated"
    with pytest.raises(ValueError, match="^column power 1 is repeated$"):
        matrix = build_energy_matrix([0, 2, 5], (1, 2, 1))
        solve_linear_exact(matrix, (Fraction(1), Fraction(2), Fraction(3)))


def test_leading_minors_are_nonzero_with_the_sign_of_the_column_order():
    # Total positivity, on which unpivoted elimination rests: with gapped levels and
    # distinct powers in random order, each leading k x k minor is nonzero with the
    # sign of the permutation sorting its k powers, and so is the determinant.
    def sorting_sign(powers):
        inversions = sum(a > b for i, a in enumerate(powers) for b in powers[i + 1:])
        return -1 if inversions % 2 else 1

    rng = random.Random(7919)
    signs = set()
    for _ in range(60):
        n = rng.randrange(1, 9)
        levels = sorted(rng.sample(range(3 * n), n))
        powers = rng.sample(range(1, 2 * n + 2), n)
        rows = energy_rows(levels, powers)
        for k in range(1, n + 1):
            minor = cofactor_det([row[:k] for row in rows[:k]])
            assert minor * sorting_sign(powers[:k]) > 0
        det = determinant(build_energy_matrix(levels, powers))
        assert det * sorting_sign(powers) > 0 and det == minor
        signs.add(sorting_sign(powers))
    assert signs == {1, -1}


def counting_eliminations(monkeypatch):
    calls = []
    forward = exactalg._forward_eliminate

    def counted(m, n):
        calls.append(n)
        return forward(m, n)

    monkeypatch.setattr(exactalg, "_forward_eliminate", counted)
    return calls


def test_interpolation_and_elimination_agree_on_gapped_levels(monkeypatch):
    # Every solve interpolates.  Powers 1..n in any order eliminate nothing and return
    # the permuted solution; m powers missing below the top one eliminate the m x m
    # system alone.
    calls = counting_eliminations(monkeypatch)
    rng = random.Random(20240)
    for _ in range(30):
        n = rng.randrange(2, 17)
        levels = sorted(rng.sample(range(n + rng.randrange(0, 2 * n)), n))
        rhs = [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(n)]
        ascending = solve_linear_exact(build_energy_matrix(levels, range(1, n + 1)), rhs)
        descending = solve_linear_exact(build_energy_matrix(levels, range(n, 0, -1)), rhs)
        order = rng.sample(range(1, n + 1), n)
        shuffled = solve_linear_exact(build_energy_matrix(levels, order), rhs)
        assert calls == []
        assert ascending == descending[::-1]
        assert shuffled == tuple([ascending[p - 1] for p in order])
        m = rng.randrange(1, 6)
        powers = rng.sample(range(1, n + m), n - 1) + [n + m]
        rng.shuffle(powers)
        x = solve_linear_exact(build_energy_matrix(levels, powers), rhs)
        assert calls == [m]
        calls.clear()
        assert list(x) == gauss_jordan(energy_rows(levels, powers), rhs)


def test_solve_linear_exact_random_dropped_power_systems():
    # dropped and shuffled powers over gapped levels: interpolation plus the missing-power
    # system, checked here by Fraction substitution into the energy rows
    rng = random.Random(4711)
    for _ in range(40):
        n = rng.randrange(1, 8)
        levels = sorted(rng.sample(range(2 * n + 2), n))
        powers = rng.sample(range(1, n + 4), n)
        rhs = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(n)]
        x = solve_linear_exact(build_energy_matrix(levels, powers), rhs)
        for row, b in zip(energy_rows(levels, powers), rhs):
            assert sum((a * xj for a, xj in zip(row, x)), start=Fraction(0)) == b


def test_solve_linear_exact_residual_check_catches_a_wrong_interpolant(monkeypatch):
    interpolate = exactalg._interpolate

    def off_by_one_unit(nodes, nums, dens):
        coeffs, den = interpolate(nodes, nums, dens)
        coeffs[-1] += 1  # one unit of the last numerator, 1/den of the coefficient
        return coeffs, den

    monkeypatch.setattr(exactalg, "_interpolate", off_by_one_unit)
    matrix = build_energy_matrix(range(4), range(1, 5))
    with pytest.raises(RuntimeError, match="exact solve residual is nonzero"):
        solve_linear_exact(matrix, (Fraction(1), Fraction(2), Fraction(3), Fraction(5)))


def test_solve_linear_exact_random_missing_power_corrections():
    # Gapped levels, m = max(powers) - n from 0 to 20 and shuffled power order: the
    # interpolant plus its m x m correction must satisfy every row of the energy matrix,
    # and reproduce Fraction Gauss-Jordan where n is small.
    rng = random.Random(2525)
    seen = set()
    for case in range(210):
        n, m = rng.randrange(1, 9), case % 21
        levels = sorted(rng.sample(range(n + rng.randrange(0, 2 * n + 1)), n))
        powers = rng.sample(range(1, n + m), n - 1) + [n + m]
        rng.shuffle(powers)
        digits = rng.randrange(1, 13)
        rhs = [Fraction(rng.randrange(-10**digits, 10**digits), rng.randrange(1, 10**digits + 1))
               for _ in range(n)]
        x = solve_linear_exact(build_energy_matrix(levels, powers), rhs)
        rows = energy_rows(levels, powers)
        for row, b in zip(rows, rhs):
            assert sum(map(operator.mul, row, x), start=Fraction(0)) == b
        if n <= 4:
            assert list(x) == gauss_jordan(rows, rhs)
        seen.add(m)
    assert seen == set(range(21))


def test_solve_linear_exact_residual_check_catches_a_wrong_elimination(monkeypatch):
    forward = exactalg._forward_eliminate

    def off_by_one(m, n):
        forward(m, n)
        m[-1][-1] += 1  # the last row's right-hand side, after elimination

    monkeypatch.setattr(exactalg, "_forward_eliminate", off_by_one)
    matrix = build_energy_matrix([0, 2, 3], (1, 2, 4))
    with pytest.raises(RuntimeError, match="exact solve residual is nonzero"):
        solve_linear_exact(matrix, (Fraction(1), Fraction(2), Fraction(3)))


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


def test_back_check_catches_a_perturbed_coefficient(monkeypatch):
    # dial and dial_partial return only what solve_linear_exact's row check passed; a
    # coefficient off by one unit of its numerator, from the interpolation or from the
    # missing-power system, is refused, naming the failing level.
    interpolate = exactalg._interpolate
    deltas = {}

    def perturbed(nodes, nums, dens):
        coeffs, den = interpolate(nodes, nums, dens)
        return [c + deltas.get(i, 0) for i, c in enumerate(coeffs)], den

    monkeypatch.setattr(exactalg, "_interpolate", perturbed)
    target = SpectrumTarget.from_energies([Fraction(-3), Fraction(-15, 2)])
    for deltas, level in (
        ({1: 1}, 0),  # y_2 + 1/den moves every level
        ({0: -1, 1: 1}, 1),  # y_1 t_0 + y_2 t_0^2 unchanged (t_0 = 1): level 0 holds
    ):
        with pytest.raises(RuntimeError) as err:
            dial(target)
        assert str(err.value) == (
            f"internal consistency failure: exact solve residual is nonzero at level {level}"
        )

    monkeypatch.setattr(exactalg, "_interpolate", interpolate)  # dial_partial interpolates too
    forward = exactalg._forward_eliminate
    calls = []

    def off_in_last_row(m, n):
        forward(m, n)
        calls.append(len(m))
        m[-1][-1] += 1  # the right-hand side of the last missing power's equation

    rng = random.Random(1212)
    pairs = tuple((lvl, Fraction(rng.randrange(-999, 999), rng.randrange(1, 99)))
                  for lvl in sorted(rng.sample(range(20), 12)))
    dial_partial(SpectrumTarget(pairs), drop_powers=[3, 7])  # passes unpatched
    monkeypatch.setattr(exactalg, "_forward_eliminate", off_in_last_row)
    with pytest.raises(RuntimeError) as err:
        dial_partial(SpectrumTarget(pairs), drop_powers=[3, 7])
    assert calls == [2]  # the 2 x 2 system of the missing powers 3 and 7
    level = int(str(err.value).rpartition(" ")[2])
    assert level in {lvl for lvl, _ in pairs}
    assert str(err.value) == (
        f"internal consistency failure: exact solve residual is nonzero at level {level}"
    )


def test_dial_identity_spectrum():
    # asking for h_n itself must return the identity polynomial, with every dialled
    # power kept as a term and the dense form ending at the degree
    ham = dial(SpectrumTarget.from_energies([Fraction(2 * n + 1, 2) for n in range(5)]))
    assert ham.terms == ((1, Fraction(1)),) + tuple((p, Fraction(0)) for p in range(2, 6))
    assert ham.dense_coefficients() == (Fraction(1),)


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
        drop = sorted(rng.sample(range(1, n_full + 1), n_drop))
        ham = dial_partial(target, drop_powers=drop)
        for level, energy in pairs:
            assert evaluate_polynomial(ham, oscillator_energy(level)) == energy


def test_integer_routes_randomized_gapped_and_sparse():
    # Gapped levels give node gaps of different sizes within one interpolation order;
    # sparse powers leave zeros in the back-check's Horner scheme and a large
    # missing-power system.  Every case is re-evaluated by evaluate_polynomial at its levels, and
    # each with N <= 8 is solved again by Fraction Gauss-Jordan on the energy rows.
    rng = random.Random(6121)
    cases = [sorted(rng.sample(range(3 * n), n)) for n in (4, 8, 16, 32, 48)]
    cases = [(levels, range(1, len(levels) + 1)) for levels in cases]
    assert all(len({b - a for a, b in zip(lv, lv[1:])}) > 1 for lv, _ in cases)
    sparse = [(1, 40), (2, 5, 9), (3,), (1, 2, 7, 8, 30)]
    sparse += [sorted(rng.sample(range(1, 25), rng.randrange(2, 9))) for _ in range(6)]
    cases += [(sorted(rng.sample(range(30), len(powers))), powers) for powers in sparse]
    for levels, powers in cases:
        pairs = [(lvl, Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12)))
                 for lvl in levels]
        drop = [p for p in range(1, max(powers) + 1) if p not in powers]
        ham = dial_partial(SpectrumTarget(pairs), drop_powers=drop)
        assert [p for p, _ in ham.terms] == list(powers)
        for level, energy in pairs:
            assert evaluate_polynomial(ham, oscillator_energy(level)) == energy
        if len(levels) <= 8:
            rows = energy_rows(levels, powers)
            assert [a for _, a in ham.terms] == gauss_jordan(rows, [e for _, e in pairs])
