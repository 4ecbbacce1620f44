"""Seeded job generation and the oracles for CLI output.

Everything here is standard library only, so the harness process never imports
polyosc: it generates the inputs, hands them to a worker or to a CLI child, and
checks CLI output against exact values it computes itself.

Each workload is a sequence of rounds.  A round is a fixed multiset of job
classes (the mix) in a seeded order with seeded inputs, so every round has the
same mix and a run that measures whole rounds has the same mix whatever the seed.
The class weights put `job_ms.p50` and `job_ms.p90` inside one class each rather
than on a boundary between two, where they would jump from run to run.
"""

import math
import random
from fractions import Fraction

WORKLOADS = ("dial-levels", "dial-dropped", "grid-verify", "cli-session")

# dial-levels: jobs per round at each N.  Of 15 jobs, p50 falls among the
# N=24 jobs and p90 among the N=40 jobs.
LEVELS_MIX = {8: 3, 16: 3, 24: 3, 32: 3, 40: 2, 48: 1}
# dial-dropped: of 15 jobs, p50 falls among the N=16 jobs and p90 among N=32.
DROPPED_MIX = {8: 4, 16: 4, 24: 4, 32: 3}
# Target size: each exact job's targets have 1 to 12 digits, which spreads its
# cost over about 3x.  Job times then form a continuum rather than tight
# clusters, so a percentile moves smoothly, not in jumps, when the machine
# changes speed during a run.
TARGET_DIGITS = (1, 12)
# grid-verify: jobs per round at each grid size, for each degree 1..5, plus the
# three anchors at 1001 points.  Of 28 jobs, p50 falls among the 801-point jobs,
# whose times overlap the 1001-point ones, and p90 among the 1001-point jobs.
GRID_MIX = {401: 1, 601: 1, 801: 2, 1001: 1}
GRID_DEGREES = (1, 2, 3, 4, 5)
ANCHORS = {
    # P(h) = h^2 - 13/2 h, given directly as coefficients.
    "quadratic": {"coeffs": ["-13/2", "1"]},
    # Dialling E_n = n + 1/2 for n = 0..8 gives P(h) = h.
    "identity": {"energies": [str(Fraction(2 * n + 1, 2)) for n in range(9)]},
    "cubic": {"energies": ["2", "3", "5"]},
}
# cli-session: seven distinct command lines per round (two of them `verify`),
# each run twice so that every round checks byte-identical output on repeat.
# Of 14 jobs, p50 falls among the exact commands and p90 among the verify runs.
CLI_REPEATS = 2


def rational(rng: random.Random, digits: int = 1) -> Fraction:
    bound = 6 * 10**digits
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 2 * 10**digits))


def _energies(rng: random.Random, count: int, digits: int = 1) -> list[str]:
    return [str(rational(rng, digits)) for _ in range(count)]


class Deck:
    """Draws each integer of a range once, in seeded order, before repeating.

    Each job class draws its target size (and its other cost-bearing choices)
    from a deck of its own, which keeps the class's mix the same in every run;
    independent draws would shift a class's mean cost from seed to seed.
    """

    def __init__(self, rng: random.Random):
        self._rng, self._cards = rng, {}

    def draw(self, key, low: int, high: int) -> int:
        cards = self._cards.setdefault((key, low, high), [])
        if not cards:
            cards.extend(range(low, high + 1))
            self._rng.shuffle(cards)
        return cards.pop()


def levels_round(rng: random.Random, deck: Deck) -> list[dict]:
    jobs = []
    for n, weight in LEVELS_MIX.items():
        for _ in range(weight):
            if deck.draw(("gapped", n), 0, 1) == 0:
                levels = list(range(n))
            else:
                gaps = rng.randint(1, max(1, n // 4))
                levels = sorted(rng.sample(range(n + gaps), n))
            jobs.append({"kind": "levels", "n": n, "levels": levels,
                         "energies": _energies(rng, n, deck.draw(n, *TARGET_DIGITS))})
    return jobs


def dropped_round(rng: random.Random, deck: Deck) -> list[dict]:
    jobs = []
    for n, weight in DROPPED_MIX.items():
        for _ in range(weight):
            drop = sorted(rng.sample(range(1, n + 1), deck.draw(("drops", n), 1, 3)))
            levels = sorted(rng.sample(range(n), n - len(drop)))
            jobs.append({"kind": "dropped", "n": n, "levels": levels,
                         "energies": _energies(rng, len(levels), deck.draw(n, *TARGET_DIGITS)),
                         "drop": drop})
    return jobs


def grid_round(rng: random.Random) -> list[dict]:
    jobs = []
    for degree in GRID_DEGREES:
        for points, weight in GRID_MIX.items():
            for _ in range(weight):
                jobs.append({"kind": "verify", "points": points, "anchor": None,
                             "energies": _energies(rng, degree)})
    for name, spec in ANCHORS.items():
        jobs.append({"kind": "verify", "points": 1001, "anchor": name, **spec})
    return jobs


def _windowed_quadratic(rng: random.Random) -> list[Fraction]:
    """a_2 (h - v)^2 - a_2 v^2 with its minimum v inside the nine checked levels.

    This is the case the grid check supports today, like the quadratic anchor
    (v = 13/4), so `verify` exits 0.  v is an odd multiple of 1/4, which keeps
    every level's energy distinct.  Polynomials outside this case belong to
    grid-verify, which records their verdicts.
    """
    a2 = Fraction(rng.randint(2, 8), 4)
    v = Fraction(2 * rng.randint(0, 7) + 1, 4)
    return [-2 * a2 * v, a2]


def cli_argvs(rng: random.Random, out_dir: str) -> list[dict]:
    """One command line per subcommand variant, with what its oracle needs."""
    specs = []
    n = rng.randint(3, 6)
    targets = [(level, rational(rng)) for level in range(n)]
    specs.append({"cmd": "dial", "argv": ["dial", "--targets", _targets_text(targets)],
                  "targets": _pairs(targets), "powers": list(range(1, n + 1))})
    k = rng.randint(2, 5)
    targets = [(level, rational(rng)) for level in sorted(rng.sample(range(k + 2), k))]
    drop = rng.randint(1, k + 1)
    specs.append({"cmd": "dial", "argv": ["dial", "--targets", _targets_text(targets),
                                          "--drop-powers", str(drop)],
                  "targets": _pairs(targets),
                  "powers": [p for p in range(1, k + 2) if p != drop]})
    coeffs = [rational(rng) for _ in range(rng.randint(2, 4))]
    specs.append({"cmd": "spectrum", "argv": ["spectrum", f"--coeffs={_coeffs_text(coeffs)}"],
                  "coeffs": [str(c) for c in coeffs]})
    specs.append({"cmd": "det", "argv": ["det", str(rng.randint(4, 12))]})
    for _ in range(2):
        coeffs = _windowed_quadratic(rng)
        specs.append({"cmd": "verify", "argv": ["verify", f"--coeffs={_coeffs_text(coeffs)}"],
                      "coeffs": [str(c) for c in coeffs]})
    coeffs = _windowed_quadratic(rng)
    specs.append({"cmd": "figure", "argv": ["figure", f"--coeffs={_coeffs_text(coeffs)}",
                                            "--out", out_dir],
                  "coeffs": [str(c) for c in coeffs], "out": out_dir})
    return specs


def cli_round(rng: random.Random, out_dir: str) -> list[dict]:
    jobs = []
    for spec in cli_argvs(rng, out_dir):
        jobs += [{"kind": "cli", **spec} for _ in range(CLI_REPEATS)]
    return jobs


def _targets_text(targets) -> str:
    return ",".join(f"{level}:{energy}" for level, energy in targets)


def _coeffs_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _pairs(targets) -> list[list]:
    return [[level, str(energy)] for level, energy in targets]


class RoundSource:
    """Rounds of one workload, generated in order from the seed alone."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.work_dir = work_dir
        self._rng = random.Random(f"{workload}:{seed}")
        self._deck = Deck(self._rng)
        self._count = 0

    def next_round(self) -> list[dict]:
        rng = self._rng
        if self.workload == "dial-levels":
            jobs = levels_round(rng, self._deck)
        elif self.workload == "dial-dropped":
            jobs = dropped_round(rng, self._deck)
        elif self.workload == "grid-verify":
            jobs = grid_round(rng)
        else:
            jobs = cli_round(rng, f"{self.work_dir}/figure-{self._count}")
        rng.shuffle(jobs)
        for index, job in enumerate(jobs):
            job["id"] = f"r{self._count}.{index}"
        self._count += 1
        return jobs


# ------------------------------------------------------------------ oracles

class OracleError(AssertionError):
    """A job's output disagrees with the exact value the harness expects."""


def determinant_value(n: int) -> Fraction:
    """prod_{g=1}^{n-1} g! (2g+1) / 2^n, computed here rather than by polyosc."""
    value = Fraction(1, 2**n)
    for g in range(1, n):
        value *= math.factorial(g) * (2 * g + 1)
    return value


def poly_value(coeffs, h: Fraction) -> Fraction:
    """sum_j a_j h^j for dense coefficients a_1, a_2, ... (no constant term)."""
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = (acc + a) * h
    return acc


def level_energy(n: int) -> Fraction:
    return Fraction(2 * n + 1, 2)


def check_sorted_by(permutation, energies) -> None:
    if sorted(permutation) != list(range(len(energies))):
        raise OracleError(f"ordering {list(permutation)} is not a permutation of the levels")
    ordered = [energies[i] for i in permutation]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        raise OracleError("ordering permutation does not sort the energies")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _dense(terms: dict[int, Fraction]) -> list[Fraction]:
    return [terms.get(p, Fraction(0)) for p in range(1, max(terms, default=0) + 1)]


def _check_spectrum_rows(rows: list[str], coeffs: list[Fraction]) -> list[Fraction]:
    energies = []
    for n, row in enumerate(rows):
        fields = row.split(",")
        _expect(int(fields[0]) == n, f"spectrum row {n} is labelled {fields[0]}")
        _expect(Fraction(fields[1]) == level_energy(n), f"h_{n} reads {fields[1]}")
        energy = Fraction(fields[2])
        _expect(energy == poly_value(coeffs, level_energy(n)),
                f"E_{n} reads {fields[2]}, expected {poly_value(coeffs, level_energy(n))}")
        energies.append(energy)
    return energies


def _comment(lines: list[str], key: str) -> str:
    prefix = f"# {key} = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise OracleError(f"output has no '{key}' line")


def _check_ordering(lines: list[str], energies: list[Fraction]) -> None:
    permutation = [int(x) for x in _comment(lines, "ascending_permutation").split(",")]
    check_sorted_by(permutation, energies)


def check_cli_output(job: dict, code: int, stdout: str, files: dict[str, str]) -> None:
    """Check one CLI run against exact values; raises OracleError on a mismatch.

    `files` maps the names of the files `figure` wrote to their text.
    """
    _expect(code == 0, f"exit code {code}")
    lines = stdout.splitlines()
    cmd = job["cmd"]
    if cmd == "dial":
        blank = lines.index("")
        _expect(lines[0] == "power,a_j,a_j_decimal", "dial header changed")
        terms = {int(p): Fraction(a) for p, a, _ in (row.split(",") for row in lines[1:blank])}
        _expect(sorted(terms) == job["powers"], f"dial returned powers {sorted(terms)}")
        coeffs = _dense(terms)
        for level, energy in job["targets"]:
            _expect(poly_value(coeffs, level_energy(level)) == Fraction(energy),
                    f"dialled P(h_{level}) misses the target {energy}")
        rows = [line for line in lines[blank + 2:] if not line.startswith("#")]
        _check_ordering(lines, _check_spectrum_rows(rows, coeffs))
    elif cmd == "spectrum":
        coeffs = [Fraction(c) for c in job["coeffs"]]
        rows = [line for line in lines[1:] if not line.startswith("#")]
        _check_ordering(lines, _check_spectrum_rows(rows, coeffs))
    elif cmd == "det":
        n, eliminated, closed, agree = lines[1].split(",")
        expected = determinant_value(int(n))
        _expect(Fraction(eliminated) == expected, f"det {n} by elimination reads {eliminated}")
        _expect(Fraction(closed) == expected, f"det {n} closed form reads {closed}")
        _expect(agree == "true", "det reports disagreement")
    elif cmd == "verify":
        coeffs = [Fraction(c) for c in job["coeffs"]]
        _expect(_comment(lines, "passed") == "true", "verify did not pass")
        for row in lines[1:]:
            if row.startswith("#"):
                continue
            fields = row.split(",")
            _expect(math.isfinite(float(fields[1])), f"non-finite grid eigenvalue {fields[1]}")
            matched = int(fields[3])
            _expect(Fraction(fields[4]) == poly_value(coeffs, level_energy(matched)),
                    f"analytic E_{matched} reads {fields[4]}")
    elif cmd == "figure":
        coeffs = [Fraction(c) for c in job["coeffs"]]
        for name in ("spectrum.csv", "cross_section.csv", "eigenfunctions.csv", "figure.svg"):
            _expect(bool(files.get(name)), f"figure wrote no {name}")
        rows = [",".join(row.split(",")[:3]) for row in files["spectrum.csv"].splitlines()[1:]]
        _check_spectrum_rows(rows, coeffs)
    else:
        raise OracleError(f"unknown command {cmd!r}")
