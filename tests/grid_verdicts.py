"""Pinned verdicts of two grid-verify streams.

The seed-61 stream regenerates the first 12 rounds of `bench/jobs.py`'s
RoundSource("grid-verify", 61), 336 jobs of degree 1-5, and runs each with the
benchmark worker's own `prepare_verify`, so with its grid and `verify_dialled`
arguments.  The high-degree stream is drawn here from random.Random(HIGH_SEED):
HIGH_JOBS dials at each degree of HIGH_DEGREES, from integer targets of 1 to 12
digits redrawn until P is bounded below, each verified at nine levels on a
half-width-10 grid of 401 to 1001 points.  Both record per job its id, degree,
grid points, `passed`, `node_sequence` and `warning`.  No float is pinned, since
the grid values vary in their last bits with the BLAS.  A change that alters a
verdict reruns this script and shows the diff of the files it writes:

    PYTHONPATH=src python tests/grid_verdicts.py
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import jobs  # noqa: E402
import worker  # noqa: E402
from polyosc import GridSpec, SpectrumTarget, dial, verify_dialled  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "grid_verdicts_seed61.json"
SEED = 61
ROUNDS = 12
HIGH_GOLDEN = ROOT / "tests" / "golden" / "grid_verdicts_high_degree.json"
HIGH_SEED = 19
HIGH_DEGREES = (6, 8, 10, 12, 16, 20, 24, 28, 32)
HIGH_JOBS = 4


def record(job_id: str, points: int, ham, report) -> dict:
    """The pinned fields of one job."""
    return {"id": job_id, "degree": ham.degree, "points": points, "passed": report.passed,
            "node_sequence": list(report.node_sequence), "warning": report.warning}


def verdicts() -> list[dict]:
    """One record per job of the seed-61 stream, in stream order."""
    source = jobs.RoundSource("grid-verify", SEED, "")
    records = []
    for _ in range(ROUNDS):
        for job in source.next_round():
            ham, report = worker.prepare_verify(job)[0]()
            records.append(record(job["id"], job["points"], ham, report))
    return records


def high_degree_verdicts() -> list[dict]:
    """One record per job of the high-degree stream, in stream order."""
    rng = random.Random(HIGH_SEED)
    records = []
    for degree in HIGH_DEGREES:
        for j in range(HIGH_JOBS):
            while True:
                bound = 10 ** rng.randint(1, 12)
                energies = [rng.randint(-bound, bound) for _ in range(degree)]
                ham = dial(SpectrumTarget.from_energies(energies))
                if ham.coefficient(ham.degree) > 0:
                    break
            points = rng.choice((401, 601, 801, 1001))
            report = verify_dialled(ham, GridSpec(10.0, points), levels_to_check=9)
            records.append(record(f"d{degree}.{j}", points, ham, report))
    return records


def render(records: list[dict]) -> str:
    """A golden file's text: a JSON list with one job per line."""
    return "[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(verdicts()))
    HIGH_GOLDEN.write_text(render(high_degree_verdicts()))
