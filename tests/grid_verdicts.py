"""Pinned verdicts of the seed-61 grid-verify stream.

Regenerates the first 12 rounds of `bench/jobs.py`'s RoundSource("grid-verify", 61),
336 jobs, runs each with the benchmark worker's own `prepare_verify`, so with its
grid and `verify_dialled` arguments, and records per job its id, degree, grid
points, `passed`, `node_sequence` and `warning`.  No float is pinned, since the
grid values vary in their last bits with the BLAS.  A change that alters a verdict
reruns this script and shows the diff of the file it writes:

    PYTHONPATH=src python tests/grid_verdicts.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import jobs  # noqa: E402
import worker  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "grid_verdicts_seed61.json"
SEED = 61
ROUNDS = 12


def verdicts() -> list[dict]:
    """One record per job of the stream, in stream order."""
    source = jobs.RoundSource("grid-verify", SEED, "")
    records = []
    for _ in range(ROUNDS):
        for job in source.next_round():
            ham, report = worker.prepare_verify(job)[0]()
            records.append({"id": job["id"], "degree": ham.degree, "points": job["points"],
                            "passed": report.passed,
                            "node_sequence": list(report.node_sequence),
                            "warning": report.warning})
    return records


def render(records: list[dict]) -> str:
    """The golden file's text: a JSON list with one job per line."""
    return "[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(verdicts()))
