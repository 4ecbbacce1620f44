"""Run the benchmark twice over the same seeds and compare the two sets.

    python3 bench/steadiness.py --seeds 10
    python3 bench/steadiness.py --workloads grid-verify --seeds 5

Each set runs every workload once per seed at BENCHMARK.json's `run_seconds`.
For each workload and end-to-end metric this prints each set's median and
quartiles, the spread (interquartile distance over the median) and how far the
second set's median moved against the first, next to the metric's bound from
BENCHMARK.json.  A metric is steady when every spread stays within its bound
and the two medians differ by no more than the bound, in either direction; the
target is a spread below a third of the bound.  The exit code is 1 unless every
metric is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N in each set")
    args = parser.parse_args(argv)

    record = {}
    steady = True
    for workload in args.workloads:
        sets = []
        for _ in range(SETS):
            runs = []
            for seed in range(1, args.seeds + 1):
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"# {workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} jobs failed")
                runs.append(result["metrics"])
            sets.append(runs)
        print(f"## {workload}")
        print(f"{'metric':<13}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'bound':>7}{'worse':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([run[name]["value"] for run in runs]) for runs in sets]
            drift = worse_by(stats[0]["median"], stats[1]["median"], metric["better"])
            for index, s in enumerate(stats):
                ok = s["spread"] <= bound and abs(drift) <= bound
                steady &= ok
                verdict = ("ok" if ok else "NOT STEADY") + (
                    "" if s["spread"] < bound / 3 else ", spread above bound/3")
                print(f"{name:<13}{index + 1:>4}{s['median']:>12.5g}{s['q1']:>12.5g}"
                      f"{s['q3']:>12.5g}{s['spread']:>8.3f}{bound:>7.2f}"
                      f"{drift if index else 0.0:>8.3f}  {verdict}")
            record.setdefault(workload, {})[name] = stats
    out = ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"# summary written to {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
