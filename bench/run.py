"""polyosc benchmark harness.

    python3 bench/run.py --workload dial-levels --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One closed loop with a single client: this process generates every input from
the seed and runs one job at a time, either in a worker interpreter (the exact
and grid workloads) or as one `python -m polyosc.cli` child at a time
(`cli-session`).  Jobs run in whole rounds until `--seconds` have passed, so
every run has the same job mix.

With `--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a separate traced run.
Everything before it is a human-readable report.  The package is loaded from
`src/` next to this directory; without it the harness exits 1 and prints no
result.
"""

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from jobs import WORKLOADS, OracleError, RoundSource, check_cli_output, cli_argvs
from spans import (DERIVED, GRID_STAGES, PER_LAYER, SPAN_KEYS, layer_medians, self_times,
                   validate_spans)

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"  # scratch output of `figure`, removed after each run
TRACE_DIR = ".bench_out"  # span files of traced runs

# Fresh worker starts timed for setup_s, before and after the measured loop:
# the machine's speed drifts over tens of seconds, and starts at both ends of
# a run sample two points of that drift rather than one.
SETUP_STARTS = 4
PROBE_REPEATS = 3  # warm in-process cli.main calls per subcommand
PROCESS_PROBES = 2  # CLI processes per subcommand on workloads other than cli-session
INTERPRETER_PROBES = 5
REPLY_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
}
# fail_rate is 0 on a healthy run, so the result line carries it
# through `attempted` and `failed` and the per-layer set, not as a bounded metric.
RESULT_LINE_METRICS = tuple(m for m in END_TO_END if m != "fail_rate")


class HarnessError(RuntimeError):
    """The benchmark cannot produce a result (missing package, dead worker, ...)."""


def child_env() -> dict[str, str]:
    """Environment for workers and CLI children: `src` importable, BLAS capped at nproc."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, str(nproc))
    return env


def _read_json(stream, timeout: float, what: str) -> dict:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise HarnessError(f"{what}: no reply within {timeout:.0f} s")
    line = stream.readline()
    if not line:
        raise HarnessError(f"{what}: worker exited")
    return json.loads(line)


class Worker:
    """A fresh interpreter running bench/worker.py; times its own start-up."""

    def __init__(self, env: dict[str, str]):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            hello = _read_json(self.proc.stdout, REPLY_TIMEOUT_S, "worker start")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.import_ms = hello["import_ms"]

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return _read_json(self.proc.stdout, REPLY_TIMEOUT_S, f"worker {message['cmd']}")

    def quit(self) -> None:
        self.proc.stdin.write('{"cmd": "quit"}\n')
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_cli_job(job: dict, env: dict[str, str], seen: dict) -> dict:
    """One CLI child; its oracle and repeat check run after the clock stops.

    The result carries the child's own peak RSS, read from wait4.
    """
    out_dir = ROOT / job["out"] if job["cmd"] == "figure" else None
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    start_ns = time.perf_counter_ns()
    proc = subprocess.Popen([sys.executable, "-m", "polyosc.cli", *job["argv"]], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout, stderr = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    end_ns = time.perf_counter_ns()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = {"id": job["id"], "ms": (end_ns - start_ns) / 1e6, "start_ns": start_ns,
              "maxrss_kb": usage.ru_maxrss, "ok": True, "error": None}
    files = {}
    if out_dir is not None and out_dir.is_dir():
        files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    try:
        check_cli_output(job, code, stdout, files)
        snapshot = (stdout, files)
        if seen.setdefault(tuple(job["argv"]), snapshot) != snapshot:
            raise OracleError("output differs from an earlier run of the same command line")
    except (OracleError, ValueError, IndexError) as err:
        detail = stderr.strip().splitlines()[-1:] if code else []
        result.update(ok=False, error=f"oracle: {err} {' '.join(detail)}".strip())
    return result


def run_rounds(rounds, worker, env, traced: bool, prefix: str) -> list[dict]:
    results, seen = [], {}
    for jobs in rounds:
        jobs = [{**job, "id": prefix + job["id"]} for job in jobs]
        if jobs[0]["kind"] == "cli":
            results += [run_cli_job(job, env, seen) for job in jobs]
        else:
            results += worker.request({"cmd": "round", "jobs": jobs, "trace": traced})["results"]
    return results


def measure(source: RoundSource, worker, env, seconds: float, traced: bool, prefix: str):
    """Whole rounds until `seconds` of wall time have passed.

    Returns (rounds, results, wall_s), where wall_s is the wall time of the
    whole loop: jobs, their oracles and the hand-off of each round.
    """
    rounds, results = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(source.next_round())
        results += run_rounds(rounds[-1:], worker, env, traced, prefix)
    return rounds, results, time.perf_counter() - start


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(results, wall_s, setups, peak_rss_mb) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    times = [r["ms"] for r in results if r["ms"] is not None]
    ok = sum(r["ok"] for r in results)
    return {
        "jobs_per_s": (ok / wall_s, len(results)),
        "job_ms.p50": (statistics.median(times), len(times)),
        "job_ms.p90": (quantile(times, 90), len(times)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "fail_rate": ((len(results) - ok) / len(results), len(results)),
    }


def _process_span(name: str, cmd: str | None, job: str, start_ns: int, end_ns: int) -> dict:
    return dict(zip(SPAN_KEYS, (None, name, None, job, start_ns, end_ns,
                                {"cmd": cmd} if cmd else None)))


def process_probes(env, seed: int, with_commands: bool) -> list[dict]:
    """Spans of bare interpreters and, optionally, one CLI process per subcommand."""
    spans = []
    for i in range(INTERPRETER_PROBES):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        spans.append(_process_span("cli.interpreter", None, f"interp.{i}", start,
                                   time.perf_counter_ns()))
    if with_commands:
        for spec in probe_specs(seed):
            for i in range(PROCESS_PROBES):
                job = {**spec, "id": f"proc.{spec['cmd']}.{i}", "kind": "cli"}
                result = run_cli_job(job, env, {})
                if not result["ok"]:
                    raise HarnessError(f"CLI probe {spec['argv']} failed: {result['error']}")
                spans.append(_process_span("cli.process", spec["argv"][0], job["id"],
                                           result["start_ns"],
                                           result["start_ns"] + int(result["ms"] * 1e6)))
    return spans


def probe_specs(seed: int) -> list[dict]:
    """The first command line of each subcommand, from a seed of its own."""
    specs = {}
    for spec in cli_argvs(random.Random(f"probe:{seed}"), f"{WORK_DIR}/probe"):
        specs.setdefault(spec["argv"][0], spec)
    return list(specs.values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "polyosc" / "__init__.py").is_file():
        raise HarnessError(f"no polyosc package under {ROOT / 'src'}")
    env = child_env()
    workers: list[Worker] = []

    def start_workers() -> None:
        for _ in range(SETUP_STARTS):
            if workers and workers[-1].proc.poll() is None:
                workers[-1].quit()
            workers.append(Worker(env))

    try:
        start_workers()
        worker = workers[-1]
        environment = worker.request({"cmd": "env"})["env"]
        threads, nproc = environment["blas_threads"], environment["nproc"]
        if threads is not None and threads > nproc:
            raise HarnessError(f"BLAS uses {threads} threads on {nproc} CPUs; "
                               "set OPENBLAS_NUM_THREADS to at most nproc")
        source = RoundSource(workload, seed, WORK_DIR)
        if not trace:
            _, results, wall_s = measure(source, worker, env, seconds, False, "")
            finish = worker.request({"cmd": "finish"})
            worker.proc.wait(timeout=30)
            if workload == "cli-session":
                peak_kb = max(r["maxrss_kb"] for r in results)
            else:
                peak_kb = finish["maxrss_kb"]
            start_workers()
            workers[-1].quit()
            setups = [w.setup_s for w in workers]
            return {"workload": workload, "env": environment, "results": results,
                    "metrics": end_to_end(results, wall_s, setups, peak_kb / 1024)}

        # Traced run: whole rounds untraced for a quarter of the time, the same
        # rounds again traced, then the probes.  The difference between the two
        # passes is the tracing overhead.
        rounds, untraced, _ = measure(source, worker, env, seconds / 4, False, "u.")
        traced = run_rounds(rounds, worker, env, True, "t.")
        parent_spans = []
        if workload == "cli-session":
            # The CLI children are timed from here; their wall time is the span.
            parent_spans = [_process_span("cli.process", job["argv"][0], r["id"], r["start_ns"],
                                          r["start_ns"] + int(r["ms"] * 1e6))
                            for job, r in zip((j for rnd in rounds for j in rnd), traced)]
        probes = worker.request({"cmd": "probe", "specs": probe_specs(seed),
                                 "repeats": PROBE_REPEATS, "trace": True})["results"]
        worker_spans = worker.request({"cmd": "finish"})["spans"]
        process_spans = process_probes(env, seed, workload != "cli-session")
        extra = parent_spans + process_spans
        for number, span in enumerate(extra, start=len(worker_spans)):
            span["id"] = number
        return {"workload": workload, "env": environment,
                "untraced": untraced, "traced": traced, "probes": probes,
                "spans": worker_spans + extra,
                "import_ms": [w.import_ms for w in workers]}
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)


def per_layer(run: dict) -> dict[str, tuple[float, int, str]]:
    """Metric -> (value, sample count, source) from a traced run.

    A metric comes from the workload's own traced jobs when they exercise that
    layer, otherwise from the probes: warm in-process `cli.main` calls for each
    subcommand and fresh CLI and interpreter processes.
    """
    spans = run["spans"]
    workload_jobs = {r["id"] for r in run["traced"]}
    own = layer_medians([s for s in spans if s["job"] in workload_jobs])
    probe = layer_medians([s for s in spans if s["job"] not in workload_jobs
                           and not s["job"].endswith(".warmup")])
    out = {name: (*own[name], "workload") for name in own}
    out.update({name: (*probe[name], "probe") for name in probe if name not in own})
    out["cli.import_ms"] = (statistics.median(run["import_ms"]), len(run["import_ms"]), "setup")

    pairs = [(t["ms"], u["ms"]) for t, u in zip(run["traced"], run["untraced"])
             if t["ms"] is not None and u["ms"] is not None]
    traced_ms, untraced_ms = sum(t for t, _ in pairs), sum(u for _, u in pairs)
    out["trace.overhead_ms"] = ((traced_ms - untraced_ms) / len(pairs), len(pairs), "derived")
    out["trace.overhead_pct"] = (100 * (traced_ms - untraced_ms) / untraced_ms, len(pairs),
                                 "derived")
    everything = run["untraced"] + run["traced"] + run["probes"]
    failed = sum(not r["ok"] for r in everything)
    out["fail_rate"] = (failed / len(everything), len(everything), "all jobs")
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise HarnessError(f"traced run produced no value for {sorted(missing)}")
    return out


def write_spans(run: dict, seed: int) -> Path:
    try:
        validate_spans(run["spans"])
    except ValueError as err:
        raise HarnessError(f"malformed trace: {err}") from None
    path = ROOT / TRACE_DIR / f"spans-{run['workload']}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"span_keys": list(SPAN_KEYS), "spans": run["spans"]}))
    return path


def self_time_by_name(run: dict) -> dict[str, float]:
    """Self time per traced function, summed over the workload's traced jobs, in ms."""
    workload_jobs = {r["id"] for r in run["traced"]}
    spans = [s for s in run["spans"] if s["job"] in workload_jobs]
    names = {s["id"]: s["name"] for s in spans}
    totals: dict[str, float] = {}
    for span_id, ms in self_times(spans).items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + ms
    return totals


# ------------------------------------------------------------------ output

def print_environment(run: dict) -> None:
    env = run["env"]
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']} with {env['blas_threads']} threads, nproc {env['nproc']}")


def print_end_to_end(workload: str, run: dict) -> None:
    metrics = run["metrics"]
    times = sorted(r["ms"] for r in run["results"] if r["ms"] is not None)
    p90 = metrics["job_ms.p90"][0]
    print(f"## {workload}")
    print(f"{'metric':<14}{'value':>14}  {'unit':<6}{'samples':>8}")
    for name, unit in END_TO_END.items():
        value, count = metrics[name]
        print(f"{name:<14}{value:>14.6g}  {unit:<6}{count:>8}")
    print(f"# {sum(t > p90 for t in times)} jobs above job_ms.p90")
    for r in run["results"]:
        if not r["ok"]:
            print(f"# failed job {r['id']}: {r['error']}")


def print_per_layer(workload: str, layers: dict, self_ms: dict, spans_path: Path) -> None:
    print(f"## {workload} (traced)")
    print(f"{'metric':<38}{'value':>14}  {'unit':<6}{'samples':>8}  source")
    for name, unit in PER_LAYER.items():
        value, count, source = layers[name]
        label = f"{source}, derived" if name in DERIVED else source
        print(f"{name:<38}{value:>14.6g}  {unit:<6}{count:>8}  {label}")
    stages = sum(layers[f"gridverify.{stage}_ms"][0] for stage in GRID_STAGES)
    print(f"# gridverify: verify_dialled_ms {layers['gridverify.verify_dialled_ms'][0]:.3f} "
          f"= stages {stages:.3f} + other; verify_other_ms "
          f"{layers['gridverify.verify_other_ms'][0]:.3f} (medians do not add exactly)")
    total = sum(self_ms.values())
    shares = ", ".join(f"{name} {100 * ms / total:.1f}%" for name, ms in
                       sorted(self_ms.items(), key=lambda item: -item[1]) if ms >= 0.001 * total)
    print(f"# self time of the traced jobs by function: {shares}")
    print(f"# spans written to {spans_path.relative_to(ROOT)}")


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_environment(run)
            if args.trace:
                layers = per_layer(run)
                print_per_layer(workload, layers, self_time_by_name(run),
                                write_spans(run, args.seed))
                everything = run["untraced"] + run["traced"] + run["probes"]
                failed = sum(not r["ok"] for r in everything)
                lines[workload] = result_line(len(everything), failed, layers, PER_LAYER)
            else:
                print_end_to_end(workload, run)
                failed = sum(not r["ok"] for r in run["results"])
                units = {m: END_TO_END[m] for m in RESULT_LINE_METRICS}
                lines[workload] = result_line(len(run["results"]), failed, run["metrics"], units)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({w: json.loads(line) for w, line in lines.items()}))
    else:
        print(lines[args.workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
