"""Benchmark worker: a fresh interpreter that imports polyosc and runs jobs.

Started by `run.py` with `src` on `PYTHONPATH`.  It prints one JSON line when
polyosc is imported and it is ready for job 1, then answers one JSON request per
line on stdin:

    {"cmd": "env"}                                   -> {"env": {...}}
    {"cmd": "round", "jobs": [...], "trace": false}  -> {"results": [...]}
    {"cmd": "probe", "specs": [...], "repeats": 3}   -> {"results": [...]}
    {"cmd": "finish"}   -> {"maxrss_kb": ..., "spans": [...]}, then exits
    {"cmd": "quit"}     -> exits without a reply

Only the calls into polyosc are timed.  Each job's oracle runs after its clock
stops and uses a different route from the timed one.
"""

import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import sys
import time

_T0 = time.perf_counter()
import polyosc as po  # noqa: E402
import polyosc.cli  # noqa: E402,F401  (loads po.cli)

IMPORT_MS = (time.perf_counter() - _T0) * 1e3

from fractions import Fraction  # noqa: E402

from jobs import OracleError, check_sorted_by, determinant_value, level_energy  # noqa: E402
from spans import Tracer  # noqa: E402

# Jobs call polyosc through the package namespace (`po.dial`, ...), which is
# where the tracer installs its wrappers.


_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with numpy and scipy, by library file."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            f"{package.__name__}.libs", "*openblas*.so*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for symbol in _THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = int(fn())
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": max(threads.values()) if threads else None,
        "blas_libraries": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------------------ jobs

def _target(job: dict) -> po.SpectrumTarget:
    return po.SpectrumTarget(tuple(zip(job["levels"], (Fraction(e) for e in job["energies"]))))


def _check_targets(ham: po.PolynomialHamiltonian, target: po.SpectrumTarget) -> None:
    # Horner (evaluate_polynomial), unlike dial's own power-sum back-check.
    for level, energy in target.pairs:
        if po.evaluate_polynomial(ham, level_energy(level)) != energy:
            raise OracleError(f"P(h_{level}) misses the target {energy}")


def _check_powers(ham: po.PolynomialHamiltonian, powers) -> None:
    if [p for p, _ in ham.terms] != list(powers):
        raise OracleError(f"returned powers {[p for p, _ in ham.terms]}, expected {list(powers)}")


def prepare_levels(job):
    target = _target(job)
    contiguous = target.levels == tuple(range(len(target.pairs)))

    def run():
        ham = po.dial(target) if contiguous else po.dial_partial(target)
        records = po.evaluate_spectrum(ham, max(len(target.pairs), 9))
        return ham, records, po.ordering_report(records)

    def check(result):
        ham, records, report = result
        _check_powers(ham, range(1, len(target.pairs) + 1))
        _check_targets(ham, target)
        for level, energy in target.pairs:
            if level < len(records) and records[level].energy != energy:
                raise OracleError(f"spectrum level {level} reads {records[level].energy}")
        check_sorted_by(report.ascending_permutation, [r.energy for r in records])

    return run, check


def prepare_dropped(job):
    target = _target(job)
    n, drop = job["n"], job["drop"]

    def run():
        ham = po.dial_partial(target, drop)
        return ham, po.determinant(po.build_energy_matrix(range(n), range(1, n + 1)))

    def check(result):
        ham, det = result
        _check_powers(ham, [p for p in range(1, n + 1) if p not in drop])
        _check_targets(ham, target)
        if det != determinant_value(n):
            raise OracleError(f"determinant of the {n}x{n} energy matrix reads {det}")

    return run, check


def prepare_verify(job):
    spec = po.GridSpec(half_width=10.0, points=job["points"])
    if "coeffs" in job:
        given = po.PolynomialHamiltonian.from_dense([Fraction(c) for c in job["coeffs"]])
        target = None
    else:
        given = None
        target = po.SpectrumTarget.from_energies([Fraction(e) for e in job["energies"]])

    def run():
        ham = given if given is not None else po.dial(target)
        return ham, po.verify_dialled(ham, spec, levels_to_check=9, tolerance=1e-3)

    def check(result):
        ham, report = result
        if not all(math.isfinite(c.grid_eigenvalue) for c in report.checks):
            raise OracleError("non-finite grid eigenvalue")
        if target is not None:
            _check_targets(ham, target)
        leading = ham.coefficient(ham.degree)
        if leading < 0 and report.passed:
            raise OracleError(f"P is unbounded below (leading coefficient {leading}) "
                              "but the grid check passed")
        if job["anchor"] and not report.passed:
            raise OracleError(f"anchor {job['anchor']} failed the grid check")

    return run, check


PREPARE = {"levels": prepare_levels, "dropped": prepare_dropped, "verify": prepare_verify}


def run_job(job: dict, tracer: Tracer | None) -> dict:
    """Time one job's calls into polyosc, then check the result untimed."""
    try:
        run, check = PREPARE[job["kind"]](job)
        if tracer is not None:
            tracer.job = job["id"]
        start = time.perf_counter()
        result = run()
        ms = (time.perf_counter() - start) * 1e3
    except Exception as err:  # a job that raises is a failed job; the worker goes on
        return {"id": job["id"], "ms": None, "ok": False, "error": f"{type(err).__name__}: {err}"}
    finally:
        if tracer is not None:
            tracer.job = None
    try:
        check(result)
    except OracleError as err:
        return {"id": job["id"], "ms": ms, "ok": False, "error": f"oracle: {err}"}
    return {"id": job["id"], "ms": ms, "ok": True, "error": None}


def time_cross_section(argv: list[str], tracer: Tracer) -> None:
    """Record `figure`'s cross-section loop over its x grid as one span.

    `figure` calls classical_cross_section once per grid point, too often to
    wrap each call, so the loop is repeated here on the same polynomial and grid.
    """
    args = po.cli.build_parser().parse_args(argv)
    ham = po.PolynomialHamiltonian.from_dense(
        [po.cli.parse_rational(c) for c in args.coeffs.split(",")])
    xs = po.GridSpec(half_width=args.half_width, points=args.grid_points).positions()
    start = time.perf_counter_ns()
    cross = [po.classical_cross_section(ham, float(x)) for x in xs]
    tracer.record("spectrum.classical_cross_section", start, time.perf_counter_ns(),
                  {"points": len(cross)})


def run_probe(spec: dict, index, tracer: Tracer) -> dict:
    """One warm in-process `polyosc.cli.main(argv)` with stdout captured.

    For `figure`, the cross-section loop is timed after it (`time_cross_section`).
    """
    job_id = f"probe.{spec['cmd']}.{index}"
    tracer.job = job_id
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = po.cli.main(list(spec["argv"]))
    ms = (time.perf_counter() - start) * 1e3
    if spec["cmd"] == "figure":
        time_cross_section(list(spec["argv"]), tracer)
    tracer.job = None
    return {"id": job_id, "cmd": spec["cmd"], "ms": ms, "ok": code == 0,
            "error": None if code == 0 else f"exit code {code}"}


def main() -> int:
    print(json.dumps({"ready": True, "import_ms": IMPORT_MS}), flush=True)
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "quit":
            return 0
        if cmd in ("round", "probe") and request.get("trace", True) and tracer is None:
            tracer = Tracer()
            tracer.install(po)
        if cmd == "env":
            reply = {"env": environment()}
        elif cmd == "round":
            active = tracer if request["trace"] else None
            reply = {"results": [run_job(job, active) for job in request["jobs"]]}
        elif cmd == "probe":
            reply = {"results": []}
            for spec in request["specs"]:
                run_probe(spec, "warmup", tracer)
                reply["results"] += [run_probe(spec, i, tracer)
                                     for i in range(request["repeats"])]
        elif cmd == "finish":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "spans": tracer.records() if tracer is not None else []}
        else:
            raise ValueError(f"unknown request {cmd!r}")
        print(json.dumps(reply), flush=True)
        if cmd == "finish":
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
