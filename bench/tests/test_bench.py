"""Tests of the benchmark itself: metric names, span schema and oracles.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jobs
import run
import spans
import worker
import polyosc
import polyosc.cli
from polyosc import GridSpec, PolynomialHamiltonian, verify_dialled

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- metric names

def test_benchmark_json_names_match_the_harness():
    # dial-dropped and cli-session run from bench/run.py but are not in
    # BENCHMARK.json (see README).
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in jobs.WORKLOADS if w not in ("dial-dropped", "cli-session")]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.RESULT_LINE_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        m: run.END_TO_END[m] for m in run.RESULT_LINE_METRICS}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER
    assert set(run.END_TO_END) == {"jobs_per_s", "job_ms.p50", "job_ms.p90", "setup_s",
                                   "peak_rss_mb", "fail_rate"}
    assert "fail_rate" in spans.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_result_line_holds_exactly_the_named_metrics():
    results = [{"ms": 10.0 + i, "ok": i != 3} for i in range(20)]
    metrics = run.end_to_end(results, 4.0, [0.5, 0.6, 0.7], 60.0)
    assert metrics["jobs_per_s"] == (19 / 4.0, 20)
    assert metrics["fail_rate"] == (1 / 20, 20)
    assert metrics["setup_s"] == (0.6, 3)
    units = {m: run.END_TO_END[m] for m in run.RESULT_LINE_METRICS}
    line = json.loads(run.result_line(20, 1, metrics, units))
    assert line["correct"] is False and line["attempted"] == 20 and line["failed"] == 1
    assert set(line["metrics"]) == set(run.RESULT_LINE_METRICS)
    del metrics["job_ms.p90"]
    with pytest.raises(KeyError):
        run.result_line(20, 1, metrics, units)


def test_per_layer_refuses_a_traced_run_missing_a_layer():
    job = [{"id": 0, "name": "exactalg.determinant", "parent": None, "job": "t.r0.0",
            "start_ns": 0, "end_ns": 1000, "attrs": None}]
    traced_run = {"spans": job, "traced": [{"id": "t.r0.0", "ms": 1.0, "ok": True}],
                  "untraced": [{"id": "u.r0.0", "ms": 1.0, "ok": True}], "probes": [],
                  "import_ms": [300.0]}
    with pytest.raises(run.HarnessError, match="no value for"):
        run.per_layer(traced_run)


# ---------------------------------------------------------------- rounds

def test_rounds_repeat_for_a_seed_and_keep_the_mix():
    first = jobs.RoundSource("dial-levels", 7, ".w").next_round()
    again = jobs.RoundSource("dial-levels", 7, ".w").next_round()
    other = jobs.RoundSource("dial-levels", 8, ".w").next_round()
    assert first == again and first != other
    counts = {}
    for job in other:
        counts[job["n"]] = counts.get(job["n"], 0) + 1
    assert counts == jobs.LEVELS_MIX
    grid = jobs.RoundSource("grid-verify", 3, ".w").next_round()
    assert sorted(j["anchor"] for j in grid if j["anchor"]) == sorted(jobs.ANCHORS)
    assert len(grid) == len(jobs.GRID_DEGREES) * sum(jobs.GRID_MIX.values()) + len(jobs.ANCHORS)
    cli = jobs.RoundSource("cli-session", 3, ".w").next_round()
    assert sorted(j["argv"][0] for j in cli) == sorted(
        ["dial"] * 4 + ["spectrum", "det", "figure"] * 2 + ["verify"] * 4)


# ------------------------------------------------------------------ spans

def test_tracer_records_nested_spans_and_restores_the_package():
    original = polyosc.dial
    tracer = spans.Tracer()
    tracer.install(polyosc)
    try:
        assert polyosc.dial is not original and polyosc.exactalg.dial is polyosc.dial
        tracer.job = "job-1"
        ham = polyosc.dial(polyosc.SpectrumTarget.from_energies([1, 2, 4]))
        polyosc.verify_dialled(ham, GridSpec(points=101), levels_to_check=3)
    finally:
        tracer.uninstall()
    assert polyosc.dial is original and polyosc.gridverify.diagonalize.__name__ == "diagonalize"
    records = tracer.records()
    spans.validate_spans(records)
    by_name = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)
    dial_id = by_name["exactalg.dial"][0]["id"]
    assert by_name["exactalg.solve_linear_exact"][0]["parent"] == dial_id
    assert by_name["exactalg.dial"][0]["attrs"]["n"] == 3
    verify = by_name["gridverify.verify_dialled"][0]
    assert {s["parent"] for s in by_name["gridverify.count_nodes"]} == {verify["id"]}
    assert verify["attrs"]["grid_points"] == 101
    values = spans.job_values(records)
    stages = sum(values[f"gridverify.{s}_ms"] for s in spans.GRID_STAGES)
    assert values["gridverify.verify_other_ms"] == pytest.approx(
        values["gridverify.verify_dialled_ms"] - stages)
    assert all(record["job"] == "job-1" for record in records)


def test_figure_probe_times_the_cross_section_as_one_span(tmp_path):
    import random
    spec = jobs.cli_argvs(random.Random(5), str(tmp_path))[-1]
    tracer = spans.Tracer()
    tracer.install(polyosc)
    try:
        result = worker.run_probe(spec, 0, tracer)
    finally:
        tracer.uninstall()
    assert result["ok"]
    records = tracer.records()
    spans.validate_spans(records)
    cross = [r for r in records if r["name"] == "spectrum.classical_cross_section"]
    assert len(cross) == 1 and cross[0]["parent"] is None
    assert cross[0]["attrs"] == {"points": 601}
    values = spans.job_values(records)
    assert values["spectrum.classical_cross_section_ms"] > 0
    assert values["cli.main_ms.figure"] > 0


@pytest.mark.parametrize("corrupt, message", [
    (lambda s: s.pop("attrs"), "keys"),
    (lambda s: s.update(end_ns=s["start_ns"] - 1), "ends before"),
    (lambda s: s.update(parent=99), "inside its parent"),
    (lambda s: s.update(id="x"), "unique integer"),
])
def test_span_schema_rejects_malformed_spans(corrupt, message):
    good = [
        {"id": 0, "name": "a", "parent": None, "job": "j", "start_ns": 0, "end_ns": 10,
         "attrs": None},
        {"id": 1, "name": "b", "parent": 0, "job": "j", "start_ns": 2, "end_ns": 5,
         "attrs": {"n": 1}},
    ]
    spans.validate_spans(good)
    assert spans.self_times(good) == {0: pytest.approx(7e-6), 1: pytest.approx(3e-6)}
    corrupt(good[1])
    with pytest.raises(ValueError, match=message):
        spans.validate_spans(good)


# ---------------------------------------------------------------- oracles

def test_determinant_value_is_the_closed_form():
    assert jobs.determinant_value(1) == Fraction(1, 2)
    assert jobs.determinant_value(2) == Fraction(3, 4)
    for n in range(1, 13):
        assert jobs.determinant_value(n) == polyosc.determinant_closed_form(n)


def _first(workload, kind_filter=lambda job: True):
    return next(job for job in jobs.RoundSource(workload, 1, ".w").next_round()
                if kind_filter(job))


def test_levels_oracle_accepts_dial_and_rejects_a_wrong_energy():
    job = _first("dial-levels", lambda j: j["n"] == 8)
    run_job, check = worker.prepare_levels(job)
    ham, records, report = run_job()
    check((ham, records, report))
    bad_records = list(records)
    bad_records[0] = dataclasses.replace(records[0], energy=records[0].energy + 1)
    with pytest.raises(jobs.OracleError):
        check((ham, tuple(bad_records), report))
    bad_ham = PolynomialHamiltonian(ham.terms[:-1] + ((ham.terms[-1][0], 1),))
    with pytest.raises(jobs.OracleError):
        check((bad_ham, records, report))


def test_ordering_oracle_rejects_an_unsorting_permutation():
    energies = [Fraction(3), Fraction(1), Fraction(2)]
    jobs.check_sorted_by((1, 2, 0), energies)
    with pytest.raises(jobs.OracleError):
        jobs.check_sorted_by((0, 1, 2), energies)
    with pytest.raises(jobs.OracleError):
        jobs.check_sorted_by((1, 1, 0), energies)


def test_dropped_oracle_rejects_a_wrong_determinant():
    job = _first("dial-dropped", lambda j: j["n"] == 8)
    run_job, check = worker.prepare_dropped(job)
    ham, det = run_job()
    check((ham, det))
    with pytest.raises(jobs.OracleError, match="determinant"):
        check((ham, det * 2))


def test_verify_oracle_flags_unbounded_passes_failed_anchors_and_nan():
    unbounded = {"kind": "verify", "points": 101, "anchor": None, "coeffs": ["-1"]}
    run_job, check = worker.prepare_verify(unbounded)
    ham, report = run_job()
    assert not report.passed
    check((ham, report))
    with pytest.raises(jobs.OracleError, match="unbounded below"):
        check((ham, dataclasses.replace(report, passed=True)))

    anchor = {"kind": "verify", "points": 1001, "anchor": "quadratic",
              **jobs.ANCHORS["quadratic"]}
    _, check_anchor = worker.prepare_verify(anchor)
    ham = PolynomialHamiltonian.from_dense([Fraction(-13, 2), 1])
    small = verify_dialled(ham, GridSpec(points=301))
    with pytest.raises(jobs.OracleError, match="anchor"):
        check_anchor((ham, dataclasses.replace(small, passed=False)))
    nan_check = dataclasses.replace(small.checks[0], grid_eigenvalue=float("nan"))
    with pytest.raises(jobs.OracleError, match="non-finite"):
        check_anchor((ham, dataclasses.replace(small, checks=(nan_check,) + small.checks[1:])))


def _cli(capsys, argv):
    code = polyosc.cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["dial", "dial-drop", "spectrum", "det", "verify"])
def test_cli_oracle_accepts_real_output_and_rejects_tampering(capsys, cmd):
    import random
    specs = jobs.cli_argvs(random.Random(5), ".w/figure")
    spec = next(s for s in specs if s["argv"][0] == cmd.split("-")[0]
                and ("--drop-powers" in s["argv"]) == cmd.endswith("drop"))
    if cmd == "verify":
        spec = {**spec, "argv": spec["argv"] + ["--grid-points", "601"]}
    code, out = _cli(capsys, spec["argv"])
    jobs.check_cli_output(spec, code, out, {})
    with pytest.raises(jobs.OracleError, match="exit code"):
        jobs.check_cli_output(spec, 4, out, {})
    # Row 1 holds a_1 (dial), h_0 (spectrum), the determinant (det) or E_n (verify).
    lines = out.splitlines()
    fields = lines[1].split(",")
    column = 4 if cmd == "verify" else 1
    fields[column] = str(Fraction(fields[column]) + 1)
    lines[1] = ",".join(fields)
    with pytest.raises(jobs.OracleError):
        jobs.check_cli_output(spec, 0, "\n".join(lines), {})


def test_cli_oracle_checks_figure_files(capsys, tmp_path):
    import random
    spec = jobs.cli_argvs(random.Random(5), str(tmp_path))[-1]
    code, out = _cli(capsys, spec["argv"])
    files = {p.name: p.read_text() for p in tmp_path.iterdir()}
    jobs.check_cli_output(spec, code, out, files)
    with pytest.raises(jobs.OracleError, match="figure.svg"):
        jobs.check_cli_output(spec, code, out, {**files, "figure.svg": ""})


def test_cli_job_rejects_output_that_changes_on_repeat():
    spec = {"kind": "cli", "id": "x", "cmd": "det", "argv": ["det", "4"]}
    seen = {}
    assert run.run_cli_job(spec, run.child_env(), seen)["ok"]
    assert run.run_cli_job(spec, run.child_env(), seen)["ok"]
    seen[("det", "4")] = ("different\n", {})
    result = run.run_cli_job(spec, run.child_env(), seen)
    assert not result["ok"] and "differs" in result["error"]
    assert result["maxrss_kb"] > 0


def test_harness_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dial-levels",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "polyosc" in proc.stderr
