import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyosc.cli as cli
from polyosc import EigensolverError


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- golden outputs

# Exact commands print only rationals and correctly rounded float64 decimals, so
# their output is the same on every machine.  tests/golden/<case>.<format> holds
# it byte for byte.
GOLDEN_REQUEST = {
    "targets": [{"level": 0, "energy": 1}, {"level": 2, "energy": "2"}],
    "drop_powers": [2],
}
GOLDEN_CASES = {
    "dial_inline": ["dial", "--targets", "0:-3,1:-15/2"],
    "dial_request": ["dial", "--request", "REQUEST", "--levels", "3"],
    "dial_gapped": ["dial", "--targets", "0:1,2:2", "--levels", "3"],
    "dial_drop_powers": ["dial", "--targets", "0:1,1:2", "--drop-powers", "2", "--levels", "4"],
    "dial_levels": ["dial", "--targets", "0:1/3,1:1/5,2:1/7", "--levels", "4"],
    "spectrum": ["spectrum", "--coeffs=-13/2,1", "--levels", "5"],
    "det": ["det", "6"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(capsys, tmp_path, case, fmt):
    request = tmp_path / "request.json"
    request.write_text(json.dumps(GOLDEN_REQUEST))
    argv = [str(request) if arg == "REQUEST" else arg for arg in GOLDEN_CASES[case]]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.{fmt}").read_text()


# ------------------------------------------------------------------------ dial

def test_dial_inline_quadratic(capsys):
    code, out, err = run_cli(capsys, "dial", "--targets", "0:-3,1:-15/2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "power,a_j,a_j_decimal"
    assert lines[1] == "1,-13/2,-6.5"
    assert lines[2] == "2,1,1.0"
    assert lines[3] == ""
    assert lines[4] == "n,h_n,E_n,E_n_decimal,node_count"
    assert "3,7/2,-21/2,-10.5,3" in lines
    assert "# ascending_permutation = 3,2,4,1,5,0,6,7,8" in lines
    assert "# violations = (0,1);(1,2);(2,3)" in lines
    assert "# sturm_liouville_ordered = false" in lines


def test_dial_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "dial", "--targets", "0:1/3,1:1/5,2:1/7")
    _, second, _ = run_cli(capsys, "dial", "--targets", "0:1/3,1:1/5,2:1/7")
    assert first == second
    _, js1, _ = run_cli(capsys, "dial", "--targets", "0:1/3,1:1/5,2:1/7", "--format", "json")
    _, js2, _ = run_cli(capsys, "dial", "--targets", "0:1/3,1:1/5,2:1/7", "--format", "json")
    assert js1 == js2


def test_dial_json_round_trips_exactly(capsys):
    code, out, _ = run_cli(capsys, "dial", "--targets", "0:22/7,1:-3/11", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert [c["value"] for c in body["coefficients"]] == ["733/77", "-498/77"]
    spectrum = {entry["level"]: entry["energy"] for entry in body["spectrum"]}
    assert spectrum[0] == "22/7"
    assert spectrum[1] == "-3/11"
    assert body["ordering"]["is_sturm_liouville_ordered"] is False


def test_dial_request_file(capsys, tmp_path):
    request = {
        "targets": [
            {"level": 0, "energy": "-3"},
            {"level": 1, "energy": "-15/2"},
        ]
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    code, out, _ = run_cli(capsys, "dial", "--request", str(path))
    assert code == 0
    assert "1,-13/2,-6.5" in out.splitlines()


def test_dial_request_integer_energy_and_drop(capsys, tmp_path):
    request = {
        "targets": [{"level": 0, "energy": 1}, {"level": 2, "energy": 2}],
        "drop_powers": [2],
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    code, out, _ = run_cli(capsys, "dial", "--request", str(path), "--levels", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("1,")
    assert lines[2].startswith("3,")  # power 2 stripped, power 3 retained


def test_dial_request_refuses_binary_float(capsys, tmp_path):
    path = tmp_path / "request.json"
    path.write_text('{"targets": [{"level": 0, "energy": -3.5}]}')
    code, _, err = run_cli(capsys, "dial", "--request", str(path))
    assert code == 2
    assert "float" in err


# The request parser checks only the JSON shape; the library refuses values of the
# wrong type.  Either way the refusal is one error line and exit 2.
_ONE_TARGET = [{"level": 0, "energy": 1}]
REFUSED_REQUESTS = {
    "not-an-object": ([1, 2], "request must be a JSON object"),
    "no-targets": ({}, "request needs a non-empty 'targets' list"),
    "empty-targets": ({"targets": []}, "request needs a non-empty 'targets' list"),
    "target-not-an-object": ({"targets": [3]}, "target 3 needs 'level' and 'energy' fields"),
    "no-level": ({"targets": [{"energy": 1}]},
                 "target {'energy': 1} needs 'level' and 'energy' fields"),
    "no-energy": ({"targets": [{"level": 0}]},
                  "target {'level': 0} needs 'level' and 'energy' fields"),
    "drop-powers-not-a-list": ({"targets": _ONE_TARGET, "drop_powers": 2},
                               "'drop_powers' must be a list of integers"),
    "level-true": ({"targets": [{"level": True, "energy": 1}]}, "level True must be an integer"),
    "level-1.5": ({"targets": [{"level": 1.5, "energy": 1}]}, "level 1.5 must be an integer"),
    "energy-true": ({"targets": [{"level": 0, "energy": True}]},
                    "expected an exact rational, got bool True; "
                    "pass a Fraction, an int, or a 'p/q' string"),
    "energy-null": ({"targets": [{"level": 0, "energy": None}]},
                    "cannot parse None as an exact rational"),
    "drop-power-1.5": ({"targets": _ONE_TARGET, "drop_powers": [1.5]},
                       "drop power 1.5 must be an integer"),
    "drop-power-true": ({"targets": _ONE_TARGET, "drop_powers": [True]},
                        "drop power True must be an integer"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_REQUESTS))
def test_dial_request_refusals_are_one_error_line(capsys, tmp_path, case):
    payload, message = REFUSED_REQUESTS[case]
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "dial", "--request", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_dial_rejects_zero_denominator(capsys):
    code, _, err = run_cli(capsys, "dial", "--targets", "0:1/0")
    assert code == 2
    assert "denominator" in err


def test_dial_rejects_malformed_targets(capsys):
    for bad in ("0", "a:1", "0:xyz", "0:1,0:2"):
        code, _, err = run_cli(capsys, "dial", "--targets", bad)
        assert code == 2, bad
        assert err.startswith("error:")


@pytest.mark.parametrize("option,text,message", [
    ("--targets", "0:1,1_0:2", "level '1_0' is not a decimal integer"),
    ("--targets", "0:1,\u0661:2", "level '\u0661' is not a decimal integer"),
    ("--drop-powers", " 1_0", "drop power ' 1_0' is not a decimal integer"),
    ("--drop-powers", "2,", "drop power '' is not a decimal integer"),
])
def test_dial_reads_levels_and_drop_powers_as_ascii_decimals(capsys, option, text, message):
    # int() alone would read '1_0' as 10 and the Arabic-Indic one as 1.
    argv = ["--targets", "0:1,1:2"] if option == "--drop-powers" else []
    code, out, err = run_cli(capsys, "dial", *argv, f"{option}={text}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_dial_accepts_padded_levels_and_drop_powers(capsys):
    plain = run_cli(capsys, "dial", "--targets", "0:1,1:2", "--drop-powers", "2,3")
    padded = run_cli(capsys, "dial", "--targets", " 0 :1, 1:2", "--drop-powers", " 2 ,3 ")
    assert padded == plain and plain[0] == 0


def test_dial_refuses_a_deeply_nested_request(capsys, tmp_path):
    # json.loads raises RecursionError here; malformed input still exits 2 on one line.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "dial", "--request", str(path))
    assert (code, out, err) == (2, "", f"error: request file {path} is nested too deeply\n")


@pytest.mark.parametrize("raw", [b'{"targets": [', b"\xff\xfe"], ids=["truncated", "utf-16-bom"])
def test_dial_names_a_request_file_that_is_not_json(capsys, tmp_path, raw):
    path = tmp_path / "request.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "dial", "--request", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: request file {path} is not JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_dial_missing_request_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "dial", "--request", str(tmp_path / "nope.json"))
    assert code == 2
    assert "request file" in err


def test_dial_partial_via_noncontiguous_targets(capsys):
    code, out, _ = run_cli(capsys, "dial", "--targets", "0:1,2:2", "--levels", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1,23/10,2.3"
    assert lines[2] == "2,-3/5,-0.6"
    assert "1,3/2,21/10,2.1,1" in lines  # implied middle level


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dial"])  # neither --targets nor --request
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- spectrum

def test_spectrum_matches_dial_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coeffs=-13/2,1", "--levels", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,h_n,E_n,E_n_decimal,node_count"
    assert lines[1] == "0,1/2,-3,-3.0,0"
    assert lines[4] == "3,7/2,-21/2,-10.5,3"
    assert lines[-1] == "# sturm_liouville_ordered = false"


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coeffs=1", "--levels", "3", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["ordering"]["is_sturm_liouville_ordered"] is True
    assert [e["energy"] for e in body["spectrum"]] == ["1/2", "3/2", "5/2"]
    assert [e["node_count"] for e in body["spectrum"]] == [0, 1, 2]


def test_spectrum_rejects_bad_coeffs(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--coeffs=1,garbage")
    assert code == 2
    assert "garbage" in err


# ---------------------------------------------------------------------- verify

def test_verify_quadratic_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coeffs=-13/2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k,grid_eigenvalue,node_count,matched_level")
    assert "# node_sequence = 3,2,4,1,5,0,6,7,8" in lines
    assert "# sequence_matches = true" in lines
    assert "# tolerance = 0.001" in lines
    assert "# warning = none" in lines
    assert lines[-1] == "# passed = true"


def test_verify_ignores_stored_zeros_above_the_degree(capsys):
    assert (run_cli(capsys, "verify", "--coeffs=-13/2,1,0,0")
            == run_cli(capsys, "verify", "--coeffs=-13/2,1"))


def test_verify_coarse_passing_run_does_not_warn(capsys):
    # worst absolute error 5.7e-4, relative 4.2e-5: a pass, and nothing to warn of
    code, out, err = run_cli(capsys, "verify", "--coeffs=-13/2,1", "--grid-points", "401")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "# warning = none" in lines
    assert lines[-1] == "# passed = true"


def test_verify_coarse_grid_exits_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coeffs=-13/2,1", "--grid-points", "5")
    assert code == 4
    assert out.splitlines()[-1] == "# passed = false"


def test_verify_json_reports_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--coeffs=1", "--levels", "3", "--grid-points", "401",
        "--half-width", "8", "--format", "json",
    )
    assert code == 0
    body = json.loads(out)
    assert body["grid"] == {"half_width": 8.0, "points": 401}
    assert body["passed"] is True
    assert [lvl["node_count"] for lvl in body["levels"]] == [0, 1, 2]
    assert body["levels"][0]["analytic_energy"] == "1/2"


# Grid eigenvalues and errors depend on LAPACK and libm; the layout and the exact
# columns do not.
VERIFY_HEADER = (
    "k,grid_eigenvalue,node_count,matched_level,analytic_E_n,analytic_decimal,"
    "abs_error,rel_error,within_tolerance"
)
VERIFY_EXACT = [  # node_count, matched_level, analytic_E_n for --coeffs=-13/2,1
    (3, 3, "-21/2"), (2, 2, "-10"), (4, 4, "-9"), (1, 1, "-15/2"), (5, 5, "-11/2"),
    (0, 0, "-3"), (6, 6, "0"), (7, 7, "15/2"), (8, 8, "17"),
]


def test_verify_csv_layout_and_exact_columns(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coeffs=-13/2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == VERIFY_HEADER
    rows = [line.split(",") for line in lines[1:10]]
    assert [(int(r[2]), int(r[3]), r[4]) for r in rows] == VERIFY_EXACT
    assert [r[0] for r in rows] == [str(k) for k in range(9)]
    assert [line.split(" = ")[0] for line in lines[10:]] == [
        "# expected_sequence", "# node_sequence", "# sequence_matches", "# degenerate",
        "# tolerance", "# warning", "# passed",
    ]
    assert out.endswith("# passed = true\n")


def test_verify_json_key_order_and_exact_columns(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coeffs=-13/2,1", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert list(body) == [
        "grid", "tolerance", "levels", "expected_sequence", "node_sequence",
        "sequence_matches", "degenerate", "warning", "passed",
    ]
    assert list(body["grid"]) == ["half_width", "points"]
    assert list(body["levels"][0]) == [
        "position", "grid_eigenvalue", "node_count", "matched_level", "analytic_energy",
        "analytic_decimal", "abs_error", "rel_error", "within_tolerance",
    ]
    exact = [(lvl["node_count"], lvl["matched_level"], lvl["analytic_energy"])
             for lvl in body["levels"]]
    assert exact == VERIFY_EXACT
    assert out.endswith("}\n")


def zeros_then(count: int, coeff: str) -> str:
    return "--coeffs=" + ",".join(["0"] * count + [coeff])


def test_verify_energy_underflowing_float64_is_checked_absolutely(capsys):
    # E_0 = 1e-300 (1/2)^90 is nonzero but 0.0 as a float: no relative error.  Three
    # samples keep every node count, and so every matched level, inside levels 0..2.
    code, out, _ = run_cli(
        capsys, "verify", zeros_then(89, "1e-300"), "--levels", "3", "--grid-points", "3"
    )
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == VERIFY_HEADER
    row = lines[1].split(",")
    assert (row[3], row[5], row[7]) == ("0", "0.0", "")
    assert lines[-1] == "# passed = false"


@pytest.mark.parametrize("argv", [
    # a_110 = 1e-322 is subnormal, stored to 1.2%, and Horner's first steps round
    # in subnormals too
    [zeros_then(109, "1e-322"), "--levels", "3", "--grid-points", "301"],
    ["--coeffs=1", "--half-width", "1e78", "--grid-points", "11", "--levels", "3"],  # dx^4
], ids=["degree-110", "wide-grid"])
def test_verify_beyond_float64_fails_without_a_warning(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (4, "")
    (warning,) = [line for line in out.splitlines() if line.startswith("# warning = ")]
    assert warning == "# warning = none"
    assert out.endswith("# passed = false\n")


def test_verify_non_finite_operator_names_the_cause(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--coeffs=1", "--half-width", "1e160", "--grid-points", "51"
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: grid operator has non-finite entries (float64 overflow)"


@pytest.mark.parametrize(("argv", "error"), [
    (["--coeffs=1", "--half-width", "1e160", "--grid-points", "51"],
     "grid operator has non-finite entries (float64 overflow)"),
    ([zeros_then(60, "1e300"), "--grid-points", "51"],  # P(mu_10) ~ 1e300 10.5^61
     "P(mu) is not finite in float64 (overflow)"),
], ids=["wide-grid", "degree-61"])
def test_verify_overflow_prints_only_the_error_line(argv, error):
    # A process with Python's default warning filters: numpy's overflow warnings
    # would print the install path and source lines ahead of the error.
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "polyosc.cli", "verify", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {error}\n"


def test_verify_json_is_strict_when_an_error_overflows(capsys):
    # E_0 = 1e-280 (1/2)^110 is subnormal, so level 0's relative error is inf; the
    # narrow three-sample grid puts A's lowest mode near 800, so P maps it to ~1e40
    code, out, err = run_cli(
        capsys, "verify", zeros_then(109, "1e-280"), "--levels", "3", "--grid-points", "3",
        "--half-width", "0.02", "--format", "json",
    )
    assert (code, err) == (4, "")

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    body = json.loads(out, parse_constant=refuse)
    assert [lvl["rel_error"] for lvl in body["levels"] if lvl["matched_level"] == 0] == ["inf"]


def test_verify_refuses_a_spacing_too_small_for_float64(capsys):
    # dx = 2e-203, so 24 dx^2 underflows to 0.0
    code, out, err = run_cli(capsys, "verify", "--coeffs=1", "--half-width", "1e-200")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: grid spacing 2e-203 is too small for float64 differences"


@pytest.mark.filterwarnings("error")
def test_verify_residual_norms_near_float64_limit_do_not_overflow(capsys):
    # The operator's entries reach ~3e305, so its eigenpair residuals reach ~1e290: their
    # squares overflow float64, yet the eigensolve is accurate and the check must say so.
    code, out, err = run_cli(capsys, "verify", "--coeffs=1", "--half-width", "1e-150")
    assert (code, err) == (4, "")
    warning = next(line for line in out.splitlines() if line.startswith("# warning = "))
    assert warning == "# warning = none"
    assert out.endswith("# passed = false\n")


@pytest.mark.filterwarnings("error")
def test_verify_validates_eigenpairs_when_the_operator_norm_overflows(capsys):
    # The largest entry is ~8.8e307 and the row sums of ||A||inf overflow; the
    # eigenpairs still pass a finite residual check, and the grid eigenvalues near
    # 1e305 then fail against the exact 1/2, 3/2, 5/2.
    code, out, err = run_cli(capsys, "verify", "--coeffs=1", "--half-width",
                             "2.9853826189179203e-153", "--grid-points", "51", "--levels", "3")
    assert (code, err) == (4, "")
    rows = [line.split(",") for line in out.splitlines()[1:4]]
    assert [row[2:6] + row[8:] for row in rows] == [
        ["0", "0", "1/2", "0.5", "false"],
        ["1", "1", "3/2", "1.5", "false"],
        ["2", "2", "5/2", "2.5", "false"],
    ]
    assert out.splitlines()[4:] == [
        "# expected_sequence = 0,1,2",
        "# node_sequence = 0,1,2",
        "# sequence_matches = true",
        "# degenerate = false",
        "# tolerance = 0.001",
        "# warning = none",
        "# passed = false",
    ]


def test_verify_zero_polynomial_fails_where_node_counts_repeat(capsys):
    # P maps every mode of A to 0, so all 51 levels tie and every check passes; but
    # 51 points on [-10, 10] do not resolve A's high modes, whose node counts repeat,
    # so the counts are no permutation of 0..50 and the run fails
    code, out, err = run_cli(capsys, "verify", "--coeffs=0", "--grid-points", "51",
                             "--levels", "51")
    assert (code, err) == (4, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 51 + 7
    assert all(line.endswith(",true") for line in lines[1:52])
    (nodes,) = [line for line in lines if line.startswith("# node_sequence = ")]
    counts = [int(n) for n in nodes.split(" = ")[1].split(",")]
    assert counts.count(31) > 1 and counts.count(32) > 1
    assert "# degenerate = true" in lines
    assert lines[-1] == "# passed = false"


def test_verify_unbounded_below_fails_on_resolved_modes(capsys):
    # P = -h: the grid maps A's lowest 11 modes only and keeps the nine lowest of
    # them, modes 10 down to 2; each agrees with its level, and the run still fails
    # (the wall pairs of -A itself are diagonalize's own test now)
    code, out, err = run_cli(capsys, "verify", "--coeffs=-1", "--grid-points", "401",
                             "--format", "json")
    assert (code, err) == (4, "")
    body = json.loads(out)
    assert body["warning"].startswith("P is unbounded below (leading coefficient -1 < 0)")
    assert body["node_sequence"] == list(range(10, 1, -1))
    assert all(level["within_tolerance"] for level in body["levels"])
    assert body["passed"] is False


def test_verify_eigensolver_failure_exits_5(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise EigensolverError("eigensolver failed to converge")

    monkeypatch.setattr("polyosc.gridverify.verify_dialled", boom)
    code, _, err = run_cli(capsys, "verify", "--coeffs=1")
    assert code == 5
    assert "converge" in err


# ---------------------------------------------------------------------- figure

def test_figure_writes_quartet(capsys, tmp_path):
    out_dir = tmp_path / "fig"
    code, _, _ = run_cli(capsys, "figure", "--coeffs=-13/2,1", "--out", str(out_dir))
    assert code == 0
    spectrum = (out_dir / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "n,h_n,E_n,E_n_decimal"
    assert spectrum[4] == "3,7/2,-21/2,-10.5"
    eigen = (out_dir / "eigenfunctions.csv").read_text().splitlines()
    assert eigen[0] == "# display_scale = 0.45"
    assert eigen[1].startswith("x,level_0,")
    cross = (out_dir / "cross_section.csv").read_text().splitlines()
    assert cross[0] == "x,energy"
    assert len(cross) == 602  # header + default 601 samples
    svg = (out_dir / "figure.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 10  # cross-section + nine eigenfunctions


def test_figure_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "figure", "--coeffs=-13/2,1", "--out", str(a))
    run_cli(capsys, "figure", "--coeffs=-13/2,1", "--out", str(b))
    for name in ("spectrum.csv", "cross_section.csv", "eigenfunctions.csv", "figure.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_figure_json_mode(capsys, tmp_path):
    out_dir = tmp_path / "figj"
    code, _, _ = run_cli(
        capsys, "figure", "--coeffs=1", "--levels", "3", "--grid-points", "11",
        "--out", str(out_dir), "--format", "json",
    )
    assert code == 0
    eigen = json.loads((out_dir / "eigenfunctions.json").read_text())
    assert eigen["display_scale"] == pytest.approx(0.9)
    assert set(eigen["levels"]) == {"0", "1", "2"}
    assert len(eigen["x"]) == 11
    assert (out_dir / "figure.svg").exists()


def test_figure_csv_layout(capsys, tmp_path):
    out_dir = tmp_path / "fig"
    code, out, _ = run_cli(capsys, "figure", "--coeffs=-13/2,1", "--levels", "5",
                           "--grid-points", "11", "--out", str(out_dir))
    assert (code, out) == (0, "")
    assert (out_dir / "spectrum.csv").read_text() == (
        "n,h_n,E_n,E_n_decimal\n0,1/2,-3,-3.0\n1,3/2,-15/2,-7.5\n2,5/2,-10,-10.0\n"
        "3,7/2,-21/2,-10.5\n4,9/2,-9,-9.0\n"
    )
    cross = (out_dir / "cross_section.csv").read_text().splitlines()
    assert cross[0] == "x,energy" and len(cross) == 12
    eigen = (out_dir / "eigenfunctions.csv").read_text().splitlines()
    assert eigen[0].split(" = ")[0] == "# display_scale"
    assert eigen[1] == "x,level_0,level_1,level_2,level_3,level_4"
    assert len(eigen) == 13


def test_figure_json_layout(capsys, tmp_path):
    out_dir = tmp_path / "fig"
    code, out, _ = run_cli(capsys, "figure", "--coeffs=-13/2,1", "--levels", "5",
                           "--grid-points", "11", "--out", str(out_dir), "--format", "json")
    assert (code, out) == (0, "")
    # the figure's spectrum file is the spectrum command's result
    assert (out_dir / "spectrum.json").read_text() == (GOLDEN / "spectrum.json").read_text()
    cross = json.loads((out_dir / "cross_section.json").read_text())
    assert list(cross) == ["x", "energy"]
    eigen = json.loads((out_dir / "eigenfunctions.json").read_text())
    assert list(eigen) == ["display_scale", "x", "levels"]
    assert list(eigen["levels"]) == ["0", "1", "2", "3", "4"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "cross_section.json", "eigenfunctions.json", "figure.svg", "spectrum.json"]


def test_figure_unwritable_out_exits_6(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run_cli(capsys, "figure", "--coeffs=1", "--out", str(blocker / "sub"))
    assert code == 6
    assert err.startswith("error:")


# ------------------------------------------------------------------------- det

def test_det_five(capsys):
    code, out, _ = run_cli(capsys, "det", "5")
    assert code == 0
    assert out == "N,elimination,closed_form,agree\n5,8505,8505,true\n"


def test_det_json(capsys):
    code, out, _ = run_cli(capsys, "det", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "elimination": "15/4",
        "closed_form": "15/4",
        "agree": True,
    }


def test_det_rejects_nonpositive(capsys):
    code, _, err = run_cli(capsys, "det", "0")
    assert code == 2
    assert "size" in err


# Python converts at most 4300 digits between int and str by default (3.10.7 on);
# the CLI lifts that for its command, so exact output of any length prints.
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python has no int digit limit")


@needs_digit_limit
def test_det_prints_past_the_int_digit_limit(capsys):
    # det 82 is the first size whose determinant has more than 4300 digits
    code, out, err = run_cli(capsys, "det", "82", "--format", "json")
    assert (code, err) == (0, "")
    body = json.loads(out)
    assert body["agree"] is True
    assert len(body["elimination"].partition("/")[0]) > 4300


@needs_digit_limit
def test_spectrum_prints_past_the_int_digit_limit(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--coeffs=1e-5000", "--levels", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",0.0,0")


@needs_digit_limit
def test_main_puts_the_int_digit_limit_back(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, "det", "3")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            cli.main(["det", "x"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


# -------------------------------------------------------- out-of-range input

@pytest.mark.parametrize("argv", [
    ["spectrum", "--coeffs=1e400"],
    ["dial", "--targets", "0:1e400"],
    ["verify", "--coeffs=1e400"],
    ["figure", "--coeffs=1e400", "--out", "OUT"],
], ids=lambda argv: argv[0])
def test_value_beyond_float64_exits_2(capsys, tmp_path, argv):
    argv = [str(tmp_path / "fig") if arg == "OUT" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: value beyond float64 range")
    assert len(err.splitlines()) == 1


# command line -> argparse's refusal: every integer option is ASCII decimal digits, where
# int() alone would read '1_0' as 10 and a fullwidth or Arabic-Indic digit as itself
NOT_DECIMAL = {
    "spectrum --coeffs 1 --levels 1_0": "argument --levels: level count '1_0'",
    "spectrum --coeffs 1 --levels x": "argument --levels: level count 'x'",
    "dial --targets 0:1 --levels \u0663": "argument --levels: level count '\u0663'",
    "figure --coeffs 1 --levels 3. --out OUT": "argument --levels: level count '3.'",
    "verify --coeffs 1 --levels 0x3": "argument --levels: level count '0x3'",
    "verify --coeffs 1 --levels 3 --grid-points 1_01": "argument --grid-points: grid points '1_01'",
    "figure --coeffs 1 --grid-points 1e2 --out OUT": "argument --grid-points: grid points '1e2'",
    "det \uff13": "argument size: matrix size '\uff13'",
    "det 1_0": "argument size: matrix size '1_0'",
}


@pytest.mark.parametrize("line", list(NOT_DECIMAL))
def test_integer_options_refuse_anything_but_ascii_decimals(capsys, tmp_path, line):
    argv = [str(tmp_path / "fig") if arg == "OUT" else arg for arg in line.split()]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f": error: {NOT_DECIMAL[line]} is not a decimal integer\n")
    assert not (tmp_path / "fig").exists()


# Every rational on the command line or in a request is read in ASCII without digit
# separators, where Fraction alone takes non-ASCII digits, and '1_0' as 10 on 3.11.
NOT_ASCII_RATIONAL = ["1_0", "\uff11", "1/\uff12"]


@pytest.mark.parametrize("text", NOT_ASCII_RATIONAL)
@pytest.mark.parametrize("place", ["inline-energy", "coeffs", "request-energy"])
def test_rationals_refuse_separators_and_non_ascii_digits(capsys, tmp_path, place, text):
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"targets": [{"level": 0, "energy": text}]}))
    argv = {
        "inline-energy": ["dial", "--targets", f"0:{text}"],
        "coeffs": ["spectrum", f"--coeffs=1,{text}"],
        "request-energy": ["dial", "--request", str(request)],
    }[place]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse {text!r} as an exact rational\n"


@pytest.mark.parametrize("text", NOT_ASCII_RATIONAL + ["inf", "nan"])
@pytest.mark.parametrize("command", ["verify", "figure"])
def test_half_width_is_read_as_an_exact_rational(capsys, tmp_path, command, text):
    out = ["--out", str(tmp_path / "fig")] if command == "figure" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--coeffs=1", "--half-width", text, *out])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        f": error: argument --half-width: cannot parse {text!r} as an exact rational\n")
    assert not (tmp_path / "fig").exists()


def test_verify_half_width_accepts_what_float_read_alike(capsys):
    plain = run_cli(capsys, "verify", "--coeffs=1", "--levels", "3", "--grid-points", "101",
                    "--half-width", "8", "--format", "json")
    assert plain[0] == 0 and json.loads(plain[1])["grid"]["half_width"] == 8.0
    for text in (" 8 ", "8.0", "16/2", "0.8e1"):
        assert run_cli(capsys, "verify", "--coeffs=1", "--levels", "3", "--grid-points",
                       "101", "--half-width", text, "--format", "json") == plain, text


def test_verify_half_width_beyond_float64_is_refused_as_infinite(capsys):
    code, out, err = run_cli(capsys, "verify", "--coeffs=1", "--half-width", "1e400")
    assert (code, out) == (2, "")
    assert err == "error: half width must be positive and finite, got inf\n"


def test_integer_options_accept_padded_decimals(capsys):
    plain = run_cli(capsys, "spectrum", "--coeffs=1", "--levels", "3")
    assert run_cli(capsys, "spectrum", "--coeffs=1", "--levels", " +3 ") == plain
    assert plain[0] == 0 and len(plain[1].splitlines()) == 7
    assert run_cli(capsys, "det", " 5 ") == run_cli(capsys, "det", "5")


# command line -> the library's refusal; the CLI reads --levels, --grid-points and the
# det size as decimals but leaves their range to the library
COUNTS_BELOW_LEAST = {
    "det 0": "matrix size 0 must be >= 1",
    "det -3": "matrix size -3 must be >= 1",
    "dial --targets 0:1 --levels 0": "level count 0 must be >= 1",
    "spectrum --coeffs=1 --levels 0": "level count 0 must be >= 1",
    "figure --coeffs=1 --levels 0 --out OUT": "level count 0 must be >= 1",
    "verify --coeffs=1 --levels 0": "level count 0 must be >= 1",
    "verify --coeffs=1 --grid-points 2": "grid points 2 must be >= 3",
}


@pytest.mark.parametrize("line", list(COUNTS_BELOW_LEAST))
def test_count_below_its_least_value_exits_2(capsys, tmp_path, line):
    argv = [str(tmp_path / "fig") if arg == "OUT" else arg for arg in line.split()]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {COUNTS_BELOW_LEAST[line]}\n")


def test_verify_refuses_oversized_grid(capsys):
    # refused before the k x k operator is allocated
    code, out, err = run_cli(capsys, "verify", "--coeffs=1", "--grid-points", "10000000")
    assert (code, out) == (2, "")
    assert err == "error: 10000000 grid points exceed the grid limit of 6688\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polyosc.cli", "det", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "N,elimination,closed_form,agree\n5,8505,8505,true\n"
