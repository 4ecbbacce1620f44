"""Command-line interface: dial, spectrum, verify, figure, det.

All fraction input and output is exact: energies and coefficients travel as 'p/q'
or finite-decimal strings (or JSON integers) and parse back to the same rationals.
Every number on the command line or in a request file is read in ASCII, without
digit separators: integers as decimal digits, energies, coefficients and the half
width as exact rationals; GridSpec rounds the half width once to float64.  Binary
floats, booleans, non-integer levels or powers, and counts or sizes below their
least value are refused by the library (exact rationals in exactalg, every integer
by oscillator._as_index), which this module leaves every value check to.  Output is
deterministic byte for byte for identical invocations, and exact values print in
full at any length.

Exit codes: 0 success, 2 malformed or out-of-range input, 4 verification failure,
5 eigensolver non-convergence, 6 unwritable output path; 3 is unused.

Only `verify` and `figure` import the grid module, and with it numpy; scipy loads
only when `verify` calls the eigensolver.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import EigensolverError
from .exactalg import (
    PolynomialHamiltonian,
    SpectrumTarget,
    _as_fraction,
    build_energy_matrix,
    determinant,
    determinant_closed_form,
    dial_partial,
)
from .oscillator import eigenfunction_samples, oscillator_energy
from .spectrum import (
    LevelRecord,
    classical_cross_section,
    evaluate_spectrum,
    ordering_report,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 4
EXIT_EIGEN = 5
EXIT_WRITE = 6


# ---------------------------------------------------------------- wire parsing

# Exact rational from a 'p/q' or finite-decimal string, refused as the library refuses it.
parse_rational = _as_fraction


# A wire integer: ASCII digits with an optional sign, padding allowed as around an
# energy.  int() alone would also read '1_0' as 10 and take non-ASCII digits; the
# range (a level >= 0, a power >= 1) stays with oscillator._as_index.
_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_decimal(text: str, what: str) -> int:
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"{what} {text!r} is not a decimal integer")
    return int(text)


def _option(parse):
    """An argparse type applying `parse`; a refusal is a usage error (exit 2)."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return read


def _decimal_option(what: str):
    """An argparse type reading one wire integer."""
    return _option(lambda text: _parse_decimal(text, what))


def _parse_targets_inline(text: str) -> SpectrumTarget:
    pairs = []
    for chunk in text.split(","):
        level_text, sep, energy_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"target {chunk!r} is not of the form level:energy")
        pairs.append((_parse_decimal(level_text, "level"), parse_rational(energy_text)))
    return SpectrumTarget(tuple(pairs))


def _parse_request_payload(payload) -> tuple[SpectrumTarget, list]:
    # JSON shape only: SpectrumTarget and dial_partial refuse values of the wrong type.
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    raw_targets = payload.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ValueError("request needs a non-empty 'targets' list")
    pairs = []
    for item in raw_targets:
        if not isinstance(item, dict) or "level" not in item or "energy" not in item:
            raise ValueError(f"target {item!r} needs 'level' and 'energy' fields")
        pairs.append((item["level"], item["energy"]))
    drop = payload.get("drop_powers")
    if drop is not None and not isinstance(drop, list):
        raise ValueError("'drop_powers' must be a list of integers")
    return SpectrumTarget(tuple(pairs)), drop or []


def _parse_coeffs(text: str) -> PolynomialHamiltonian:
    return PolynomialHamiltonian.from_dense(text.split(","))


def _parse_drop_powers(text: str) -> list[int]:
    return [_parse_decimal(chunk, "drop power") for chunk in text.split(",")]


# ------------------------------------------------------------- output helpers
#
# Each command builds one JSON-ready body.  `--format json` prints it as is; the
# CSV is derived from the same body, so the two formats always agree.

def _cell(value) -> str:
    """One body scalar as CSV text: strings bare, the rest as JSON writes it."""
    return value if isinstance(value, str) else json.dumps(value)


def _table(header: str, rows) -> list[str]:
    return [header] + [",".join(map(_cell, row)) for row in rows]


def _trailer(items) -> list[str]:
    """'# name = value' lines: lists join with ',', pairs as '(a,b);(c,d)', None or [] as 'none'."""
    def text(value) -> str:
        if value is None or value == []:
            return "none"
        if isinstance(value, list) and isinstance(value[0], list):
            return ";".join(f"({text(pair)})" for pair in value)
        return ",".join(map(_cell, value)) if isinstance(value, list) else _cell(value)

    return [f"# {name} = {text(value)}" for name, value in items]


def _strict(value):
    """The body with each non-finite float as the text CSV prints for it ('inf', 'nan').

    Strict JSON has no Infinity or NaN, and an error can saturate at inf.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return value


def _render(fmt: str, body: dict, to_csv) -> str:
    """The body as indented strict JSON, or as the CSV lines `to_csv` derives from it."""
    if fmt == "json":
        text = json.dumps(_strict(body), indent=2, allow_nan=False)
    else:
        text = "\n".join(to_csv(body))
    return text + "\n"


def _spectrum_body(records: tuple[LevelRecord, ...]) -> dict:
    report = ordering_report(records)
    return {
        "spectrum": [
            {
                "level": rec.level,
                "oscillator_energy": str(oscillator_energy(rec.level)),
                "energy": str(rec.energy),
                "decimal": float(rec.energy),
                "node_count": rec.level,
            }
            for rec in records
        ],
        "ordering": {
            "ascending_permutation": list(report.ascending_permutation),
            "violations": [list(pair) for pair in report.violations],
            "is_sturm_liouville_ordered": report.is_sturm_liouville_ordered,
        },
    }


def _spectrum_csv(body: dict) -> list[str]:
    names = ("ascending_permutation", "violations", "sturm_liouville_ordered")
    return (_table("n,h_n,E_n,E_n_decimal,node_count", (r.values() for r in body["spectrum"]))
            + _trailer(zip(names, body["ordering"].values())))


# ------------------------------------------------------------------- commands

def _default_levels(requested: int | None, n_dialled: int) -> int:
    return max(n_dialled, 9) if requested is None else requested


def _dial_csv(body: dict) -> list[str]:
    rows = (term.values() for term in body["coefficients"])
    return _table("power,a_j,a_j_decimal", rows) + [""] + _spectrum_csv(body)


def cmd_dial(args: argparse.Namespace) -> int:
    if args.request is not None:
        try:
            raw = Path(args.request).read_text()
        except OSError as err:
            raise ValueError(f"cannot read request file: {err}") from None
        try:
            payload = json.loads(raw)
        except RecursionError:
            # json's decoder recurses once per nesting level.
            raise ValueError(f"request file {args.request} is nested too deeply") from None
        target, drop = _parse_request_payload(payload)
    else:
        target, drop = _parse_targets_inline(args.targets), []
    if args.drop_powers is not None:
        drop = _parse_drop_powers(args.drop_powers)

    ham = dial_partial(target, drop)
    count = _default_levels(args.levels, len(target.pairs))
    body = {
        "coefficients": [
            {"power": p, "value": str(a), "decimal": float(a)} for p, a in ham.terms
        ],
        **_spectrum_body(evaluate_spectrum(ham, count)),
    }
    sys.stdout.write(_render(args.format, body, _dial_csv))
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    ham = _parse_coeffs(args.coeffs)
    count = _default_levels(args.levels, len(ham.terms))
    body = _spectrum_body(evaluate_spectrum(ham, count))
    sys.stdout.write(_render(args.format, body, _spectrum_csv))
    return EXIT_OK


def _verify_csv(body: dict) -> list[str]:
    def sci(error: float | None) -> str:
        return "" if error is None else f"{error:.3e}"

    header = ("k,grid_eigenvalue,node_count,matched_level,analytic_E_n,analytic_decimal,"
              "abs_error,rel_error,within_tolerance")
    rows = (
        {**level, "abs_error": sci(level["abs_error"]), "rel_error": sci(level["rel_error"])}
        .values()
        for level in body["levels"]
    )
    names = ("expected_sequence", "node_sequence", "sequence_matches", "degenerate",
             "tolerance", "warning", "passed")
    return _table(header, rows) + _trailer((name, body[name]) for name in names)


def cmd_verify(args: argparse.Namespace) -> int:
    from .gridverify import GridSpec, verify_dialled

    ham = _parse_coeffs(args.coeffs)
    spec = GridSpec(half_width=args.half_width, points=args.grid_points)
    report = verify_dialled(ham, spec, levels_to_check=args.levels)
    body = {
        "grid": {"half_width": report.spec.half_width, "points": report.spec.points},
        "tolerance": report.tolerance,
        "levels": [
            {
                "position": position,
                "grid_eigenvalue": c.grid_eigenvalue,
                "node_count": report.node_sequence[position],
                "matched_level": c.matched_level,
                "analytic_energy": str(c.analytic_energy),
                "analytic_decimal": float(c.analytic_energy),
                "abs_error": c.abs_error,
                "rel_error": c.rel_error,
                "within_tolerance": c.within_tolerance,
            }
            for position, c in enumerate(report.checks)
        ],
        "expected_sequence": list(report.expected_sequence),
        "node_sequence": list(report.node_sequence),
        "sequence_matches": report.sequence_matches,
        "degenerate": report.degenerate,
        "warning": report.warning,
        "passed": report.passed,
    }
    sys.stdout.write(_render(args.format, body, _verify_csv))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _display_scale(records: tuple[LevelRecord, ...]) -> float:
    distinct = sorted({rec.energy for rec in records})
    gaps = [float(b - a) for a, b in zip(distinct, distinct[1:])]
    return 0.9 * min(gaps) if gaps else 1.0


_PALETTE = ("#c0392b", "#27ae60", "#2a6fc2", "#b96310", "#7d3c98",
            "#0e8a7d", "#d4418e", "#5d6d11", "#34558b")


def _svg_figure(xs, cross, records, curves, scale, half_width) -> str:
    width, height = 720, 480
    ml, mr, mt, mb = 62, 16, 16, 42
    plot_w, plot_h = width - ml - mr, height - mt - mb
    energies = [float(rec.energy) for rec in records]
    span = (max(energies) - min(energies)) or 1.0
    pad = 0.8 * scale + 0.08 * span
    y_lo, y_hi = min(energies) - pad, max(energies) + pad

    def px(x: float) -> float:
        return ml + (x + half_width) / (2.0 * half_width) * plot_w

    def py(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    def path(points) -> str:
        return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<title>zero-momentum cross-section with eigenfunctions offset by their energies</title>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<clipPath id="plot"><rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}"/></clipPath>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>',
    ]
    for tick in (-half_width, 0.0, half_width):
        parts.append(
            f'<text x="{px(tick):.2f}" y="{height - 14}" font-size="13" '
            f'text-anchor="middle" fill="#444">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{px(0):.2f}" y="{height - 1}" font-size="13" text-anchor="middle" '
        'fill="#444">x</text>'
    )
    for tick in (y_lo, 0.0, y_hi):
        if y_lo <= tick <= y_hi:
            parts.append(
                f'<text x="{ml - 6}" y="{py(tick) + 4:.2f}" font-size="13" '
                f'text-anchor="end" fill="#444">{tick:.1f}</text>'
            )
    if y_lo <= 0.0 <= y_hi:
        parts.append(
            f'<line x1="{ml}" y1="{py(0.0):.2f}" x2="{ml + plot_w}" y2="{py(0.0):.2f}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
    for rec in records:
        y = py(float(rec.energy))
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + plot_w}" y2="{y:.2f}" '
            'stroke="#bbb" stroke-width="0.7" stroke-dasharray="5,4"/>'
        )
    parts.append(
        f'<polyline clip-path="url(#plot)" fill="none" stroke="#222" stroke-width="2" '
        f'points="{path(zip(xs, cross))}"/>'
    )
    for rec, curve in zip(records, curves):
        color = _PALETTE[rec.level % len(_PALETTE)]
        parts.append(
            f'<polyline clip-path="url(#plot)" fill="none" stroke="{color}" '
            f'stroke-width="1.2" points="{path(zip(xs, curve))}"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w - 8}" y="{py(float(rec.energy)) - 3:.2f}" font-size="11" '
            f'text-anchor="end" fill="{color}">n={rec.level}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args: argparse.Namespace) -> int:
    from .gridverify import GridSpec

    ham = _parse_coeffs(args.coeffs)
    count = _default_levels(args.levels, len(ham.terms))
    records = evaluate_spectrum(ham, count)
    scale = _display_scale(records)
    grid = GridSpec(half_width=args.half_width, points=args.grid_points)
    xs = grid.positions()
    cross = [classical_cross_section(ham, float(x)) for x in xs]
    curves = [
        float(rec.energy) + scale * eigenfunction_samples(rec.level, xs) for rec in records
    ]
    x_values = [float(x) for x in xs]
    levels = {str(rec.level): [float(v) for v in curve] for rec, curve in zip(records, curves)}
    # file stem -> (body, its CSV); the figure's spectrum CSV has no node_count column
    files = {
        "spectrum": (_spectrum_body(records), lambda body: _table(
            "n,h_n,E_n,E_n_decimal", (list(row.values())[:4] for row in body["spectrum"]))),
        "cross_section": ({"x": x_values, "energy": cross},
                          lambda body: _table("x,energy", zip(body["x"], body["energy"]))),
        "eigenfunctions": ({"display_scale": scale, "x": x_values, "levels": levels},
                           lambda body: _trailer([("display_scale", body["display_scale"])])
                           + _table("x," + ",".join(f"level_{n}" for n in body["levels"]),
                                    zip(body["x"], *body["levels"].values()))),
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, (body, to_csv) in files.items():
        (out_dir / f"{stem}.{args.format}").write_text(_render(args.format, body, to_csv))
    (out_dir / "figure.svg").write_text(
        _svg_figure(xs, cross, records, curves, scale, grid.half_width))
    return EXIT_OK


def cmd_det(args: argparse.Namespace) -> int:
    n = args.size
    closed = determinant_closed_form(n)  # first, so that a size below 1 is refused by name
    eliminated = determinant(build_energy_matrix(range(n), range(1, n + 1)))
    body = {
        "n": n,
        "elimination": str(eliminated),
        "closed_form": str(closed),
        "agree": eliminated == closed,
    }
    header = "N,elimination,closed_form,agree"
    sys.stdout.write(_render(args.format, body, lambda body: _table(header, [body.values()])))
    return EXIT_OK


# -------------------------------------------------------------------- parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyosc",
        description="Dial the point spectrum of a polynomial oscillator Hamiltonian "
        "and verify it on a grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    level_count = _decimal_option("level count")
    grid_points = _decimal_option("grid points")
    half_width = _option(parse_rational)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    p_dial = sub.add_parser("dial", help="solve for the polynomial hitting the target energies")
    group = p_dial.add_mutually_exclusive_group(required=True)
    group.add_argument("--targets", help="inline targets, e.g. '0:-3,1:-15/2'")
    group.add_argument("--request", help="path to a JSON request file")
    p_dial.add_argument("--drop-powers", help="comma-separated h-powers to strip, e.g. '3'")
    p_dial.add_argument("--levels", type=level_count, help="levels of induced spectrum to print")
    add_format(p_dial)
    p_dial.set_defaults(func=cmd_dial)

    p_spec = sub.add_parser("spectrum", help="exact spectrum and ordering of a polynomial")
    p_spec.add_argument("--coeffs", required=True, help="dense coefficients a_1,a_2,...")
    p_spec.add_argument("--levels", type=level_count,
                        help="number of levels (default max(N, 9))")
    add_format(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="grid cross-check of spectrum and node ordering")
    p_verify.add_argument("--coeffs", required=True, help="dense coefficients a_1,a_2,...")
    p_verify.add_argument("--levels", type=level_count, default=9,
                          help="levels to check (default 9)")
    p_verify.add_argument("--grid-points", type=grid_points, default=1001,
                          help="grid samples (default 1001)")
    p_verify.add_argument("--half-width", type=half_width, default=10.0,
                          help="grid half width (default 10)")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="emit spectrum, cross-section, and eigenfunction files")
    p_fig.add_argument("--coeffs", required=True, help="dense coefficients a_1,a_2,...")
    p_fig.add_argument("--levels", type=level_count, help="levels to draw (default max(N, 9))")
    p_fig.add_argument("--grid-points", type=grid_points, default=601,
                       help="x samples (default 601)")
    p_fig.add_argument("--half-width", type=half_width, default=6.0,
                       help="x range half width (default 6)")
    p_fig.add_argument("--out", default=".", help="output directory (default current)")
    add_format(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_det = sub.add_parser("det", help="energy-matrix determinant vs the closed form")
    p_det.add_argument("size", type=_decimal_option("matrix size"), help="matrix size N")
    add_format(p_det)
    p_det.set_defaults(func=cmd_det)

    return parser


# Exception -> (exit code, message).  OverflowError: e.g. float(Fraction) > 1.8e308.
_EXIT_CODES = {
    EigensolverError: (EXIT_EIGEN, "{}"),
    ValueError: (EXIT_PARSE, "{}"),
    OverflowError: (EXIT_PARSE, "value beyond float64 range ({})"),
    OSError: (EXIT_WRITE, "{}"),
}


def main(argv: list[str] | None = None) -> int:
    # Exact values can run past the 4300 digits Python converts between int and str
    # by default (the det 82 determinant does): the limit, which Python before 3.10.7
    # lacks, is lifted for the command and put back after it.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as err:
        code, message = next(v for kind, v in _EXIT_CODES.items() if isinstance(err, kind))
        print(f"error: {message.format(err)}", file=sys.stderr)
        return code
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
