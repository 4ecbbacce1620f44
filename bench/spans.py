"""Spans around calls into polyosc's public functions, recorded from outside.

`Tracer.install` swaps each traced function for a wrapper in every polyosc
module namespace that holds it, so calls between modules (for example
`verify_dialled` calling `diagonalize`) are seen too.  Spans stay in memory;
the worker sends them to the harness when the run ends.

This module also turns spans into the per-layer metrics.  It imports nothing
from polyosc, so the harness can use it without loading the package.
"""

import statistics
import time

# Traced functions by module.  Small leaf helpers called hundreds of times per
# job (oscillator_energy, evaluate_polynomial) are left out: wrapping them
# would inflate the tracing overhead.  So is classical_cross_section, which
# `figure` calls once per grid point; the worker times the figure's whole
# cross-section loop as one span of that name instead (`Tracer.record`).
TRACED = {
    "exactalg": ("build_energy_matrix", "solve_linear_exact", "dial", "dial_partial",
                 "determinant"),
    "spectrum": ("evaluate_spectrum", "ordering_report"),
    "gridverify": ("build_oscillator_grid", "matrix_polynomial", "diagonalize",
                   "count_nodes", "verify_dialled"),
    "oscillator": ("eigenfunction_samples",),
    "cli": ("main",),
}

SPAN_KEYS = ("id", "name", "parent", "job", "start_ns", "end_ns", "attrs")

CLI_COMMANDS = ("dial", "spectrum", "det", "verify", "figure")

# Per-layer metrics: name -> unit.  The order is the report order.
PER_LAYER = {
    "exactalg.build_energy_matrix_ms": "ms",
    "exactalg.solve_ms": "ms",
    "exactalg.dial_ms": "ms",
    "exactalg.backcheck_ms": "ms",
    "exactalg.determinant_ms": "ms",
    "exactalg.n": "count",
    "exactalg.coeff_bits": "bits",
    "spectrum.evaluate_spectrum_ms": "ms",
    "spectrum.ordering_report_ms": "ms",
    "spectrum.levels": "count",
    "spectrum.classical_cross_section_ms": "ms",
    "gridverify.build_oscillator_grid_ms": "ms",
    "gridverify.matrix_polynomial_ms": "ms",
    "gridverify.diagonalize_ms": "ms",
    "gridverify.count_nodes_ms": "ms",
    "gridverify.verify_dialled_ms": "ms",
    "gridverify.verify_other_ms": "ms",
    "gridverify.grid_points": "count",
    "gridverify.degree": "count",
    "gridverify.dense_bytes": "bytes",
    "gridverify.worst_rel_error": "ratio",
    "gridverify.pass_share": "ratio",
    "oscillator.eigenfunction_samples_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.process_ms.{cmd}": "ms" for cmd in CLI_COMMANDS},
    **{f"cli.main_ms.{cmd}": "ms" for cmd in CLI_COMMANDS},
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "fail_rate": "ratio",
}

# Metrics derived by subtraction rather than read from one span.
DERIVED = {"exactalg.backcheck_ms", "gridverify.verify_other_ms"}
GRID_STAGES = ("build_oscillator_grid", "matrix_polynomial", "diagonalize", "count_nodes")


def _dial_attrs(args, kwargs, ham):
    target = args[0] if args else kwargs["target"]
    bits = max((max(a.numerator.bit_length(), a.denominator.bit_length())
                for _, a in ham.terms), default=0)
    return {"n": len(target.pairs), "coeff_bits": bits}


def _spectrum_attrs(args, kwargs, records):
    return {"levels": len(records)}


def _verify_attrs(args, kwargs, report):
    ham = args[0] if args else kwargs["ham"]
    leading = ham.coefficient(ham.degree) if ham.degree else 0
    rel = [c.rel_error for c in report.checks if c.rel_error is not None]
    return {
        "grid_points": report.spec.points,
        "degree": ham.degree,
        "worst_rel_error": max(rel, default=0.0),
        "bounded_below": leading >= 0,
        "passed": report.passed,
    }


def _main_attrs(args, kwargs, code):
    argv = args[0] if args else kwargs["argv"]
    return {"cmd": argv[0], "code": code}


ATTRS = {
    "exactalg.dial": _dial_attrs,
    "exactalg.dial_partial": _dial_attrs,
    "spectrum.evaluate_spectrum": _spectrum_attrs,
    "gridverify.verify_dialled": _verify_attrs,
    "cli.main": _main_attrs,
}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else None, self.job, clock(), 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if attrs_of is not None:
                span[6] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start_ns: int, end_ns: int, attrs=None) -> None:
        """Add a span timed by the caller, outside any traced call."""
        self.spans.append([len(self.spans), name, None, self.job, start_ns, end_ns, attrs])

    def install(self, package) -> None:
        """Wrap every traced function wherever a polyosc namespace refers to it."""
        modules = [package] + [getattr(package, m) for m in TRACED]
        for short, names in TRACED.items():
            owner = getattr(package, short)
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def records(self) -> list[dict]:
        return [dict(zip(SPAN_KEYS, span)) for span in self.spans]


def validate_spans(spans: list[dict]) -> None:
    """Raise ValueError unless every span follows the schema.

    Each span has exactly SPAN_KEYS; ids are unique integers; a parent is the
    id of an enclosing span of the same job; a span never ends before it starts.
    """
    by_id = {}
    for span in spans:
        if set(span) != set(SPAN_KEYS):
            raise ValueError(f"span keys {sorted(span)} differ from {list(SPAN_KEYS)}")
        if not isinstance(span["id"], int) or span["id"] in by_id:
            raise ValueError(f"span id {span['id']!r} is not a unique integer")
        if not isinstance(span["name"], str) or not isinstance(span["job"], (str, type(None))):
            raise ValueError(f"span {span['id']} has a malformed name or job")
        if span["end_ns"] < span["start_ns"]:
            raise ValueError(f"span {span['id']} ends before it starts")
        by_id[span["id"]] = span
    for span in spans:
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if (parent is None or parent["job"] != span["job"]
                or span["start_ns"] < parent["start_ns"] or span["end_ns"] > parent["end_ns"]):
            raise ValueError(f"span {span['id']} does not lie inside its parent {span['parent']}")


# ------------------------------------------------------------ aggregation

def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus its direct children's."""
    out = {s["id"]: _ms(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _ms(s)
    return out


def job_values(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one job from its spans (a metric is absent if not exercised)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name: str) -> float | None:
        found = by_name.get(name)
        return sum(_ms(s) for s in found) if found else None

    def minus_children(parents: list[dict], names: tuple[str, ...]) -> float:
        return sum(_ms(p) - sum(_ms(c) for c in children.get(p["id"], ()) if c["name"] in names)
                   for p in parents)

    values: dict[str, float | None] = {
        "exactalg.build_energy_matrix_ms": total("exactalg.build_energy_matrix"),
        "exactalg.solve_ms": total("exactalg.solve_linear_exact"),
        "exactalg.determinant_ms": total("exactalg.determinant"),
        "spectrum.evaluate_spectrum_ms": total("spectrum.evaluate_spectrum"),
        "spectrum.ordering_report_ms": total("spectrum.ordering_report"),
        "spectrum.classical_cross_section_ms": total("spectrum.classical_cross_section"),
        "oscillator.eigenfunction_samples_ms": total("oscillator.eigenfunction_samples"),
        "gridverify.verify_dialled_ms": total("gridverify.verify_dialled"),
    }
    for stage in GRID_STAGES:
        values[f"gridverify.{stage}_ms"] = total(f"gridverify.{stage}")

    dials = by_name.get("exactalg.dial", []) + by_name.get("exactalg.dial_partial", [])
    if dials:
        values["exactalg.dial_ms"] = sum(_ms(s) for s in dials)
        values["exactalg.backcheck_ms"] = minus_children(
            dials, ("exactalg.build_energy_matrix", "exactalg.solve_linear_exact"))
        values["exactalg.n"] = max(s["attrs"]["n"] for s in dials)
        values["exactalg.coeff_bits"] = max(s["attrs"]["coeff_bits"] for s in dials)
    if "spectrum.evaluate_spectrum" in by_name:
        values["spectrum.levels"] = max(s["attrs"]["levels"]
                                        for s in by_name["spectrum.evaluate_spectrum"])
    verifies = by_name.get("gridverify.verify_dialled", [])
    if verifies:
        values["gridverify.verify_other_ms"] = minus_children(
            verifies, tuple(f"gridverify.{stage}" for stage in GRID_STAGES))
        attrs = verifies[-1]["attrs"]
        values["gridverify.grid_points"] = attrs["grid_points"]
        values["gridverify.degree"] = attrs["degree"]
        values["gridverify.dense_bytes"] = attrs["grid_points"] ** 2 * 8
        values["gridverify.worst_rel_error"] = max(s["attrs"]["worst_rel_error"] for s in verifies)
    for kind in ("main", "process"):
        for s in by_name.get(f"cli.{kind}", []):
            values[f"cli.{kind}_ms.{s['attrs']['cmd']}"] = _ms(s)
    if "cli.interpreter" in by_name:
        values["cli.interpreter_ms"] = total("cli.interpreter")
    return {k: v for k, v in values.items() if v is not None}


def pass_share(spans: list[dict]) -> tuple[float, int] | None:
    """Share of bounded-below verify calls whose report passed, and their count."""
    verdicts = [s["attrs"]["passed"] for s in spans
                if s["name"] == "gridverify.verify_dialled" and s["attrs"]["bounded_below"]]
    if not verdicts:
        return None
    return sum(verdicts) / len(verdicts), len(verdicts)


def group_by_job(spans: list[dict]) -> dict[str, list[dict]]:
    jobs: dict[str, list[dict]] = {}
    for s in spans:
        jobs.setdefault(s["job"], []).append(s)
    return jobs


def layer_medians(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Median over jobs of each per-layer value, with the number of jobs."""
    samples: dict[str, list[float]] = {}
    for job_spans in group_by_job(spans).values():
        for name, value in job_values(job_spans).items():
            samples.setdefault(name, []).append(value)
    out = {name: (statistics.median(vals), len(vals)) for name, vals in samples.items()}
    share = pass_share(spans)
    if share is not None:
        out["gridverify.pass_share"] = share
    return out
