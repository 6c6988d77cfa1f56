"""Which cyclodiff entry points the traced runs wrap, and how per-layer
metrics are read off the recorded spans and counts."""

from __future__ import annotations

import statistics

from spans import Counter, Patcher, Tracer, descendants_per_call, summarize

TOWER_OPS = (
    "mul",
    "power",
    "valuation",
    "invert",
    "norm_down",
    "trace_down",
    "galois_apply",
    "to_rho_basis",
    "perp_project",
    "add",
)
DIFFERENTIALS = (
    "kernel_lattice",
    "random_kernel_element",
    "flat_decompose",
    "divisibility_exponent",
    "elementary_divisor_valuations",
    "commensurability_check",
)
COMPLETION = (
    "perp_series_decompose",
    "series_invert",
    "series_reconstruct",
    "w2_valuation",
    "layered_sum_membership",
    "flatness_test",
)
CONSTANTS = ("different_drift", "trace_bound_cell", "galois_defect_cell", "kernel_shift")
# metric name -> PadicScalar attribute
PADIC = {"raw": "raw", "rep_mod": "rep_mod", "add": "__add__", "mul": "__mul__", "invert": "invert"}


def _phi_tag(args, result):
    return len(getattr(result, "coeffs", ()))


def _size_tag(args, result):
    return len(result)


def install_spans(cd, tracer: Tracer, patcher: Patcher):
    """Wrap every layer boundary named by the per-layer metrics."""
    for op in TOWER_OPS:
        tag = _phi_tag if op == "mul" else None
        patcher.method(
            cd.tower.CyclotomicTower, op, lambda fn, op=op, tag=tag: tracer.wrap(fn, f"tower.{op}", tag)
        )
    for fn_name in DIFFERENTIALS:
        patcher.function(
            cd.differentials, fn_name, lambda fn, n=fn_name: tracer.wrap(fn, f"differentials.{n}")
        )
    patcher.method(
        cd.differentials.LatticeBasis,
        "from_generators",
        lambda fn: tracer.wrap(fn, "differentials.from_generators"),
    )
    for fn_name in COMPLETION:
        patcher.function(
            cd.completion, fn_name, lambda fn, n=fn_name: tracer.wrap(fn, f"completion.{n}")
        )
    patcher.function(
        cd.constants,
        "norm_congruence_cell",
        lambda fn: tracer.wrap(fn, lambda a, kw: f"constants.norm_cell.{a[1]}-{a[2]}"),
    )
    for fn_name in CONSTANTS + ("estimate_constants",):
        patcher.function(
            cd.constants, fn_name, lambda fn, n=fn_name: tracer.wrap(fn, f"constants.{n}")
        )
    patcher.function(cd.harness, "run_all", lambda fn: tracer.wrap(fn, "harness.run_all"))
    patcher.function(
        cd.harness,
        "run_suite",
        lambda fn: tracer.wrap(
            fn, lambda a, kw: "harness." + (a[1] if len(a) > 1 else kw["name"])
        ),
    )
    patcher.function(
        cd.reportio,
        "canonical_dumps",
        lambda fn: tracer.wrap(fn, "reportio.canonical_dumps", _size_tag),
    )
    patcher.function(
        cd.reportio, "validate_report", lambda fn: tracer.wrap(fn, "reportio.validate_report")
    )
    patcher.function(cd.cli, "main", lambda fn: tracer.wrap(fn, "cli.main"))


def install_counts(cd, counter: Counter, patcher: Patcher):
    for metric, attr in PADIC.items():
        patcher.method(
            cd.padic.PadicScalar, attr, lambda fn, m=metric: counter.wrap(fn, f"padic.{m}")
        )


def layer_metrics(names, spans, counts, overheads):
    """Value of every per-layer metric in ``names`` from one span pass, one
    counting pass and the measured tracing overheads (seconds)."""
    table = summarize(spans)
    out = {}
    for name in names:
        head, _, last = name.rpartition(".")
        if name in overheads:
            value = overheads[name]
        elif name.startswith("padic."):
            value = counts[head]
        elif last == "calls":
            value = table.get(head, {}).get("calls", 0)
        elif last == "self_s":
            value = table.get(head, {}).get("self_ns", 0) / 1e9
        elif head == "tower.mul.p50_us":
            phi = int(last[len("phi") :])
            durs = [(s[5] - s[4]) / 1e3 for s in spans if s[2] == "tower.mul" and s[7] == phi]
            value = statistics.median(durs) if durs else 0.0
        elif name == "tower.invert.muls_per_call":
            value = descendants_per_call(spans, "tower.invert", "tower.mul")
        elif name == "differentials.divisibility_exponent.lattices_per_call":
            value = descendants_per_call(
                spans, "differentials.divisibility_exponent", "differentials.from_generators"
            )
        elif name == "tower.valuation.zero_ratio":
            vals = [s for s in spans if s[2] == "tower.valuation"]
            zero = sum(1 for s in vals if s[6] == "ValuationOfZero")
            value = zero / len(vals) if vals else 0.0
        elif name == "constants.norm.useful_ratio":
            value = _norm_useful_ratio(spans)
        elif name == "reportio.bytes":
            value = sum(s[7] for s in spans if s[2] == "reportio.canonical_dumps")
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        out[name] = value
    return out


def _norm_useful_ratio(spans):
    """Norm-cell elements whose difference N(x) - x^(p^k) was not all-bottom,
    over elements considered.  Each element considered costs one norm_down
    directly under its cell span; only a non-bottom difference goes on to a
    valuation directly under the cell span."""
    cells = {s[0] for s in spans if s[2].startswith("constants.norm_cell.")}
    considered = sum(1 for s in spans if s[1] in cells and s[2] == "tower.norm_down")
    useful = sum(1 for s in spans if s[1] in cells and s[2] == "tower.valuation")
    return useful / considered if considered else 0.0
