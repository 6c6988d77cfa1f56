"""cyclodiff benchmark: end-to-end timings, and per-layer spans on request.

    python3 perfbench/run.py --workload verify-p3 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Workloads, their parameters and the reasons
they were chosen live in ``perfbench/workloads.json``; metric names and units
come from ``BENCHMARK.json``.  The load is one closed-loop client in one
thread: the next item starts only when the previous one has returned.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Every
time is scaled to a fixed reference speed by the probe in ``speed.py``; the
unscaled figures are printed on the line before the result as ``raw_*``.
``--trace 1`` runs the first pass three times: plain, with spans at every
layer boundary, and with call counters on the p-adic scalars (kept apart so
millions of scalar calls do not inflate tower self times).  It prints the
per-layer metrics, including each tracing overhead as traced minus plain
scaled pass time, and writes the spans to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from layers import install_counts, install_spans, layer_metrics
from spans import Counter, Patcher, Tracer
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters


class MissingProgram(Exception):
    """The checkout holds no cyclodiff sources to measure."""


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def workload_spec(name: str, tiny: bool = False) -> dict:
    spec = dict(load_json(os.path.join(HERE, "workloads.json"))["workloads"][name])
    if tiny:
        spec.update(spec.pop("tiny"))
    spec["name"] = name
    return spec


def import_cyclodiff():
    if not os.path.isfile(os.path.join(SRC, "cyclodiff", "__init__.py")):
        raise MissingProgram(f"no cyclodiff sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import cyclodiff
    import cyclodiff.cli

    if not os.path.abspath(cyclodiff.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"cyclodiff was imported from {cyclodiff.__file__}, not {SRC}")
    return cyclodiff


def percentile_tail(latencies, pct: float):
    """Nearest-rank ``pct`` percentile of ``latencies``, and how many items
    lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Bench:
    """One workload in one process: set-up, then items in a closed loop."""

    def __init__(self, spec: dict, seed: int, probe: SpeedProbe, pins=None):
        self.spec = spec
        self.seed = seed
        self.probe = probe
        self.pins = spec.get("pins", {}) if pins is None else pins
        self.cd = None
        self.tower = None
        self.attempted = 0
        self.failures = []

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Import, build the tower, warm up where the spec says so; returns
        (raw, scaled) seconds."""
        mark = self.probe.mark()
        self.cd = import_cyclodiff()
        t = self.spec["tower"]
        params = self.cd.TowerParams(p=t["p"], s=t["s"], max_level=t["levels"], prec=t["prec"])
        self.tower = self.cd.CyclotomicTower(params)
        if self.spec.get("warmup"):
            self.item(-1)
        return self.probe.since(mark)

    # -- items ---------------------------------------------------------------

    def item(self, index: int, hooks=None):
        """Run item ``index`` and check it; returns its (raw, scaled)
        latency in seconds.
        Each of ``hooks`` (a Tracer or Counter) is switched on only around
        the timed call, so checks stay out of any trace."""
        self.attempted += 1
        runner = self._verify_item if self.spec["kind"] == "verify" else self._series_item
        try:
            ok, latency, why = runner(index, hooks)
        except Exception as exc:  # an item that raises counts as failed
            ok, latency, why = False, (0.0, 0.0), f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"item {index}: {why}")
        return latency

    @contextlib.contextmanager
    def _timed(self, hooks, out: list, index: int):
        for h in hooks or ():
            h.item = index
            h.active = True
        mark = self.probe.mark()
        try:
            yield
        finally:
            out.append(self.probe.since(mark))
            for h in hooks or ():
                h.active = False

    def _verify_item(self, index, hooks):
        seed = self.seed + index
        argv = list(self.spec["argv"]) + ["--seed", str(seed)]
        buf = io.StringIO()
        lat = []
        with self._timed(hooks, lat, index), contextlib.redirect_stdout(buf):
            code = self.cd.cli.main(argv)
        text = buf.getvalue()
        if code != 0:
            return False, lat[0], f"exit code {code} for {' '.join(argv)}"
        report = json.loads(text)
        if report.get("passed") is not True or not all(
            s.get("passed") is True for s in report.get("suites", {}).values()
        ):
            return False, lat[0], f"a suite failed for {' '.join(argv)}"
        try:
            self.cd.reportio.validate_report(report)
        except Exception as exc:  # jsonschema raises its own error type
            return False, lat[0], f"report rejected: {exc}"
        pin = self.pins.get(str(seed))
        if pin is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != pin:
                return False, lat[0], f"seed {seed} report sha256 {digest} != pinned {pin}"
        return True, lat[0], ""

    def _series_item(self, index, hooks):
        cd, tower = self.cd, self.tower
        rng = random.Random(f"{self.spec['name']}:{self.seed}:{index}")
        x = tower.random_unit(tower.max_level, rng)
        lat = []
        with self._timed(hooks, lat, index):
            series = cd.completion.perp_series_decompose(tower, x)
            inv_series = cd.completion.series_invert(tower, series)
            x_inv = cd.completion.series_reconstruct(tower, inv_series)
            cd.completion.w2_valuation(tower, x)
        back = cd.completion.series_reconstruct(tower, series)
        if not (back - x).is_all_bottom:
            return False, lat[0], "reconstruct(decompose(x)) != x"
        product = tower.mul(x, x_inv)
        if product.cap < tower.prec:
            return False, lat[0], f"x * x^-1 kept only {product.cap} of {tower.prec} digits"
        if not (product - tower.one(tower.max_level)).is_all_bottom:
            return False, lat[0], "x * x^-1 != 1"
        return True, lat[0], ""

    # -- passes --------------------------------------------------------------

    def run_pass(self, number: int, hooks=None):
        """Items of pass ``number``; returns their (raw, scaled) latencies."""
        size = self.spec["pass_items"]
        return [self.item(number * size + i, hooks) for i in range(size)]

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(bench: Bench, seconds: float) -> dict:
    """Whole passes in a closed loop for about ``seconds``: another pass
    starts only if the median pass so far still fits.  At least one.
    Returns the statistics of the scaled times, and of the raw ones under
    ``raw_*`` keys."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(r for r, _ in p) for p in passes) > seconds:
            break
    pct = bench.spec["tail_percentile"]
    out = {"passes": len(passes), "items": sum(len(p) for p in passes), "item_tail_percentile": pct}
    for col, prefix in ((1, ""), (0, "raw_")):
        latencies = [lat[col] for p in passes for lat in p]
        tail, out["items_beyond_tail"] = percentile_tail(latencies, pct)
        out[prefix + "wall_s"] = statistics.median(sum(lat[col] for lat in p) for p in passes)
        out[prefix + "item_p50_ms"] = statistics.median(latencies) * 1e3
        out[prefix + "item_tail_ms"] = tail * 1e3
    return out


def setup_probe(name: str, seed: int, tiny: bool):
    """(raw, scaled) set-up seconds of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--setup-probe"] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


def traced(bench: Bench, names) -> tuple:
    """(per-layer metrics, tracer) from one plain, one span and one counting
    run of pass 0; the overheads compare scaled pass times."""
    plain = sum(s for _, s in bench.run_pass(0))

    tracer, patcher = Tracer(), Patcher()
    install_spans(bench.cd, tracer, patcher)
    try:
        with_spans = sum(s for _, s in bench.run_pass(0, hooks=[tracer]))
    finally:
        patcher.restore()

    counter = Counter()
    install_counts(bench.cd, counter, patcher)
    try:
        with_counts = sum(s for _, s in bench.run_pass(0, hooks=[counter]))
    finally:
        patcher.restore()

    overheads = {
        "trace.spans.overhead_s": with_spans - plain,
        "trace.padic.overhead_s": with_counts - plain,
    }
    return layer_metrics(names, tracer.spans, counter.counts, overheads), tracer


def unexercised(metrics: dict, layers, workload: str):
    """Metrics a layer row says this workload exercises that read zero."""
    missing = []
    for row in layers:
        if workload in row["exercised_by"]:
            missing += [m for m in row["metrics"] if m in metrics and metrics[m] == 0]
    return missing


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, pins=None):
    """Run one workload; returns (result line, detail dict)."""
    bench_conf = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = workload_spec(name, tiny)
    detail = {"workload": name, "seed": seed, "tiny": tiny}
    problems = []
    if trace:
        conf = bench_conf["per_layer"]
        with SpeedProbe() as probe:
            bench = Bench(spec, seed, probe, pins)
            bench.setup()
            values, tracer = traced(bench, [m["name"] for m in conf])
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}{'-tiny' if tiny else ''}.jsonl.gz")
        tracer.write(path)
        detail["spans"] = len(tracer.spans)
        detail["spans_file"] = os.path.relpath(path, ROOT)
        if not tiny:
            layers = load_json(os.path.join(HERE, "workloads.json"))["layers"]
            missing = unexercised(values, layers, name)
            if missing:
                problems.append(f"no calls recorded for {', '.join(missing)}")
    else:
        conf = bench_conf["end_to_end"]
        with SpeedProbe() as probe:
            bench = Bench(spec, seed, probe, pins)
            setups = [bench.setup()]
            got = measure(bench, seconds)
            detail["probe_kernel_ms"] = statistics.median(probe.samples) * 1e3
        detail.update(got)
        setups += [setup_probe(name, seed, tiny) for _ in range(SETUP_SAMPLES - 1)]
        detail["raw_setup_s"] = statistics.median(r for r, _ in setups)
        detail["setup_samples_s"] = setups
        values = {
            "setup_s": statistics.median(s for _, s in setups),
            "wall_s": got["wall_s"],
            "item_p50_ms": got["item_p50_ms"],
            "item_tail_ms": got["item_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail["error_rate"] = bench.failed / bench.attempted
    detail["failures"] = bench.failures[:20]
    detail["problems"] = problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in conf}
    line = {
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return line, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken tower for self-tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            with SpeedProbe() as probe:
                raw, scaled = Bench(workload_spec(args.workload, args.tiny), args.seed, probe).setup()
            print(raw, scaled)
            return 0
        line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (MissingProgram, OSError, KeyError, subprocess.SubprocessError) as err:
        print(f"perfbench: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
