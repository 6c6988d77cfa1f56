"""The benchmark traces cyclodiff from outside, by name (perfbench/layers.py).

A simplification that deletes or renames a traced entry point would break
the benchmark's traced runs without failing any other test; this one
installs every span and counter hook, checks that a few traced calls are
recorded, and puts the originals back.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cyclodiff
import cyclodiff.cli  # noqa: F401  (the hooks wrap cli.main)
from cyclodiff.padic import PadicScalar
from cyclodiff.tower import CyclotomicTower, TowerParams

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench_run  # noqa: E402
from layers import install_counts, install_spans  # noqa: E402
from spans import Counter, Patcher, Tracer, descendants_per_call  # noqa: E402

WATCHED = [
    (cyclodiff.differentials.LatticeBasis, "from_generators"),
    (cyclodiff.differentials, "elementary_divisor_valuations"),
    (cyclodiff.differentials, "commensurability_check"),
    (cyclodiff.constants, "galois_defect_cell"),
    (cyclodiff.constants, "norm_congruence_cell"),
    (cyclodiff.tower.CyclotomicTower, "norm_down"),
    (cyclodiff.tower.CyclotomicTower, "trace_down"),
    (cyclodiff.tower.CyclotomicTower, "invert"),
    (cyclodiff.tower.CyclotomicTower, "power"),
    (cyclodiff.tower.CyclotomicTower, "galois_apply"),
    (cyclodiff.completion, "series_invert"),
    (cyclodiff.reportio, "canonical_dumps"),
    (cyclodiff.padic.PadicScalar, "raw"),
]


def test_every_traced_name_exists_and_is_restored():
    before = {key: key[0].__dict__[key[1]] for key in WATCHED}
    tracer, counter, patcher = Tracer(), Counter(), Patcher()
    try:
        install_spans(cyclodiff, tracer, patcher)
        install_counts(cyclodiff, counter, patcher)
        for key in WATCHED:
            assert key[0].__dict__[key[1]] is not before[key], key
        tracer.active = counter.active = True
        eye = [[PadicScalar.from_int(3, int(i == j), 10) for i in range(2)] for j in range(2)]
        three = [[c * 3 for c in col] for col in eye]
        tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=1, prec=10))
        # the names below are looked up on the modules, as callers do
        assert cyclodiff.differentials.commensurability_check(3, 2, eye, three) == (1, 0)
        tower.norm_down(tower.uniformizer(1), 0)
        tower.trace_down(tower.uniformizer(1), 0)
        # the folds and power run on packed ints, so galois_apply and the
        # products inside power are traced only when called directly
        tower.power(tower.uniformizer(1), 4)
        tower.galois_apply(tower.galois(1, 1), tower.uniformizer(1))
        cyclodiff.constants.galois_defect_cell(tower, 0, 1)
        cyclodiff.constants.norm_congruence_cell(tower, 0, 1, 0, 2)
        unit = tower.one(1) + tower.uniformizer(1)
        series = cyclodiff.completion.perp_series_decompose(tower, unit)
        cyclodiff.completion.series_invert(tower, series)
    finally:
        tracer.active = counter.active = False
        patcher.restore()
    for key in WATCHED:
        assert key[0].__dict__[key[1]] is before[key], key
    names = {span[2] for span in tracer.spans}
    for name in (
        "differentials.commensurability_check",
        "differentials.from_generators",
        "differentials.elementary_divisor_valuations",
        "constants.galois_defect_cell",
        "tower.norm_down",
        "tower.trace_down",
        "tower.galois_apply",
        "tower.power",
        "tower.mul",
        "tower.invert",
        "completion.series_invert",
    ):
        assert name in names, name
    # constants.norm.useful_ratio reads the norm_down and valuation spans
    # directly under a cell span: one norm_down per ladder rung
    cells = {span[0] for span in tracer.spans if span[2] == "constants.norm_cell.0-1"}
    assert len(cells) == 1
    rungs = [span for span in tracer.spans if span[1] in cells and span[2] == "tower.norm_down"]
    assert len(rungs) >= tower.phi(1) + 2
    # tower.invert.muls_per_call counts the products nested in invert
    assert descendants_per_call(tracer.spans, "tower.invert", "tower.mul") >= 2
    assert counter.counts["padic.raw"] > 0


# The tiny verify-p3 tower has 3 levels, so its four deepest norm cells and
# its phi-162 products never run; these names, and only these, may read zero.
TINY_UNEXERCISED = {
    "verify-p3": {
        "constants.norm_cell.0-4.self_s",
        "constants.norm_cell.1-3.self_s",
        "constants.norm_cell.2-2.self_s",
        "constants.norm_cell.3-1.self_s",
        "tower.mul.p50_us.phi162",
    },
}


@pytest.mark.parametrize("workload", ["series-p5", "verify-p2-sweep", "verify-p3"])
def test_tiny_traced_run_records_every_metric_its_layer_rows_expect(workload):
    # A call path moved off a traced name leaves a counter at zero on a
    # workload that a layer row of workloads.json lists under exercised_by,
    # and the full-size `--trace 1` run then prints "correct": false.  The
    # tiny tower has no phi-500 products, so only the full-size product tags
    # may read zero here; verify-p3 names its own exemptions above.
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"], done.stdout
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    layers = bench_run.load_json(str(ROOT / "perfbench" / "workloads.json"))["layers"]
    missing = bench_run.unexercised(values, layers, workload)
    if workload in TINY_UNEXERCISED:
        assert set(missing) <= TINY_UNEXERCISED[workload], missing
    else:
        assert all(name.startswith("tower.mul.p50_us.phi") for name in missing), missing
