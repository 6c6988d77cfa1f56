"""Golden reports: the behaviour contract, byte for byte.

Each file under tests/golden/ holds the canonical report of one `tower`
invocation.  A change that moves any byte of these reports fails here; the
files are evidence and must not be regenerated to make a change pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cyclodiff.cli import main
from cyclodiff.harness import SUITE_NAMES
from cyclodiff.reportio import canonical_dumps

GOLDEN = Path(__file__).parent / "golden"
P3_SMALL = ["--p", "3", "--levels", "3", "--prec", "24"]
P2_SMALL = ["--p", "2", "--levels", "3", "--prec", "24"]
P5_SMALL = ["--p", "5", "--levels", "2", "--prec", "20"]

CASES = {
    # the p=2 desk configuration, as pinned by the benchmark
    "verify_p2_l3.json": ["verify", "all", "--p", "2", "--levels", "3"],
    # every suite at p=3, including fouvar and the lattice suites
    "verify_p3_l3_prec24.json": [
        "verify", "all", *P3_SMALL, "--constants-samples", "20", "--samples", "4"
    ],
    "constants_p3_l3_prec24.json": ["constants", *P3_SMALL, "--samples", "20"],
    # the norm cells' precision ladder at two more primes: rungs 8, 16, cap
    "constants_p2_s2_l3_prec60.json": [
        "constants", "--p", "2", "--s", "2", "--levels", "3", "--prec", "60",
        "--samples", "50",
    ],
    "constants_p5_l2_prec20.json": ["constants", *P5_SMALL, "--samples", "10"],
    "decompose_p3_l3_prec24.json": ["decompose", "--random", *P3_SMALL],
    "decompose_p2_l3_prec24.json": ["decompose", "--random", *P2_SMALL],
    # p=7: the norm fold multiplies 7 conjugates, each wrapped product term
    # lands in 6 slots
    "verify_p7_l1_prec10.json": [
        "verify", "all", "--p", "7", "--levels", "1", "--prec", "10",
        "--constants-samples", "8", "--samples", "2",
    ],
}

P2_DESK_PIN = "9e90a093747060ed3662d22890e01295d78bf858e200f94370ca18b049e84df6"


def report_bytes(capsys, argv) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    assert report_bytes(capsys, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_single_suite_report_matches_its_entry_in_the_p7_golden(capsys, suite):
    # fouvar and nopdiv are skips at this tower
    argv = CASES["verify_p7_l1_prec10.json"]
    collection = json.loads((GOLDEN / "verify_p7_l1_prec10.json").read_text())
    expected = canonical_dumps(collection["suites"][suite]).encode()
    assert report_bytes(capsys, ["verify", suite, *argv[2:]]) == expected


def series_from_report(tmp_path, name) -> str:
    decomposed = json.loads((GOLDEN / name).read_text())
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(decomposed["series"]))
    return str(series_file)


def invert_bytes(capsys, series_file, flags) -> bytes:
    argv = ["series", "--op", "invert", "--series-file", series_file, *flags]
    return report_bytes(capsys, argv)


def test_series_invert_matches_golden(capsys, tmp_path):
    series_file = series_from_report(tmp_path, "decompose_p3_l3_prec24.json")
    expected = (GOLDEN / "series_invert_p3_l3_prec24.json").read_bytes()
    assert invert_bytes(capsys, series_file, P3_SMALL) == expected


def test_series_invert_p2_matches_golden(capsys, tmp_path):
    # the element has val 1/16: the rho-shift path of invert
    series_file = series_from_report(tmp_path, "decompose_p2_l3_prec24.json")
    expected = (GOLDEN / "series_invert_p2_l3_prec24.json").read_bytes()
    assert invert_bytes(capsys, series_file, P2_SMALL) == expected


def test_series_invert_p5_nonunit_matches_golden(capsys):
    # p * rho^7 * u at level 2, val 107/100, where u is
    # random_unit(2, cell_rng(0, "golden-nonunit", 2, 0)): the rho-shift path
    # of invert with a p-power shift on top
    series_file = str(GOLDEN / "series_nonunit_p5_l2_prec20.json")
    expected = (GOLDEN / "series_invert_p5_l2_prec20.json").read_bytes()
    assert invert_bytes(capsys, series_file, P5_SMALL) == expected


def test_p2_golden_is_the_benchmark_pin():
    digest = hashlib.sha256((GOLDEN / "verify_p2_l3.json").read_bytes()).hexdigest()
    assert digest == P2_DESK_PIN
