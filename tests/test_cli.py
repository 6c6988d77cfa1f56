import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import cyclodiff
from cyclodiff import harness
from cyclodiff.cli import main
from cyclodiff.reportio import validate_report
from cyclodiff.tower import CyclotomicTower, TowerParams

FAST = ["--p", "3", "--levels", "2", "--prec", "16"]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


def test_build(capsys):
    rc, rep = run_cli(capsys, "build", *FAST)
    assert rc == 0
    assert rep["kind"] == "tower"
    assert rep["tower"] == {"p": 3, "s": 1, "max_level": 2, "prec": 16, "top_degree": 18}
    assert rep["degrees"]["2"] == 18
    assert rep["ramification"]["2"] == 9


def test_default_s_follows_parity(capsys):
    rc, rep = run_cli(capsys, "build", "--p", "2", "--levels", "1", "--prec", "12")
    assert rc == 0
    assert rep["tower"]["s"] == 2


def test_constants(capsys):
    rc, rep = run_cli(capsys, "constants", "--samples", "4", *FAST)
    assert rc == 0
    assert rep["kind"] == "constants"
    assert rep["constants"]["c_norm"] == "2/3"
    assert rep["constants"]["m_c"] == 0


def test_verify_single_suite_and_out_file(capsys, tmp_path):
    out = tmp_path / "rep.json"
    rc, _ = run_cli(
        capsys,
        "verify",
        "theorem-a-shadow",
        "--constants-samples",
        "4",
        "--out",
        str(out),
        *FAST,
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "suite" and rep["passed"]


def test_verify_all(capsys):
    rc, rep = run_cli(
        capsys, "verify", "all", "--constants-samples", "4", "--samples", "2", *FAST
    )
    assert rc == 0
    assert rep["kind"] == "suite-collection"
    assert len(rep["suites"]) == 12


def test_a_failing_suite_exits_1_and_other_commands_exit_0(capsys, tmp_path, monkeypatch):
    def failing(tower, seed, constants, samples):
        yield {"name": "forced-failure", "passed": False, "witness": {}}

    monkeypatch.setitem(harness.SUITES, "tatediff", (failing, None))
    out = tmp_path / "rep.json"
    assert main(["verify", "tatediff", "--constants-samples", "2", "--out", str(out), *FAST]) == 1
    rep = json.loads(out.read_text())
    validate_report(rep)
    assert rep["passed"] is False
    assert rep["assertions"] == [
        {"name": "forced-failure", "passed": False, "witness": {}, "anchor": "tatediff"}
    ]
    assert run_cli(capsys, "build", *FAST)[0] == 0
    assert run_cli(capsys, "constants", "--samples", "2", *FAST)[0] == 0


def test_rnk2_redraws_a_zero_perturbation(capsys):
    # at seed 197 the uniqueness trial's perturbation projects to zero at cap
    # 4; it used to be skipped uncounted, which failed the suite
    rc, rep = run_cli(
        capsys, "verify", "rnk2", "--p", "2", "--levels", "1", "--prec", "4",
        "--seed", "197", "--samples", "20", "--constants-samples", "4",
    )
    assert rc == 0
    uniqueness = rep["assertions"][-1]
    assert uniqueness["witness"] == {"trials": 1, "recovered": 1}


def test_decompose_series_w2_roundtrip(capsys, tmp_path):
    rc, dec = run_cli(capsys, "decompose", "--random", "--seed", "5", *FAST)
    assert rc == 0
    assert dec["kind"] == "perp-series"
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(dec["series"]))

    rc, rec = run_cli(
        capsys, "series", "--op", "reconstruct", "--series-file", str(series_file), *FAST
    )
    assert rc == 0
    element_file = tmp_path / "elt.json"
    element_file.write_text(json.dumps(rec["element"]))

    rc, w2rep = run_cli(capsys, "w2", "--element-file", str(element_file), *FAST)
    assert rc == 0
    assert w2rep["w2"] == dec["w2"]

    # the reconstructed element equals the seeded one
    tower = CyclotomicTower(TowerParams(3, 1, 2, prec=16))
    from cyclodiff.constants import cell_rng

    x = tower.random_integral(2, cell_rng(5, "cli-element", 2, 0))
    y = tower.element_from_json(rec["element"])
    assert (x - y).is_all_bottom


def test_series_invert(capsys, tmp_path):
    rc, dec = run_cli(capsys, "decompose", "--random", "--seed", "9", *FAST)
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(dec["series"]))
    rc, inv = run_cli(
        capsys, "series", "--op", "invert", "--series-file", str(series_file), *FAST
    )
    assert rc == 0
    assert inv["kind"] == "perp-series" and inv["op"] == "invert"


def test_config_file_with_flag_override(capsys, tmp_path):
    conf = tmp_path / "tower.json"
    conf.write_text(json.dumps({"p": 3, "s": 1, "max_level": 1, "prec": 12}))
    rc, rep = run_cli(capsys, "build", "--config", str(conf), "--levels", "2")
    assert rc == 0
    assert rep["tower"]["max_level"] == 2
    assert rep["tower"]["prec"] == 12


def test_unknown_config_key_rejected(capsys, tmp_path):
    conf = tmp_path / "tower.json"
    conf.write_text(json.dumps({"p": 3, "bogus": 1}))
    rc, _ = run_cli(capsys, "build", "--config", str(conf))
    assert rc == 2


@pytest.mark.parametrize(
    "config, message",
    [
        ({"p": "3"}, "p must be an int, got '3'"),
        ({"max_level": 2.5}, "max_level must be an int, got 2.5"),
        ([1], "config file must hold a JSON object"),
        # a long bad value is named briefly, not echoed whole
        ({"p": "x" * 5000}, "p must be an int, got <str 'xxxxxxxxxxxxxxxxxxx...>"),
        ({"x" * 5000: 1}, "unknown config keys: <list ['xxxxxxxxxxxxxxxxxx...>"),
        (
            {"max_level": [[0] * 100] * 50},
            "max_level must be an int, got <list [[0, 0, 0, 0, 0, 0, ...>",
        ),
    ],
)
def test_bad_config_file_exits_2(capsys, tmp_path, config, message):
    conf = _write(tmp_path / "tower.json", config)
    err = rejected(capsys, "build", "--config", conf)
    assert err == f"tower: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "3", "--levels", "1000000"],
        ["--p", "3", "--levels", "10000000"],
        ["--p", "3", "--levels", "100000000"],
        ["--p", "3", "--levels", "5000"],
        ["--p", "1000000000000000003", "--levels", "1"],
        ["--p", "2", "--s", "1000000000", "--levels", "1"],
    ],
)
def test_huge_towers_exit_2_at_once(capsys, argv):
    # the degree cap is checked before primality and without forming the
    # degree, so each of these fails fast with one short line
    start = time.perf_counter()
    err = rejected(capsys, "build", *argv)
    assert time.perf_counter() - start < 1.0
    assert err == "tower: top field degree exceeds the 4096 cap\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["w2", "--random", "--p", "3", "--levels", "1", "--prec", "3000000"],
        ["build", "--prec", "5000"],
    ],
)
def test_huge_precisions_exit_2_at_once(capsys, argv):
    # prec has one cap, as the degree has, checked before any scalar is built
    start = time.perf_counter()
    err = rejected(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert err == "tower: prec exceeds the 4096 cap\n"


@pytest.mark.parametrize("key, value", [("prec", 10**7), ("val", -(10**7))])
def test_huge_json_scalars_exit_2_at_once(capsys, tmp_path, key, value):
    # JSON scalars are bounded by the 4096 cap, not by the tower's prec
    coord = {"p": 3, "val": 0, "unit": 1, "prec": 6, key: value}
    bottom = {"p": 3, "val": None, "unit": 0, "prec": 6}
    element_file = _write(tmp_path / "elt.json", {"level": 1, "coeffs": [coord] + [bottom] * 5})
    start = time.perf_counter()
    err = rejected(
        capsys, "w2", "--element-file", element_file, "--p", "3", "--levels", "1", "--prec", "6"
    )
    assert time.perf_counter() - start < 1.0
    assert err == f"tower: scalar json key {key!r} exceeds the 4096 cap\n"


# The child limits its own address space before it imports anything, so the
# largest tower runs inside the limit and never against the whole machine.
CAPPED_W2 = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cyclodiff.cli import main
sys.exit(main(["w2", "--random", "--p", "2", "--levels", "11", "--prec", "60"]))
"""


def test_w2_at_the_degree_cap_runs_in_1_gb():
    # the Pascal transform keeps no binomial table, so the top of the largest
    # tower the degree cap allows (phi = 4096) fits in 1 GB of address space
    src = os.path.dirname(os.path.dirname(cyclodiff.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_W2], capture_output=True, text=True, timeout=60, env=env
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["kind"] == "w2" and rep["tower"]["top_degree"] == 4096
    assert isinstance(rep["w2"], int)


def test_element_input_errors(capsys, tmp_path):
    rc, _ = run_cli(capsys, "w2", *FAST)
    assert rc == 2
    rc, _ = run_cli(capsys, "w2", "--element-file", str(tmp_path / "nope.json"), *FAST)
    assert rc == 2


def _write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def rejected(capsys, *argv) -> str:
    """Run the CLI on bad input: exit code 2, no report, the reason on stderr."""
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    return captured.err


def test_element_file_without_level_exits_2(capsys, tmp_path):
    element_file = _write(tmp_path / "elt.json", {"coeffs": []})
    err = rejected(capsys, "w2", "--element-file", element_file, *FAST)
    assert "missing key 'level'" in err


@pytest.mark.parametrize("command", ["decompose", "w2"])
def test_level_without_random_exits_2(capsys, tmp_path, command):
    # --level picks the level of a random draw; a file's element has its own
    tower = CyclotomicTower(TowerParams(3, 1, 2, prec=16))
    element_file = _write(tmp_path / "elt.json", tower.zeta(2).to_json())
    err = rejected(capsys, command, "--element-file", element_file, "--level", "1", *FAST)
    assert err.count("\n") == 1 and "--level" in err
    err = rejected(capsys, command, "--level", "1", *FAST)
    assert "--level" in err


@pytest.mark.parametrize("command", ["decompose", "w2"])
def test_a_component_that_vanishes_below_the_minimum_exits_2(capsys, tmp_path, command):
    # 3^5 + O(3^6): its level-0 component gives 5, but its level-2 component
    # vanishes at cap 6, which bounds w2 only by 4, and a lift has w2 4
    tower = CyclotomicTower(TowerParams(3, 1, 2, prec=6))
    element_file = _write(tmp_path / "elt.json", tower.from_int_coeffs(2, [3**5], 6).to_json())
    argv = ("--element-file", element_file, "--p", "3", "--levels", "2", "--prec", "6")
    err = rejected(capsys, command, *argv)
    assert err == "tower: perp component 2 vanishes at its cap 6\n"


def test_element_file_that_is_not_json_exits_2(capsys, tmp_path):
    element_file = tmp_path / "elt.json"
    element_file.write_text("not json")
    err = rejected(capsys, "w2", "--element-file", str(element_file), *FAST)
    assert err.startswith("tower: Expecting value")


# Files the JSON reader refuses with an error other than a decode error: an
# array nested past the recursion limit, an int literal past Python's
# 4300-digit conversion limit, and bytes that are not UTF-8.
UNREADABLE_JSON = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long int": b"1" * 5000,
    "not utf-8": b"\xff{}",
}


@pytest.mark.parametrize("data", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
@pytest.mark.parametrize(
    "argv",
    [["w2", "--element-file"], ["series", "--op", "invert", "--series-file"], ["build", "--config"]],
    ids=["element", "series", "config"],
)
def test_unreadable_json_files_exit_2_at_once(capsys, tmp_path, argv, data):
    # exit 1 means only "a suite failed"; a file the parser cannot read is bad
    # input, refused in one line
    path = tmp_path / "input.json"
    path.write_bytes(data)
    start = time.perf_counter()
    err = rejected(capsys, *argv, str(path), *FAST)
    assert time.perf_counter() - start < 1.0
    assert err.startswith("tower: ") and err.endswith(f" in {path}\n") and err.count("\n") == 1


@pytest.mark.parametrize("op", ["invert", "reconstruct"])
def test_series_file_with_a_term_that_is_not_perpendicular_exits_2(capsys, tmp_path, op):
    # term 1 of a level-1 series must have zero trace to level 0; a 1 in its
    # first coordinate breaks that, and the series is refused, not used
    flags = ["--p", "3", "--levels", "1", "--prec", "6"]
    rc, dec = run_cli(capsys, "decompose", "--random", "--seed", "0", *flags)
    assert rc == 0 and dec["series"]["perp_certified"] is True
    dec["series"]["terms"][1]["coeffs"][0] = {"p": 3, "val": 0, "unit": 1, "prec": 6}
    series_file = _write(tmp_path / "series.json", dec["series"])
    err = rejected(capsys, "series", "--op", op, "--series-file", series_file, *flags)
    assert err.startswith("tower: ") and "trace to level n - 1" in err and err.count("\n") == 1


def test_element_file_over_another_prime_exits_2(capsys, tmp_path):
    rc, dec = run_cli(capsys, "decompose", "--random", "--seed", "5", *FAST)
    assert rc == 0
    series_file = _write(tmp_path / "series.json", dec["series"])
    rc, rec = run_cli(capsys, "series", "--op", "reconstruct", "--series-file", series_file, *FAST)
    assert rc == 0
    for c in rec["element"]["coeffs"]:
        c["p"] = 5
    element_file = _write(tmp_path / "elt.json", rec["element"])
    err = rejected(capsys, "w2", "--element-file", element_file, *FAST)
    assert "5-adic scalar in a 3-adic tower" in err
    dec["series"]["terms"][1]["coeffs"][0]["p"] = 5
    series_file = _write(tmp_path / "bad-series.json", dec["series"])
    err = rejected(capsys, "series", "--op", "invert", "--series-file", series_file, *FAST)
    assert "5-adic scalar in a 3-adic tower" in err
    # the prime is compared before any scalar is built: at p = 10^600 a
    # scalar with 8192 digits would take seconds to reduce
    big = {"p": 10**600, "val": -4096, "unit": 1, "prec": 4096}
    element_file = _write(tmp_path / "big-p.json", {"level": 1, "coeffs": [big] * 6})
    start = time.perf_counter()
    err = rejected(capsys, "w2", "--element-file", element_file, *FAST)
    assert time.perf_counter() - start < 1.0
    assert "<int of 601 digits>-adic scalar in a 3-adic tower" in err


def _huge_p_element():
    obj = CyclotomicTower(TowerParams(3, 1, 2, 16)).from_int_coeffs(1, [1, 2, 3]).to_json()
    obj["coeffs"][0]["p"] = 10**4000
    return obj


def _huge_level_element():
    return dict(CyclotomicTower(TowerParams(3, 1, 2, 16)).one(1).to_json(), level=10**4000)


@pytest.mark.parametrize(
    "argv, data",
    [
        (["w2", "--element-file"], _huge_p_element()),
        (["decompose", "--element-file"], _huge_level_element()),
        (["series", "--op", "invert", "--series-file"], {"level": 10**4000, "terms": []}),
    ],
    ids=["scalar-p", "element-level", "series-level"],
)
def test_a_refusal_names_a_huge_value_briefly(capsys, tmp_path, argv, data):
    # the value is named by its digit count, not echoed whole
    err = rejected(capsys, *argv, _write(tmp_path / "bad.json", data), *FAST)
    assert err.startswith("tower: ") and err.count("\n") == 1 and len(err) <= 200
    assert "<int of 4001 digits>" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--samples", "-3"], "the sample count must not be negative, got -3"),
        (
            ["verify", "all", "--constants-samples", "-2"],
            "the sample count must not be negative, got -2",
        ),
        (["verify", "rhoval", "--samples", "-1"], "a suite needs a positive sample count, got -1"),
        (["verify", "all", "--samples", "0"], "a suite needs a positive sample count, got 0"),
        (
            ["constants", "--samples", str(-(10**4000))],
            "the sample count must not be negative, got <int of 4001 digits>",
        ),
    ],
)
def test_bad_sample_count_exits_2(capsys, argv, message):
    err = rejected(capsys, *argv, *FAST)
    assert err == f"tower: {message}\n"


def test_determinism_across_invocations(capsys):
    rc1, rep1 = run_cli(capsys, "decompose", "--random", "--seed", "3", *FAST)
    rc2, rep2 = run_cli(capsys, "decompose", "--random", "--seed", "3", *FAST)
    assert rc1 == rc2 == 0
    assert rep1 == rep2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclodiff.cli", "build", *FAST],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "tower"


def test_a_ragged_element_is_read_at_its_least_cap(capsys, tmp_path):
    # 9 + O(3) zeta on the tower p = 3, 1 level, prec 6: coordinate 0 is 9 at
    # cap 6, coordinate 1 is bottom at cap 1, the rest are bottom at cap 6.
    # An element has one cap, so it loads at the least one, where no digit is
    # left.  Every perp component vanishes, so w2 refuses in one line; it used
    # to report 2, yet the lift 9 + 3 zeta agrees with the input and has w2 0.
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=1, prec=6))
    bottom = {"p": 3, "val": None, "unit": 0, "prec": 6}
    obj = {"level": 1, "coeffs": [{"p": 3, "val": 2, "unit": 1, "prec": 6},
                                  dict(bottom, prec=1)] + [bottom] * 4}
    x = tower.element_from_json(obj)
    cut = {"level": 1, "coeffs": [dict(bottom, prec=1)] * 6}
    for _ in range(2):  # before and after a product has read x
        assert (x.is_all_bottom, x.cap, x.to_json()) == (True, 1, cut)
        tower.mul(x, tower.one(1))
    assert tower.truncate(x, 1) is x
    for digits in (0, -1):
        low = tower.truncate(x, digits)
        assert low.to_json()["coeffs"] == [c.truncate(digits).to_json() for c in x.coeffs]
        assert (low.is_all_bottom, low.cap) == (True, digits)
    argv = ["w2", "--element-file", _write(tmp_path / "ragged.json", obj)]
    err = rejected(capsys, *argv, "--p", "3", "--levels", "1", "--prec", "6")
    assert err == "tower: all perp components vanish to working precision\n"


def golden_series(name, *flags):
    """The series of a golden report (or a golden series file), with the
    flags of its tower."""
    with open(os.path.join(os.path.dirname(__file__), "golden", name), encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj.get("series", obj), list(flags)


GOLDEN_SERIES = [
    golden_series("series_invert_p2_l3_prec24.json", "--p", "2", "--levels", "3", "--prec", "24"),
    golden_series("series_invert_p3_l3_prec24.json", "--p", "3", "--levels", "3", "--prec", "24"),
    golden_series("series_invert_p5_l2_prec20.json", "--p", "5", "--levels", "2", "--prec", "20"),
    golden_series("series_nonunit_p5_l2_prec20.json", "--p", "5", "--levels", "2", "--prec", "20"),
]

# values put in place of a field: huge, negative, float, bool, and the wrong type
ODD_VALUES = [10**4000, 2**64, 4097, -1, -(10**9), 0.5, 1e300, True, False, None, "3", [], {}]


def _slots(obj, path=()):
    """The path to every value inside a JSON value, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _mutate_value(draw, obj, kind, values=ODD_VALUES) -> bool:
    """Delete (``kind`` "delete") or replace by one of ``values`` one value
    inside obj; False when obj holds none."""
    slots = list(_slots(obj))
    if not slots:
        return False
    *head, key = draw(st.sampled_from(slots))
    parent = obj
    for k in head:
        parent = parent[k]
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return True


@st.composite
def mutated_series(draw):
    """(series, flags): a copy of a golden series with one to three mutations:
    a value deleted or replaced by an odd one, or a term dropped, duplicated
    or moved to another level."""
    base, flags = draw(st.sampled_from(GOLDEN_SERIES))
    series = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        terms = series.get("terms") if isinstance(series, dict) else None
        kind = draw(st.sampled_from(["delete", "replace", "term"]))
        if kind == "term" and isinstance(terms, list) and terms:
            i = draw(st.integers(0, len(terms) - 1))
            how = draw(st.sampled_from(["drop", "duplicate", "relevel"]))
            if how == "drop":
                del terms[i]
            elif how == "duplicate":
                terms.insert(i, copy.deepcopy(terms[i]))
            elif isinstance(terms[i], dict):
                terms[i]["n"] = draw(st.integers(-1, len(terms)))
        elif not _mutate_value(draw, series, kind):
            break
    return series, flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exits_0_or_2(argv):
    """Run the CLI in process: it must return 0 with a report on stdout, or 2
    with one short ``tower: `` line on stderr; the report, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2)
    if rc == 0:
        return json.loads(out.getvalue())
    assert out.getvalue() == "" and err.getvalue().startswith("tower: ")
    assert err.getvalue().count("\n") == 1 and len(err.getvalue()) <= 200
    return None


@settings(max_examples=60, deadline=None)
@given(mutated_series(), st.sampled_from(["invert", "reconstruct"]))
def test_a_mutated_series_file_exits_0_or_2(fuzz_dir, case, op):
    # bad input is refused with exit 2 and one line on stderr, never raised
    series, flags = case
    path = fuzz_dir / "series.json"
    path.write_text(json.dumps(series))
    report = exits_0_or_2(["series", "--op", op, "--series-file", str(path), *flags])
    assert report is None or report["op"] == op


P2 = ["--p", "2", "--levels", "2", "--prec", "12"]


def element_files():
    """(element json, flags): a random element at every level of the FAST and
    P2 towers, as `to_json` writes it, times p^2, and with ragged caps
    (coordinate j cut to 2 + 3j digits)."""
    out = []
    for flags, tower in ((FAST, CyclotomicTower(TowerParams(3, 1, 2, 16))),
                         (P2, CyclotomicTower(TowerParams(2, 2, 2, 12)))):
        rng = random.Random(7)
        for level in range(3):
            x = tower.random_integral(level, rng)
            ragged = [c.truncate(min(c.prec, 2 + 3 * j)) for j, c in enumerate(x.coeffs)]
            out += [(x.to_json(), flags), (tower.scale_p(x, 2).to_json(), flags),
                    ({"level": level, "coeffs": [c.to_json() for c in ragged]}, flags)]
    return out


ELEMENT_FILES = element_files()
CONFIGS = [({"p": 3, "s": 1, "max_level": 2, "prec": 16}, []),
           ({"p": 2, "s": 2, "max_level": 3, "prec": 12}, [])]
NESTED = [[[3]], [{"p": 3}], {"p": {"p": 3}}]


@st.composite
def mutated_file(draw, bases):
    """(obj, flags): a copy of one of ``bases`` with one to three mutations: a
    value deleted or replaced by an odd or nested one, or a coordinate dropped
    or duplicated (the wrong count)."""
    base, flags = draw(st.sampled_from(bases))
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
        kind = draw(st.sampled_from(["delete", "replace", "count"]))
        if kind == "count" and isinstance(coeffs, list) and coeffs:
            i = draw(st.integers(0, len(coeffs) - 1))
            if draw(st.booleans()):
                del coeffs[i]
            else:
                coeffs.insert(i, copy.deepcopy(coeffs[i]))
        elif not _mutate_value(draw, obj, kind, ODD_VALUES + NESTED):
            break
    return obj, flags


@settings(max_examples=60, deadline=None)
@given(mutated_file(ELEMENT_FILES), st.sampled_from(["decompose", "w2"]))
def test_a_mutated_element_file_exits_0_or_2(fuzz_dir, case, command):
    obj, flags = case
    path = fuzz_dir / "element.json"
    path.write_text(json.dumps(obj))
    report = exits_0_or_2([command, "--element-file", str(path), *flags])
    assert report is None or report["kind"] == ("perp-series" if command == "decompose" else "w2")


@settings(max_examples=40, deadline=None)
@given(mutated_file(CONFIGS))
def test_a_mutated_config_file_exits_0_or_2(fuzz_dir, case):
    obj, flags = case
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(obj))
    report = exits_0_or_2(["build", "--config", str(path), *flags])
    assert report is None or report["kind"] == "tower"
