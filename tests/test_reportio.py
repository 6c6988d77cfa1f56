import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cyclodiff.completion import perp_series_from_json
from cyclodiff.constants import estimate_constants
from cyclodiff.errors import DomainError
from cyclodiff.reportio import (
    canonical_dumps,
    constants_to_report,
    emit_report,
    envelope,
    jsonable,
    validate_report,
)
from cyclodiff.tower import CyclotomicTower, TowerParams


@pytest.fixture(scope="module")
def tower():
    return CyclotomicTower(TowerParams(3, 1, 1, prec=12))


def test_jsonable_fractions_and_tuples():
    blob = jsonable({"x": Fraction(2, 3), "y": (1, Fraction(-7, 6)), 5: None})
    assert blob == {"x": "2/3", "y": [1, "-7/6"], "5": None}
    assert Fraction(blob["x"]) == Fraction(2, 3)


def test_jsonable_passthrough_and_float_rejection():
    assert jsonable({"a": True, "b": 3, "c": "s"}) == {"a": True, "b": 3, "c": "s"}
    with pytest.raises(DomainError):
        jsonable({"bad": 0.5})


def test_jsonable_refuses_what_it_cannot_write_exactly(tower):
    # an element, a scalar, a set or a dataclass has no exact JSON form: its
    # str would land in the report, so it is refused like a float
    x = tower.one(1)
    for bad in (x, x.coeffs[0], {1, 2}, TowerParams(3, 1, 1), b"3", 1j):
        with pytest.raises(DomainError, match="refusing to serialize"):
            jsonable({"ok": [1, "2", None], "bad": [bad]})
    with pytest.raises(DomainError):
        canonical_dumps(envelope(tower, "w2", 0, {"w2": x}))


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": (Fraction(1, 2),)})
    b = canonical_dumps({"a": [Fraction(1, 2)], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_envelope_and_validation(tower):
    rep = envelope(tower, "suite", 3, {"assertions": [], "passed": True})
    validate_report(rep)
    rep["assertions"] = [{"name": "x", "passed": True, "anchor": "t"}]
    validate_report(rep)
    broken = {"kind": "suite", "library_version": "0"}
    with pytest.raises(Exception):
        validate_report(broken)


def test_bad_assertion_rejected(tower):
    rep = envelope(tower, "suite", 0, {"assertions": [{"name": "x"}]})
    with pytest.raises(Exception):
        validate_report(rep)


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("tower", "p", True),
        ("report", "kind", "sweep"),
        ("report", "seed", "3"),
        ("assertion", "passed", 1),
    ],
)
def test_validator_rejects_wrong_types_and_kinds(tower, where, key, value):
    assertion = {"name": "x", "passed": True, "anchor": "t"}
    rep = envelope(tower, "suite", 3, {"assertions": [assertion]})
    target = {"tower": rep["tower"], "report": rep, "assertion": assertion}[where]
    target[key] = value
    with pytest.raises(DomainError):
        validate_report(rep)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_every_golden_report_validates(name):
    # two golden files are not reports, and each is checked against its own shape
    obj = json.loads((GOLDEN / name).read_text())
    if name == "series_nonunit_p5_l2_prec20.json":  # the stored series input
        p5 = CyclotomicTower(TowerParams(5, 1, 2, prec=20))
        assert perp_series_from_json(p5, obj).level == 2
    elif name == "sweep.json":  # the sweep pins
        assert obj and all(re.fullmatch("[0-9a-f]{64}", pin) for pin in obj.values())
    else:
        assert "kind" in obj, name
        validate_report(obj)


@pytest.mark.parametrize(
    "key, value, message",
    [("p", 4, "p = 4 is not prime"), ("s", 2, "p = 3 requires s = 1"), ("prec", 3, "prec must be >= 4")],
)
def test_a_report_tower_must_be_a_tower(key, value, message):
    # the tower description is checked by the rules that build a tower
    report = json.loads((GOLDEN / "verify_p3_l3_prec24.json").read_text())
    validate_report(report)
    report["tower"][key] = value
    with pytest.raises(DomainError, match=message):
        validate_report(report)


def _break_nested_flags(rep):
    suite = next(iter(rep["suites"].values()))
    suite["assertions"][0]["passed"] = "yes"
    suite["tower"]["p"] = True


def _break_nested_assertion(rep):
    next(iter(rep["suites"].values()))["assertions"][0]["passed"] = "yes"


def _break_nested_tower(rep):
    next(iter(rep["suites"].values()))["tower"]["p"] = True


def _break_nested_kind(rep):
    next(iter(rep["suites"].values()))["kind"] = "suite-collection"


def _suites_as_string(rep):
    rep["suites"] = "x"


def _no_suites(rep):
    del rep["suites"]


@pytest.mark.parametrize(
    "damage",
    [
        _break_nested_flags,
        _break_nested_assertion,
        _break_nested_tower,
        _break_nested_kind,
        _suites_as_string,
        _no_suites,
    ],
)
def test_suite_collection_validates_its_suites(damage):
    report = json.loads((GOLDEN / "verify_p2_l3.json").read_text())
    validate_report(report)
    damage(report)
    with pytest.raises(DomainError):
        validate_report(report)


def test_constants_report_shape(tower):
    cons = estimate_constants(tower, seed=0, samples=5)
    rep = constants_to_report(tower, cons)
    validate_report(rep)
    assert rep["kind"] == "constants"
    assert rep["seed"] == 0
    body = rep["constants"]
    assert body["c_norm"] == "2/3"
    assert set(body["cells"]) == {"c_norm_cells", "c2_cells", "c3_cells"}
    assert body["cells"]["c_norm_cells"][0] == {"n": 0, "k": 1, "value": "2/3"}
    assert body["nopdiv_bound"] == body["n_0"] + body["n_1"]


def test_emit_report_is_stable(tower, tmp_path):
    rep = envelope(tower, "tower", 1, {"degrees": {"0": 2}})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    emit_report(rep, str(p1))
    emit_report(rep, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
