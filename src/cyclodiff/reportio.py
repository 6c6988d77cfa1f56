"""Canonical JSON reports.

Reports are plain dictionaries rendered with sorted keys and a fixed layout,
so the same inputs always produce byte-identical files.  Exact rationals are
serialized as "a/b" strings, never floats; no timestamps or environment data
are embedded.  Every report carries the tower description, the library
version, and the seed it was produced from; `validate_report` checks that
shared layout with the standard library alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from . import __version__
from .constants import ConstantsReport
from .errors import DomainError
from .padic import check_json
from .tower import CyclotomicTower, TowerParams


def jsonable(obj):
    """Recursively convert to JSON-safe values: Fractions become 'a/b'
    strings, tuples become lists.  Any other type (a float, an element, a
    dataclass) has no exact JSON form, so DomainError is raised."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise DomainError(f"reports are exact: refusing to serialize a {type(obj).__name__}")


def envelope(
    tower: CyclotomicTower, kind: str, seed: Optional[int], payload: dict
) -> dict:
    out = {
        "kind": kind,
        "library_version": __version__,
        "tower": tower.description(),
        "seed": seed,
    }
    out.update(payload)
    return out


def constants_to_report(tower: CyclotomicTower, report: ConstantsReport) -> dict:
    body = asdict(report)
    for drop in ("p", "s", "max_level", "prec"):
        body.pop(drop)
    seed = body.pop("seed")
    cells = {
        "c_norm_cells": body.pop("c_norm_cells"),
        "c2_cells": body.pop("c2_cells"),
        "c3_cells": body.pop("c3_cells"),
    }
    body["cells"] = {
        name: [{"n": n, "k": k, "value": jsonable(v)} for (n, k), v in values]
        for name, values in cells.items()
    }
    body["nopdiv_bound"] = report.nopdiv_bound()
    return envelope(tower, "constants", seed, {"constants": jsonable(body)})


def canonical_dumps(report: dict) -> str:
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, out: Optional[str] = None) -> None:
    """Validate the report and write its canonical bytes to the file ``out``,
    or to stdout when ``out`` is None."""
    validate_report(report)
    text = canonical_dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


REPORT_KINDS = (
    "tower",
    "constants",
    "suite",
    "suite-collection",
    "perp-series",
    "w2",
    "element",
)


def validate_report(report: dict) -> None:
    """Raise DomainError unless the report has the shared layout: a known
    kind, a string library version, a tower description whose four ints make
    a `TowerParams`, an int or null seed, a bool verdict, and assertions
    carrying a string name and anchor, a bool verdict, an optional bool skip
    flag and an optional witness object.  A suite collection must hold its
    suites as an object of reports of kind "suite", each checked the same
    way."""
    check_json(report, "report", kind=str, library_version=str, tower=dict)
    if report["kind"] not in REPORT_KINDS:
        raise DomainError(f"report kind {report['kind']!r} is not one of {REPORT_KINDS}")
    tower = report["tower"]
    check_json(tower, "report tower", p=int, s=int, max_level=int, prec=int)
    TowerParams(tower["p"], tower["s"], tower["max_level"], tower["prec"])
    if report.get("seed") is not None:
        check_json(report, "report", seed=int)
    if not isinstance(report.get("passed", False), bool):
        raise DomainError("report key 'passed' must be a JSON boolean")
    assertions = report.get("assertions", [])
    if not isinstance(assertions, (list, tuple)):
        raise DomainError("report key 'assertions' must be a JSON array")
    for item in assertions:
        check_json(item, "report assertion", name=str, anchor=str)
        for flag in (item.get("passed"), item.get("skipped", False)):
            if not isinstance(flag, bool):
                raise DomainError("report assertion flags must be JSON booleans")
        if not isinstance(item.get("witness", {}), dict):
            raise DomainError("report assertion witness must be a JSON object")
    if report["kind"] == "suite-collection":
        check_json(report, "report", suites=dict)
        for name, suite in report["suites"].items():
            if not isinstance(suite, dict) or suite.get("kind") != "suite":
                raise DomainError(f"suite {name!r} must be a report of kind 'suite'")
            validate_report(suite)
