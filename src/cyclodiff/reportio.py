"""Canonical JSON reports.

Reports are plain dictionaries rendered with sorted keys and a fixed layout,
so the same inputs always produce byte-identical files.  Exact rationals are
serialized as "a/b" strings, never floats; no timestamps or environment data
are embedded.  Every report carries the tower description, the library
version, and the seed it was produced from.
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
from .tower import CyclotomicTower


def jsonable(obj):
    """Recursively convert to JSON-safe values: Fractions become 'a/b'
    strings, tuples become lists."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise DomainError("reports are exact: refusing to serialize a float")
    return str(obj)


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


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


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "library_version", "tower"],
    "properties": {
        "kind": {
            "enum": [
                "tower",
                "constants",
                "suite",
                "suite-collection",
                "perp-series",
                "w2",
                "element",
            ]
        },
        "library_version": {"type": "string"},
        "tower": {
            "type": "object",
            "required": ["p", "s", "max_level", "prec"],
            "properties": {
                "p": {"type": "integer", "minimum": 2},
                "s": {"type": "integer", "minimum": 1},
                "max_level": {"type": "integer", "minimum": 1},
                "prec": {"type": "integer", "minimum": 4},
            },
        },
        "seed": {"type": ["integer", "null"]},
        "passed": {"type": "boolean"},
        "assertions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "anchor"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "anchor": {"type": "string"},
                    "skipped": {"type": "boolean"},
                    "witness": {"type": "object"},
                },
            },
        },
    },
}


def validate_report(report: dict) -> None:
    """Check a report against the schema; uses jsonschema when available and
    falls back to structural checks otherwise."""
    data = jsonable(report)
    try:
        import jsonschema
    except ImportError:
        for field in ("kind", "library_version", "tower"):
            if field not in data:
                raise DomainError(f"report missing field {field!r}")
        for field in ("p", "s", "max_level", "prec"):
            if field not in data["tower"]:
                raise DomainError(f"report tower missing field {field!r}")
        for assertion in data.get("assertions", ()):
            for field in ("name", "passed", "anchor"):
                if field not in assertion:
                    raise DomainError(f"assertion missing field {field!r}")
        return
    jsonschema.validate(data, REPORT_SCHEMA)
