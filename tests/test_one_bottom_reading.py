"""A valuation that vanishes at its cap is read in one place:
`CyclotomicTower.valuation_or_none`.  No module of src/cyclodiff catches
ValuationOfZero, because a handler elsewhere would decide again what a
bottom valuation means, and a change to that rule would miss it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclodiff"


def valuation_of_zero_handlers(source: str, name: str = "<source>"):
    """Line of each except clause that names ValuationOfZero, alone, in a
    tuple or as a module attribute."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
        if "ValuationOfZero" in names:
            out.append(node.lineno)
    return out


def test_no_module_catches_valuation_of_zero():
    probe = (
        "try:\n    f()\nexcept ValuationOfZero:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, errors.ValuationOfZero) as err:\n    pass\n"
        "except Exception:\n    raise ValuationOfZero('x')\n"
    )
    assert valuation_of_zero_handlers(probe) == [3, 7]
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: hits
        for path in modules
        if (hits := valuation_of_zero_handlers(path.read_text(), str(path)))
    }
    assert found == {}
