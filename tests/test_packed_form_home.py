"""The packed form (shift, digits, ints) has one home: `tower.py`.  No other
module of src/cyclodiff names its internals, so a pass that reads the triple
is a `CyclotomicTower` method, and a change to the packed form cannot miss a
second reader of it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclodiff"

INTERNALS = {
    "_pack",
    "_unpack",
    "_normalise",
    "_product",
    "_combine",
    "_rho_digits",
    "_act",
    "_frobenius",
    "_unit_at_one_digit",
    "_galois_index",
    "_ks2",
    "_slots",
    "KS2_BYTES",
    "_gather",
    "_packed",
}


def packed_form_names(source: str, name: str = "<source>"):
    """(line, name) of each name or attribute in ``source`` that is a
    packed-form internal."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Name):
            idents = {node.id}
        elif isinstance(node, ast.Attribute):
            idents = {node.attr}
        elif isinstance(node, ast.alias):
            idents = {node.name.rpartition(".")[2], node.asname}
        else:
            continue
        out += [(node.lineno, ident) for ident in sorted(idents & INTERNALS)]
    return sorted(out)


def test_only_the_tower_module_names_the_packed_form():
    probe = (
        "a = tower._pack(x)\n"
        "from .tower import _product as kron\n"
        "b = _normalise(0, 1, [])\n"
        "c = x.packed + x._packedness\n"
    )
    assert packed_form_names(probe) == [(1, "_pack"), (2, "_product"), (3, "_normalise")]
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    assert "tower.py" in {path.name for path in modules}
    found = {
        path.name: hits
        for path in modules
        if path.name != "tower.py"
        and (hits := packed_form_names(path.read_text(), str(path)))
    }
    assert found == {}
