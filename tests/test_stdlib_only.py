"""The package has no runtime dependency: every absolute import in the
modules of src/cyclodiff names a standard-library module.  An undeclared
package (numpy, say) imports fine wherever it happens to be installed and
fails for a user who has only the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclodiff"


def foreign_imports(source: str, name: str = "<source>"):
    """(line, module) for each absolute import outside the standard library."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.partition(".")[0] not in sys.stdlib_module_names:
                out.append((node.lineno, module))
    return out


def test_every_absolute_import_is_in_the_standard_library():
    probe = "import math, numpy\nfrom numpy.linalg import det\nfrom .tower import x\n"
    assert foreign_imports(probe) == [(1, "numpy"), (2, "numpy.linalg")]
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: hits
        for path in modules
        if (hits := foreign_imports(path.read_text(), str(path)))
    }
    assert found == {}
