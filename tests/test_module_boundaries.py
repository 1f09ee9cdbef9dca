import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "scma"


def private_imports(path: Path) -> list[str]:
    """Underscore names that a module of the package imports from another."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "scma"
        found += [f"{node.module}.{a.name}" for a in node.names
                  if internal and a.name.startswith("_") and not a.name.startswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    # each private helper has one owner: a module that needs another's
    # helper needs a public function of that module instead
    assert private_imports(path) == []
