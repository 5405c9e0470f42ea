import ast
from pathlib import Path

import kq


def test_library_has_no_asserts():
    # python -O strips assert statements, so a runtime guard must raise
    found = []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
