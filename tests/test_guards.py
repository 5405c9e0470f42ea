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


def test_library_imports_are_used():
    # no linter runs on this package, so an import left behind by a
    # refactor would go unnoticed
    found = []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, found


def test_trusted_constructors_stay_in_their_module():
    # a _trusted constructor skips the checks of __init__, so only the
    # module that defines it may call it, on values its own code built
    definers, uses = {}, []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "_trusted"
                    for f in node.body):
                definers[node.name] = path.name
            elif isinstance(node, ast.Attribute) and node.attr == "_trusted":
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                uses.append((path.name, node.lineno, owner))
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_trusted" for alias in node.names):
                uses.append((path.name, node.lineno, None))
    assert set(definers.values()) == {"scalars.py", "pseries.py"}, definers
    found = [f"{name}:{line}" for name, line, owner in uses
             if owner not in ("cls", "self") and definers.get(owner) != name]
    assert not found, found


def test_series_memo_stays_in_two_modules():
    # the coordinates kept on a series are valid only while its terms are
    # the ones they were computed from, so only the module that builds
    # series and the one that fills the memo may touch the slot
    found = []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "_deformed"
                     or isinstance(node, ast.Constant) and node.value == "_deformed")
            if named and path.name not in ("pseries.py", "bases.py"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert "_deformed" in kq.pseries.PSeries.__slots__
