import ast
from fractions import Fraction
from pathlib import Path

import kq
from kq import fock
from kq.finitevars import from_finite
from kq.gq import GQSeries, gq_pfaffian_1
from kq.oracle import gq_oracle
from kq.pseries import PSeries
from kq.scalars import BetaScalar


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
    assert "_deformed" in PSeries.__slots__




def _reads(nodes):
    """Identifiers the nodes read, as names or as attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def unreached_public_names(package, roots):
    """Public functions, classes and methods of the package that no chain of
    references from the root identifiers reaches.

    An identifier reaches every definition of that name.  A function then
    reads its decorators, signature and body; a class its bases, class-level
    statements and dunder methods.  Module-level statements other than
    definitions run at import, so what they read is reached too.
    """
    defs = {}  # identifier -> [(label, nodes read once it is reached)]
    pending = set(roots)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            label = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((label, [node]))
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.decorator_list]
                for item in node.body:
                    name = getattr(item, "name", "__")
                    if name.startswith("__") and name.endswith("__"):
                        own.append(item)
                    else:
                        defs.setdefault(name, []).append((f"{label}.{name}", [item]))
                defs.setdefault(node.name, []).append((label, own))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending |= _reads([node])
    seen = set()
    while pending:
        name = pending.pop()
        if name not in seen:
            seen.add(name)
            for _, nodes in defs.get(name, ()):
                pending |= _reads(nodes)
    return sorted(label for name, entries in defs.items()
                  if name not in seen and not name.startswith("_")
                  for label, _ in entries)


def test_public_names_are_reached():
    # library code that only tests call belongs in tests/: every public name
    # must be reached from kq.__all__, the kq command or the benchmark, which
    # names routes and traced functions in strings ("gq.gq_series")
    package = Path(kq.__file__).parent
    roots = set(kq.__all__) | {"main"}
    for path in (package.parent.parent / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                roots.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                roots.update(node.value.split("."))
    found = unreached_public_names(package, roots)
    assert not found, found


def test_private_functions_are_used_in_the_library():
    # the private counterpart of the guard above: a module-level _function
    # that no library code reads any more, only tests, belongs in tests/
    defined, read = {}, set()
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _reads([node])
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defined[node.name] = f"{path.stem}.{node.name}"
                names.discard(node.name)
            read |= names
    assert defined
    found = sorted(label for name, label in defined.items() if name not in read)
    assert not found, found


RING_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__neg__", "__truediv__", "__pow__")


def test_kernels_do_no_scalar_arithmetic(monkeypatch):
    # series, Fock states and finite polynomials keep one int or Fraction
    # per (key, b-power); a BetaScalar is only built where a value leaves them,
    # so no ring operation of BetaScalar may run inside the kernels
    def refuse(*args):
        raise AssertionError("BetaScalar arithmetic inside a kernel")

    series = GQSeries(6)
    want_product = series.coefficient(1) * series.coefficient(2)
    want_sum = series.coefficient(-1) + series.coefficient(3)
    state = {((-3, -5), 0): Fraction(1)}
    want_state = fock.bra_apply_theta_exp(fock.bra_apply_phi_beta(state, 2))
    want_poly = gq_oracle((2, 1), 4)
    want_gq = gq_pfaffian_1((2, 1), 4)
    for name in RING_DUNDERS:
        monkeypatch.setattr(BetaScalar, name, refuse)
    fresh = GQSeries(6)
    assert fresh.coefficient(1) * fresh.coefficient(2) == want_product
    assert fresh.coefficient(-1) + fresh.coefficient(3) == want_sum
    assert fock.bra_apply_theta_exp(fock.bra_apply_phi_beta(state, 2)) == want_state
    assert want_state
    poly = gq_oracle((2, 1), 4)
    assert poly == want_poly
    assert from_finite(poly, 4) == want_gq
