import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kq
from kq import dualq, fock, gq
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


# Runs all seven routes with the BetaScalar constructors refused, then prints
# sorted_items() of each result, read after they are allowed again; with
# "plain" as argument it runs them unpatched.
ROUTES_WITHOUT_SCALARS = """
import json, sys
from kq.dualq import gp, o_fermionic, o_pfaffian_1, o_pfaffian_2
from kq.gq import gq_fermionic, gq_pfaffian_1, gq_pfaffian_2
from kq.scalars import BetaScalar

def refuse(*args, **kwargs):
    raise AssertionError("a route built a BetaScalar")

saved = {name: BetaScalar.__dict__[name] for name in ("__init__", "_trusted", "beta_power")}
if sys.argv[1] == "patched":
    BetaScalar.__init__ = refuse
    BetaScalar._trusted = classmethod(refuse)
    BetaScalar.beta_power = classmethod(refuse)
routes = (gq_pfaffian_1, gq_pfaffian_2, gq_fermionic, o_pfaffian_1, o_pfaffian_2,
          o_fermionic, gp)
results = [route(lam, 5) for route in routes for lam in ((1,), (2, 1), (3, 1))]
for name, raw in saved.items():
    setattr(BetaScalar, name, raw)
print(json.dumps([repr(f.sorted_items()) for f in results]))
"""


def test_routes_build_no_scalars():
    # series keep ints over one den, and a kernel sum goes through
    # pseries.combination: a BetaScalar is built only where a value leaves
    # a series.  A fresh interpreter, so no cached table built earlier in
    # the test session can hide a construction.
    env = {**os.environ, "PYTHONPATH": str(Path(kq.__file__).parent.parent)}

    def run(mode):
        done = subprocess.run([sys.executable, "-c", ROUTES_WITHOUT_SCALARS, mode],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        return json.loads(done.stdout)

    patched = run("patched")
    assert len(patched) == 21 and all(patched)
    assert patched == run("plain")


def test_formula_two_computes_no_zero_weighted_value(monkeypatch):
    # the binomial twist of formula II has weight C(0, k) = 0 for k > 0 in
    # both rows of a two-part lambda, so only the untwisted value is needed
    for module, name, lam in ((gq, "gq_two_index", (3, 1)), (dualq, "o_two_index", (3, 1))):
        calls = []
        original = getattr(module, name)

        def recorded(*args, original=original, calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, recorded)
        route = gq.gq_pfaffian_2 if module is gq else dualq.o_pfaffian_2
        assert route(lam, 7) == original(*lam, 7)
        assert calls == [(*lam, 7)]


def _literal(path, name):
    """The literal assigned to a module-level name of a source file."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_benchmark_labels_name_library_attributes():
    # the benchmark reads its per-layer figures under these labels; a label
    # that names nothing in kq reads 0 instead of failing, so a rename in
    # the library must fail here
    bench = Path(kq.__file__).parent.parent.parent / "perfbench"
    repeat = _literal(bench / "run.py", "REPEAT_FUNCTIONS")
    layers = _literal(bench / "run.py", "LAYER_SOURCES")
    tracer = {node.value for node in ast.walk(ast.parse((bench / "tracer.py").read_text()))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unresolved = []
    labels = [*repeat, *(label for field, label in layers.values() if field != "counts")]
    for label in labels:
        if label == "fock.apply":  # the tracer's group of every public fock *_apply_*
            assert [name for name in vars(fock) if "_apply_" in name
                    and not name.startswith("_") and callable(getattr(fock, name))]
            continue
        module, *path = label.split(".")
        obj = importlib.import_module(f"kq.{module}")
        for name in path:
            if name not in vars(obj):
                unresolved.append(label)
                break
            obj = vars(obj)[name]
    # counters are kept by the tracer itself, under these names
    assert all(label in tracer for field, label in layers.values() if field == "counts")
    # pseries.z_exp moved to tests/referees.py, and HBraExpansion was deleted
    # when gq_fermionic moved to one ket and vacuum_expectation; the
    # benchmark repair of ROADMAP item 1 renames or drops the metrics and the
    # repeat ratio that read them
    assert unresolved == ["hexpansion.HBraExpansion.__init__", "pseries.z_exp",
                          "hexpansion.HBraExpansion.__init__",
                          "hexpansion.HBraExpansion.__init__"]
