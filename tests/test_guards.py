import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kq
from kq import dualq, fock, gq, laurent
from kq.finitevars import SymmetricPoly, from_finite
from kq.fock import FockState
from kq.gq import gq_pfaffian_1
from kq.oracle import gq_oracle
from kq.pseries import PSeries, _Store
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


def test_oracle_stays_independent():
    # the oracle referees every route, so it may not borrow their machinery:
    # from the package it reads SymmetricPoly and the partition helpers only
    path = Path(kq.__file__).parent / "oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "kq"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "kq":
                continue
            names = {alias.name for alias in node.names}
            local = module.removeprefix("kq.") if node.level == 0 else module
            if local == "partitions" or (local == "finitevars" and names == {"SymmetricPoly"}):
                continue
            found.append(f"{'.' * node.level}{module}: {sorted(names)}")
    assert not found, found


def _kq_imports(path):
    """The kq modules a source file imports, as "kq.name"."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports stay inside kq
                module = f"kq.{module}" if module else "kq"
            # "from kq import pfaffian" imports the module itself
            modules += ([f"kq.{alias.name}" for alias in node.names] if module == "kq"
                        else [module])
    return [module for module in modules if module.startswith("kq.")]


def test_fock_exit_stays_independent():
    # the fermionic routes leave Fock space through the vacuum rows, and the
    # Pfaffian routes referee them, so the Fock side may not borrow the
    # Pfaffian or the generating-series machinery
    package = Path(kq.__file__).parent
    barred = {"pfaffian", "laurent", "gq", "dualq"}
    found = [f"{name}: {module}" for name in ("hexpansion.py", "fock.py")
             for module in _kq_imports(package / name) if module.split(".")[1] in barred]
    assert not found, found


def test_verify_bridge_stays_independent():
    # from_finite carries the oracle's answer into power sums, where it is
    # compared with every route, so it may not borrow the routes' machinery
    path = Path(kq.__file__).parent / "finitevars.py"
    barred = {"fock", "hexpansion", "bases", "laurent", "pfaffian", "gq", "dualq"}
    found = [module for module in _kq_imports(path) if module.split(".")[1] in barred]
    assert not found, found
    assert "kq.pseries" in _kq_imports(path)  # the walk sees relative imports


def _scoped_nodes(path):
    """(scope, node) for every node of a module, scope the dotted name of
    the innermost def or class around the node ("" at module level)."""
    stack = [("", ast.parse(path.read_text(), filename=str(path)))]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def test_only_the_trusted_entries_call_new():
    # __new__ makes an object that no constructor checked, so only the
    # stores' one trusted entry and the scalars' one may call it
    found = {(path.name, scope)
             for path in sorted(Path(kq.__file__).parent.glob("*.py"))
             for scope, node in _scoped_nodes(path)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__"}
    assert found == {("pseries.py", "_Store._reduced"), ("scalars.py", "_from_monomials")}, found


def test_zeros_leave_a_store_through_the_trusted_entry():
    # builders only accumulate: no function of kq deletes a dict entry, so
    # a sum that cancels leaves its store in one place, the trusted entry
    found = []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(path):
            deletes = isinstance(node, ast.Delete) and any(
                isinstance(target, ast.Subscript) for target in node.targets)
            pops = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("pop", "popitem"))
            if deletes or pops:
                found.append(f"{path.name}:{node.lineno} {scope}")
    assert not found, found


def test_ring_verdicts_are_given_at_birth():
    # a series gets its ring verdict as an argument of its trusted entry;
    # only the checked entry starts the memo and only the ring check adds
    # to it on a series that exists
    found = {(path.name, scope)
             for path in sorted(Path(kq.__file__).parent.glob("*.py"))
             for scope, node in _scoped_nodes(path)
             if isinstance(node, ast.Attribute) and node.attr == "_rings"
             and isinstance(node.ctx, ast.Store)}
    assert found == {("pseries.py", "PSeries.__init__"), ("bases.py", "_check_ring")}, found


def test_trusted_series_multiply_add_and_pair():
    # PSeries._reduced with the default verdict builds a whole series:
    # its products, sums and pairings are those of the series it copies
    D = 6
    f, g = gq.gq_fermionic((2, 1), D), dualq.gp((2, 1), D)
    f2, g2 = (PSeries._reduced(h.terms, h.den, D) for h in (f, g))
    assert not f2._rings and not g2._rings
    assert f2 * g2 == f * g and f2 * f2 == f * f
    assert f2 + g2 == f + g
    assert dualq.bilinear_pair(f2, g2) == dualq.bilinear_pair(f, g) == 1


def test_series_sums_rescale_in_one_place():
    # every sum of series, + and - included, is one pseries.combination,
    # which keeps one running den; apart from it only the checked entries'
    # shared last step (_Store._settle), which clears the denominators of
    # their input, takes an lcm in pseries
    path = Path(kq.__file__).parent / "pseries.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def lcm_calls(node):
        return sum(isinstance(sub, ast.Call) and (
            isinstance(sub.func, ast.Name) and sub.func.id == "lcm"
            or isinstance(sub.func, ast.Attribute) and sub.func.attr == "lcm")
            for sub in ast.walk(node))

    callers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and lcm_calls(node)}
    assert callers == {"_settle", "combination"}, callers
    inside = sum(lcm_calls(node) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name in callers)
    assert lcm_calls(tree) == inside


def test_stores_share_one_integral_store():
    # series, Fock states and Schur coordinates keep ints over one den in
    # pseries._Store, which alone clears denominators, reduces and compares:
    # the other two stores add their key checks and fields only
    shared = {"_settle", "_reduced", "__eq__", "__hash__", "__bool__"}
    assert shared <= set(vars(_Store))
    for store in (PSeries, FockState, SymmetricPoly):
        assert store.__mro__[1] is _Store, store
    for store in (FockState, SymmetricPoly):
        assert not shared & set(vars(store)), vars(store)
    package = Path(kq.__file__).parent
    for name in ("fock.py", "finitevars.py"):
        tree = ast.parse((package / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in ("FockState", "SymmetricPoly"):
                called = {sub.func.id for sub in ast.walk(node)
                          if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
                assert not called & {"lcm", "gcd", "Fraction"}, (name, called)


def test_series_memo_stays_in_two_modules():
    # the ring verdicts kept on a series are valid only while its terms
    # are the ones they were found for, so only the module that builds
    # series and the one that fills the memo may touch the slot
    found = []
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "_rings"
                     or isinstance(node, ast.Constant) and node.value == "_rings")
            if named and path.name not in ("pseries.py", "bases.py"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert "_rings" in PSeries.__slots__




def _reads(nodes):
    """Identifiers the nodes read, as names or as attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def unreached_public_names(package, roots):
    """Public functions, classes and methods of the package that no chain of
    references from the root identifiers reaches.

    An identifier reaches the functions and classes of that name, and the
    methods of that name whose class is reached; a method is owned, so a
    reached name alone keeps no method of an unreached class.  A read C.name,
    or self.name and cls.name inside class C, reaches C's method alone.  A
    function then reads its decorators, signature and body; a class its
    bases, class-level statements and dunder methods.  Module-level
    statements other than definitions run at import, so what they read is
    reached too.
    """
    defs = {}  # identifier -> [(label, nodes read once it is reached)]
    methods = {}  # (class, identifier) -> (label, nodes read once it is reached)
    pending = set(roots)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            label = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((label, [node], None))
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.decorator_list]
                for item in node.body:
                    name = getattr(item, "name", "__")
                    if name.startswith("__") and name.endswith("__"):
                        own.append(item)
                    else:
                        methods[(node.name, name)] = (f"{label}.{name}", [item], node.name)
                defs.setdefault(node.name, []).append((label, own, node.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending |= _reads([node])
    classes = {owner for owner, _ in methods}

    def owned_reads(nodes, owner):
        """_reads, with an attribute of a class or of self/cls as (class, name)."""
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    out.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    base = sub.value.id if isinstance(sub.value, ast.Name) else None
                    base = owner if base in ("self", "cls") else base
                    out.add((base, sub.attr) if base in classes else sub.attr)
        return out

    seen = set()
    while pending:
        key = pending.pop()
        if key in seen:
            continue
        seen.add(key)
        if isinstance(key, tuple):
            entries = [methods[key]] if key in methods else []
        else:
            entries = defs.get(key, [])
            pending |= {(owner, name) for owner, name in methods
                        if owner == key and name in seen or name == key and owner in seen}
        for _, nodes, owner in entries:
            pending |= owned_reads(nodes, owner)
    unreached = [label for name, entries in defs.items() if name not in seen
                 for label, _, _ in entries]
    unreached += [label for key, (label, _, _) in methods.items() if key not in seen]
    return sorted(label for label in unreached
                  if not label.rpartition(".")[2].startswith("_"))


def test_public_names_are_reached():
    # library code that only tests call belongs in tests/: every public name
    # must be reached from kq.__all__, the kq command or the benchmark's
    # worker, the one file of it that calls kq, by attribute or by a route
    # named in a string.  The tracer's labels name what it measures, not
    # what runs, so they keep nothing alive.
    package = Path(kq.__file__).parent
    roots = set(kq.__all__) | {"main"}
    worker = package.parent.parent / "perfbench" / "worker.py"
    for node in ast.walk(ast.parse(worker.read_text(), filename=str(worker))):
        if isinstance(node, ast.Attribute):
            roots.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            roots.update(node.value.split("."))
    found = unreached_public_names(package, roots)
    assert not found, found


def test_reachability_tracks_method_owners(tmp_path):
    # a method is reached through its class: Dropped.constant shares a name
    # with the reached Kept.constant, and Other.scale with Kept.scale, which
    # is read as self.scale inside Kept
    (tmp_path / "mod.py").write_text(
        "class Kept:\n"
        "    def constant(self):\n        return self.scale()\n"
        "    def scale(self):\n        return 1\n"
        "class Other:\n"
        "    def constant(self):\n        return 2\n"
        "    def scale(self):\n        return 3\n"
        "class Dropped:\n"
        "    def constant(self):\n        return 4\n"
        "def root():\n    return Kept().constant() + Other().constant()\n")
    assert unreached_public_names(tmp_path, {"root"}) == [
        "mod.Dropped", "mod.Dropped.constant", "mod.Other.scale"]


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


def test_kernels_do_no_scalar_arithmetic():
    # series and Fock states keep one int per (key, b-power) over a den,
    # the oracle's answer an int per (partition, b-power); a BetaScalar is
    # only built where a value leaves them, so it has no ring operation,
    # and a kernel that tried one would raise TypeError below
    assert [name for name in RING_DUNDERS if hasattr(BetaScalar, name)] == []
    row = gq.gq_series(6)
    want_product = row[1] * row[2]
    want_sum = row[1] + row[3]
    want_difference = row[3] - row[2]
    state = fock.FockState({((-3, -5), 0): Fraction(1)})
    want_state = fock._phihat_row(fock.bra_apply_phi_beta_star(state, 2, 10), 3, 1, 2)
    want_poly = gq_oracle((2, 1), 4)
    want_gq = gq_pfaffian_1((2, 1), 4)
    fresh = gq._gq_series.__wrapped__(6)
    assert fresh[1] * fresh[2] == want_product
    assert fresh[1] + fresh[3] == want_sum
    assert fresh[3] - fresh[2] == want_difference
    assert fock._phihat_row(fock.bra_apply_phi_beta_star(state, 2, 10), 3, 1, 2) == want_state
    assert want_state
    poly = gq_oracle((2, 1), 4)
    assert poly == want_poly
    assert from_finite(poly, 4) == want_gq


# Runs all seven routes with every construction of a BetaScalar refused, then
# prints sorted_items() of each result, read after they are allowed again;
# with "plain" as argument it runs them unpatched.  The public constructor
# and _from_monomials both go through BetaScalar.__new__, so one gate there
# sees them all; __new__ cannot be put back once set, so the gate opens
# instead.
ROUTES_WITHOUT_SCALARS = """
import json, sys
from kq.dualq import gp, o_fermionic, o_pfaffian_1, o_pfaffian_2
from kq.gq import gq_fermionic, gq_pfaffian_1, gq_pfaffian_2
from kq.scalars import BetaScalar, _from_monomials

refused = [True]

def gate(cls, *args, **kwargs):
    if refused[0]:
        raise AssertionError("a route built a BetaScalar")
    return object.__new__(cls)

if sys.argv[1] == "patched":
    BetaScalar.__new__ = gate
    for build in (lambda: BetaScalar(1), lambda: _from_monomials([])):
        try:
            build()
        except AssertionError:
            continue
        sys.exit("the gate let a BetaScalar through")
routes = (gq_pfaffian_1, gq_pfaffian_2, gq_fermionic, o_pfaffian_1, o_pfaffian_2,
          o_fermionic, gp)
results = [route(lam, 5) for route in routes for lam in ((1,), (2, 1), (3, 1))]
refused[0] = False
print(json.dumps([repr(f.sorted_items()) for f in results]))
"""


# Runs all seven routes with the checked constructors of PSeries and
# FockState refusing every call, then prints sorted_items() of each result;
# with "plain" as argument it runs them unpatched.  The one trusted entry
# of both stores (_Store._reduced) builds through object.__new__, so it
# never reaches the gate.
ROUTES_WITHOUT_CHECKED_STORES = """
import json, sys
from kq.dualq import gp, o_fermionic, o_pfaffian_1, o_pfaffian_2
from kq.fock import FockState
from kq.gq import gq_fermionic, gq_pfaffian_1, gq_pfaffian_2
from kq.pseries import PSeries

def refuse(self, *args, **kwargs):
    raise AssertionError(f"a route built a {type(self).__name__} through its checked constructor")

if sys.argv[1] == "patched":
    PSeries.__init__ = FockState.__init__ = refuse
    for build in (lambda: PSeries({}, 1), lambda: FockState({})):
        try:
            build()
        except AssertionError:
            continue
        sys.exit("the gate let a checked construction through")
routes = (gq_pfaffian_1, gq_pfaffian_2, gq_fermionic, o_pfaffian_1, o_pfaffian_2,
          o_fermionic, gp)
results = [route(lam, 5) for route in routes for lam in ((1,), (2, 1), (3, 1))]
print(json.dumps([repr(f.sorted_items()) for f in results]))
"""


# Runs gq_oracle and from_finite for every strict lambda with |lambda| <= 5
# at n = 5 with the checked constructors of SymmetricPoly and PSeries
# refusing every call, then prints the terms and den of each answer and
# sorted_items() of each series; with "plain" as argument it runs them
# unpatched.
BRIDGE_WITHOUT_CHECKED_STORES = """
import json, sys
from kq.finitevars import SymmetricPoly, from_finite
from kq.oracle import gq_oracle
from kq.partitions import partitions_upto
from kq.pseries import PSeries

def refuse(self, *args, **kwargs):
    raise AssertionError(f"the bridge built a {type(self).__name__} through its checked constructor")

if sys.argv[1] == "patched":
    SymmetricPoly.__init__ = PSeries.__init__ = refuse
    for build in (lambda: PSeries({}, 1), lambda: SymmetricPoly(1, {})):
        try:
            build()
        except AssertionError:
            continue
        sys.exit("the gate let a checked construction through")
out = []
for lam in partitions_upto(5):
    if all(a > b for a, b in zip(lam, lam[1:])):
        g = gq_oracle(lam, 5)
        out.append([repr(sorted(g.terms.items())), g.den, g.nvars,
                    repr(from_finite(g, 5).sorted_items())])
print(json.dumps(out))
"""


def _routes_patched_and_plain(script):
    """The printed results of script run "patched" and "plain", each in a
    fresh interpreter, so no cached table built earlier in the test
    session can hide a construction."""
    env = {**os.environ, "PYTHONPATH": str(Path(kq.__file__).parent.parent)}

    def run(mode):
        done = subprocess.run([sys.executable, "-c", script, mode],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        return json.loads(done.stdout)

    return run("patched"), run("plain")


def test_routes_build_no_scalars():
    # series keep ints over one den, and a kernel sum goes through
    # pseries.combination: a BetaScalar is built only where a value leaves
    # a series
    patched, plain = _routes_patched_and_plain(ROUTES_WITHOUT_SCALARS)
    assert len(patched) == 21 and all(patched)
    assert patched == plain


def test_routes_build_no_checked_stores():
    # each value is checked once, where it enters from outside: a route
    # builds its series and Fock states, units and starting bras included,
    # through the trusted entries, never through a checked constructor
    patched, plain = _routes_patched_and_plain(ROUTES_WITHOUT_CHECKED_STORES)
    assert len(patched) == 21 and all(patched)
    assert patched == plain


def test_verify_bridge_builds_no_checked_stores():
    # the oracle answers through SymmetricPoly's trusted entry, and
    # from_finite reads its ints over den into a series through
    # PSeries._reduced: neither checks a value a second time
    patched, plain = _routes_patched_and_plain(BRIDGE_WITHOUT_CHECKED_STORES)
    assert len(patched) == 10 and all(terms != "[]" for terms, *_ in patched)
    assert patched == plain


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


def _count_products(monkeypatch):
    """The series operand pairs of every PSeries product from now on."""
    products = []
    original = PSeries.__mul__

    def counted(self, other):
        if isinstance(other, PSeries):
            products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(PSeries, "__mul__", counted)
    return products


def test_warm_pfaffian_entries_take_no_product(monkeypatch):
    # pins laurent.contract: an entry is one combination over generator
    # products that the family memoises per bound, so an entry whose
    # products are all built already multiplies nothing
    D = 8
    entries = ((gq._gq_two_index.__wrapped__, (3, 1, D)),
               (gq._f_entry, (1, 3, 4, 4, 1, D)),
               (dualq._o_two_index.__wrapped__, (3, 1, D)),
               (dualq._g_entry, (1, 3, 4, 1, D)))
    wants = [entry(*args) for entry, args in entries]  # warms the tables
    products = _count_products(monkeypatch)
    for (entry, args), want in zip(entries, wants):
        assert entry(*args) == want
    assert products == []


def test_gq_pfaffian_entries_stop_at_the_cap(monkeypatch):
    # GQ_lambda is homogeneous of degree |lambda| with deg b = -1, so both
    # GQ Pfaffian routes take every entry mod b^(s+1), s = D - |lambda|:
    # each of the six entries of (4, 2, 1) at D = 10 is one combination
    # cut at s; the uncut sums are the one-row series and gq_two_index's
    # public values
    D, lam = 10, (4, 2, 1)
    original = laurent.combination
    for route in (gq.gq_pfaffian_1, gq.gq_pfaffian_2):
        want = route(lam, D)
        caps = []

        def recorded(parts, degree_bound, _cap=None):
            if _cap is not None:
                caps.append(_cap)
            return original(parts, degree_bound, _cap)

        monkeypatch.setattr(gq, "combination", recorded)
        monkeypatch.setattr(laurent, "combination", recorded)
        assert route(lam, D) == want
        assert caps == [D - sum(lam)] * 6, route
        monkeypatch.undo()


def test_cold_formula_two_multiplies_each_generator_pair_once(monkeypatch):
    # a cold gq_pfaffian_2((3,2,1), 12) multiplies each pair GQ_m GQ_n,
    # 1 <= m <= n, m + n <= 12, at most once: at most 36 generator
    # products, where the row contraction took 446 products in all.  The
    # only other products are the three of the 4 x 4 Pfaffian expansion.
    D = 12
    want = gq.gq_pfaffian_2((3, 2, 1), D)
    gq._gq_two_index.cache_clear()
    monkeypatch.setitem(gq._PRODUCTS, D, {})
    generators = {id(f): n for n, f in enumerate(gq.gq_series(D)) if n}
    products = _count_products(monkeypatch)
    assert gq.gq_pfaffian_2((3, 2, 1), D) == want
    pairs = [tuple(sorted((generators[id(f)], generators[id(g)])))
             for f, g in products if id(f) in generators and id(g) in generators]
    assert len(pairs) == len(set(pairs)) <= 36
    assert all(m + n <= D for m, n in pairs)
    assert len(products) - len(pairs) == 3


def test_cold_gp_is_one_vacuum_expectation(monkeypatch):
    # gp is one ket, its rows summed over the interlacing partitions, and
    # one exit: gp((4,2,1), 10) computes no o_nu by any route and leaves
    # Fock space exactly once.  gp keeps no memo of its own, so the call
    # after the reference one is as cold for gp as the first
    D = 10
    want = dualq.gp((4, 2, 1), D)
    calls = []
    for name in ("o_fermionic", "o_pfaffian_1", "o_pfaffian_2", "o_two_index",
                 "vacuum_expectation"):
        def recorded(*args, name=name, original=getattr(dualq, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(dualq, name, recorded)
    assert dualq.gp((4, 2, 1), D) == want
    assert calls == ["vacuum_expectation"]


PROCESS_WIDE_TABLES = {
    "bases._image_row", "dualq._PRODUCTS",
    "dualq._q_bracket_upto", "dualq._o_two_index", "finitevars._character",
    "fock._bra_insert", "fock._bra_word_b",
    "fock._phi_beta_modes", "fock._row_modes", "fock._theta_modes", "gq._PRODUCTS",
    "gq._gq_series",
    "gq._gq_two_index", "hexpansion._rows",
    "hexpansion._state", "laurent._KERNEL_TABLES", "laurent._kernel_table",
    "oracle._bumps", "partitions.partitions_of",
    "partitions.z_lambda", "pseries._PAIRS",
}


def test_process_wide_tables_are_listed():
    # every memo lives for the whole process, so a long sweep keeps all of
    # them: the memoised functions and the module-level {} tables of kq,
    # which a cache-clearing entry point has to reach, are these
    found = set()
    for path in sorted(Path(kq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    deco = deco.func if isinstance(deco, ast.Call) else deco
                    name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
                    if name in ("lru_cache", "cache"):
                        found.add(f"{path.stem}.{node.name}")
        for node in tree.body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
                    and not node.value.keys):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    assert found == PROCESS_WIDE_TABLES


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
    # repeat ratio that read them.  deformed_q and classical_q went when the
    # Fock exit moved to the vacuum rows; to_deformed_basis,
    # from_deformed_basis, eval_finite and bra_apply_phi_beta moved to
    # tests/referees.py, since no workload or command calls them
    assert unresolved == ["hexpansion.HBraExpansion.__init__", "hexpansion.deformed_q",
                          "hexpansion.classical_q", "bases.to_deformed_basis",
                          "bases.from_deformed_basis", "finitevars.eval_finite",
                          "fock.bra_apply_phi_beta", "pseries.z_exp",
                          "hexpansion.HBraExpansion.__init__",
                          "hexpansion.HBraExpansion.__init__", "hexpansion.deformed_q",
                          "bases.to_deformed_basis", "bases.to_deformed_basis",
                          "bases.from_deformed_basis", "finitevars.eval_finite",
                          "finitevars.eval_finite"]
