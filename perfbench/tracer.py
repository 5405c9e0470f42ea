"""Per-layer tracing of kq from outside the package.

install() replaces each public function and method of the traced modules
with a wrapper, at every place the name is looked up: on the class for
methods (aliases such as __rmul__ = __mul__ included), and in every module
that imported a function by name.  uninstall() puts the originals back and
fails if any name is not restored.

Layers are modules.  Each wrapped call records a span (label, parent,
start, end) in flat arrays, written out once by report().  The scalar layer
gets counters only: BetaScalar is constructed about a million times per run,
and a span per construction would cost more than the work it measures.
partitions is left out: it is a helper called from every layer, not a layer.
"""

import json
import os
import time
import types
from array import array

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "__pow__", "__truediv__", "__rtruediv__")
SPAN_MODULES = ("pseries", "pfaffian", "laurent", "fock", "bases", "hexpansion",
                "finitevars", "gq", "dualq", "oracle")
# Classes whose constructors take term dicts; freezing those to detect
# repeated arguments would dominate the trace, so only their calls count.
VALUE_CLASSES = ("PSeries", "FinitePoly", "LaurentBlock", "KernelCoeffTable")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _freeze(v):
    """A hashable stand-in for an argument, equal for equal arguments."""
    if isinstance(v, dict):
        return frozenset((k, _freeze(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    return v


class Tracer:
    def __init__(self, modules):
        self.modules = {_short(m): m for m in modules}
        self.patches = []   # (owner, name, original raw attribute)
        self.labels = []    # (name, group index) per label
        self.label_ids = {}
        self.groups = []
        self.group_ids = {}
        self.calls = []     # per label
        self.repeats = []   # per label
        self.seen = []      # per label: set of frozen arguments, or None
        self.untracked = set()  # labels whose arguments could not be frozen
        self.depth = []     # per group: open calls
        self.inclusive = []  # per group: time of outermost calls
        self.self_s = {name: 0.0 for name in SPAN_MODULES}
        self.counts = {"scalars.new_calls": 0, "scalars.arith_calls": 0,
                       "pseries.mul_pairs": 0, "pseries.mul_merges": 0,
                       "oracle.result_terms": 0}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []     # [span id, child time] of open spans

    # -- bookkeeping -------------------------------------------------------

    def _label(self, module, qualname, group, track_repeats):
        name = f"{module}.{qualname}"
        if name not in self.label_ids:
            if group not in self.group_ids:
                self.group_ids[group] = len(self.groups)
                self.groups.append(group)
                self.depth.append(0)
                self.inclusive.append(0.0)
            self.label_ids[name] = len(self.labels)
            self.labels.append((name, self.group_ids[group]))
            self.calls.append(0)
            self.repeats.append(0)
            self.seen.append(set() if track_repeats else None)
        return self.label_ids[name]

    def _span_wrapper(self, fn, module, qualname, track_repeats, group=None):
        """Span, call count and repeat tracking around fn.  For a constructor
        the arguments after self are compared, since self is always new."""
        first_arg = 1 if qualname.endswith(".__init__") else 0
        lid = self._label(module, qualname, group or f"{module}.{qualname}", track_repeats)
        gid = self.labels[lid][1]
        calls, repeats, seen = self.calls, self.repeats, self.seen[lid]
        depth, inclusive, self_s = self.depth, self.inclusive, self.self_s
        stack, untracked = self.stack, self.untracked
        s_label, s_parent = self.span_label, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        before = self.before.get(f"{module}.{qualname}")
        after = self.after.get(f"{module}.{qualname}")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[lid] += 1
            if seen is not None:
                try:
                    key = _freeze((args[first_arg:], kwargs))
                    if key in seen:
                        repeats[lid] += 1
                    else:
                        seen.add(key)
                except TypeError:  # an argument with no notion of equal values
                    untracked.add(lid)
            sid = len(s_start)
            s_label.append(lid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            depth[gid] += 1
            start = clock()
            try:
                if before is not None:
                    before(args)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
            finally:
                end = clock()
                stack.pop()
                depth[gid] -= 1
                elapsed = end - start
                s_start[sid] = start
                s_end[sid] = end
                self_s[module] += elapsed - frame[1]
                if depth[gid] == 0:
                    inclusive[gid] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            return out

        return traced

    def _counter_wrapper(self, fn, slot):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self):
        """Counts taken inside the spans they belong to: the term pairs a
        product of two series visits (len * len, a proxy: the loop visits
        every pair), and the terms of each oracle result.  The pairs a
        product keeps, within its degree bound, are the calls of the name
        merge in kq.pseries, counted by install()."""
        pseries = self.modules["pseries"].PSeries
        counts = self.counts

        def mul_pairs(args):
            a, b = args[0], args[1]
            if isinstance(b, pseries):
                counts["pseries.mul_pairs"] += len(a.terms) * len(b.terms)

        def result_terms(out):
            counts["oracle.result_terms"] += len(out.terms)

        self.before = {"pseries.PSeries.__mul__": mul_pairs}
        self.after = {"oracle.gq_oracle": result_terms}

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name, value):
        raw = owner.__dict__[name]
        self.patches.append((owner, name, raw))
        setattr(owner, name, value)

    def _wrap_method(self, cls, name, raw, module):
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
        elif isinstance(raw, types.FunctionType):
            fn = raw
        else:
            return
        if module == "scalars":
            if name == "__init__":
                wrapped = self._counter_wrapper(fn, "scalars.new_calls")
            elif name in ARITH:
                wrapped = self._counter_wrapper(fn, "scalars.arith_calls")
            else:
                return
        else:
            track = name == "__init__" and cls.__name__ not in VALUE_CLASSES
            wrapped = self._span_wrapper(fn, module, fn.__qualname__, track)
        self._set(cls, name, type(raw)(wrapped) if fn is not raw else wrapped)

    def install(self):
        self._hooks()
        originals = {}  # id of original function -> wrapper
        for module_name, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") or attr in ARITH or attr == "__init__":
                            self._wrap_method(obj, attr, raw, module_name)
                elif callable(obj) and module_name in SPAN_MODULES:
                    group = "fock.apply" if module_name == "fock" and "_apply_" in name else None
                    originals[id(obj)] = (obj, self._span_wrapper(
                        obj, module_name, name, True, group))
        # patch every module-level binding of a wrapped function
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._set(mod, name, originals[id(obj)][1])
        pseries = self.modules["pseries"]
        self._set(pseries, "merge", self._counter_wrapper(pseries.merge, "pseries.mul_merges"))

    def uninstall(self):
        for owner, name, raw in reversed(self.patches):
            setattr(owner, name, raw)
        stale = [f"{getattr(o, '__name__', o)}.{n}" for o, n, raw in self.patches
                 if o.__dict__[n] is not raw]
        if stale:
            raise RuntimeError(f"tracer left wrapped names behind: {stale}")
        self.restored = len(self.patches)

    # -- output --------------------------------------------------------------

    def report(self, spans_path):
        """Aggregate figures; the spans themselves go to spans_path."""
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        header = {"labels": [name for name, _ in self.labels],
                  "spans": len(self.span_start),
                  "arrays": ["label int32", "parent int32", "start f64", "end f64"]}
        with open(spans_path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_label, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)
        functions = {}
        for lid, (name, _) in enumerate(self.labels):
            functions[name] = {
                "calls": self.calls[lid],
                "repeats": (self.repeats[lid] if self.seen[lid] is not None
                            and lid not in self.untracked else None),
            }
        groups = {}
        for gid, group in enumerate(self.groups):
            calls = sum(self.calls[lid] for lid, (_, g) in enumerate(self.labels) if g == gid)
            groups[group] = {"calls": calls, "s": self.inclusive[gid]}
        return {"functions": functions, "groups": groups, "self_s": self.self_s,
                "counts": self.counts, "restored": self.restored,
                "spans": len(self.span_start)}
