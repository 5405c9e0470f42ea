"""One benchmark sub-run, executed in a fresh interpreter.

Reads a task as JSON on stdin, imports kq with every submodule, runs the
task as a closed loop (each call issued after the previous one returns),
and writes one JSON result line on stdout.  The timings cover only the
calls into kq; outputs are kept and digested after the timed loop, so the
checks neither add to the timings nor touch kq's caches.  The speed probe
runs once right after the import, and again between calls whenever
PROBE_EVERY_S has passed; each stretch of calls is rescaled by the mean of
the probes on either side of it (see probe.py).  With "trace" set
in the task, the tracer from this directory wraps kq's public names for the
duration of the loop and reports per-layer figures.
"""

import hashlib
import json
import sys
import time

from importlib import import_module

MODULES = ("scalars", "partitions", "pseries", "pfaffian", "laurent", "fock",
           "bases", "hexpansion", "finitevars", "gq", "dualq", "oracle")
kq = {name: import_module(f"kq.{name}") for name in MODULES}
IMPORTED_AT = time.monotonic()  # CLOCK_MONOTONIC, comparable with the parent

from probe import REF_S, probe  # noqa: E402  (after the set-up being timed)

PROBE_EVERY_S = 0.1

ROUTES = {
    "gq_pfaffian_1": ("gq", "gq"), "gq_pfaffian_2": ("gq", "gq"),
    "gq_fermionic": ("gq", "gq"),
    "o_pfaffian_1": ("dualq", "o"), "o_pfaffian_2": ("dualq", "o"),
    "o_fermionic": ("dualq", "o"), "gp": ("dualq", "gp"),
}


def lam_str(lam):
    return ",".join(map(str, lam)) or "0"


def scalar_form(c):
    """Coefficients of a polynomial in b as [[exponent, "p/q"], ...]."""
    return [[e, str(x)] for e, x in enumerate(c.as_polynomial()) if x]


def series_form(f):
    return {"D": f.degree_bound,
            "terms": [[list(k), scalar_form(v)] for k, v in f.sorted_items()]}


def digest(form):
    text = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class Sweep:
    """Outputs, timings and failures of one task."""

    def __init__(self, first_probe):
        self.times = {}      # stage -> seconds in calls into kq
        self.ref_times = {}  # stage -> the same, at the speed of REF_S
        self.pending = {}    # stage -> seconds in calls since the last probe
        self.last_probe = first_probe
        self.last_probe_at = time.perf_counter()
        self.outputs = []  # (route, item key, thunk giving the canonical form)
        self.errors = []
        self.math_checks = 0
        self.math_failures = []

    def call(self, stage, route, key, fn, *args):
        try:
            out, dt = timed(fn, *args)
        except Exception as exc:  # a failing call is a result, not a crash
            self.errors.append(f"{route} {key}: raised {exc!r}")
            self.outputs.append((route, key, None))
            return None
        self.times[stage] = self.times.get(stage, 0.0) + dt
        self.pending[stage] = self.pending.get(stage, 0.0) + dt
        if time.perf_counter() - self.last_probe_at >= PROBE_EVERY_S:
            self.rescale()
        return out

    def rescale(self):
        """Probe, and rescale the calls since the last probe to REF_S speed."""
        p = probe()
        scale = REF_S / ((self.last_probe + p) / 2)
        for stage, dt in self.pending.items():
            self.ref_times[stage] = self.ref_times.get(stage, 0.0) + dt * scale
        self.pending = {}
        self.last_probe = p
        self.last_probe_at = time.perf_counter()


def run_route(task, sweep):
    module, family = ROUTES[task["route"]]
    fn = getattr(kq[module], task["route"])
    D = task["D"]
    for lam in map(tuple, task["lams"]):
        key = f"{family}:{D}:{lam_str(lam)}"
        f = sweep.call(task["route"], task["route"], key, fn, lam, D)
        if f is not None:
            sweep.outputs.append((task["route"], key, lambda f=f: series_form(f)))


def run_verify(task, sweep):
    n = task["n"]
    oracle, from_finite = kq["oracle"].gq_oracle, kq["finitevars"].from_finite
    for lam in map(tuple, task["lams"]):
        key = f"gq:{n}:{lam_str(lam)}"
        poly = sweep.call("gq_oracle", "gq_oracle", key, oracle, lam, n)
        if poly is not None:
            f = sweep.call("from_finite", "gq_oracle", key, from_finite, poly, n)
            if f is not None:
                sweep.outputs.append(("gq_oracle", key, lambda f=f: series_form(f)))
        f = sweep.call("gq_fermionic", "gq_fermionic", key, kq["gq"].gq_fermionic, lam, n)
        if f is not None:
            sweep.outputs.append(("gq_fermionic", key, lambda f=f: series_form(f)))


def run_pairing(task, sweep):
    """c = <GQ_lam GQ_mu, gp_nu>, each GQ, gp and product built on first use."""
    D = task["D"]
    gq_fermionic, gp = kq["gq"].gq_fermionic, kq["dualq"].gp
    pair = kq["dualq"].bilinear_pair
    built = {}

    def once(key, fn, *args):
        if key not in built:
            built[key] = sweep.call("pairing", "pairing", key, fn, *args)
        return built[key]

    table = {}
    for lam, mu, nu in ((tuple(a), tuple(b), tuple(c)) for a, b, c in task["triples"]):
        row = f"pair:{D}:{lam_str(lam)}|{lam_str(mu)}"
        g_lam = once(f"GQ_{lam_str(lam)}", gq_fermionic, lam, D)
        g_mu = once(f"GQ_{lam_str(mu)}", gq_fermionic, mu, D)
        dual = once(f"gp_{lam_str(nu)}", gp, nu, D)
        if g_lam is None or g_mu is None or dual is None:
            continue
        prod = once(f"GQ_{lam_str(lam)}*GQ_{lam_str(mu)}", lambda: g_lam * g_mu)
        if prod is None:
            continue
        c = sweep.call("pairing", "bilinear_pair", f"{row}|{lam_str(nu)}", pair, prod, dual)
        if c is not None:
            table.setdefault(row, {})[lam_str(nu)] = (lam, mu, nu, c)
    for row, entries in table.items():
        for lam, mu, nu, c in entries.values():
            check_structure_constant(sweep, lam, mu, nu, c)
        sweep.outputs.append(("bilinear_pair", row, lambda e=entries: {
            nu: scalar_form(v[3]) for nu, v in e.items()}))


def check_structure_constant(sweep, lam, mu, nu, c):
    """<GQ_lam, gp_nu> = delta on the empty rows; else k b^(|nu|-|lam|-|mu|)."""
    where = f"bilinear_pair ({lam_str(lam)})x({lam_str(mu)}) nu=({lam_str(nu)})"
    sweep.math_checks += 1
    try:
        poly = c.as_polynomial()
    except ValueError:
        sweep.math_failures.append(f"{where}: {c} is not a polynomial in b")
        return
    if not lam and tuple(poly) != ((1,) if mu == nu else ()):
        sweep.math_failures.append(f"{where}: <GQ_mu, gp_nu> = {c}, not delta")
        return
    if not poly:
        return
    e = sum(nu) - sum(lam) - sum(mu)
    lead = poly[-1]
    if (len(poly) - 1 != e or any(poly[:-1]) or lead.denominator != 1 or lead <= 0):
        sweep.math_failures.append(f"{where}: {c} is not k*b^{e} with k a positive integer")


RUNNERS = {"route": run_route, "verify": run_verify, "pairing": run_pairing}


def main():
    task = json.load(sys.stdin)
    first_probe = probe()
    result = {"imported_at": IMPORTED_AT, "setup_probe": first_probe}
    if task["kind"] != "setup":
        sweep = Sweep(first_probe)
        tracer = None
        if task.get("trace"):
            from tracer import Tracer
            tracer = Tracer([kq[name] for name in MODULES])
            tracer.install()
        try:
            RUNNERS[task["kind"]](task, sweep)
        finally:
            if tracer is not None:
                tracer.uninstall()
        sweep.rescale()
        items = []
        for route, key, form in sweep.outputs:
            items.append([route, key, None if form is None else digest(form())])
        result.update(times=sweep.times, ref_times=sweep.ref_times, items=items,
                      errors=sweep.errors, math_checks=sweep.math_checks,
                      math_failures=sweep.math_failures)
        if tracer is not None:
            result["layers"] = tracer.report(task["trace"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
