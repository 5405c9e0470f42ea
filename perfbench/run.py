#!/usr/bin/env python3
"""Benchmark of kq's public functions, driven the way a user's script is.

    python3 perfbench/run.py --workload gq-routes --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  A closed loop with one caller: every call
is issued after the previous one returns.  Each sweep ("part") runs in a
fresh interpreter, one at a time, so every kq cache starts empty as it does
for a user and the harness never needs to know the caches.

--trace 0 makes round(--seconds / PASS_S) passes over the workload's parts,
round-robin, and reports end-to-end metrics.  The pass count depends on
--seconds only, so every commit is measured over the same number of samples.
Each part's time is the median over those samples of the part's computing
time (its calls into kq, set-up excluded), and set-up time is the median
over all the run's launches.  Both are rescaled to a fixed machine speed
with the probe in probe.py, which each sub-run times between its calls.
--trace 1 runs one untraced pass and one traced pass (the tracer
wraps kq's public names from outside the package) and reports per-layer
metrics; the work is fixed, so every count repeats exactly for a seed.

Every output is checked: the routes of a family must agree, and each result
must match the digest committed in reference.json.  Failures are named on
stderr.  The last line of stdout is the result object.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench-trace"

WORKLOADS = ("gq-routes", "dual-pairing", "verify")
# Bounds of each workload; "smoke" is a tiny version for smoke.py.
SCALES = {
    "full": {"gq_D": 7, "dual_D": 8, "pair_D": 6, "verify_n": 6},
    "smoke": {"gq_D": 4, "dual_D": 4, "pair_D": 4, "verify_n": 4},
}
SETUP_LAUNCHES = 10
# About the time of one pass over a workload's parts at the full scale, on
# the machine where the bounds were set.  A run makes round(seconds / PASS_S)
# passes: the count depends on --seconds alone, never on how fast the code
# ran, so two commits compared at the same --seconds take the same number of
# samples.
PASS_S = {"gq-routes": 4.8, "dual-pairing": 8.0, "verify": 8.0}
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

ROUTE_PARTS = ("gq_pfaffian_1", "gq_pfaffian_2", "gq_fermionic", "o_pfaffian_1",
               "o_pfaffian_2", "o_fermionic", "gp", "pairing")
SELF_MODULES = ("pseries", "pfaffian", "laurent", "fock", "bases", "hexpansion",
                "finitevars", "gq", "dualq", "oracle")
REPEAT_FUNCTIONS = (
    "gq.gq_series", "gq.gq_two_index", "laurent.f_table", "laurent.g_table",
    "dualq.q_bracket_series", "dualq.o_two_index", "dualq.gp", "dualq.bilinear_pair",
    "hexpansion.HBraExpansion.__init__", "hexpansion.deformed_q",
    "hexpansion.classical_q", "hexpansion.vacuum_expectation",
    "bases.to_deformed_basis", "bases.from_deformed_basis", "finitevars.eval_finite",
    "fock.bra_apply_phi_beta", "pfaffian.pfaffian_from_upper", "oracle.gq_oracle",
)
# Per-layer metric -> (field of the merged trace, tracer label, group or counter)
LAYER_SOURCES = {
    "scalars.new_calls": ("counts", "scalars.new_calls"),
    "scalars.arith_calls": ("counts", "scalars.arith_calls"),
    "pseries.mul_calls": ("calls", "pseries.PSeries.__mul__"),
    "pseries.mul_pairs": ("counts", "pseries.mul_pairs"),
    "pseries.add_calls": ("calls", "pseries.PSeries.__add__"),
    "pseries.mul_s": ("s", "pseries.PSeries.__mul__"),
    "pseries.z_exp_s": ("s", "pseries.z_exp"),
    "gq.gq_series_s": ("s", "gq.gq_series"),
    "gq.gq_two_index_s": ("s", "gq.gq_two_index"),
    "laurent.f_table_s": ("s", "laurent.f_table"),
    "laurent.g_table_s": ("s", "laurent.g_table"),
    "dualq.q_bracket_series_s": ("s", "dualq.q_bracket_series"),
    "dualq.o_two_index_s": ("s", "dualq.o_two_index"),
    "hexpansion.HBraExpansion_calls": ("calls", "hexpansion.HBraExpansion.__init__"),
    "hexpansion.HBraExpansion_s": ("s", "hexpansion.HBraExpansion.__init__"),
    "hexpansion.deformed_q_s": ("s", "hexpansion.deformed_q"),
    "hexpansion.vacuum_expectation_s": ("s", "hexpansion.vacuum_expectation"),
    "bases.to_deformed_basis_calls": ("calls", "bases.to_deformed_basis"),
    "bases.to_deformed_basis_s": ("s", "bases.to_deformed_basis"),
    "bases.from_deformed_basis_s": ("s", "bases.from_deformed_basis"),
    "dualq.bilinear_pair_calls": ("calls", "dualq.bilinear_pair"),
    "dualq.bilinear_pair_s": ("s", "dualq.bilinear_pair"),
    "pfaffian.pfaffian_from_upper_s": ("s", "pfaffian.pfaffian_from_upper"),
    "fock.apply_calls": ("group_calls", "fock.apply"),
    "fock.apply_s": ("s", "fock.apply"),
    "oracle.gq_oracle_s": ("s", "oracle.gq_oracle"),
    "oracle.result_terms": ("counts", "oracle.result_terms"),
    "finitevars.from_finite_s": ("s", "finitevars.from_finite"),
    "finitevars.eval_finite_calls": ("calls", "finitevars.eval_finite"),
    "finitevars.eval_finite_s": ("s", "finitevars.eval_finite"),
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_yield", "error_rate")):
        return "ratio"
    return "count"


def repeat_name(label):
    return label.replace(".__init__", "")


def per_layer_names():
    return ([f"{part}_s" for part in ROUTE_PARTS] + ["oracle_s", "error_rate",
            "trace.overhead_s", "pseries.mul_pair_yield"] + list(LAYER_SOURCES)
            + [f"{repeat_name(label)}.repeat_ratio" for label in REPEAT_FUNCTIONS]
            + [f"{module}.self_s" for module in SELF_MODULES])


# -- inputs ---------------------------------------------------------------

def strict_partitions(top):
    """Strict partitions of weight 0..top, graded, decreasing lex in a weight."""
    def of(n, largest):
        if n == 0:
            return [()]
        return [(first,) + rest for first in range(min(n, largest), 0, -1)
                for rest in of(n - first, first - 1)]
    return [lam for n in range(top + 1) for lam in of(n, n)]


def plan(workload, scale, seed):
    """The workload's parts: one task per fresh interpreter, inputs in seed order."""
    rng = random.Random(f"{workload}/{seed}")
    size = SCALES[scale]

    def shuffled(items):
        items = [list(x) for x in items]
        rng.shuffle(items)
        return items

    def sweep(route, D):
        return {"name": route, "kind": "route", "route": route, "D": D,
                "lams": shuffled(strict_partitions(D)[1:])}

    if workload == "gq-routes":
        D = size["gq_D"]
        return [sweep(route, D) for route in ("gq_pfaffian_1", "gq_pfaffian_2", "gq_fermionic")]
    if workload == "dual-pairing":
        D = size["dual_D"]
        parts = [sweep(route, D) for route in ("o_pfaffian_1", "o_pfaffian_2", "o_fermionic", "gp")]
        D = size["pair_D"]
        strict = strict_partitions(D)
        triples = [(lam, mu, nu) for i, lam in enumerate(strict) for mu in strict[i:]
                   if sum(lam) + sum(mu) <= D
                   for nu in strict if max(sum(lam), sum(mu)) <= sum(nu)]
        parts.append({"name": "pairing", "kind": "pairing", "D": D,
                      "triples": shuffled(triples)})
        return parts
    if workload == "verify":
        n = size["verify_n"]
        return [{"name": "verify", "kind": "verify", "n": n,
                 "lams": shuffled(strict_partitions(n)[1:])}]
    raise HarnessError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# -- sub-runs -------------------------------------------------------------

def launch(task, deadline):
    """Run one task in a fresh interpreter.

    Returns the result and the set-up time at the speed of REF_S, rescaled by
    the probe the interpreter runs right after its imports.
    """
    # The caller's Python settings are dropped, so that bytecode is cached as
    # for a user, whatever the caller's environment says.  A fixed hash seed
    # keeps set and dict orders, and so the traced counts, repeatable.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(task),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"part {task.get('name', 'setup')} did not finish in time")
    if proc.returncode != 0:
        raise HarnessError(f"part {task.get('name', 'setup')} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["unscaled_setup_s"] = result["imported_at"] - started
    return result, result["unscaled_setup_s"] * REF_S / result["setup_probe"]


class Checks:
    """Digest and property checks over every output of a run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.digests = {}  # item key -> {digest: [routes]}

    def add(self, result):
        for route, key, got in result["items"]:
            self.attempted += 1
            want = self.reference.get(key)
            if got is not None and got != want:  # a raise is named in "errors"
                self.failures.append(f"{route} {key}: digest {got} != reference {want}")
            self.digests.setdefault(key, {}).setdefault(got, []).append(route)
        self.failures.extend(result["errors"])
        self.attempted += result["math_checks"]
        self.failures.extend(result["math_failures"])

    def finish(self):
        """Routes (and repeats) of each item must agree with each other."""
        for key, seen in self.digests.items():
            if sum(len(routes) for routes in seen.values()) > 1:
                self.attempted += 1
                if len(seen) > 1:
                    self.failures.append(f"{key}: routes disagree {seen}")


def part_time(result):
    """Computing time of a part at the speed of REF_S."""
    return sum(result["ref_times"].values())


def run_untraced(workload, parts, seconds, deadline, checks):
    launches = [launch({"kind": "setup"}, deadline) for _ in range(SETUP_LAUNCHES)]
    setup = [setup_s for _, setup_s in launches]
    unscaled_setup = [result["unscaled_setup_s"] for result, _ in launches]
    samples = {part["name"]: [] for part in parts}
    for _ in range(max(1, round(seconds / PASS_S[workload]))):
        for part in parts:
            result, setup_s = launch(part, deadline)
            setup.append(setup_s)
            unscaled_setup.append(result["unscaled_setup_s"])
            checks.add(result)
            samples[part["name"]].append(result)
    detail = {"unscaled_setup_s": statistics.median(unscaled_setup)}
    for name, results in samples.items():
        totals = [part_time(r) for r in results]
        times = [r["ref_times"] for r in results]
        detail[f"{name}_s"] = {
            "value": statistics.median(totals), "unit": "s", "samples": totals,
            "unscaled_samples": [sum(r["times"].values()) for r in results]}
        if any("gq_oracle" in t for t in times):
            detail["oracle_s"] = {"value": statistics.median(t.get("gq_oracle", 0.0)
                                                             for t in times),
                                  "unit": "s"}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(detail[f"{name}_s"]["value"] for name in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return metrics, detail


def merge_layers(layers):
    """Sum the traced figures of several processes."""
    merged = {"calls": {}, "repeats": {}, "group_calls": {}, "s": {}, "counts": {},
              "self_s": {}}

    def add(field, name, value):
        merged[field][name] = merged[field].get(name, 0) + value

    for layer in layers:
        for name, f in layer["functions"].items():
            add("calls", name, f["calls"])
            if f["repeats"] is not None:
                add("repeats", name, f["repeats"])
        for name, g in layer["groups"].items():
            add("group_calls", name, g["calls"])
            add("s", name, g["s"])
        for field in ("counts", "self_s"):
            for name, v in layer[field].items():
                add(field, name, v)
    return merged


def run_traced(workload, parts, deadline, checks):
    plain = {part["name"]: launch(part, deadline)[0] for part in parts}
    traced = []
    for part in parts:
        spans = SPANS_DIR / workload / f"{part['name']}.spans"
        result, _ = launch(dict(part, trace=str(spans)), deadline)
        if result["layers"]["restored"] == 0:
            raise HarnessError("the tracer wrapped nothing")
        traced.append(result)
    for result in list(plain.values()) + traced:
        checks.add(result)
    layers = merge_layers([r["layers"] for r in traced])
    metrics = {f"{name}_s": 0.0 for name in ROUTE_PARTS}
    metrics["oracle_s"] = 0.0
    for name, result in plain.items():
        if name in ROUTE_PARTS:
            metrics[f"{name}_s"] = part_time(result)
        metrics["oracle_s"] += result["ref_times"].get("gq_oracle", 0.0)
    untraced = sum(part_time(r) for r in plain.values())
    metrics["trace.overhead_s"] = sum(part_time(r) for r in traced) - untraced
    for name, (field, key) in LAYER_SOURCES.items():
        metrics[name] = layers[field].get(key, 0)
    pairs = layers["counts"].get("pseries.mul_pairs", 0)
    metrics["pseries.mul_pair_yield"] = (
        layers["counts"].get("pseries.mul_merges", 0) / pairs if pairs else 0.0)
    for label in REPEAT_FUNCTIONS:
        calls = layers["calls"].get(label, 0)
        metrics[f"{repeat_name(label)}.repeat_ratio"] = (
            layers["repeats"].get(label, 0) / calls if calls else 0.0)
    for module in SELF_MODULES:
        metrics[f"{module}.self_s"] = layers["self_s"].get(module, 0.0)
    return metrics, {"restored": [r["layers"]["restored"] for r in traced],
                     "spans": [r["layers"]["spans"] for r in traced]}


def run(workload, seed, seconds, trace, scale="full"):
    """Returns (result object, detail object) or raises HarnessError."""
    if not (ROOT / "src" / "kq" / "__init__.py").is_file():
        raise HarnessError(f"no kq sources under {ROOT / 'src'}")
    if not REFERENCE.is_file():
        raise HarnessError(f"missing reference digests {REFERENCE}")
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = plan(workload, scale, seed)
    checks = Checks(json.loads(REFERENCE.read_text()))
    if trace:
        metrics, detail = run_traced(workload, parts, deadline, checks)
    else:
        metrics, detail = run_untraced(workload, parts, seconds, deadline, checks)
    checks.finish()
    failed = len(checks.failures)
    if trace:
        metrics["error_rate"] = failed / checks.attempted
    for line in checks.failures[:50]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    detail.update(workload=workload, seed=seed, scale=scale, trace=trace)
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
