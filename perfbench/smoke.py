#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size, in seconds.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at the "smoke" scale and checks
that each run is correct, that its result carries exactly the metrics that
BENCHMARK.json lists, with their units, and that tracing leaves every name
in kq as it found it.  Prints every problem found, and exits non-zero if
there is one.
"""

import json
import sys

import run


def snapshot(modules):
    """Identity of every attribute of the modules and of their classes."""
    out = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    out[(mod.__name__, name, attr)] = id(raw)
    return out


def check_restore():
    sys.path.insert(0, str(run.ROOT / "src"))
    from importlib import import_module

    from tracer import Tracer
    from worker import MODULES
    modules = [import_module(f"kq.{name}") for name in MODULES]
    before = snapshot(modules)
    tracer = Tracer(modules)
    tracer.install()
    wrapped = len(tracer.patches)
    changed = sum(before[k] != v for k, v in snapshot(modules).items() if k in before)
    tracer.uninstall()
    after = snapshot(modules)
    if not wrapped or changed != wrapped:
        return [f"tracer wrapped {wrapped} names but {changed} changed"]
    if after != before:
        return [f"not restored: {sorted(k for k in before if before[k] != after.get(k))}"]
    return []


def check_run(workload, trace, listed):
    where = f"{workload} --trace {trace}"
    try:
        result, detail = run.run(workload, seed=1, seconds=1, trace=trace, scale="smoke")
    except run.HarnessError as exc:
        return [f"{where}: {exc}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} checks failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != listed:
        problems.append(f"{where}: missing {sorted(set(listed) - set(got))}, "
                        f"extra {sorted(set(got) - set(listed))}, units differ "
                        f"{sorted(n for n in got if n in listed and got[n] != listed[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if trace and not all(detail["restored"]):
        problems.append(f"{where}: a traced part wrapped nothing")
    # gq_fermionic builds the same HBraExpansion table for every lambda
    repeats = result["metrics"].get("hexpansion.HBraExpansion.repeat_ratio", {}).get("value")
    if trace and workload == "gq-routes" and not (repeats or 0) > 0:
        problems.append(f"{where}: HBraExpansion.repeat_ratio = {repeats!r}, expected > 0")
    yield_ = result["metrics"].get("pseries.mul_pair_yield", {}).get("value")
    if trace and workload == "gq-routes" and not 0 < (yield_ or 0) <= 1:
        problems.append(f"{where}: pseries.mul_pair_yield = {yield_!r}, expected in (0, 1]")
    return problems


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_restore()
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads than run.py")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        for workload in run.WORKLOADS:
            problems += check_run(workload, trace, listed)
    for line in problems:
        print(f"SMOKE FAILED {line}")
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
