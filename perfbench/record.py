#!/usr/bin/env python3
"""Write reference.json: the digest of every output the benchmark checks.

    python3 perfbench/record.py

Runs each workload once at every scale and keeps a digest per item only
when every route that produced the item agrees and no call raised or broke
a structure-constant check.  Run it only for a kq whose outputs are trusted;
the committed file was made from the first commit that has the benchmark.
"""

import json
import sys
import time

from run import REFERENCE, SCALES, WORKLOADS, launch, plan


def main():
    reference = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            for part in plan(workload, scale, 0):
                result, _ = launch(part, time.monotonic() + 900)
                problems = result["errors"] + result["math_failures"]
                for route, key, got in result["items"]:
                    if reference.setdefault(key, got) != got:
                        problems.append(f"{route} {key}: routes disagree")
                if problems:
                    sys.exit("not recorded:\n" + "\n".join(problems))
                print(f"{scale} {workload} {part['name']}: {len(result['items'])} items")
    REFERENCE.write_text(json.dumps(dict(sorted(reference.items())), indent=0) + "\n")


if __name__ == "__main__":
    main()
