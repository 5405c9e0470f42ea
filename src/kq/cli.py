"""The kq command.

    kq verify 3,2,1 -n 7

computes GQ_lambda in n variables with the symmetrization oracle, reads its
power-sum coordinates back with from_finite at D = n, and compares them with
the three other GQ routes at the same bound.  It prints one JSON line, which
names the bound ("D"), the coordinates compared, the number of (nu, k)
terms of the oracle's polynomial sum c b^k s_nu in Schur coordinates
("oracle_terms") and the seconds spent in the oracle, in from_finite and
in each route ("seconds", by time.perf_counter), and exits 0 only if every
route agrees; bad input exits 2 with the error text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .finitevars import from_finite
from .gq import gq_fermionic, gq_pfaffian_1, gq_pfaffian_2
from .oracle import gq_oracle
from .partitions import check_strict_weight

ROUTES = {
    "gq_pfaffian_1": gq_pfaffian_1,
    "gq_pfaffian_2": gq_pfaffian_2,
    "gq_fermionic": gq_fermionic,
}


def _partition(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _timed(fn, *args):
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def verify(lam, n: int) -> dict:
    """Agreement of every GQ route with the oracle, at D = n variables."""
    lam = check_strict_weight(lam, n)
    poly, oracle_s = _timed(gq_oracle, lam, n)
    want, finite_s = _timed(from_finite, poly, n)
    got = {name: _timed(route, lam, n) for name, route in ROUTES.items()}
    routes = {name: f == want for name, (f, _) in got.items()}
    return {"lambda": list(lam), "n": n, "D": n, "coordinates": "power-sum",
            "oracle_terms": len(poly.terms),
            "routes": routes,
            "agree": all(routes.values()),
            "seconds": {"oracle": oracle_s, "from_finite": finite_s,
                        "routes": {name: s for name, (_, s) in got.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kq")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser(
        "verify", help="check every GQ route against the oracle")
    cmd.add_argument("lam", type=_partition,
                     help="strict partition, parts separated by commas")
    cmd.add_argument("-n", type=int, required=True,
                     help="number of variables, also the degree bound")
    args = parser.parse_args(argv)
    try:
        report = verify(args.lam, args.n)
    except ValueError as exc:
        print(f"kq verify: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0 if report["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
