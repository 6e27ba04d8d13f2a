#!/usr/bin/env python3
"""Gate the distributed communication-path benchmark (BENCH_dist.json).

bench_dist runs the in-process distributed Cholesky under flat unicast
broadcasts and under the binomial-tree default at 2/4/8 ranks. This script
enforces the properties the trees exist for, on the 4-rank pair:

  * broadcast-origin egress with trees < MAX_EGRESS_RATIO (0.75) of the
    unicast egress — the acceptance bar is a >= 2x reduction and the
    counters are deterministic, so 0.75 has plenty of margin;
  * end-to-end time with trees <= MAX_E2E_RATIO (1.05) of the unicast
    time — the egress win must not be bought with a slowdown;
  * every run factored the matrix bitwise identically ("bitwise_identical"
    is true) — communication scheduling must never change numerics.

Both bounds are module constants, not flags, so a caller cannot loosen
them from the command line.

Usage:
  check_dist_bench.py BENCH_dist.json [--nranks 4]

Exits 0 when all gates hold, 1 with a diagnostic otherwise — CI runs it in
the dist-smoke job right after bench_dist.
"""
import argparse
import json
import sys

MAX_EGRESS_RATIO = 0.75  # tree/unicast origin-egress bytes must stay below
MAX_E2E_RATIO = 1.05     # tree/unicast end-to-end seconds must stay below


def fail(msg):
    print(f"check_dist_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="BENCH_dist.json produced by bench_dist")
    ap.add_argument("--nranks", type=int, default=4,
                    help="rank count to gate on (default 4)")
    args = ap.parse_args()

    try:
        with open(args.bench, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.bench}: {e}")

    if doc.get("bench") != "dist":
        fail("not a bench_dist artifact (\"bench\" != \"dist\")")
    if doc.get("bitwise_identical") is not True:
        fail("communication modes changed the factor bits "
             "(bitwise_identical is not true)")

    runs = {(r["nranks"], r["mode"]): r for r in doc.get("runs", [])}
    unicast = runs.get((args.nranks, "unicast"))
    tree = runs.get((args.nranks, "tree"))
    if unicast is None or tree is None:
        fail(f"missing unicast/tree runs at {args.nranks} ranks")

    egress_ratio = tree["root_egress_bytes"] / max(
        unicast["root_egress_bytes"], 1)
    if egress_ratio >= MAX_EGRESS_RATIO:
        fail(f"tree origin egress {tree['root_egress_bytes']} B is "
             f"{egress_ratio:.3f}x unicast "
             f"({unicast['root_egress_bytes']} B); gate is < "
             f"{MAX_EGRESS_RATIO}")

    e2e_ratio = tree["seconds"] / max(unicast["seconds"], 1e-12)
    if e2e_ratio > MAX_E2E_RATIO:
        fail(f"tree end-to-end {tree['seconds']:.4f} s is "
             f"{e2e_ratio:.3f}x unicast ({unicast['seconds']:.4f} s); "
             f"gate is <= {MAX_E2E_RATIO}")

    print(f"check_dist_bench: OK: at {args.nranks} ranks tree egress is "
          f"{egress_ratio:.3f}x unicast "
          f"({tree['root_egress_bytes']}/{unicast['root_egress_bytes']} B), "
          f"e2e {e2e_ratio:.3f}x ({tree['seconds']:.4f}/"
          f"{unicast['seconds']:.4f} s), factors bitwise identical")


if __name__ == "__main__":
    main()
