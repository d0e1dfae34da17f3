#!/usr/bin/env python3
"""Pretty-print (and sanity-check) a `permuqc --report` JSON file.

The report is the compiler's per-compile explain record: which tier
actually served the request, where the wall time went, how depth and
swaps split between the greedy prefix and the ATA tail (per round),
cache hit rates, and — for sharded compiles — per-band attribution
plus the stitch bill.

Usage:
  tools/report_summary.py report.json [--require-bands N]
      [--require-caches] [--require-tier NAME] [--json]

Check flags (for CI):
  --require-bands N   fail unless the shard section has >= N band rows
                      with per-band depth/swaps attribution;
  --require-caches    fail unless at least one cache recorded traffic
                      (hits + misses > 0);
  --require-tier T    fail unless tier_served == T.
  --json              echo the parsed report back (validation only).

Exits 0 when the file parses and every check passes, 1 otherwise.
"""

import argparse
import json
import sys


def fail(message):
    print(f"report_summary: FAIL: {message}", file=sys.stderr)
    return 1


def rate(hits, misses):
    total = hits + misses
    if total == 0:
        return "no traffic"
    return f"{hits}/{total} ({100.0 * hits / total:.1f}% hit)"


def print_summary(rep):
    served = rep["tier_served"]
    requested = rep["tier_requested"]
    tier = served if served == requested else f"{served} (requested {requested})"
    print(f"tier        : {tier}")
    if rep.get("fallback_reason"):
        print(f"fallback    : {rep['fallback_reason']}")
    print(f"strategy    : {rep['selected']}")
    print(
        f"problem     : {rep['problem_qubits']} qubits, "
        f"{rep['problem_edges']} edges on a "
        f"{rep['device_qubits']}-qubit device"
    )
    print(
        f"search      : {rep['trials']} trial(s), "
        f"{rep['snapshots']} snapshot(s), "
        f"{rep['candidates']} candidate(s)"
    )

    ph = rep["phase_seconds"]
    total = ph["total"] or 0.0
    print(f"wall time   : {total * 1e3:.2f} ms total")
    for key in ("setup", "placement", "greedy", "materialize", "stitch"):
        sec = ph.get(key, 0.0)
        if sec <= 0.0:
            continue
        share = f" ({100.0 * sec / total:.0f}%)" if total > 0 else ""
        print(f"  {key:<11}: {sec * 1e3:.2f} ms{share}")

    pre, tail = rep["prefix"], rep["tail"]
    print(
        f"prefix      : {pre['ops']} ops "
        f"({pre['computes']} compute, {pre['swaps']} swap), "
        f"depth {pre['depth']}"
    )
    if tail["swaps"] + tail["computes"] > 0:
        print(
            f"ATA tail    : {tail['ata_rounds']} round(s), "
            f"{tail['computes']} compute, {tail['swaps']} swap, "
            f"depth +{tail['depth']}"
        )
        shown = tail.get("rounds", [])
        for i, r in enumerate(shown):
            print(
                f"  round {i:<5}: {r['swaps']} swap, "
                f"{r['computes']} compute"
            )
        if tail["ata_rounds"] > len(shown):
            print(f"  ... {tail['ata_rounds'] - len(shown)} round(s) elided")

    caches = rep["caches"]
    print(f"sched cache : {rate(caches['schedule_hits'], caches['schedule_misses'])}")
    print(f"pull cache  : {rate(caches['pull_hits'], caches['pull_misses'])}")

    shard = rep["shard"]
    if shard["regions"] > 0:
        print(
            f"shard       : {shard['regions']} band(s), "
            f"{shard['stitched_edges']} stitched edge(s), "
            f"stitch {shard['stitch_swaps']} swap(s) / "
            f"depth {shard['stitch_depth']}"
        )
        for b in shard.get("bands", []):
            print(
                f"  band {b['index']:<6}: {b['qubits']} qubits, "
                f"{b['edges']} edges -> depth {b['depth']}, "
                f"{b['swaps']} swap, {b['cx']} cx "
                f"in {b['seconds'] * 1e3:.2f} ms ({b['selected']})"
            )

    res = rep["result"]
    fidelity = f", fidelity {res['fidelity']:.4f}" if res["fidelity"] else ""
    print(
        f"result      : depth {res['depth']}, {res['cx_count']} cx, "
        f"{res['swap_count']} swap{fidelity}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="permuqc --report JSON file")
    parser.add_argument(
        "--require-bands",
        type=int,
        metavar="N",
        help="fail unless the shard section has >= N attributed bands",
    )
    parser.add_argument(
        "--require-caches",
        action="store_true",
        help="fail unless at least one cache recorded traffic",
    )
    parser.add_argument(
        "--require-tier",
        metavar="NAME",
        help="fail unless tier_served equals NAME",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="echo the parsed report instead of pretty-printing",
    )
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            rep = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.report}: not readable JSON: {e}")
    if rep.get("permuq_report") != 1:
        return fail(f"{args.report}: not a permuq report (bad magic)")
    for section in ("phase_seconds", "prefix", "tail", "caches", "shard",
                    "result"):
        if section not in rep:
            return fail(f"{args.report}: missing '{section}' section")

    if args.require_bands is not None:
        bands = rep["shard"].get("bands", [])
        if len(bands) < args.require_bands:
            return fail(
                f"{args.report}: {len(bands)} band row(s), "
                f"need >= {args.require_bands}"
            )
        for b in bands:
            if b["depth"] <= 0 and (b["swaps"] > 0 or b["cx"] > 0):
                return fail(
                    f"{args.report}: band {b['index']} has ops but "
                    f"depth {b['depth']}"
                )
    if args.require_caches:
        caches = rep["caches"]
        traffic = (caches["schedule_hits"] + caches["schedule_misses"] +
                   caches["pull_hits"] + caches["pull_misses"])
        if traffic == 0:
            return fail(f"{args.report}: every cache shows zero traffic")
    if args.require_tier and rep["tier_served"] != args.require_tier:
        return fail(
            f"{args.report}: tier_served {rep['tier_served']!r} != "
            f"{args.require_tier!r}"
        )

    if args.json:
        json.dump(rep, sys.stdout, indent=2)
        print()
    else:
        print_summary(rep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
