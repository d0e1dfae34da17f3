#!/usr/bin/env python3
"""Diff a freshly produced bench JSON against a committed baseline.

Timings are machine-dependent, so the diff checks what must NOT drift
between runs:

  * the two files share the same schema (same key sets, recursively on
    the structure: top-level keys, per-row keys inside list sections);
  * every correctness flag in the candidate is true (bit_identical /
    thread_identical / samplers_agree / verified and friends -- boolean
    keys whose name contains "identical", "agree" or "verified"; mode
    flags like "smoke" are ignored);
  * structural fields in rows matched across files agree exactly:
    BENCH_compile.json "cases" rows are matched on (arch, requested_n)
    and compared on qubits/edges; "fabric" rows are matched on qubits
    and compared on edges/regions; "tiers" rows are matched on
    (arch, requested_n, tier) and compared on qubits/edges;
    "distance_table" rows are matched on (arch, requested_n) and
    compared on qubits/diameter. Rows present in only one file (the
    committed baseline is a full run, CI produces --smoke) are
    skipped;
  * each BENCH_compile.json "distance_table" row (a cold all-pairs
    distance table build on a fresh 1024q device) stays within its
    own budget_ms, and that budget has not been silently raised above
    the committed baseline row's -- the table is the setup cost every
    unsharded compile and every shard band pays, so a slower build
    fails the diff even though it is a timing;
  * the "telemetry_overhead" section's overhead_ratio stays within
    its own budget_ratio and the budget has not been silently raised
    above the committed baseline's -- an observability-cost
    regression fails the diff even though it is a timing;
  * the BENCH_compile.json "service" section's warm-path cache-hit
    round trip (warm_p50_ms) stays within its own warm_budget_ms and
    the budget has not been silently raised above the committed
    baseline's -- the daemon's warm latency is a product guarantee
    like the observability tax (its byte_identical flag is covered
    by the generic correctness-flag check); the same section's
    response stage (response_ms: the 1024q Sycamore fast plan's
    fragment and result frame) stays within response_budget_ms, and
    that budget has not been silently raised either (its
    response_identical flag is a generic correctness flag);
  * the BENCH_sim.json "stages" section (the per-stage simulator
    ledger) keeps each stage within its own budget -- the fused
    spectrum's key build (spectrum_build_ms against
    spectrum_build_budget_ms) and one noisy objective evaluation
    (noisy_eval_ms against noisy_eval_budget_ms) -- and has not
    silently raised either budget above the committed baseline's;
    its mixer rows keep their in-process ratios (apply_rx_all
    against n single-qubit apply_rx passes) at or above their floors
    when mixer_gated -- ideal_mixer_ratio against
    ideal_mixer_ratio_min at 20 qubits, mixer15_ratio against
    mixer15_ratio_min -- and no floor has been silently lowered
    below the committed baseline's. The ideal_split_identical flag
    is covered by the generic correctness-flag check.

Other timing fields are reported for context but never fail the diff.

Usage:
  tools/diff_bench.py BASELINE CANDIDATE

Exits 0 when the candidate is consistent with the baseline,
1 otherwise.
"""

import json
import sys

# List sections with (match-key fields, structural fields to compare).
ROW_SECTIONS = {
    "cases": (("arch", "requested_n"), ("qubits", "edges")),
    "fabric": (("qubits",), ("edges", "regions")),
    "tiers": (("arch", "requested_n", "tier"), ("qubits", "edges")),
    "distance_table": (("arch", "requested_n"), ("qubits", "diameter")),
}


def fail(message):
    print(f"diff_bench: FAIL: {message}", file=sys.stderr)
    return 1


def load(path):
    with open(path) as f:
        return json.load(f)


def schema_keys(doc):
    keys = set(doc)
    for section, rows in doc.items():
        if isinstance(rows, list):
            for row in rows:
                if isinstance(row, dict):
                    keys.update(f"{section}[].{k}" for k in row)
        elif isinstance(rows, dict):
            keys.update(f"{section}.{k}" for k in rows)
    return keys


def boolean_flags(doc, prefix=""):
    """Flatten every boolean field to a dotted path -> value map."""
    flags = {}
    if isinstance(doc, bool):
        flags[prefix] = doc
    elif isinstance(doc, dict):
        for k, v in doc.items():
            flags.update(boolean_flags(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            flags.update(boolean_flags(v, f"{prefix}[{i}]"))
    return flags


def diff_telemetry_overhead(base, cand):
    """Gate the observability tax: unlike other timings, the hot/cold
    compile ratio is a product guarantee, so a candidate over its
    budget (or a quietly loosened budget) fails the diff."""
    if cand is None:
        # The baseline predates the section, or vice versa -- the
        # schema check already reported any asymmetry.
        return 0
    ratio = cand.get("overhead_ratio")
    budget = cand.get("budget_ratio")
    if not isinstance(ratio, (int, float)) or not isinstance(
        budget, (int, float)
    ):
        return fail("telemetry_overhead lacks numeric ratio/budget")
    status = 0
    if ratio > budget:
        status |= fail(
            f"telemetry overhead ratio {ratio:.3f} exceeds its "
            f"budget {budget:.2f}"
        )
    if base is not None:
        base_budget = base.get("budget_ratio")
        if isinstance(base_budget, (int, float)) and budget > base_budget:
            status |= fail(
                f"telemetry overhead budget raised from "
                f"{base_budget:.2f} to {budget:.2f} without a "
                f"baseline update"
            )
        base_ratio = base.get("overhead_ratio")
        if isinstance(base_ratio, (int, float)):
            print(
                f"diff_bench: telemetry overhead {ratio:.3f}x "
                f"(baseline {base_ratio:.3f}x, budget {budget:.2f}x)"
            )
    return status


# BENCH_compile.json "service": (label, measured field, budget field).
SERVICE_BUDGETS = (
    ("warm p50", "warm_p50_ms", "warm_budget_ms"),
    ("response stage", "response_ms", "response_budget_ms"),
)


def diff_service(base, cand):
    """Gate the compile service's warm path and response stage: a cache
    hit or a response build that has drifted over its budget (or a
    quietly raised budget) fails the diff even though it is a
    timing."""
    if cand is None:
        return 0
    status = 0
    for label, field, budget_field in SERVICE_BUDGETS:
        value = cand.get(field)
        budget = cand.get(budget_field)
        if not isinstance(value, (int, float)) or not isinstance(
            budget, (int, float)
        ):
            status |= fail(f"service section lacks numeric {field}/budget")
            continue
        if value > budget:
            status |= fail(
                f"service {label} {value:.3f} ms exceeds its budget "
                f"{budget:.2f} ms"
            )
        if base is None:
            continue
        base_budget = base.get(budget_field)
        if isinstance(base_budget, (int, float)) and budget > base_budget:
            status |= fail(
                f"service {label} budget raised from {base_budget:.2f} to "
                f"{budget:.2f} ms without a baseline update"
            )
        base_value = base.get(field)
        if isinstance(base_value, (int, float)):
            print(
                f"diff_bench: service {label} {value:.3f} ms "
                f"(baseline {base_value:.3f} ms, budget {budget:.2f} ms)"
            )
    return status


def diff_distance_table(base_rows, cand_rows):
    """Gate the cold distance-table rows: each build stays within its
    budget_ms, and no budget is quietly raised above the committed
    baseline row's."""
    if not isinstance(cand_rows, list):
        return 0
    base_index = {
        (row.get("arch"), row.get("requested_n")): row
        for row in (base_rows if isinstance(base_rows, list) else [])
    }
    status = 0
    for row in cand_rows:
        key = (row.get("arch"), row.get("requested_n"))
        value = row.get("ms")
        budget = row.get("budget_ms")
        if not isinstance(value, (int, float)) or not isinstance(
            budget, (int, float)
        ):
            status |= fail(f"distance_table row {key} lacks numeric ms/budget")
            continue
        if value > budget:
            status |= fail(
                f"distance_table row {key}: {value:.3f} ms exceeds its "
                f"budget {budget:.2f} ms"
            )
        base_row = base_index.get(key)
        if base_row is None:
            continue
        base_budget = base_row.get("budget_ms")
        if isinstance(base_budget, (int, float)) and budget > base_budget:
            status |= fail(
                f"distance_table row {key}: budget raised from "
                f"{base_budget:.2f} to {budget:.2f} ms without a "
                f"baseline update"
            )
        base_value = base_row.get("ms")
        if isinstance(base_value, (int, float)):
            print(
                f"diff_bench: distance_table {key[0]} {key[1]}q "
                f"{value:.3f} ms (baseline {base_value:.3f} ms, budget "
                f"{budget:.2f} ms)"
            )
    return status


# BENCH_sim.json "stages": (measured field, budget field) per stage.
STAGE_BUDGETS = (
    ("spectrum_build_ms", "spectrum_build_budget_ms"),
    ("noisy_eval_ms", "noisy_eval_budget_ms"),
)

# BENCH_sim.json "stages": (measured ratio, floor field) per mixer row.
STAGE_FLOORS = (
    ("ideal_mixer_ratio", "ideal_mixer_ratio_min"),
    ("mixer15_ratio", "mixer15_ratio_min"),
)


def diff_stages(base, cand):
    """Gate the per-stage simulator ledger: each stage that owns the
    time of a QAOA job stays within its budget, each mixer row keeps
    its ratio at or above its floor, and no budget is quietly raised
    nor floor quietly lowered."""
    if cand is None:
        return 0
    status = 0
    for field, budget_field in STAGE_BUDGETS:
        value = cand.get(field)
        budget = cand.get(budget_field)
        if not isinstance(value, (int, float)) or not isinstance(
            budget, (int, float)
        ):
            status |= fail(f"stages section lacks numeric {field}/budget")
            continue
        if value > budget:
            status |= fail(
                f"stage {field} {value:.3f} ms exceeds its budget "
                f"{budget:.2f} ms"
            )
        if base is None:
            continue
        base_budget = base.get(budget_field)
        if isinstance(base_budget, (int, float)) and budget > base_budget:
            status |= fail(
                f"stage budget {budget_field} raised from "
                f"{base_budget:.2f} to {budget:.2f} ms without a "
                f"baseline update"
            )
        base_value = base.get(field)
        if isinstance(base_value, (int, float)):
            print(
                f"diff_bench: stage {field} {value:.3f} ms (baseline "
                f"{base_value:.3f} ms, budget {budget:.2f} ms)"
            )
    for field, floor_field in STAGE_FLOORS:
        value = cand.get(field)
        floor = cand.get(floor_field)
        if not isinstance(value, (int, float)) or not isinstance(
            floor, (int, float)
        ):
            status |= fail(f"stages section lacks numeric {field}/floor")
            continue
        if cand.get("mixer_gated") and value < floor:
            status |= fail(
                f"stage {field} {value:.3f}x is below its floor "
                f"{floor:.2f}x"
            )
        if base is None:
            continue
        base_floor = base.get(floor_field)
        if isinstance(base_floor, (int, float)) and floor < base_floor:
            status |= fail(
                f"stage floor {floor_field} lowered from "
                f"{base_floor:.2f} to {floor:.2f}x without a baseline "
                f"update"
            )
        base_value = base.get(field)
        if isinstance(base_value, (int, float)):
            print(
                f"diff_bench: stage {field} {value:.3f}x (baseline "
                f"{base_value:.3f}x, floor {floor:.2f}x)"
            )
    return status


def diff(baseline_path, candidate_path):
    try:
        baseline = load(baseline_path)
        candidate = load(candidate_path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"not readable JSON: {e}")

    status = 0

    base_keys = schema_keys(baseline)
    cand_keys = schema_keys(candidate)
    # A section may legitimately be null on one side (e.g. fabric_100k
    # is only produced by full runs); ignore its nested keys.
    for doc in (baseline, candidate):
        for key, value in doc.items():
            if value is None:
                base_keys = {
                    k
                    for k in base_keys
                    if not k.startswith(f"{key}.")
                    and not k.startswith(f"{key}[]")
                }
                cand_keys = {
                    k
                    for k in cand_keys
                    if not k.startswith(f"{key}.")
                    and not k.startswith(f"{key}[]")
                }
    if base_keys != cand_keys:
        only_base = sorted(base_keys - cand_keys)
        only_cand = sorted(cand_keys - base_keys)
        status |= fail(
            f"schema drift: baseline-only keys {only_base}, "
            f"candidate-only keys {only_cand}"
        )

    for path, value in boolean_flags(candidate).items():
        if value is False and (
            "identical" in path or "agree" in path or "verified" in path
        ):
            status |= fail(f"correctness flag {path} is false")

    for section, (match_on, compare) in ROW_SECTIONS.items():
        base_rows = baseline.get(section) or []
        cand_rows = candidate.get(section) or []
        if not isinstance(base_rows, list) or not isinstance(cand_rows, list):
            continue
        index = {
            tuple(row.get(k) for k in match_on): row for row in base_rows
        }
        matched = 0
        for row in cand_rows:
            key = tuple(row.get(k) for k in match_on)
            base_row = index.get(key)
            if base_row is None:
                continue  # baseline is a full run, candidate may be smoke
            matched += 1
            for field in compare:
                if row.get(field) != base_row.get(field):
                    status |= fail(
                        f"{section} row {key}: {field} = "
                        f"{row.get(field)!r}, baseline has "
                        f"{base_row.get(field)!r}"
                    )
        print(
            f"diff_bench: {section}: {matched}/{len(cand_rows)} "
            f"candidate row(s) matched against the baseline"
        )

    status |= diff_telemetry_overhead(
        baseline.get("telemetry_overhead"),
        candidate.get("telemetry_overhead"),
    )

    status |= diff_service(
        baseline.get("service"), candidate.get("service")
    )

    status |= diff_stages(baseline.get("stages"), candidate.get("stages"))

    status |= diff_distance_table(
        baseline.get("distance_table"), candidate.get("distance_table")
    )

    if status == 0:
        print(f"diff_bench: {candidate_path} consistent with {baseline_path}")
    return status


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return diff(sys.argv[1], sys.argv[2])


if __name__ == "__main__":
    sys.exit(main())
