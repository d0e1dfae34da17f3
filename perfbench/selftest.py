#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload, svc-mixed too (BENCHMARK.json does not gate it),
in a short mode (a few seconds, traced and untraced) and checks that:
  * each run prints every metric BENCHMARK.json names, with its unit,
    and no other metric, and that an untraced run is correct;
  * the checker counts an injected corrupt QASM plan (both permuqd
    workloads) and an injected wrong <C> (qaoa-loop) as failures;
  * one seed gives byte-identical inputs and another seed other ones;
  * each traced run's Chrome trace passes tools/check_trace.py;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import RUNNERS  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SHORT = "3"

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    """(record, result) from a run's last two stdout lines."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Every workload the harness runs, gated by BENCHMARK.json or not.
    workloads = sorted(RUNNERS)

    for name in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("--workload", name, "--seed", "11", "--seconds", SHORT,
                       "--trace", str(trace))
            record, result = result_of(proc)
            label = f"{name} --trace {trace}"
            check(proc.returncode == 0 and result is not None,
                  f"{label}: exits 0 with a result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{label}: result has exactly the four keys")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: every {key} metric, with its "
                               "unit, and nothing else")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{label}: correct, nothing failed")
            if trace:
                trace_file = os.path.join(ROOT, record["unreported"]
                                          ["trace_file"])
                ok = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "tools",
                                                  "check_trace.py"),
                     trace_file, "--require-span", "core.compile"],
                    capture_output=True).returncode == 0
                check(ok, f"{label}: trace passes tools/check_trace.py")

    for name, inject in (("svc-mixed", "corrupt-qasm"),
                         ("compile-cold", "corrupt-qasm"),
                         ("qaoa-loop", "wrong-c")):
        proc = run("--workload", name, "--seed", "11", "--seconds", SHORT,
                   "--inject", inject)
        _, result = result_of(proc)
        check(result is not None and not result["correct"] and
              result["failed"] >= 1,
              f"{name}: an injected {inject} counts as failed")

    for name in workloads:
        digest = [run("--workload", name, "--seed", str(seed),
                      "--inputs-only").stdout.strip()
                  for seed in (5, 5, 6)]
        check(digest[0] == digest[1] and digest[0] != digest[2],
              f"{name}: inputs are a function of the seed")

    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads[0],
             "--seed", "1", "--seconds", SHORT, "--trace", "0"], cwd=bare,
            capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "bare directory: non-zero exit and no result")
    finally:
        shutil.rmtree(bare)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
