#!/usr/bin/env python3
"""Regenerate perfbench/expected_qaoa.json.

    python3 perfbench/make_expected.py

Runs every problem of the qaoa-loop pool (workloads.json) through
permuqc once and records the printed <C> values and max cut. Each
ideal sweep optimum is first confirmed against perfbench-replay's
independent dense evaluation. Regenerate only when the pool or the
job flags change; a changed value for an unchanged pool is a change in
the program's results, which is what the file exists to catch.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import qaoa  # noqa: E402
import run  # noqa: E402


class Args:
    seed = 0
    seconds = 0
    inject = None


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        params = json.load(f)["qaoa-loop"]
    bdir = os.path.join(run.ROOT, ".bench_build")
    ctx = run.Context(Args(), bdir, run.build(bdir))
    indices = [(kind, i) for kind in ("ideal", "noisy")
               for i in range(params["pool"])]
    files = qaoa.write_pool_files(ctx, params, indices)
    expected = {"ideal": {}, "noisy": {}}
    for kind, index in indices:
        job = qaoa.Job(kind, index, 0)
        qaoa.run_job(ctx, params, job, files[(kind, index)])
        if job.failure:
            sys.exit(f"{kind} {index}: {job.failure}")
        q = qaoa.QAOA_RE.search(job.out)
        s = qaoa.SWEEP_RE.search(job.out)
        sweep = job.report["sweep"]
        if kind == "ideal":
            dense = ctx.replay_dense(files[(kind, index)],
                                     sweep["best_gamma"], sweep["best_beta"])
            if abs(dense - sweep["best_value"]) > 1e-6 * max(1.0, dense):
                sys.exit(f"ideal {index}: sweep {sweep['best_value']} "
                         f"!= dense {dense}")
        expected[kind][str(index)] = {"maxcut": int(q.group(3)),
                                      "qaoa": q.group(2),
                                      "sweep": s.group(2)}
        print(kind, index, expected[kind][str(index)], f"{job.seconds:.2f}s",
              flush=True)
    with open(qaoa.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
