#!/usr/bin/env python3
"""PermuQ benchmark: one command for every end-to-end metric.

    python3 perfbench/run.py --workload svc-mixed --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root. The first run builds permuqd, permuqc
(with the repository's own CMake code) and perfbench-replay into
.bench_build/. Workloads, their load models, daemon flags, thread
counts and cache budgets are in perfbench/workloads.json:

  svc-mixed     open loop against permuqd: plan-cache hits among cold
                compiles (the service layers).
  compile-cold  closed loop against permuqd: unique 256q / 1024q /
                sharded 4096q compiles (core and circuit).
  qaoa-loop     closed loop of permuqc QAOA sweep jobs (the simulator).

With --trace 0 the last stdout line is the end-to-end result; with
--trace 1 the same end-to-end run happens first, then
perfbench-replay replays the workload's seeded stream in-process
through each layer, with spans and without, and the last line carries
the per-layer metrics instead. Metric names and units come from
BENCHMARK.json; what each means on each workload is recorded in
workloads.json ("metrics").
Every output is checked (see svc.py and qaoa.py); a wrong output
counts as failed and makes "correct" false.
"""

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STARTED = time.perf_counter()
sys.path.insert(0, HERE)

import qaoa  # noqa: E402
import svc  # noqa: E402
from wire import clean_env  # noqa: E402

BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
CHECK_THREADS = 4

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, **kw):
    with open(log, "ab") as f:
        f.write(("$ " + " ".join(cmd) + "\n").encode())
        f.flush()
        code = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, **kw)
    if code != 0:
        with open(log, "rb") as f:
            sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
        fail(f"command failed ({code}): {' '.join(cmd)}")


def build(bdir):
    """Configure on first use, then bring every binary up to date."""
    log = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    permuq = os.path.join(bdir, "permuq")
    replay = os.path.join(bdir, "replay")
    if not os.path.exists(os.path.join(permuq, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", permuq,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
    run_logged(["cmake", "--build", permuq, "-j", jobs, "--target",
                "permuqd", "permuqc", "permuq_verify"], log)
    if not os.path.exists(os.path.join(replay, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", replay,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    f"-DPERMUQ_BUILD_DIR={permuq}"], log)
    run_logged(["cmake", "--build", replay, "-j", jobs], log)
    return {"permuqd": os.path.join(permuq, "tools", "permuqd"),
            "permuqc": os.path.join(permuq, "tools", "permuqc"),
            "replay": os.path.join(replay, "perfbench-replay"),
            "loadgen": os.path.join(replay, "perfbench-loadgen")}


def cmake_cache(bdir):
    values = {}
    try:
        with open(os.path.join(bdir, "permuq", "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("//", "#")):
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":")[0]] = value
    except OSError:
        pass
    return values


def llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    for entry in os.listdir(base) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def environment(ctx, params):
    cache = cmake_cache(ctx.bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE") or BUILD_TYPE
    probe = subprocess.run([ctx.bins["replay"], "env"], capture_output=True,
                           text=True, env=clean_env(), timeout=30)
    threads = {"check": CHECK_THREADS}
    for key in ("threads", "workers"):
        if key in params:
            threads[key] = params[key]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "simd": json.loads(probe.stdout)["simd"],
        "llc_bytes": llc_bytes(),
        "build_type": build_type,
        "cxx": cache.get("CMAKE_CXX_COMPILER"),
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS"),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}"),
            "-std=c++20 -Wall -Wextra"])),
        "git_commit": git_commit(),
        "pinned_threads": threads,
        "binaries": {k: os.path.relpath(v, ROOT)
                     for k, v in ctx.bins.items()},
    }


class Context:
    """What a workload runner needs from the harness."""

    def __init__(self, args, bdir, bins):
        self.seed = args.seed
        self.seconds = args.seconds
        self.bdir = bdir
        self.bins = bins
        self.inject_mode = args.inject
        self.injected = False
        self.workdir = os.path.join(bdir, "run")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.phases = {}
        self.phase_start = STARTED

    def phase(self, name):
        """Close the current phase of the run under @p name (the phase
        seconds go into the result record)."""
        now = time.perf_counter()
        self.phases[name] = round(now - self.phase_start, 3)
        self.phase_start = now

    def write_records(self, name, records):
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as f:
            for record in records:
                f.write(struct.pack(">I", len(record)) + record)
        return path

    def replay_check(self, pairs):
        """(request payload, response payload) pairs -> verdict tuples
        ("ok", depth, cx) or ("fail", reason), from CHECK_THREADS
        single-threaded checker processes over interleaved shares."""
        procs = []
        for k in range(min(CHECK_THREADS, len(pairs))):
            path = self.write_records(f"check{k}.records",
                                      [x for pair in pairs[k::CHECK_THREADS]
                                       for x in pair])
            out = open(path + ".out", "w+")
            procs.append((subprocess.Popen(
                [self.bins["replay"], "check", path], stdout=out,
                stderr=subprocess.STDOUT, env=clean_env(PERMUQ_THREADS=1)),
                out))
        shares = []
        for k, (proc, out) in enumerate(procs):
            code = proc.wait()
            out.seek(0)
            lines = out.read().splitlines()
            out.close()
            if code != 0 or len(lines) != len(pairs[k::CHECK_THREADS]):
                raise RuntimeError("replay check failed: " +
                                   " ".join(lines[-1:]))
            shares.append(lines)
        verdicts = []
        for i in range(len(pairs)):
            line = shares[i % CHECK_THREADS][i // CHECK_THREADS]
            word, _, rest = line.partition(" ")
            if word == "ok":
                depth, cx = rest.split()
                verdicts.append(("ok", int(depth), int(cx)))
            else:
                verdicts.append(("fail", rest))
        return verdicts

    def replay_dense(self, edge_file, gamma, beta):
        out = subprocess.run([self.bins["replay"], "dense", edge_file,
                              repr(gamma), repr(beta)],
                             capture_output=True, text=True, env=clean_env(),
                             timeout=170, check=True)
        return float(out.stdout)

    def corrupt(self, outcome, served):
        """Self-test hook: prepend a CX to the first cold plan's QASM so
        the checker must count it as failed."""
        if (self.inject_mode == "corrupt-qasm" and not self.injected and
                outcome.kind == "cold"):
            self.injected = True
            return served.replace(b'"qasm":"', b'"qasm":"cx q[0],q[1];\\n',
                                  1)
        return served

    def corrupt_jobs(self, jobs):
        """Self-test hook: shift the first job's printed <C>."""
        if self.inject_mode == "wrong-c":
            job = jobs[0]
            m = qaoa.QAOA_RE.search(job.out)
            wrong = f"{float(m.group(2)) + 0.5:.4f}"
            job.out = job.out[:m.start(2)] + wrong + job.out[m.end(2):]


def trace_run(ctx, workload, params, result):
    """Per-layer metrics from the in-process replay of the run's
    stream (perfbench-replay), plus the harness's own layers."""
    trace_path = os.path.join(ctx.bdir, "results",
                              f"trace-{workload}-seed{ctx.seed}.json")
    if workload == "qaoa-loop":
        lines = []
        for kind, path in result["trace_jobs"]:
            spec = params[kind]
            lines.append(" ".join(str(x) for x in (
                kind, path, spec["arch"], spec["tier"],
                spec.get("noise_seed", 0), spec["rounds"], spec["gammas"],
                spec["betas"])))
        jobs_path = os.path.join(ctx.workdir, "trace.jobs")
        with open(jobs_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        cmd = [ctx.bins["replay"], "qaoa-trace", jobs_path, trace_path]
        env = clean_env(PERMUQ_THREADS=params["threads"])
    else:
        stream = ctx.write_records("trace.records", result["trace_stream"])
        cmd = [ctx.bins["replay"], "service-trace", stream,
               str(params["cache_budget"]), trace_path]
        env = clean_env()
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError("replay failed: " + out.stderr[-500:])
    layers = json.loads(out.stdout)
    layers.update(result["layers"])
    layers["trace_file"] = os.path.relpath(trace_path, ROOT)
    return layers


RUNNERS = {"svc-mixed": svc.run_svc_mixed,
           "compile-cold": svc.run_compile_cold,
           "qaoa-loop": qaoa.run_qaoa_loop}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.json)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("corrupt-qasm", "wrong-c"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs-only", action="store_true",
                        help="generate the inputs, print their digest, "
                             "exit (no build, nothing timed)")
    args = parser.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (bench_json, os.path.join(ROOT, "CMakeLists.txt"),
                   os.path.join(ROOT, "src", "CMakeLists.txt"),
                   os.path.join(ROOT, "tools", "permuqd.cpp")):
        if not os.path.exists(needed):
            fail(f"not a PermuQ checkout: {needed} is missing")
    with open(bench_json) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.seed is None:
        args.seed = workloads["default_seed"]
    params = workloads[args.workload]

    bdir = os.path.join(ROOT, ".bench_build")
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    if args.inputs_only:
        print(input_digest(args, params))
        return 0
    bins = build(bdir)
    ctx = Context(args, bdir, bins)
    ctx.phase("build")
    env_record = environment(ctx, params)
    ctx.phase("environment")

    result = RUNNERS[args.workload](ctx, params)
    ctx.phase("check")
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        measured = trace_run(ctx, args.workload, params, result)
        ctx.phase("replay")
    else:
        measured = result["metrics"]
        missing = [m["name"] for m in names if m["name"] not in measured]
        if missing:
            fail(f"{args.workload} measured no {missing}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in names}
    failed = result["failed"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "samples": result["samples"], "phases_s": ctx.phases,
              "environment": env_record,
              "failures": result["failures"][:10],
              "layers": result["layers"],
              "unreported": {k: v for k, v in measured.items()
                             if k not in metrics}}
    path = os.path.join(bdir, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        ".json")
    ctx.phase("report")
    with open(path, "w") as f:
        json.dump(dict(record, metrics=metrics), f, indent=1)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(failed), "metrics": metrics}))
    return 0


def input_digest(args, params):
    """Digest of the request payloads / problem files a seed yields."""
    import gen
    h = hashlib.sha256()

    def add(blob):
        h.update(struct.pack(">Q", len(blob)) + blob)

    if args.workload == "svc-mixed":
        hot, schedule = gen.svc_mixed(params, args.seed, args.seconds)
        for spec in hot:
            add(spec.payload(0))
        for due, conn, kind, what in schedule:
            add(repr((due, conn, kind)).encode())
            add(what.payload(0) if kind == "cold" else str(what).encode())
    elif args.workload == "compile-cold":
        for cycle in gen.compile_cold(params, args.seed, 2):
            for spec in cycle:
                add(spec.payload(0))
    else:
        for ideal, noisy in gen.qaoa_sequence(params, args.seed, 4):
            for kind, index in (("ideal", ideal), ("noisy", noisy)):
                add(gen.edge_file_text(
                    gen.qaoa_pool_graph(kind, index, params)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
