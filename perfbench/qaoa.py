"""The qaoa-loop workload: a closed loop of sequential permuqc jobs,
each cycle one ideal sweep job and one noisy sweep job.

Problems come from a committed pool; the workload seed draws which
pool problem each cycle runs. expected_qaoa.json holds every pool
problem's printed <C> values, so each job's output is checked exactly.
"""

import json
import os
import re
import statistics
import subprocess
import time

import gen
import stats
from wire import clean_env

QAOA_RE = re.compile(r"^qaoa\s*: p=1 (ideal|noisy) <C>=(\S+) after \d+ evals "
                     r"\(maxcut (\d+)\)$", re.M)
SWEEP_RE = re.compile(r"^sweep\s*: \d+x\d+ grid p=1 (ideal|noisy) best "
                      r"<C>=(\S+) at gamma=(\S+) beta=(\S+) ", re.M)
DEPTH_RE = re.compile(r"^depth\s*: (\d+) cycles$", re.M)
CX_RE = re.compile(r"^cx count\s*: (\d+) ", re.M)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_qaoa.json")


def job_args(params, kind, edge_file, report):
    job = params[kind]
    args = ["--arch", job["arch"], "--input", edge_file,
            "--tier", job["tier"], "--qaoa", "1",
            "--qaoa-rounds", str(job["rounds"]),
            "--sweep", f"{job['gammas']}x{job['betas']}",
            "--report", report]
    if kind == "noisy":
        args += ["--noise", str(job["noise_seed"])]
    return args


def write_pool_files(ctx, params, indices):
    """Write the edge files of the drawn pool problems; returns
    {(kind, index): path}."""
    paths = {}
    for kind, index in indices:
        path = os.path.join(ctx.workdir, f"qaoa-{kind}-{index}.edges")
        with open(path, "w") as f:
            f.write(gen.edge_file_text(gen.qaoa_pool_graph(kind, index,
                                                           params)))
        paths[(kind, index)] = path
    return paths


class Job:
    def __init__(self, kind, index, cycle):
        self.kind = kind
        self.index = index
        self.cycle = cycle
        self.seconds = None
        self.cpu_s = 0.0
        self.maxrss_mib = 0.0
        self.out = ""
        self.report = None
        self.failure = None


def run_job(ctx, params, job, edge_file):
    report = os.path.join(ctx.workdir, f"qaoa-{job.kind}.report.json")
    if os.path.exists(report):
        os.unlink(report)
    env = clean_env(PERMUQ_THREADS=params["threads"])
    start = time.perf_counter()
    proc = subprocess.Popen([ctx.bins["permuqc"]] +
                            job_args(params, job.kind, edge_file, report),
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    job.seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.maxrss_mib = usage.ru_maxrss / 1024.0
    job.out = out.decode(errors="replace")
    if proc.returncode != 0:
        job.failure = f"permuqc exited {proc.returncode}: {job.out[-300:]}"
        return
    try:
        with open(report) as f:
            job.report = json.load(f)
    except (OSError, ValueError) as e:
        job.failure = f"no report: {e}"


def check_job(job, expected, dense_values):
    """Every printed <C> lies in [0, maxcut] and equals the committed
    expectation; the sweep optimum equals the report's and, for ideal
    jobs, the independent dense evaluation at the reported angles."""
    if job.failure:
        return
    want = expected[job.kind][job.index]
    q = QAOA_RE.search(job.out)
    s = SWEEP_RE.search(job.out)
    d = DEPTH_RE.search(job.out)
    c = CX_RE.search(job.out)
    if not (q and s and d and c):
        job.failure = "unrecognised permuqc output"
        return
    maxcut = int(q.group(3))
    values = (float(q.group(2)), float(s.group(2)))
    if any(not 0.0 <= v <= maxcut for v in values):
        job.failure = f"<C> outside [0, {maxcut}]"
    elif (maxcut, q.group(2), s.group(2)) != (want["maxcut"], want["qaoa"],
                                              want["sweep"]):
        job.failure = (f"<C> {q.group(2)} / {s.group(2)} (maxcut {maxcut}) "
                       f"!= expected {want['qaoa']} / {want['sweep']} "
                       f"(maxcut {want['maxcut']})")
    sweep = job.report["sweep"]
    if job.failure is None and f"{sweep['best_value']:.4f}" != s.group(2):
        job.failure = "report sweep optimum differs from the printed one"
    if job.failure is None and job.kind == "ideal":
        dense = dense_values[(job.index, sweep["best_gamma"],
                              sweep["best_beta"])]
        if abs(dense - sweep["best_value"]) > 1e-6 * max(1.0, dense):
            job.failure = (f"sweep optimum {sweep['best_value']} != dense "
                           f"evaluation {dense}")
    job.depth = int(d.group(1))
    job.cx = int(c.group(1))


def load_expected():
    with open(EXPECTED_PATH) as f:
        doc = json.load(f)
    return {kind: {int(k): v for k, v in doc[kind].items()}
            for kind in ("ideal", "noisy")}


def run_qaoa_loop(ctx, params):
    expected = load_expected()
    max_cycles = max(2, int(ctx.seconds * params["max_cycles_per_s"]) + 2)
    sequence = gen.qaoa_sequence(params, ctx.seed, max_cycles)
    drawn = sorted({("ideal", i) for i, _ in sequence} |
                   {("noisy", n) for _, n in sequence})

    # Set-up: write the drawn problem files, then one untimed warm-up
    # job (the first cycle's noisy job); repeated, median reported.
    setup_times = []
    for _ in range(params["setups"]):
        start = time.perf_counter()
        files = write_pool_files(ctx, params, drawn)
        warm = Job("noisy", sequence[0][1], -1)
        run_job(ctx, params, warm, files[("noisy", warm.index)])
        if warm.failure:
            raise RuntimeError(f"warm-up job failed: {warm.failure}")
        setup_times.append(time.perf_counter() - start)

    ctx.phase("setup")
    jobs = []
    start = time.perf_counter()
    for cycle, (ideal, noisy) in enumerate(sequence):
        if cycle > 0 and time.perf_counter() - start >= ctx.seconds:
            break
        for kind, index in (("ideal", ideal), ("noisy", noisy)):
            job = Job(kind, index, cycle)
            run_job(ctx, params, job, files[(kind, index)])
            jobs.append(job)

    ctx.phase("window")
    ctx.corrupt_jobs(jobs)
    # Independent dense evaluation, once per distinct (problem, angles).
    dense_values = {}
    for job in jobs:
        if job.failure or job.kind != "ideal":
            continue
        sweep = job.report["sweep"]
        key = (job.index, sweep["best_gamma"], sweep["best_beta"])
        if key not in dense_values:
            dense_values[key] = ctx.replay_dense(files[("ideal", job.index)],
                                                 key[1], key[2])
    for job in jobs:
        check_job(job, expected, dense_values)

    ok = [j for j in jobs if j.failure is None]
    ideal = [j.seconds * 1e3 if j.failure is None else float("inf")
             for j in jobs if j.kind == "ideal"]
    noisy = [j.seconds * 1e3 if j.failure is None else float("inf")
             for j in jobs if j.kind == "noisy"]
    cycles = [a + b for a, b in zip(ideal, noisy)]
    failed = len(jobs) - len(ok)
    metrics = {
        "p50_ms": stats.pct(ideal, 50),
        "tail_ms": stats.pct(cycles, 50),
        "other_p50_ms": stats.pct(noisy, 50),
        "cpu_ms_per_op": sum(j.cpu_s for j in jobs) * 1e3 / len(jobs),
        "peak_rss_mb": max(j.maxrss_mib for j in jobs),
        "setup_s": statistics.median(setup_times),
        "ok_ratio": 1.0 - failed / len(jobs),
        "depth_gm": stats.gmean([j.depth for j in ok]),
        "cx_gm": stats.gmean([j.cx for j in ok]),
    }
    # No permuqd on this path: the service layers have nothing to report.
    layers = {}
    samples = {"ideal_jobs": len(ideal), "noisy_jobs": len(noisy),
               "cycles": len(cycles)}
    trace_jobs = [(kind, files[(kind, index)])
                  for kind, index in (("ideal", sequence[0][0]),
                                      ("noisy", sequence[0][1]))]
    return dict(metrics=metrics, layers=layers, attempted=len(jobs),
                failed=failed, failures=[j.failure for j in jobs
                                         if j.failure],
                samples=samples, trace_jobs=trace_jobs)
