"""The two permuqd workloads: svc-mixed (open loop, cache hits among
cold compiles) and compile-cold (closed loop, every request unique)."""

import json
import os
import re
import statistics

import gen
import stats
from wire import Daemon, clean_env, run_loadgen, write_schedule

ENVELOPE_RE = re.compile(rb'"type":"result","cached":(true|false),'
                         rb'"queue_ms":([-0-9.eE+]+),'
                         rb'"compile_ms":([-0-9.eE+]+),')

# Requests in flight while the hot set is compiled during set-up; below
# permuqd's per-connection cap, so set-up is never refused.
HOT_WINDOW = 16


def daemon_flags(params):
    return ["--workers", str(params["workers"]),
            "--queue-depth", str(params["queue_depth"]),
            "--max-inflight", str(params["max_inflight"]),
            "--cache-budget", str(params["cache_budget"]),
            "--log-level", "off"]


def start_daemon(ctx, params):
    env = clean_env(PERMUQ_THREADS=params["threads"])
    daemon = Daemon(ctx.bins["permuqd"], ctx.workdir, daemon_flags(params),
                    env)
    try:
        ready_s = daemon.wait_ready()
    except Exception:
        daemon.kill()
        raise
    return daemon, ready_s


class Outcome:
    """One request's fate: round trip, response envelope, failure."""

    def __init__(self, spec, req_id, kind, hot_index=None):
        self.spec = spec
        self.id = req_id
        self.payload = spec.payload(req_id)
        self.kind = kind
        self.hot_index = hot_index
        self.conn = 0
        self.cycle = 0
        self.offset = 0.0
        self.due = None
        self.sent = None
        self.reply = None
        self.cached = False
        self.queue_ms = self.compile_ms = 0.0
        self.error = None
        self.failure = None

    @property
    def rtt_ms(self):
        if self.failure or self.reply is None:
            return float("inf")
        return (self.reply.arrived - self.due) * 1e3


def drive(ctx, daemon, outcomes, name, loadgen_args):
    """Send @p outcomes through perfbench-loadgen and attach what came
    back: due and send times, replies, envelopes. Outcomes the loadgen
    did not send are dropped from the list in place. Returns the
    daemon's CPU seconds over the drive."""
    schedule = os.path.join(ctx.workdir, f"{name}.schedule")
    write_schedule(schedule, [(o.id, o.offset, o.conn, o.payload)
                              for o in outcomes])
    mode, *rest = loadgen_args
    if mode == "open":
        args = ["open", daemon.port, rest[0], schedule, "."]
    else:
        args = ["closed", daemon.port, schedule, "."] + rest
    cpu0 = daemon.cpu_seconds()
    replies, sent = run_loadgen(ctx.bins["loadgen"], args,
                                os.path.join(ctx.workdir, name))
    cpu_s = daemon.cpu_seconds() - cpu0
    by_id = {o.id: o for o in outcomes}
    kept = []
    for req_id, due_s, sent_s in sent:
        o = by_id[req_id]
        o.due, o.sent = due_s, sent_s
        o.reply = replies.get(req_id)
        parse_envelope(o)
        kept.append(o)
    outcomes[:] = kept
    return cpu_s


def parse_envelope(o):
    """Read the envelope; anything but a result is a failure."""
    if o.reply is None:
        o.failure = "no response"
        return
    m = ENVELOPE_RE.search(o.reply.head)
    if m:
        o.cached = m.group(1) == b"true"
        o.queue_ms = float(m.group(2))
        o.compile_ms = float(m.group(3))
        return
    try:
        doc = json.loads(o.reply.payload_bytes())
    except ValueError as e:
        o.failure = f"bad json: {e}"
        return
    o.error = doc.get("error")
    o.failure = (f"{doc.get('type')}: {doc.get('error', '')} "
                 f"{doc.get('message', '')}")


def reference_check(ctx, outcomes):
    """Gate every uncached response on the replay's in-process compile
    of its request: same QASM, same depth / cx, and check_symbolic."""
    checked = [o for o in outcomes if o.failure is None]
    pairs = [(o.payload, ctx.corrupt(o, o.reply.payload_bytes()))
             for o in checked]
    for o, verdict in zip(checked, ctx.replay_check(pairs)):
        if verdict[0] == "ok":
            o.depth, o.cx = verdict[1:]
        else:
            o.failure = verdict[1]


def envelope_layers(outcomes):
    """service.server.* per-layer metrics from the response envelopes."""
    ok = [o for o in outcomes if o.failure is None]
    return {
        "service.server.queue_p50_ms": stats.pct([o.queue_ms for o in ok],
                                                 50),
        "service.server.queue_p99_ms": stats.pct([o.queue_ms for o in ok],
                                                 99),
        "service.server.work_p50_ms": stats.pct([o.compile_ms for o in ok],
                                                50),
        "service.server.transport_p50_ms": stats.pct(
            [o.rtt_ms - o.queue_ms - o.compile_ms for o in ok], 50),
        "service.server.overloaded": float(
            sum(1 for o in outcomes if o.error == "overloaded")),
    }


def repeated_setup(params, setup_once):
    """Run setup_once() params["setups"] times, keep the last daemon,
    and shut the others down cleanly. Returns (daemon, state,
    median set-up seconds)."""
    times = []
    for i in range(params["setups"]):
        daemon, state, seconds = setup_once()
        times.append(seconds)
        if i + 1 < params["setups"]:
            daemon.shutdown()
    return daemon, state, statistics.median(times)


def finish(result, outcomes):
    """Attach the attempted / failed accounting to a runner's result."""
    failures = [o.failure for o in outcomes if o.failure]
    result.update(attempted=len(outcomes), failed=len(failures),
                  failures=failures)
    result["metrics"]["ok_ratio"] = 1.0 - len(failures) / len(outcomes)
    return result


# ----------------------------------------------------------- svc-mixed

def run_svc_mixed(ctx, params):
    hot, schedule = gen.svc_mixed(params, ctx.seed, ctx.seconds)
    hot_specs = {spec: i for i, spec in enumerate(hot)}

    def setup_once():
        daemon, _ = start_daemon(ctx, params)
        try:
            outcomes = [Outcome(spec, daemon.next_id(), "hot")
                        for spec in hot]
            drive(ctx, daemon, outcomes, "hot",
                  ["closed", 0, len(outcomes), 1, HOT_WINDOW])
        except Exception:
            daemon.kill()
            raise
        done = max(o.reply.arrived for o in outcomes if o.reply)
        return daemon, outcomes, done - daemon.started

    daemon, hot_outcomes, setup_s = repeated_setup(params, setup_once)
    ctx.phase("setup")
    try:
        outcomes = []
        for offset, conn, kind, what in schedule:
            spec = hot[what] if kind == "hit" else what
            o = Outcome(spec, daemon.next_id(), kind,
                        what if kind == "hit" else None)
            o.conn = conn
            o.offset = offset
            outcomes.append(o)
        cpu_s = drive(ctx, daemon, outcomes, "window",
                      ["open", params["connections"]])
        hwm = daemon.hwm_mib()
    except Exception:
        daemon.kill()
        raise
    daemon.shutdown()
    ctx.phase("window")

    # A hit must replay, byte for byte, the fragment of a cold response
    # to the same request (the set-up one, or a recompile after the
    # entry was evicted); every cold response is gated on the
    # in-process reference.
    cold = list(hot_outcomes)
    for o in outcomes:
        if o.failure is None and not o.cached:
            cold.append(o)
        elif o.failure is None and o.kind == "cold":
            o.failure = "a unique request was answered from the cache"
    reference_check(ctx, cold)
    served = {}
    for o in cold:
        if o.failure is None and o.spec in hot_specs:
            served.setdefault(hot_specs[o.spec], set()).add(o.reply.crc)
    for o in outcomes:
        if (o.failure is None and o.cached and
                o.reply.crc not in served.get(o.hot_index, ())):
            o.failure = "hit fragment matches no checked cold response"

    hits = [o for o in outcomes if o.kind == "hit" and
            (o.failure or o.cached)]
    misses = [o for o in outcomes if o.kind == "cold" or
              (o.failure is None and not o.cached)]
    # Plan quality over every plan compiled cold for this seed's
    # schedule (the hot set and the unique requests): the same plans
    # on every run of the seed, and enough of them to average out the
    # draw of graphs.
    plans = [o for o in hot_outcomes + outcomes
             if o.kind != "hit" and o.failure is None]
    tail_q = params["tail_percentile"]
    metrics = {
        "p50_ms": stats.pct([o.rtt_ms for o in hits], 50),
        "tail_ms": stats.pct([o.rtt_ms for o in hits], tail_q),
        "other_p50_ms": stats.pct([o.rtt_ms for o in misses], 50),
        "cpu_ms_per_op": cpu_s * 1e3 / len(outcomes),
        "peak_rss_mb": hwm,
        "setup_s": setup_s,
        "depth_gm": stats.gmean([o.depth for o in plans]),
        "cx_gm": stats.gmean([o.cx for o in plans]),
    }
    layers = envelope_layers(outcomes)
    layers["loadgen.late_p99_ms"] = stats.pct(
        [(o.sent - o.due) * 1e3 for o in outcomes], 99)
    samples = {"hits": len(hits), "misses": len(misses),
               "hits_beyond_tail": stats.beyond(len(hits), tail_q),
               "hit_pcts": {q: round(stats.pct([o.rtt_ms for o in hits], q),
                                     3) for q in (90, 95, 98, 99)},
               "hot_set": len(hot_outcomes),
               "hot_set_bytes": sum(o.reply.size for o in hot_outcomes
                                    if o.reply),
               "tail_percentile": tail_q}
    replayed = [o.spec for o in
                hot_outcomes + outcomes[:params["trace_requests"]]]
    return finish(dict(metrics=metrics, layers=layers, samples=samples,
                       trace_stream=[s.payload(i)
                                     for i, s in enumerate(replayed)]),
                  hot_outcomes + outcomes)


# --------------------------------------------------------- compile-cold

def run_compile_cold(ctx, params):
    max_cycles = max(params["min_cycles"],
                     int(ctx.seconds * params["max_cycles_per_s"]) + 1)
    cycles = gen.compile_cold(params, ctx.seed, max_cycles)

    def setup_once():
        daemon, ready_s = start_daemon(ctx, params)
        return daemon, None, ready_s

    daemon, _, setup_s = repeated_setup(params, setup_once)
    ctx.phase("setup")
    try:
        outcomes = []
        for c, cycle in enumerate(cycles):
            for spec in cycle:
                o = Outcome(spec, daemon.next_id(), "cold")
                o.cycle = c
                outcomes.append(o)
        # Closed loop, one request in flight, whole cycles only, and
        # never fewer than min_cycles: every run sends every
        # combination equally often, the tail percentile keeps ten
        # samples beyond it, and depth_gm / cx_gm cover the same plans.
        per_cycle = len(cycles[0])
        cpu_s = drive(ctx, daemon, outcomes, "window",
                      ["closed", ctx.seconds,
                       per_cycle * params["min_cycles"], per_cycle, 1])
        hwm = daemon.hwm_mib()
    except Exception:
        daemon.kill()
        raise
    daemon.shutdown()
    ctx.phase("window")

    for o in outcomes:
        if o.failure is None and o.cached:
            o.failure = "a unique request was answered from the cache"
    reference_check(ctx, outcomes)

    first = [o for o in outcomes
             if o.cycle < params["min_cycles"] and o.failure is None]
    small = [o for o in outcomes if o.spec.group == params["groups"][0]["name"]]
    large = [o for o in outcomes if o not in small]
    tail_q = params["tail_percentile"]
    metrics = {
        "p50_ms": stats.pct([o.rtt_ms for o in small], 50),
        "tail_ms": stats.pct([o.rtt_ms for o in outcomes], tail_q),
        "other_p50_ms": stats.pct([o.rtt_ms for o in large], 50),
        "cpu_ms_per_op": cpu_s * 1e3 / len(outcomes),
        "peak_rss_mb": hwm,
        "setup_s": setup_s,
        "depth_gm": stats.gmean([o.depth for o in first]),
        "cx_gm": stats.gmean([o.cx for o in first]),
    }
    layers = envelope_layers(outcomes)
    samples = {"requests": len(outcomes), "small": len(small),
               "large": len(large),
               "beyond_tail": stats.beyond(len(outcomes), tail_q),
               "cycles": outcomes[-1].cycle + 1,
               "tail_percentile": tail_q}
    return finish(dict(metrics=metrics, layers=layers, samples=samples,
                       trace_stream=[s.payload(i)
                                     for i, s in enumerate(cycles[0])]),
                  outcomes)
