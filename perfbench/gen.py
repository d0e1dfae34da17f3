"""Seeded input generation for the PermuQ benchmark.

Everything a run sends is a pure function of the workload seed and
the parameters in workloads.json: the same seed gives byte-identical
request payloads and problem files, another seed gives different ones.
The graphs are drawn here, with Python's own generator, so the inputs
do not change when the program's generators change.
"""

import json
import random

PROTOCOL_VERSION = 1


# ------------------------------------------------------------- graphs

def regular3(n, rng):
    """Random simple 3-regular graph on n vertices (pairing model)."""
    if n % 2:
        raise ValueError("3-regular graphs need an even vertex count")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            a, b = sorted((points[i], points[i + 1]))
            if a == b or (a, b) in edges:
                break
            edges.add((a, b))
        else:
            return sorted(edges)


def gnp(n, p, rng):
    """Erdos-Renyi G(n, p) edge list."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if rng.random() < p]


def fabric_local(rows, cols, density, reach, rng):
    """Local graph on a rows x cols fabric: each pair of vertices at most
    `reach` rows and columns apart is an edge with probability
    `density` (the shape of problem::fabric_local_graph)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for r2 in range(r, min(rows - 1, r + reach) + 1):
                lo = c + 1 if r2 == r else max(0, c - reach)
                for c2 in range(lo, min(cols - 1, c + reach) + 1):
                    if rng.random() < density:
                        edges.append((v, r2 * cols + c2))
    return edges


def ensure_vertex(n, edges):
    """permuqc and permuqd size a problem by its largest vertex id; an
    edge list whose last vertex is isolated would shrink the problem,
    so such a list gets one extra edge onto vertex n-1."""
    if not any(n - 1 in e for e in edges):
        edges = edges + [(0, n - 1)] if n > 1 else edges
    return edges


def draw_graph(shape, rng):
    """A problem graph for a shape dict {"n", "graph": "3reg"|"gnp"|
    "fabric", ...}."""
    n = shape["n"]
    kind = shape["graph"]
    if kind == "3reg":
        return regular3(n, rng)
    if kind == "gnp":
        return ensure_vertex(n, gnp(n, shape["density"], rng))
    if kind == "fabric":
        return ensure_vertex(n, fabric_local(shape["rows"], shape["cols"],
                                             shape["density"],
                                             shape["reach"], rng))
    raise ValueError(f"unknown graph kind {kind}")


# ----------------------------------------------------------- requests

def compile_payload(req_id, arch, tier, problem, shard=0):
    """One compile request as permuqd's wire protocol spells it.
    `problem` is either ("edges", n, edge list) or ("random", n,
    density, seed); the tier is always explicit."""
    body = {"v": PROTOCOL_VERSION, "id": req_id, "type": "compile",
            "arch": arch}
    if problem[0] == "edges":
        _, n, edges = problem
        body["problem"] = {"n": n, "edges": [list(e) for e in edges]}
    else:
        _, n, density, seed = problem
        body["problem"] = {"n": n, "density": density, "seed": seed}
    body["options"] = {"tier": tier, "alpha": 0.5, "crosstalk": False,
                       "shard": shard, "shard_margin": 0,
                       "full_qaoa": False}
    return json.dumps(body, separators=(",", ":")).encode()


def control_payload(req_id, kind):
    return json.dumps({"v": PROTOCOL_VERSION, "id": req_id, "type": kind},
                      separators=(",", ":")).encode()


class Spec:
    """A compile request before it gets an id: (arch, tier, problem,
    shard, group). Hits re-send a hot spec under fresh ids."""

    def __init__(self, arch, tier, problem, shard=0, group=""):
        self.arch = arch
        self.tier = tier
        self.problem = problem
        self.shard = shard
        self.group = group

    def payload(self, req_id):
        return compile_payload(req_id, self.arch, self.tier, self.problem,
                               self.shard)


def service_combos(params):
    """Every (shape, arch, tier) of svc-mixed, in workloads.json order."""
    return [(shape, arch, tier) for shape in params["shapes"]
            for arch in params["archs"] for tier in params["tiers"]]


def service_spec(combo, rng):
    shape, arch, tier = combo
    return Spec(arch, tier, ("edges", shape["n"], draw_graph(shape, rng)),
                group=shape["name"])


def svc_mixed(params, seed, seconds):
    """Hot set, cold specs and the open-loop schedule of svc-mixed.

    The hot set holds one request per (shape, arch, tier). Zipf
    popularity goes by rank, and rank r belongs to shape r mod #shapes,
    so every seed spreads its hits over plan sizes alike; the seed
    picks the graphs and which arch / tier of a shape gets which rank.
    Cold requests walk seeded shuffles of all combinations, so every
    seed's cold mix is the same too.

    Returns (hot, schedule) where schedule is a list of
    (due seconds, connection, "hit", hot index) or
    (due seconds, connection, "cold", Spec) tuples; arrivals are
    Poisson at params["rate"] over [0, seconds)."""
    rng = random.Random(f"svc-mixed/{seed}")
    combos = service_combos(params)
    hot = [service_spec(c, rng) for c in combos]
    per_shape = len(combos) // len(params["shapes"])
    by_shape = [list(range(i * per_shape, (i + 1) * per_shape))
                for i in range(len(params["shapes"]))]
    for members in by_shape:
        rng.shuffle(members)
    ranked = [by_shape[r % len(by_shape)][r // len(by_shape)]
              for r in range(len(hot))]
    weights = [0.0] * len(hot)
    for rank, idx in enumerate(ranked):
        weights[idx] = 1.0 / (rank + 1) ** params["zipf_s"]
    block = []
    schedule = []
    t = 0.0
    while True:
        t += rng.expovariate(params["rate"])
        if t >= seconds:
            break
        conn = rng.randrange(params["connections"])
        if rng.random() < params["cold_share"]:
            if not block:
                block = list(combos)
                rng.shuffle(block)
            schedule.append((t, conn, "cold",
                             service_spec(block.pop(), rng)))
        else:
            idx = rng.choices(range(len(hot)), weights=weights)[0]
            schedule.append((t, conn, "hit", idx))
    return hot, schedule


def compile_cold_cycle(params, rng):
    """One cycle of compile-cold: every (shape, arch, tier) of every
    group `repeat` times, each with a fresh graph or random-graph seed.
    Groups are shuffled on their own and then interleaved in proportion,
    so the heavy requests spread evenly over the cycle."""
    groups = []
    for group in params["groups"]:
        specs = []
        combos = [(shape, arch, tier) for shape in group["shapes"]
                  for arch in group["archs"] for tier in group["tiers"]]
        for shape, arch, tier in combos * group.get("repeat", 1):
            if shape["graph"] == "random":
                problem = ("random", shape["n"], shape["density"],
                           rng.randrange(1, 2**31))
            else:
                problem = ("edges", shape["n"], draw_graph(shape, rng))
            specs.append(Spec(arch, tier, problem, group.get("shard", 0),
                              group["name"]))
        rng.shuffle(specs)
        groups.append(specs)
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    order = []
    for step in range(1, total + 1):
        # The group furthest behind its share of the first `step` slots.
        k = max((i for i in range(len(groups)) if taken[i] < len(groups[i])),
                key=lambda i: step * len(groups[i]) / total - taken[i])
        order.append(groups[k][taken[k]])
        taken[k] += 1
    return order


def compile_cold(params, seed, cycles):
    rng = random.Random(f"compile-cold/{seed}")
    return [compile_cold_cycle(params, rng) for _ in range(cycles)]


# --------------------------------------------------------------- QAOA

def qaoa_pool_graph(kind, index, params):
    """Problem `index` of the committed QAOA pool for job `kind`."""
    job = params[kind]
    rng = random.Random(f"qaoa-pool/{kind}/{index}")
    return draw_graph(job["shape"], rng)


def qaoa_sequence(params, seed, cycles):
    """Seeded (ideal pool index, noisy pool index) per cycle. Each kind
    walks seeded shuffles of the whole pool, so any run covers the pool
    evenly whatever the seed."""
    rng = random.Random(f"qaoa-loop/{seed}")
    order = {"ideal": [], "noisy": []}
    sequence = []
    for _ in range(cycles):
        pair = []
        for kind in ("ideal", "noisy"):
            if not order[kind]:
                order[kind] = list(range(params["pool"]))
                rng.shuffle(order[kind])
            pair.append(order[kind].pop())
        sequence.append(tuple(pair))
    return sequence


def edge_file_text(edges):
    return "".join(f"{a} {b}\n" for a, b in edges)
