/**
 * @file
 * perfbench-replay: the benchmark's in-process side.
 *
 * The end-to-end runs drive the shipped permuqd / permuqc binaries
 * and never link this file. This tool links the layer libraries for
 * three jobs the binaries cannot do for the benchmark:
 *
 *   check RECORDS
 *       Correctness gate. RECORDS holds (request payload, response
 *       payload) pairs as length-prefixed records. Each request is
 *       compiled in-process the way permuqd builds it; the response
 *       must be a result whose QASM equals circuit::to_qasm of that
 *       compile and whose depth / cx match it, and the circuit must
 *       pass verify::check_symbolic. Prints one line per pair:
 *       "ok <depth> <cx>" or "fail <reason>".
 *
 *   service-trace STREAM BUDGET TRACE_OUT
 *       Replays the request payloads in STREAM one at a time through
 *       each layer's public functions (framing, request parsing, plan
 *       cache with BUDGET bytes, problem, arch, core, circuit,
 *       response building and parsing), twice with spans and twice
 *       without. Prints the per-layer metrics as one JSON object and
 *       writes the spans as a Chrome trace to TRACE_OUT.
 *
 *   qaoa-trace JOBS TRACE_OUT
 *       The same for permuqc QAOA jobs: problem loading, device,
 *       core::compile, QaoaObjective, nelder_mead (one span per
 *       evaluation) and SweepEvaluator. JOBS has one job per line:
 *       "<ideal|noisy> <edge file> <arch> <tier> <noise seed>
 *       <rounds> <gammas> <betas>".
 *
 *   env
 *       Prints the detected SIMD tier and the default thread count,
 *       for the environment record of every result.
 *
 *   dense EDGES GAMMA BETA
 *       Independent p=1 QAOA MaxCut expectation on a dense state
 *       vector with plain std::complex arithmetic (no simulator
 *       kernels): |psi> = e^{-i beta B} e^{-i gamma C} |+>^n.
 *
 * Spans are recorded by this file around the calls into each layer;
 * the program's own telemetry stays off.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/parallel.h"
#include "core/compiler.h"
#include "core/options.h"
#include "graph/graph.h"
#include "problem/generators.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "sim/nelder_mead.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/sweep.h"
#include "verify/equivalence.h"

namespace {

using namespace permuq;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------- input

/** Next length-prefixed record (4-byte big-endian length + bytes). */
bool
read_record(std::istream& in, std::string& out)
{
    unsigned char prefix[4];
    if (!in.read(reinterpret_cast<char*>(prefix), 4))
        return false;
    const std::size_t n = (std::size_t(prefix[0]) << 24) |
                          (std::size_t(prefix[1]) << 16) |
                          (std::size_t(prefix[2]) << 8) | prefix[3];
    out.assign(n, '\0');
    if (n > 0 && !in.read(out.data(), static_cast<std::streamsize>(n)))
        throw std::runtime_error("truncated record");
    return true;
}

std::vector<std::string>
read_records(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<std::string> records;
    std::string record;
    while (read_record(in, record))
        records.push_back(record);
    return records;
}

/** An edge-list file as permuqc --input reads it: "u v" per line,
 *  '#' comments, vertex count = 1 + largest id. */
graph::Graph
load_edges(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    std::int32_t n = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::int32_t a = 0, b = 0;
        if (!(fields >> a >> b))
            throw std::runtime_error("bad edge line in " + path);
        edges.emplace_back(a, b);
        n = std::max(n, std::max(a, b) + 1);
    }
    graph::Graph g(n);
    for (const auto& [a, b] : edges)
        if (a != b && !g.has_edge(a, b))
            g.add_edge(a, b);
    return g;
}

arch::CouplingGraph
make_device(const std::string& name, std::int32_t qubits)
{
    if (name == "mumbai")
        return arch::make_mumbai();
    static const std::map<std::string, arch::ArchKind> kinds = {
        {"heavyhex", arch::ArchKind::HeavyHex},
        {"sycamore", arch::ArchKind::Sycamore},
        {"grid", arch::ArchKind::Grid},
        {"hexagon", arch::ArchKind::Hexagon},
        {"line", arch::ArchKind::Line},
        {"lattice3d", arch::ArchKind::Lattice3D},
    };
    const auto it = kinds.find(name);
    if (it == kinds.end())
        throw std::runtime_error("unknown arch " + name);
    return arch::smallest_arch(it->second, qubits);
}

/** The problem of a compile request, built the way permuqd builds it. */
graph::Graph
request_problem(const service::Request& request)
{
    if (!request.has_edges)
        return problem::random_graph(request.problem_n, request.density,
                                     request.seed);
    graph::Graph g(request.problem_n);
    for (const auto& edge : request.edges)
        if (edge.a != edge.b && !g.has_edge(edge.a, edge.b))
            g.add_edge(edge.a, edge.b);
    return g;
}

core::CompilerOptions
request_options(const service::Request& request)
{
    core::CompilerOptions options;
    if (!core::parse_tier(request.tier, options.tier))
        throw std::runtime_error("bad tier " + request.tier);
    options.alpha = request.alpha;
    options.crosstalk_aware = request.crosstalk;
    options.shard_regions = request.shard;
    options.shard_margin = request.shard_margin;
    return options;
}

service::Request
parse_or_throw(const std::string& payload)
{
    service::Request request;
    service::ErrorKind kind = service::ErrorKind::Internal;
    std::string message;
    if (!service::parse_request(payload, request, kind, message))
        throw std::runtime_error("parse_request: " + message);
    return request;
}

// ---------------------------------------------------------------- spans

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root. */
    std::int32_t parent = -1;
    std::int64_t request = 0;
};

/** In-memory span recorder; does nothing when constructed off. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    std::int32_t open(const char* name, std::int64_t request)
    {
        if (!on_)
            return -1;
        Span span;
        span.name = name;
        span.start_ns = now_ns();
        span.parent = current_;
        span.request = request;
        spans_.push_back(std::move(span));
        current_ = static_cast<std::int32_t>(spans_.size() - 1);
        return current_;
    }

    void close(std::int32_t index)
    {
        if (index < 0)
            return;
        spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
        current_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    bool on_;
    Clock::time_point epoch_;
    std::int32_t current_ = -1;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer& tracer, const char* name, std::int64_t request)
        : tracer_(tracer), index_(tracer.open(name, request))
    {
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    std::int32_t index_;
};

/** Layer of a span name: its longest known prefix. */
std::string
layer_of(const std::string& name)
{
    static const char* layers[] = {"service.protocol", "service.plan_cache",
                                   "problem", "arch", "core", "circuit",
                                   "sim"};
    for (const char* layer : layers) {
        const std::string prefix = std::string(layer) + ".";
        if (name.rfind(prefix, 0) == 0)
            return layer;
    }
    return "replay";
}

/** Duration in microseconds of every span, grouped by name. */
std::map<std::string, std::vector<double>>
durations_us(const std::vector<Span>& spans)
{
    std::map<std::string, std::vector<double>> out;
    for (const Span& span : spans)
        out[span.name].push_back(
            static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    return out;
}

/** Self time per layer in milliseconds: each span's duration minus the
 *  time its direct children cover (the replay is single-threaded, so
 *  children never overlap). */
std::map<std::string, double>
self_ms(const std::vector<Span>& spans)
{
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans)
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                span.end_ns - span.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[layer_of(spans[i].name)] +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                child_ns[i]) *
            1e-6;
    return out;
}

/** Chrome trace-event JSON, events sorted by start (one thread). */
void
write_trace(const std::vector<Span>& spans, const std::string& path)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"request\":%lld}}",
                      i ? "," : "", span.name.c_str(),
                      static_cast<double>(span.start_ns) * 1e-3,
                      static_cast<double>(span.end_ns - span.start_ns) *
                          1e-3,
                      i, span.parent,
                      static_cast<long long>(span.request));
        out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** Flat metric map printed as one JSON object. */
class Metrics
{
  public:
    void set(const std::string& name, double value) { values_[name] = value; }

    void print() const
    {
        std::printf("{");
        bool first = true;
        for (const auto& [name, value] : values_) {
            std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                        value);
            first = false;
        }
        std::printf("}\n");
    }

  private:
    std::map<std::string, double> values_;
};

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- check

int
run_check(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::string payload, served;
    while (read_record(in, payload)) {
        if (!read_record(in, served))
            throw std::runtime_error("check wants (request, response) "
                                     "pairs");
        try {
            service::Response response;
            std::string error;
            if (!service::parse_response(served, response, error))
                throw std::runtime_error("parse_response: " + error);
            if (response.type != "result")
                throw std::runtime_error("a " + response.type +
                                         " response");
            const auto request = parse_or_throw(payload);
            const graph::Graph problem = request_problem(request);
            const auto device =
                make_device(request.arch, problem.num_vertices());
            const auto result =
                core::compile(device, problem, request_options(request));
            circuit::QasmOptions qasm_options;
            qasm_options.full_qaoa = request.full_qaoa;
            if (circuit::to_qasm(result.circuit, qasm_options) !=
                response.qasm)
                throw std::runtime_error(
                    "qasm differs from the in-process compile");
            const auto verdict =
                verify::check_symbolic(device, problem, result.circuit);
            if (!verdict.ok)
                throw std::runtime_error("check_symbolic: " +
                                         verdict.summary());
            const auto metrics = circuit::compute_metrics(result.circuit);
            if (response.plan.depth != metrics.depth ||
                response.plan.cx != metrics.cx_count)
                throw std::runtime_error(
                    "plan summary disagrees with the circuit");
            std::printf("ok %lld %lld\n",
                        static_cast<long long>(metrics.depth),
                        static_cast<long long>(metrics.cx_count));
        } catch (const std::exception& e) {
            std::printf("fail %s\n", e.what());
        }
    }
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ------------------------------------------------------- core tally

/** What the compiler's explain report says, summed over a replay. */
struct CoreTally
{
    std::map<std::string, std::vector<double>> compile_ms; ///< by tier
    double placement_s = 0, greedy_s = 0, materialize_s = 0, stitch_s = 0,
           total_s = 0;
    double snapshots = 0, candidates = 0, ata_rounds = 0;
    double schedule_hits = 0, schedule_lookups = 0;
    double pull_hits = 0, pull_lookups = 0;
    double compiles = 0, ops = 0;

    void add(const core::CompileResult& result, const std::string& tier,
             double ms)
    {
        const auto& r = result.report;
        compile_ms[tier].push_back(ms);
        placement_s += r.placement_seconds;
        greedy_s += r.greedy_seconds;
        materialize_s += r.materialize_seconds;
        stitch_s += r.stitch_seconds;
        total_s += r.total_seconds;
        snapshots += r.snapshots;
        candidates += r.candidates;
        ata_rounds += r.ata_rounds;
        schedule_hits += double(r.schedule_cache_hits);
        schedule_lookups +=
            double(r.schedule_cache_hits + r.schedule_cache_misses);
        pull_hits += double(r.pull_cache_hits);
        pull_lookups += double(r.pull_cache_hits + r.pull_cache_misses);
        compiles += 1;
        ops += double(result.circuit.ops().size());
    }

    void emit(Metrics& m) const
    {
        for (const char* tier : {"fast", "balanced", "best", "sharded"}) {
            const auto it = compile_ms.find(tier);
            m.set(std::string("core.compile_ms.") + tier,
                  it == compile_ms.end() ? 0.0 : median(it->second));
        }
        m.set("core.placement_s", placement_s);
        m.set("core.greedy_s", greedy_s);
        m.set("core.materialize_s", materialize_s);
        m.set("core.stitch_s", stitch_s);
        m.set("core.unattributed_s",
              total_s - placement_s - greedy_s - materialize_s - stitch_s);
        m.set("core.snapshots", ratio(snapshots, compiles));
        m.set("core.candidates", ratio(candidates, compiles));
        m.set("core.ata_rounds", ratio(ata_rounds, compiles));
        m.set("core.schedule_hit_ratio",
              ratio(schedule_hits, schedule_lookups));
        m.set("core.pull_hit_ratio", ratio(pull_hits, pull_lookups));
        m.set("circuit.ops", ratio(ops, compiles));
    }
};

/** A timed core::compile inside a "core.compile" span, tallied. */
core::CompileResult
traced_compile(Tracer& tracer, std::int64_t id, CoreTally& tally,
               const std::string& tier, const arch::CouplingGraph& device,
               const graph::Graph& problem,
               const core::CompilerOptions& options)
{
    core::CompileResult result;
    const auto start = Clock::now();
    {
        Scope span(tracer, "core.compile", id);
        result = core::compile(device, problem, options);
    }
    tally.add(result, tier, seconds_since(start) * 1e3);
    return result;
}

/**
 * Runs @p replay four times, in the order spans off, on, on, off, so
 * drift in the machine's speed cancels out of the overhead ratio. The
 * first traced pass fills @p traced and @p tally. Returns the time
 * with spans over the time without.
 */
template <class Tally, class Replay>
double
replay_passes(Replay replay, Tracer& traced, Tally& tally)
{
    double on_s = 0, off_s = 0;
    for (int pass = 0; pass < 4; ++pass) {
        const bool on = pass == 1 || pass == 2;
        Tracer untraced(false);
        Tracer second(true);
        Tally ignored;
        const auto start = Clock::now();
        replay(on ? (pass == 1 ? traced : second) : untraced,
               pass == 1 ? tally : ignored);
        (on ? on_s : off_s) += seconds_since(start);
    }
    return ratio(on_s, off_s);
}

/** Metrics every traced replay reports, from its spans and core tally. */
void
emit_common(Metrics& m, const Tracer& traced, const CoreTally& core,
            double overhead, double replayed)
{
    auto spans = durations_us(traced.spans());
    m.set("problem.generate_ms", median(spans["problem.generate"]) * 1e-3);
    m.set("arch.device_ms", median(spans["arch.device"]) * 1e-3);
    m.set("circuit.metrics_ms", median(spans["circuit.metrics"]) * 1e-3);
    core.emit(m);
    for (const auto& [layer, ms] : self_ms(traced.spans()))
        m.set(layer + ".self_ms", ms);
    m.set("trace.overhead_ratio", overhead);
    m.set("replay.requests", replayed);
}

// ---------------------------------------------------- service replay

/** Per-request values that are not span durations. */
struct ServiceTally
{
    CoreTally core;
    double qasm_bytes = 0, response_bytes = 0, requests = 0;
    double cache_hits = 0, cache_lookups = 0, evictions = 0, cache_bytes = 0;
};

void
round_trip_frame(const std::string& payload, std::string& got)
{
    const std::string frame = service::encode_frame(payload);
    service::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string error;
    if (decoder.next(got, error) != service::FrameDecoder::Status::Frame)
        throw std::runtime_error("frame: " + error);
}

/** Serves @p stream one request at a time the way a permuqd worker does,
 *  with the client's framing and parsing on either side. */
void
replay_service(const std::vector<std::string>& stream, std::size_t budget,
               Tracer& tracer, ServiceTally& tally)
{
    service::PlanCache cache(budget);
    for (const std::string& payload : stream) {
        service::Request request;
        std::int64_t id = 0;
        Scope root(tracer, "request", 0);
        std::string got;
        {
            Scope span(tracer, "service.protocol.frame", id);
            round_trip_frame(payload, got);
        }
        {
            Scope span(tracer, "service.protocol.parse_request", id);
            request = parse_or_throw(got);
        }
        id = request.id;
        core::CompileTier tier = core::CompileTier::Auto;
        core::parse_tier(request.tier, tier);
        const std::string resolved =
            core::tier_name(core::resolve_tier(tier));
        std::string key;
        {
            Scope span(tracer, "service.plan_cache.key", id);
            key = service::PlanCache::make_key(request, resolved);
        }
        std::shared_ptr<const std::string> fragment;
        {
            Scope span(tracer, "service.plan_cache.lookup", id);
            fragment = cache.lookup(key);
        }
        const bool cached = fragment != nullptr;
        if (!cached) {
            graph::Graph problem(0);
            {
                Scope span(tracer, "problem.generate", id);
                problem = request_problem(request);
            }
            std::unique_ptr<arch::CouplingGraph> device;
            {
                Scope span(tracer, "arch.device", id);
                device = std::make_unique<arch::CouplingGraph>(
                    make_device(request.arch, problem.num_vertices()));
            }
            const auto result = traced_compile(
                tracer, id, tally.core,
                request.shard > 0 ? "sharded" : resolved, *device, problem,
                request_options(request));
            circuit::Metrics metrics;
            {
                Scope span(tracer, "circuit.metrics", id);
                metrics = circuit::compute_metrics(result.circuit);
            }
            std::string qasm;
            {
                Scope span(tracer, "circuit.to_qasm", id);
                circuit::QasmOptions qasm_options;
                qasm_options.full_qaoa = request.full_qaoa;
                qasm = circuit::to_qasm(result.circuit, qasm_options);
            }
            tally.qasm_bytes += double(qasm.size());
            std::string report_json;
            {
                Scope span(tracer, "core.report_json", id);
                report_json = result.report.to_json();
            }
            {
                Scope span(tracer, "service.protocol.build_fragment", id);
                service::PlanSummary summary;
                summary.tier = result.tier;
                summary.selected = result.selected;
                summary.depth = metrics.depth;
                summary.cx = metrics.cx_count;
                summary.swaps = metrics.swap_gates;
                fragment = std::make_shared<const std::string>(
                    service::build_plan_fragment(summary, qasm,
                                                 report_json));
            }
            {
                Scope span(tracer, "service.plan_cache.insert", id);
                cache.insert(key, fragment);
            }
        }
        std::string response;
        {
            Scope span(tracer, "service.protocol.build_result", id);
            response = service::build_result_payload(request.id, cached,
                                                     0.0, 0.0, *fragment);
        }
        tally.response_bytes += double(response.size());
        {
            Scope span(tracer, "service.protocol.frame", id);
            round_trip_frame(response, got);
        }
        {
            Scope span(tracer, "service.protocol.parse_response", id);
            service::Response parsed;
            std::string error;
            if (!service::parse_response(got, parsed, error) ||
                parsed.type != "result")
                throw std::runtime_error("parse_response: " + error);
        }
        tally.requests += 1;
    }
    tally.cache_hits = double(cache.hits());
    tally.cache_lookups = double(cache.hits() + cache.misses());
    tally.evictions = double(cache.evictions());
    tally.cache_bytes = double(cache.bytes());
}

int
run_service_trace(const std::string& stream_path, std::size_t budget,
                  const std::string& trace_path)
{
    // A daemon worker runs each compile with nested parallelism off.
    common::set_num_threads(1);
    const auto stream = read_records(stream_path);
    Tracer traced(true);
    ServiceTally tally;
    const double overhead = replay_passes(
        [&](Tracer& tracer, ServiceTally& t) {
            replay_service(stream, budget, tracer, t);
        },
        traced, tally);
    write_trace(traced.spans(), trace_path);

    auto spans = durations_us(traced.spans());
    Metrics m;
    emit_common(m, traced, tally.core, overhead, tally.requests);
    for (const char* name : {"parse_request", "build_result", "frame",
                             "parse_response"})
        m.set(std::string("service.protocol.") + name + "_us",
              median(spans[std::string("service.protocol.") + name]));
    m.set("service.protocol.response_kb",
          ratio(tally.response_bytes, tally.requests) / 1024);
    for (const char* name : {"key", "lookup", "insert"})
        m.set(std::string("service.plan_cache.") + name + "_us",
              median(spans[std::string("service.plan_cache.") + name]));
    m.set("service.plan_cache.hit_ratio",
          ratio(tally.cache_hits, tally.cache_lookups));
    m.set("service.plan_cache.evictions", tally.evictions);
    m.set("service.plan_cache.mb", tally.cache_bytes / (1 << 20));
    m.set("circuit.to_qasm_ms", median(spans["circuit.to_qasm"]) * 1e-3);
    m.set("circuit.qasm_kb",
          ratio(tally.qasm_bytes, tally.core.compiles) / 1024);
    m.print();
    return 0;
}

// ------------------------------------------------------- qaoa replay

/** One permuqc QAOA job (see the file comment for the line format). */
struct Job
{
    bool noisy = false;
    std::string edges;
    std::string arch;
    std::string tier;
    std::uint64_t noise_seed = 0;
    std::int32_t rounds = 60;
    std::size_t gammas = 4;
    std::size_t betas = 4;
};

std::vector<Job>
read_jobs(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Job> jobs;
    std::string kind;
    Job job;
    while (in >> kind >> job.edges >> job.arch >> job.tier >>
           job.noise_seed >> job.rounds >> job.gammas >> job.betas) {
        job.noisy = kind == "noisy";
        jobs.push_back(job);
    }
    return jobs;
}

/** Per-job values that are not span durations. */
struct QaoaTally
{
    CoreTally core;
    std::vector<double> objective_build_s;
    std::vector<double> ideal_sweep_point_ms, noisy_sweep_point_ms;
    double batch = 0, buffer_mb = 0;
};

/** The noisy-simulation settings permuqc uses (tools/permuqc.cpp). */
sim::NoisySimOptions
noisy_options(std::uint64_t seed)
{
    sim::NoisySimOptions options;
    options.trajectories = 8;
    options.shots = 2000;
    options.seed = seed;
    return options;
}

std::unique_ptr<sim::QaoaObjective>
traced_objective(Tracer& tracer, std::int64_t id, QaoaTally& tally,
                 const graph::Graph& problem)
{
    const auto start = Clock::now();
    Scope span(tracer, "sim.objective_build", id);
    auto context = std::make_unique<sim::QaoaObjective>(problem);
    tally.objective_build_s.push_back(seconds_since(start));
    return context;
}

/** Replays @p jobs as permuqc runs them (tools/permuqc.cpp). */
void
replay_qaoa(const std::vector<Job>& jobs, Tracer& tracer, QaoaTally& tally)
{
    std::int64_t id = 0;
    for (const Job& job : jobs) {
        ++id;
        Scope root(tracer, "job", id);
        graph::Graph problem(0);
        {
            Scope span(tracer, "problem.generate", id);
            problem = load_edges(job.edges);
        }
        std::unique_ptr<arch::CouplingGraph> device;
        std::unique_ptr<arch::NoiseModel> noise;
        {
            Scope span(tracer, "arch.device", id);
            device = std::make_unique<arch::CouplingGraph>(
                make_device(job.arch, problem.num_vertices()));
            if (job.noisy)
                noise = std::make_unique<arch::NoiseModel>(
                    arch::NoiseModel::calibrated(*device, job.noise_seed));
        }
        core::CompilerOptions options;
        if (!core::parse_tier(job.tier, options.tier))
            throw std::runtime_error("bad tier " + job.tier);
        options.noise = noise.get();
        const auto result = traced_compile(tracer, id, tally.core, job.tier,
                                           *device, problem, options);
        {
            Scope span(tracer, "circuit.metrics", id);
            circuit::compute_metrics(result.circuit, noise.get());
        }

        // Nelder-Mead over p = 1 from permuqc's start point, one span
        // per objective evaluation.
        {
            auto context = traced_objective(tracer, id, tally, problem);
            std::uint64_t eval = 0;
            auto objective = [&](const std::vector<double>& x) {
                sim::QaoaAngles angles;
                angles.gamma.assign(x.begin(), x.begin() + 1);
                angles.beta.assign(x.begin() + 1, x.end());
                if (!noise) {
                    Scope span(tracer, "sim.ideal_eval", id);
                    return -context->ideal_expectation(angles);
                }
                Scope span(tracer, "sim.noisy_eval", id);
                return -context->noisy_expectation(
                    result.circuit, *noise, angles,
                    noisy_options(1000 + eval++));
            };
            sim::nelder_mead(objective, {0.3, 0.2}, 0.4, job.rounds);
        }

        const auto points = sim::sweep_grid(job.gammas, job.betas, 1);
        auto context = traced_objective(tracer, id, tally, problem);
        sim::SweepEvaluator evaluator(*context);
        sim::SweepResult sweep;
        const auto swept = Clock::now();
        {
            Scope span(tracer, "sim.sweep", id);
            sweep = noise ? evaluator.noisy_sweep(result.circuit, *noise,
                                                  points, noisy_options(1000))
                          : evaluator.ideal_sweep(points);
        }
        (noise ? tally.noisy_sweep_point_ms : tally.ideal_sweep_point_ms)
            .push_back(seconds_since(swept) * 1e3 / double(points.size()));
        tally.batch = std::max(tally.batch, double(sweep.batch));
        tally.buffer_mb = std::max(
            tally.buffer_mb,
            double(context->memory_bytes() + evaluator.memory_bytes()) /
                (1 << 20));
    }
}

int
run_qaoa_trace(const std::string& jobs_path, const std::string& trace_path)
{
    const auto jobs = read_jobs(jobs_path);
    Tracer traced(true);
    QaoaTally tally;
    const double overhead = replay_passes(
        [&](Tracer& tracer, QaoaTally& t) { replay_qaoa(jobs, tracer, t); },
        traced, tally);
    write_trace(traced.spans(), trace_path);

    auto spans = durations_us(traced.spans());
    Metrics m;
    emit_common(m, traced, tally.core, overhead, double(jobs.size()));
    m.set("sim.objective_build_s", median(tally.objective_build_s));
    m.set("sim.ideal_eval_ms", median(spans["sim.ideal_eval"]) * 1e-3);
    m.set("sim.noisy_eval_ms", median(spans["sim.noisy_eval"]) * 1e-3);
    m.set("sim.sweep_point_ms", median(tally.ideal_sweep_point_ms));
    m.set("sim.noisy_sweep_point_ms", median(tally.noisy_sweep_point_ms));
    m.set("sim.sweep_batch", tally.batch);
    m.set("sim.buffer_mb", tally.buffer_mb);
    m.print();
    return 0;
}

// -------------------------------------------------------------- dense

int
run_dense(const std::string& edges_path, double gamma, double beta)
{
    const graph::Graph problem = load_edges(edges_path);
    const std::int32_t n = problem.num_vertices();
    if (n < 1 || n > 26)
        throw std::runtime_error("dense evaluation wants 1..26 qubits");
    const std::uint64_t dim = std::uint64_t{1} << n;
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    for (const auto& e : problem.edges())
        edges.emplace_back(e.a, e.b);

    std::vector<std::uint16_t> cut(dim);
    for (std::uint64_t z = 0; z < dim; ++z) {
        std::uint16_t c = 0;
        for (const auto& [a, b] : edges)
            c += static_cast<std::uint16_t>(((z >> a) ^ (z >> b)) & 1u);
        cut[z] = c;
    }

    using cd = std::complex<double>;
    const double amp = 1.0 / std::sqrt(static_cast<double>(dim));
    std::vector<cd> psi(dim);
    for (std::uint64_t z = 0; z < dim; ++z)
        psi[z] = amp * std::exp(cd(0.0, -gamma * cut[z]));
    // e^{-i beta X} on every qubit.
    const cd c(std::cos(beta), 0.0), s(0.0, -std::sin(beta));
    for (std::int32_t q = 0; q < n; ++q) {
        const std::uint64_t bit = std::uint64_t{1} << q;
        for (std::uint64_t z = 0; z < dim; ++z) {
            if (z & bit)
                continue;
            const cd a0 = psi[z], a1 = psi[z | bit];
            psi[z] = c * a0 + s * a1;
            psi[z | bit] = s * a0 + c * a1;
        }
    }
    double expectation = 0.0;
    for (std::uint64_t z = 0; z < dim; ++z)
        expectation += std::norm(psi[z]) * cut[z];
    std::printf("%.10f\n", expectation);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench-replay check RECORDS\n"
                 "       perfbench-replay service-trace STREAM BUDGET "
                 "TRACE_OUT\n"
                 "       perfbench-replay qaoa-trace JOBS TRACE_OUT\n"
                 "       perfbench-replay env\n"
                 "       perfbench-replay dense EDGES GAMMA BETA\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "check")
            return run_check(args[1]);
        if (args.size() == 4 && args[0] == "service-trace")
            return run_service_trace(args[1], std::stoull(args[2]),
                                     args[3]);
        if (args.size() == 3 && args[0] == "qaoa-trace")
            return run_qaoa_trace(args[1], args[2]);
        if (args.size() == 1 && args[0] == "env") {
            std::printf("{\"simd\":\"%s\",\"default_threads\":%d}\n",
                        sim::simd_tier_name(sim::detected_simd_tier()),
                        common::num_threads());
            return 0;
        }
        if (args.size() == 4 && args[0] == "dense")
            return run_dense(args[1], std::stod(args[2]),
                             std::stod(args[3]));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench-replay: %s\n", e.what());
        return 1;
    }
    return usage();
}
