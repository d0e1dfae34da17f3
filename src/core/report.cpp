/**
 * @file
 * CompileReport serialization and op-stream attribution.
 */
#include "core/report.h"

#include <cstdio>

#include "circuit/circuit.h"

namespace permuq::core {

namespace {

void
json_string_into(std::string& out, const std::string& s)
{
    out += '"';
    for (char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    out += '"';
}

void
field(std::string& out, const char* key, std::int64_t v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\": %lld", key,
                  static_cast<long long>(v));
    out += buf;
}

void
field(std::string& out, const char* key, double v)
{
    char buf[80];
    std::snprintf(buf, sizeof buf, "\"%s\": %.9g", key, v);
    out += buf;
}

void
field(std::string& out, const char* key, const std::string& v)
{
    out += '"';
    out += key;
    out += "\": ";
    json_string_into(out, v);
}

} // namespace

std::string
CompileReport::to_json() const
{
    std::string out;
    out.reserve(2048);
    out += "{\n  \"permuq_report\": 1,\n  ";
    field(out, "tier_requested", tier_requested);
    out += ",\n  ";
    field(out, "tier_served", tier_served);
    out += ",\n  ";
    field(out, "fallback_reason", fallback_reason);
    out += ",\n  ";
    field(out, "selected", selected);
    out += ",\n  ";
    field(out, "problem_qubits",
          static_cast<std::int64_t>(problem_qubits));
    out += ",\n  ";
    field(out, "problem_edges", problem_edges);
    out += ",\n  ";
    field(out, "device_qubits",
          static_cast<std::int64_t>(device_qubits));
    out += ",\n  ";
    field(out, "trials", static_cast<std::int64_t>(trials));
    out += ",\n  ";
    field(out, "snapshots", static_cast<std::int64_t>(snapshots));
    out += ",\n  ";
    field(out, "candidates", static_cast<std::int64_t>(candidates));
    out += ",\n  \"phase_seconds\": {";
    field(out, "setup", setup_seconds);
    out += ", ";
    field(out, "placement", placement_seconds);
    out += ", ";
    field(out, "greedy", greedy_seconds);
    out += ", ";
    field(out, "materialize", materialize_seconds);
    out += ", ";
    field(out, "stitch", stitch_seconds);
    out += ", ";
    field(out, "total", total_seconds);
    out += "},\n  \"prefix\": {";
    field(out, "ops", prefix_ops);
    out += ", ";
    field(out, "swaps", prefix_swaps);
    out += ", ";
    field(out, "computes", prefix_computes);
    out += ", ";
    field(out, "depth", prefix_depth);
    out += "},\n  \"tail\": {";
    field(out, "swaps", tail_swaps);
    out += ", ";
    field(out, "computes", tail_computes);
    out += ", ";
    field(out, "depth", tail_depth);
    out += ", ";
    field(out, "ata_rounds", static_cast<std::int64_t>(ata_rounds));
    out += ", \"rounds\": [";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += '{';
        field(out, "swaps", rounds[i].swaps);
        out += ", ";
        field(out, "computes", rounds[i].computes);
        out += '}';
    }
    out += "]},\n  \"caches\": {";
    field(out, "schedule_hits", schedule_cache_hits);
    out += ", ";
    field(out, "schedule_misses", schedule_cache_misses);
    out += ", ";
    field(out, "pull_hits", pull_cache_hits);
    out += ", ";
    field(out, "pull_misses", pull_cache_misses);
    out += "},\n  \"shard\": {";
    field(out, "regions", static_cast<std::int64_t>(shard_regions));
    out += ", ";
    field(out, "stitched_edges", stitched_edges);
    out += ", ";
    field(out, "stitch_swaps", stitch_swaps);
    out += ", ";
    field(out, "stitch_depth", stitch_depth);
    out += ", \"bands\": [";
    for (std::size_t i = 0; i < bands.size(); ++i) {
        const Band& b = bands[i];
        if (i != 0)
            out += ", ";
        out += "\n    {";
        field(out, "index", static_cast<std::int64_t>(b.index));
        out += ", ";
        field(out, "qubits", static_cast<std::int64_t>(b.qubits));
        out += ", ";
        field(out, "edges", b.edges);
        out += ", ";
        field(out, "depth", b.depth);
        out += ", ";
        field(out, "swaps", b.swaps);
        out += ", ";
        field(out, "cx", b.cx);
        out += ", ";
        field(out, "seconds", b.seconds);
        out += ", ";
        field(out, "selected", b.selected);
        out += ", ";
        field(out, "tier", b.tier);
        out += '}';
    }
    out += "]},\n  \"sweep\": {";
    field(out, "points", sweep.points);
    out += ", ";
    field(out, "batch", static_cast<std::int64_t>(sweep.batch));
    out += ", ";
    field(out, "layers", static_cast<std::int64_t>(sweep.layers));
    out += ", ";
    field(out, "mode", sweep.mode);
    out += ", ";
    field(out, "best_gamma", sweep.best_gamma);
    out += ", ";
    field(out, "best_beta", sweep.best_beta);
    out += ", ";
    field(out, "best_value", sweep.best_value);
    out += ", ";
    field(out, "seconds", sweep.seconds);
    out += ", ";
    field(out, "points_per_sec", sweep.points_per_sec);
    out += ", ";
    field(out, "memory_bytes", sweep.memory_bytes);
    out += ", ";
    field(out, "problems", static_cast<std::int64_t>(sweep.problems));
    out += ", ";
    field(out, "problems_in_flight",
          static_cast<std::int64_t>(sweep.problems_in_flight));
    out += ", ";
    field(out, "peak_memory_bytes", sweep.peak_memory_bytes);
    out += "},\n  \"result\": {";
    field(out, "depth", depth);
    out += ", ";
    field(out, "cx_count", cx_count);
    out += ", ";
    field(out, "swap_count", swap_count);
    out += ", ";
    field(out, "fidelity", fidelity);
    out += "}\n}\n";
    return out;
}

void
attribute_prefix_tail(const circuit::Circuit& circuit,
                      std::int64_t prefix_ops, CompileReport& report)
{
    const auto& ops = circuit.ops();
    const std::int64_t count = static_cast<std::int64_t>(ops.size());
    if (prefix_ops < 0)
        prefix_ops = 0;
    if (prefix_ops > count)
        prefix_ops = count;

    report.prefix_ops = prefix_ops;
    report.prefix_swaps = 0;
    report.prefix_computes = 0;
    report.prefix_depth = 0;
    report.tail_swaps = 0;
    report.tail_computes = 0;
    report.ata_rounds = 0;
    report.rounds.clear();

    for (std::int64_t i = 0; i < prefix_ops; ++i) {
        const auto& op = ops[static_cast<std::size_t>(i)];
        if (op.kind == circuit::OpKind::Swap)
            ++report.prefix_swaps;
        else
            ++report.prefix_computes;
        report.prefix_depth =
            std::max(report.prefix_depth,
                     static_cast<std::int64_t>(op.cycle) + 1);
    }
    report.tail_depth =
        static_cast<std::int64_t>(circuit.depth()) - report.prefix_depth;

    // Tail rounds: the replay emits each ATA round as one SWAP phase
    // followed by the compute phase it enables, so a Compute->SWAP
    // transition in append order starts a new round.
    bool in_round = false;
    bool last_was_compute = true;
    CompileReport::AtaRound cur;
    auto close_round = [&] {
        if (!in_round)
            return;
        ++report.ata_rounds;
        if (report.rounds.size() < CompileReport::kMaxAtaRounds)
            report.rounds.push_back(cur);
        cur = {};
    };
    for (std::int64_t i = prefix_ops; i < count; ++i) {
        const auto& op = ops[static_cast<std::size_t>(i)];
        if (op.kind == circuit::OpKind::Swap) {
            ++report.tail_swaps;
            if (last_was_compute)
                close_round();
            in_round = true;
            ++cur.swaps;
            last_was_compute = false;
        } else {
            ++report.tail_computes;
            in_round = true;
            ++cur.computes;
            last_was_compute = true;
        }
    }
    close_round();
}

} // namespace permuq::core
