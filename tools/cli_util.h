/**
 * @file
 * Small helpers shared by the PermuQ command-line tools (permuqc,
 * permuqd, permuq-client): the did-you-mean flag hint, the PERMUQ_*
 * env-knob report, and the plan flags permuqc and permuq-client share.
 * Header-only; tools/ is not a library.
 */
#ifndef PERMUQ_TOOLS_CLI_UTIL_H
#define PERMUQ_TOOLS_CLI_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/plan.h"

namespace permuq::tools {

/** Levenshtein distance (one-row DP). */
inline std::size_t
edit_distance(const std::string& a, const std::string& b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t cur = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
            prev = cur;
        }
    }
    return row[b.size()];
}

/** The closest known flag within 3 edits, or nullptr. */
inline const char*
closest_flag(const std::string& arg, const char* const* flags,
             std::size_t count)
{
    const char* best = nullptr;
    std::size_t best_d = 4; // hint only within 3 edits
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t d = edit_distance(arg, flags[i]);
        if (d < best_d) {
            best_d = d;
            best = flags[i];
        }
    }
    return best;
}

template <std::size_t N>
inline const char*
closest_flag(const std::string& arg, const char* const (&flags)[N])
{
    return closest_flag(arg, flags, N);
}

/** One "  NAME = value|(unset)" line per service env knob — the
 *  shared tail of every tool's --version env report. */
inline void
print_service_env_knobs(std::FILE* out)
{
    for (const char* knob :
         {"PERMUQ_SERVICE_PORT", "PERMUQ_SERVICE_QUEUE_DEPTH",
          "PERMUQ_SERVICE_CACHE_BUDGET"}) {
        const char* value = std::getenv(knob);
        std::fprintf(out, "  %-27s = %s\n", knob,
                     value ? value : "(unset)");
    }
}

/** Env-integer with default (for PERMUQ_SERVICE_* knobs). */
inline long long
env_int(const char* name, long long fallback)
{
    const char* value = std::getenv(name);
    return value != nullptr ? std::atoll(value) : fallback;
}

/** The value of the flag argv[@p i], moving @p i onto it; a missing
 *  value exits with status 2 after a message prefixed by @p tool. */
inline const char*
flag_value(const char* tool, int argc, char** argv, int& i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", tool, argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

/**
 * core::read_edge_list() of the file @p path into @p request. False
 * and @p error when the file cannot be opened or holds no edge.
 */
inline bool
read_edge_file(const std::string& path, core::PlanRequest& request,
               std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    core::read_edge_list(in, request);
    if (request.edges.empty()) {
        error = path + " holds no edge";
        return false;
    }
    return true;
}

/**
 * Apply argv[@p i] to @p request when it is one of the plan flags
 * permuqc and permuq-client share — --arch --qubits --density --seed
 * --input --tier --alpha --crosstalk --full-qaoa --shard
 * --shard-margin — moving @p i past its value; false for any other
 * flag. --input only records its path in @p input: the caller reads
 * it with read_edge_file() once every flag is in, so it wins over the
 * random spec whatever the flag order. A missing or bad value exits
 * with status 2 after a message prefixed by @p tool.
 */
inline bool
take_plan_flag(const char* tool, int argc, char** argv, int& i,
               core::PlanRequest& request, std::string& input)
{
    auto is = [&](const char* flag) {
        return std::strcmp(argv[i], flag) == 0;
    };
    auto value = [&] { return flag_value(tool, argc, argv, i); };
    if (is("--arch"))
        request.arch = value();
    else if (is("--qubits"))
        request.problem_n = std::atoi(value());
    else if (is("--density"))
        request.density = std::atof(value());
    else if (is("--seed"))
        request.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (is("--input"))
        input = value();
    else if (is("--tier")) {
        request.tier = value();
        core::CompileTier tier;
        if (!core::parse_tier(request.tier, tier)) {
            std::fprintf(stderr,
                         "%s: bad --tier %s (want "
                         "fast|balanced|best|auto)\n",
                         tool, request.tier.c_str());
            std::exit(2);
        }
    } else if (is("--alpha"))
        request.alpha = std::atof(value());
    else if (is("--crosstalk"))
        request.crosstalk = true;
    else if (is("--full-qaoa"))
        request.full_qaoa = true;
    else if (is("--shard"))
        request.shard = std::atoi(value());
    else if (is("--shard-margin"))
        request.shard_margin = std::atoi(value());
    else
        return false;
    return true;
}

} // namespace permuq::tools

#endif // PERMUQ_TOOLS_CLI_UTIL_H
