/**
 * @file
 * The one request -> compile-inputs path every front end shares.
 *
 * permuqc, permuqd and permuq-fuzz all turn "compile this problem on
 * that architecture with these options" into the inputs of
 * core::compile(): a problem graph, a device and CompilerOptions. A
 * PlanRequest holds every field that affects the plan; plan_problem(),
 * arch::named_device() and plan_options() derive the inputs from it, so
 * a daemon response and a one-shot permuqc compile of one request are
 * one compile, not two copies kept in step. The plan cache's key is the
 * serialized PlanRequest (service/plan_cache.h).
 *
 * Each front end adds its own parts on top: permuqc custom devices,
 * baselines and noise models; permuqd the wire protocol and the cache.
 */
#ifndef PERMUQ_CORE_PLAN_H
#define PERMUQ_CORE_PLAN_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/options.h"
#include "graph/graph.h"

namespace permuq::core {

/** Every field that decides a compiled plan. */
struct PlanRequest
{
    // ----- device -----
    /** Named architecture (arch::named_devices()), sized to the
     *  problem by arch::named_device(). */
    std::string arch = "heavyhex";

    // ----- problem: either explicit edges or a random spec -----
    /** Vertex count; with explicit edges, covers every endpoint. */
    std::int32_t problem_n = 0;
    /** Explicit problem edges, used when has_edges is set. */
    std::vector<VertexPair> edges;
    bool has_edges = false;
    /** Random-graph spec: random_graph(problem_n, density, seed). */
    double density = 0.3;
    std::uint64_t seed = 1;

    // ----- compiler options -----
    /** "fast" | "balanced" | "best" | "auto". */
    std::string tier = "auto";
    double alpha = 0.5;
    bool crosstalk = false;
    std::int32_t shard = 0;
    std::int32_t shard_margin = 0;
    /** QASM emission includes the H prelude, mixer, measures. */
    bool full_qaoa = false;
};

/**
 * The problem graph of @p request. With explicit edges: problem_n
 * vertices and the edges in input order, self-loops and repeats
 * dropped. Otherwise problem::random_graph(problem_n, density, seed).
 */
graph::Graph plan_problem(const PlanRequest& request);

/**
 * The compiler options @p request sets: the tier ("auto" stays Auto,
 * for compile() to resolve), alpha, crosstalk awareness and sharding;
 * every other field keeps its default. Throws std::invalid_argument
 * for an unknown tier name.
 */
CompilerOptions plan_options(const PlanRequest& request);

/**
 * Read a text edge list into @p request's explicit problem: one "u v"
 * pair of 0-based vertex ids per line, '#' starting a comment, lines
 * without a pair skipped. The edges keep their input order, self-loops
 * and repeats included (plan_problem() drops them), has_edges is set
 * and problem_n becomes 1 + the largest id (0 when no line has a pair).
 */
void read_edge_list(std::istream& in, PlanRequest& request);

} // namespace permuq::core

#endif // PERMUQ_CORE_PLAN_H
