/**
 * @file
 * The interactive fast tier (CompileTier::Fast): a single-pass,
 * search-free compilation pipeline for latency-bound callers
 * (ROADMAP item 3; Coqa-style pattern-driven compilation).
 *
 * Pipeline: an O(n + E) BFS-locality initial placement (the
 * problem's BFS order mapped onto the device's BFS order, so
 * neighboring logical qubits land in the same physical neighborhood
 * without any distance-table scans or annealing), a bounded greedy
 * scheduling burst using first-fit independent sets over the
 * executable-edge frontier (no conflict-graph coloring, no weighted
 * matching, no per-cycle allocation), then one ATA-tail replay to
 * finish the remaining gates with the linear-depth bound. No
 * multi-start, no snapshot/restore, no candidate selector.
 *
 * Output contract: deterministic (fully sequential — trivially
 * thread-count invariant) and verifiable — every fast-tier plan
 * passes Tier B symbolic equivalence and circuit::validate() on
 * every supported topology. Custom (irregular) devices have no ATA
 * decomposition, so compile() falls back to the balanced tier there
 * (counted by permuq.compile.fast.fallback).
 */
#ifndef PERMUQ_CORE_FAST_TIER_H
#define PERMUQ_CORE_FAST_TIER_H

#include "arch/coupling_graph.h"
#include "core/compiler.h"
#include "core/options.h"
#include "graph/graph.h"

namespace permuq::core {

/** True when the fast tier has a native pipeline for @p device
 *  (every regular architecture; Custom falls back to Balanced). */
bool fast_tier_supported(const arch::CouplingGraph& device);

/**
 * Compile @p problem with the single-pass fast pipeline. Requires
 * fast_tier_supported(device); compile() enforces the fallback.
 */
CompileResult fast_compile(const arch::CouplingGraph& device,
                           const graph::Graph& problem,
                           const CompilerOptions& options);

} // namespace permuq::core

#endif // PERMUQ_CORE_FAST_TIER_H
