/**
 * @file
 * Shortest-path distances on unweighted graphs.
 *
 * The coupling graph needs all-pairs distances for the A* heuristic
 * (paper Eq. 2) and for greedy SWAP gain computation; a 1024-vertex
 * chip needs a 1M-entry table which fits comfortably as 16-bit values.
 */
#ifndef PERMUQ_GRAPH_DISTANCE_H
#define PERMUQ_GRAPH_DISTANCE_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace permuq::graph {

/**
 * Dense all-pairs distance table: one BFS per source row over a
 * FlatAdjacency, writing each distance straight into the row's 16-bit
 * entry, with one queue reused for every source. Entries are exact
 * distances up to 65534; 65535 encodes "unreachable". A longer
 * distance panics, which needs at least 65 536 vertices (a distance
 * is at most n - 1).
 */
class DistanceMatrix
{
  public:
    DistanceMatrix() = default;

    /** Build the table for @p g (O(n * (n + m)) time, n^2 entries). */
    explicit DistanceMatrix(const Graph& g);

    /** Distance between u and v; kUnreachable if disconnected. */
    std::int32_t
    at(std::int32_t u, std::int32_t v) const
    {
        std::uint16_t raw =
            table_[static_cast<std::size_t>(u) * n_ +
                   static_cast<std::size_t>(v)];
        return raw == kRawUnreachable ? kUnreachable
                                      : static_cast<std::int32_t>(raw);
    }

    /**
     * Raw row of distances from @p u, one entry per target vertex.
     * Entries are encoded; pass each through decode() (an entry of
     * kRawUnreachable marks a disconnected pair). Row-wise iteration
     * is the cache-friendly access pattern for the placement and A*
     * hot loops, which would otherwise call at() column-major.
     */
    const std::uint16_t*
    row(std::int32_t u) const
    {
        return table_.data() + static_cast<std::size_t>(u) * n_;
    }

    /** Decode one raw row entry into a distance (or kUnreachable). */
    static std::int32_t
    decode(std::uint16_t raw)
    {
        return raw == kRawUnreachable ? kUnreachable
                                      : static_cast<std::int32_t>(raw);
    }

    /** Number of vertices the table covers. */
    std::int32_t num_vertices() const { return static_cast<std::int32_t>(n_); }

    /** Largest finite pairwise distance (graph diameter). */
    std::int32_t diameter() const;

    /** Raw encoding of "unreachable" in row() entries. */
    static constexpr std::uint16_t kRawUnreachable = 0xffff;

  private:
    std::size_t n_ = 0;
    std::vector<std::uint16_t> table_;
};

/**
 * Int32-indexed CSR adjacency: the whole graph flattened into two
 * arrays (offsets + neighbor ids), with neighbors of each vertex in
 * ascending order. A 100k-qubit fabric is ~200k edges = ~1.6 MB here,
 * versus ~20 GB for a dense DistanceMatrix — this is the adjacency
 * representation every fabric-scale path must use.
 */
class FlatAdjacency
{
  public:
    FlatAdjacency() = default;

    /** Flatten @p g (neighbors already sorted by Graph's invariant). */
    explicit FlatAdjacency(const Graph& g);

    std::int32_t
    num_vertices() const
    {
        return static_cast<std::int32_t>(offsets_.size()) - 1;
    }

    /** Degree of @p v. */
    std::int32_t
    degree(std::int32_t v) const
    {
        return offsets_[static_cast<std::size_t>(v) + 1] -
               offsets_[static_cast<std::size_t>(v)];
    }

    /** Pointer to the first neighbor of @p v (ascending order). */
    const std::int32_t*
    neighbors_begin(std::int32_t v) const
    {
        return neighbors_.data() + offsets_[static_cast<std::size_t>(v)];
    }

    const std::int32_t*
    neighbors_end(std::int32_t v) const
    {
        return neighbors_.data() +
               offsets_[static_cast<std::size_t>(v) + 1];
    }

    /** Exact heap bytes held by the two flat arrays. */
    std::size_t
    memory_bytes() const
    {
        return offsets_.capacity() * sizeof(std::int32_t) +
               neighbors_.capacity() * sizeof(std::int32_t);
    }

  private:
    std::vector<std::int32_t> offsets_{0};
    std::vector<std::int32_t> neighbors_;
};

/**
 * On-demand single-source BFS distances over a FlatAdjacency, with an
 * optional early exit at a target. Memory is O(n) scratch reused
 * across queries (never a dense n^2 table), so it scales to 100k-qubit
 * fabrics. Not thread-safe: each thread owns its own oracle.
 */
class BfsOracle
{
  public:
    /** @p adj must outlive the oracle. */
    explicit BfsOracle(const FlatAdjacency& adj);

    /**
     * Distance row from @p source, one entry per vertex. With no
     * @p target (-1) the BFS runs to completion: every entry is exact,
     * kUnreachable for disconnected vertices. With a @p target the BFS
     * stops once it dequeues @p target: every vertex no farther from
     * @p source than @p target holds its exact distance, and every
     * other entry holds its exact distance or kUnreachable. The
     * returned reference is the internal scratch row, valid until the
     * next query.
     */
    const std::vector<std::int32_t>& distances_from(std::int32_t source,
                                                    std::int32_t target = -1);

  private:
    const FlatAdjacency* adj_;
    /** Scratch distance row: kUnreachable except at the vertices
     *  queue_ holds from the last query. */
    std::vector<std::int32_t> dist_;
    std::vector<std::int32_t> queue_;
};

} // namespace permuq::graph

#endif // PERMUQ_GRAPH_DISTANCE_H
