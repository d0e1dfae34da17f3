#include "distance.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace permuq::graph {

DistanceMatrix::DistanceMatrix(const Graph& g)
    : n_(static_cast<std::size_t>(g.num_vertices()))
{
    // One BFS per source row over the flattened adjacency. The row
    // under construction is its own visited set (kRawUnreachable =
    // not reached yet), and one queue array serves every source.
    table_.assign(n_ * n_, kRawUnreachable);
    const FlatAdjacency adj(g);
    std::vector<std::int32_t> queue(n_);
    for (std::size_t s = 0; s < n_; ++s) {
        std::uint16_t* row = table_.data() + s * n_;
        row[s] = 0;
        queue[0] = static_cast<std::int32_t>(s);
        std::size_t tail = 1;
        for (std::size_t head = 0; head < tail; ++head) {
            const std::int32_t v = queue[head];
            const std::int32_t next = row[static_cast<std::size_t>(v)] + 1;
            for (const std::int32_t* w = adj.neighbors_begin(v);
                 w != adj.neighbors_end(v); ++w) {
                std::uint16_t& entry = row[static_cast<std::size_t>(*w)];
                if (entry != kRawUnreachable)
                    continue;
                if (next >= kRawUnreachable)
                    throw PanicError("distance between vertices (" +
                                     std::to_string(s) + "," +
                                     std::to_string(*w) +
                                     ") exceeds 16-bit storage");
                entry = static_cast<std::uint16_t>(next);
                queue[tail++] = *w;
            }
        }
    }
}

std::int32_t
DistanceMatrix::diameter() const
{
    std::int32_t best = 0;
    for (std::size_t i = 0; i < n_ * n_; ++i)
        if (table_[i] != kRawUnreachable)
            best = std::max(best, static_cast<std::int32_t>(table_[i]));
    return best;
}

FlatAdjacency::FlatAdjacency(const Graph& g)
{
    const std::int32_t n = g.num_vertices();
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    neighbors_.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
    for (std::int32_t v = 0; v < n; ++v) {
        for (std::int32_t w : g.neighbors(v))
            neighbors_.push_back(w);
        offsets_[static_cast<std::size_t>(v) + 1] =
            static_cast<std::int32_t>(neighbors_.size());
    }
}

BfsOracle::BfsOracle(const FlatAdjacency& adj)
    : adj_(&adj),
      dist_(static_cast<std::size_t>(adj.num_vertices()), kUnreachable)
{
    queue_.reserve(dist_.size());
}

const std::vector<std::int32_t>&
BfsOracle::distances_from(std::int32_t source, std::int32_t target)
{
    fatal_unless(source >= 0 && source < adj_->num_vertices(),
                 "BFS source out of range");
    fatal_unless(target >= -1 && target < adj_->num_vertices(),
                 "BFS target out of range");
    // Only the vertices the last query queued hold a distance, so
    // resetting them costs what that query visited, not the fabric.
    for (std::int32_t v : queue_)
        dist_[static_cast<std::size_t>(v)] = kUnreachable;
    queue_.clear();
    dist_[static_cast<std::size_t>(source)] = 0;
    queue_.push_back(source);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        std::int32_t v = queue_[head];
        if (v == target)
            break;
        std::int32_t next = dist_[static_cast<std::size_t>(v)] + 1;
        for (const std::int32_t* w = adj_->neighbors_begin(v);
             w != adj_->neighbors_end(v); ++w) {
            if (dist_[static_cast<std::size_t>(*w)] == kUnreachable) {
                dist_[static_cast<std::size_t>(*w)] = next;
                queue_.push_back(*w);
            }
        }
    }
    return dist_;
}

} // namespace permuq::graph
