#include "service/plan_cache.h"

#include <cstdio>

namespace permuq::service {

std::shared_ptr<const std::string>
PlanCache::lookup(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.payload;
}

void
PlanCache::insert(const std::string& key,
                  std::shared_ptr<const std::string> fragment)
{
    if (!fragment)
        return;
    const std::size_t cost = entry_bytes(key, *fragment);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= it->second.bytes;
        it->second.payload = std::move(fragment);
        it->second.bytes = cost;
        bytes_ += cost;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        evict_to_budget_locked();
        return;
    }
    if (cost > byte_budget_)
        return; // would evict everything and still not fit
    lru_.push_front(key);
    Entry entry;
    entry.payload = std::move(fragment);
    entry.bytes = cost;
    entry.lru_pos = lru_.begin();
    entries_.emplace(key, std::move(entry));
    bytes_ += cost;
    evict_to_budget_locked();
}

void
PlanCache::evict_to_budget_locked()
{
    while (bytes_ > byte_budget_ && !lru_.empty()) {
        const std::string& victim = lru_.back();
        auto it = entries_.find(victim);
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
    }
}

std::size_t
PlanCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

std::size_t
PlanCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::int64_t
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::int64_t
PlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::int64_t
PlanCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::string
PlanCache::make_key(const core::PlanRequest& request,
                    const std::string& resolved_tier)
{
    char buf[64];
    std::string key = "arch=" + request.arch;
    key += ";n=" + std::to_string(request.problem_n);
    if (request.has_edges) {
        // Pack edges as raw little-endian int32 pairs: exact, compact,
        // and std::string carries embedded NULs without complaint.
        key += ";edges=";
        key.reserve(key.size() + request.edges.size() * 8);
        for (const auto& edge : request.edges)
            for (const std::int32_t v : {edge.a, edge.b})
                for (int shift = 0; shift < 32; shift += 8)
                    key.push_back(
                        static_cast<char>((v >> shift) & 0xFF));
    } else {
        std::snprintf(buf, sizeof buf, ";density=%.17g;seed=%llu",
                      request.density,
                      static_cast<unsigned long long>(request.seed));
        key += buf;
    }
    key += ";tier=" + resolved_tier;
    std::snprintf(buf, sizeof buf, ";alpha=%.17g", request.alpha);
    key += buf;
    key += ";crosstalk=";
    key += request.crosstalk ? '1' : '0';
    key += ";shard=" + std::to_string(request.shard);
    key += ";margin=" + std::to_string(request.shard_margin);
    key += ";full_qaoa=";
    key += request.full_qaoa ? '1' : '0';
    return key;
}

} // namespace permuq::service
