/**
 * @file
 * Cross-request compiled-plan cache for the compile service.
 *
 * Extends the whole-plan memoization idea of core's ScheduleCache one
 * level up: where ScheduleCache memoizes scheduling decisions inside a
 * single compile, PlanCache memoizes the entire *response fragment* —
 * QASM program, CompileReport JSON, plan summary — across requests and
 * connections, so a repeat request is served without recompiling (and
 * byte-identical to the cold response, because the stored fragment IS
 * the cold response's tail).
 *
 * Keys are exact, not hashed: the canonical key string encodes the
 * architecture fingerprint, the problem graph (explicit edges packed
 * as binary, or the random spec), and every resolved compiler option.
 * Two requests share an entry iff they would be compiled identically,
 * and collisions are impossible by construction. The key bytes are
 * negligible next to the QASM they index.
 *
 * Eviction is strict LRU under a byte budget, using the exact-footprint
 * accounting convention of the circuit memory_bytes() reports: an
 * entry's cost is its payload size plus its key size counted once per
 * index that stores it (the LRU list and the map both hold the key)
 * plus a fixed per-entry bookkeeping constant — no estimates, so the
 * cache-budget unit tests can predict eviction points exactly.
 *
 * Thread-safe: every public method takes the internal mutex. Payloads
 * are handed out as shared_ptr<const string> so a hit can be written
 * to a socket after the entry is evicted.
 */
#ifndef PERMUQ_SERVICE_PLAN_CACHE_H
#define PERMUQ_SERVICE_PLAN_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plan.h"

namespace permuq::service {

/** LRU plan cache under a byte budget (see file comment). */
class PlanCache
{
  public:
    /** Fixed bookkeeping cost charged per entry on top of the key and
     *  payload bytes (list node + map node + control blocks). */
    static constexpr std::size_t kEntryOverheadBytes = 128;

    explicit PlanCache(std::size_t byte_budget)
        : byte_budget_(byte_budget)
    {
    }

    PlanCache(const PlanCache&) = delete;
    PlanCache& operator=(const PlanCache&) = delete;

    /**
     * The cached plan for @p key (promoted to most-recently-used), or
     * nullptr on a miss. Counts a hit or a miss either way.
     */
    std::shared_ptr<const std::string> lookup(const std::string& key);

    /**
     * Store @p fragment under @p key, then evict least-recently-used
     * entries until the footprint is back under budget. An entry whose
     * own cost exceeds the whole budget is not cached at all. Inserting
     * an existing key replaces its payload (and promotes it).
     */
    void insert(const std::string& key,
                std::shared_ptr<const std::string> fragment);

    /** Exact bytes charged for one (key, payload) entry. */
    static std::size_t
    entry_bytes(const std::string& key, const std::string& fragment)
    {
        return 2 * key.size() + fragment.size() + kEntryOverheadBytes;
    }

    /**
     * Canonical cache key of @p request: the PlanRequest serialized
     * with its tier replaced by @p resolved_tier (the tier after Auto
     * resolution — the env-dependent part of the option set, resolved
     * so entries never alias across PERMUQ_TIER edits).
     */
    static std::string make_key(const core::PlanRequest& request,
                                const std::string& resolved_tier);

    std::size_t bytes() const;
    std::size_t entries() const;
    std::size_t byte_budget() const { return byte_budget_; }
    std::int64_t hits() const;
    std::int64_t misses() const;
    std::int64_t evictions() const;

  private:
    struct Entry
    {
        std::shared_ptr<const std::string> payload;
        std::size_t bytes = 0;
        /** Position in lru_ (most-recent at the front). */
        std::list<std::string>::iterator lru_pos;
    };

    void evict_to_budget_locked();

    mutable std::mutex mutex_;
    std::size_t byte_budget_;
    std::size_t bytes_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t evictions_ = 0;
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace permuq::service

#endif // PERMUQ_SERVICE_PLAN_CACHE_H
