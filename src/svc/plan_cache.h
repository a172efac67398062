/**
 * @file
 * Memoized answer cache of the planning service. Entries are keyed
 * on the canonical query key (core::canonicalQueryKey -- equivalent
 * queries share one entry however they were spelled) and stamped
 * with a CRC32C over key + payload at insertion. Every lookup
 * re-verifies the stamp: a corrupt entry is treated as a miss,
 * counted, and evicted so the recomputed answer replaces it -- a
 * flipped bit in the cache must never reach a client.
 *
 * Capacity is bounded; insertion past capacity evicts the least
 * recently used entry (a verified hit and an overwrite both count as
 * a use). Recency is what keeps the expensive answers: storm-shaped
 * traffic cycles a few sim keys, each worth a whole simulation,
 * through Zipf-distributed plan keys that overflow the cache. In a
 * key-level model of that stream at most 220 distinct keys (median
 * 196) come between two uses of a sim key, fewer than the default
 * 256 entries, so under LRU a sim key misses only on its first
 * request; FIFO drops every key 256 insertions after it was stored,
 * however often it hit, and serves only 0.51 of sim lookups. With
 * one caller (workers = 0) eviction is a pure function of the
 * request stream; under a pool, whether a lookup hits depends on
 * scheduling under any policy, so hits and misses show only in
 * svc.cache.* metrics, never in response bytes.
 *
 * Thread-safe: one mutex over the map and the recency list (every
 * lookup writes, since a hit moves its entry to the front; lookups
 * copy the payload out under the lock; the service's unit of work is
 * a whole simulation, so the cache lock is never the bottleneck).
 * Lookup, insert, eviction and the corrupt-entry drop are O(1). The
 * recency list is threaded through the entries themselves, so an
 * insertion allocates only its map node and its key.
 */

#ifndef CT_SVC_PLAN_CACHE_H
#define CT_SVC_PLAN_CACHE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace ct::svc {

/** Counters of one cache's lifetime (see svc.cache.* metrics). */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Lookups whose stored checksum no longer matched: served as a
     *  miss, never as data. */
    std::uint64_t corruptHits = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
};

/** Bounded, checksummed memoization cache (see file comment). */
class PlanCache
{
  public:
    explicit PlanCache(std::size_t capacity = 256);

    /**
     * Look @p key up. Returns the stored payload on a verified hit,
     * which also makes the entry the most recently used; nullopt on
     * miss *or* on checksum mismatch (the corrupt entry is dropped
     * and counted).
     */
    std::optional<std::string> lookup(const std::string &key);

    /** Insert/overwrite @p key -> @p payload, CRC-stamping it and
     *  making it the most recently used entry. */
    void insert(const std::string &key, std::string payload);

    /**
     * Chaos hook: flip bit @p bit_index (mod payload bits) of the
     * entry stored under @p key, *without* refreshing its stamp.
     * Returns false when the key is absent. Deterministic corruption
     * for self-chaos campaigns and tests.
     */
    bool corruptBit(const std::string &key, std::uint32_t bit_index);

    PlanCacheStats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return cap; }

  private:
    struct Entry
    {
        std::string payload;
        std::uint32_t crc = 0;
        /** This entry's key: its map node's, which no rehash moves. */
        const std::string *key = nullptr;
        /** Neighbours in recency order; null past either end. */
        Entry *newer = nullptr;
        Entry *older = nullptr;
    };

    /** Stamp covering the key too, so a payload swapped between two
     *  entries is detected as corruption, not served. */
    static std::uint32_t stamp(const std::string &key,
                               const std::string &payload);

    /** Take @p e out of the recency list. */
    void unlink(Entry &e);
    /** Make @p e the most recently used entry. */
    void pushNewest(Entry &e);

    mutable std::mutex mu;
    std::size_t cap;
    std::unordered_map<std::string, Entry> entries;
    /** Ends of the recency list: the oldest is evicted next. */
    Entry *newest = nullptr;
    Entry *oldest = nullptr;
    PlanCacheStats counters;
};

} // namespace ct::svc

#endif // CT_SVC_PLAN_CACHE_H
