#include "svc/plan_cache.h"

#include "util/crc32c.h"
#include "util/logging.h"

namespace ct::svc {

PlanCache::PlanCache(std::size_t capacity) : cap(capacity)
{
    if (cap == 0)
        util::fatal("PlanCache: capacity must be positive");
}

std::uint32_t
PlanCache::stamp(const std::string &key, const std::string &payload)
{
    std::uint32_t state = 0xFFFFFFFFu;
    state = util::crc32cUpdate(state, key.data(), key.size());
    state = util::crc32cUpdate(state, payload.data(), payload.size());
    return state ^ 0xFFFFFFFFu;
}

void
PlanCache::unlink(Entry &e)
{
    (e.newer ? e.newer->older : newest) = e.older;
    (e.older ? e.older->newer : oldest) = e.newer;
    e.newer = e.older = nullptr;
}

void
PlanCache::pushNewest(Entry &e)
{
    e.older = newest;
    (newest ? newest->newer : oldest) = &e;
    newest = &e;
}

std::optional<std::string>
PlanCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end()) {
        ++counters.misses;
        return std::nullopt;
    }
    Entry &e = it->second;
    if (stamp(key, e.payload) != e.crc) {
        // A corrupt hit is a miss, never data: drop the entry so the
        // recomputed answer replaces it.
        ++counters.corruptHits;
        unlink(e);
        entries.erase(it);
        return std::nullopt;
    }
    unlink(e);
    pushNewest(e);
    ++counters.hits;
    return e.payload;
}

void
PlanCache::insert(const std::string &key, std::string payload)
{
    std::uint32_t crc = stamp(key, payload);
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
        // Overwrite in place (refreshing a stale entry); the write
        // is a use, so the entry also becomes the most recent.
        Entry &e = it->second;
        e.payload = std::move(payload);
        e.crc = crc;
        unlink(e);
        pushNewest(e);
        ++counters.insertions;
        return;
    }
    if (entries.size() >= cap) {
        Entry &victim = *oldest;
        unlink(victim);
        entries.erase(entries.find(*victim.key));
        ++counters.evictions;
    }
    it = entries.try_emplace(key).first;
    Entry &e = it->second;
    e.payload = std::move(payload);
    e.crc = crc;
    e.key = &it->first;
    pushNewest(e);
    ++counters.insertions;
}

bool
PlanCache::corruptBit(const std::string &key, std::uint32_t bit_index)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end() || it->second.payload.empty())
        return false;
    std::string &payload = it->second.payload;
    std::size_t bits = payload.size() * 8;
    std::size_t bit = bit_index % bits;
    payload[bit / 8] =
        static_cast<char>(static_cast<unsigned char>(payload[bit / 8]) ^
                          (1u << (bit % 8)));
    return true;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

} // namespace ct::svc
