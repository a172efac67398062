#include "svc/plan_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace svc = ct::svc;

TEST(PlanCache, HitReturnsExactPayload)
{
    svc::PlanCache cache(4);
    EXPECT_FALSE(cache.lookup("k"));
    cache.insert("k", "payload");
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload");

    svc::PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.corruptHits, 0u);
}

TEST(PlanCache, CorruptEntryIsDetectedCountedAndDropped)
{
    svc::PlanCache cache(4);
    cache.insert("k", "payload");
    ASSERT_TRUE(cache.corruptBit("k", 3));

    // The flipped entry must never be served: the lookup reports a
    // miss, counts the corruption, and evicts the entry.
    EXPECT_FALSE(cache.lookup("k"));
    EXPECT_EQ(cache.stats().corruptHits, 1u);
    EXPECT_EQ(cache.size(), 0u);

    // Recomputation then repopulates with a fresh stamp.
    cache.insert("k", "payload");
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload");
}

TEST(PlanCache, BitIndexWrapsPayloadLength)
{
    svc::PlanCache cache(4);
    cache.insert("k", "x"); // 8 bits
    ASSERT_TRUE(cache.corruptBit("k", 8 * 1000 + 2));
    EXPECT_FALSE(cache.lookup("k"));
    EXPECT_FALSE(cache.corruptBit("absent", 0));
}

TEST(PlanCache, OverwriteRefreshesStamp)
{
    svc::PlanCache cache(4);
    cache.insert("k", "old");
    cache.insert("k", "new");
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "new");
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, FifoEvictionPastCapacity)
{
    svc::PlanCache cache(2);
    cache.insert("a", "1");
    cache.insert("b", "2");
    // Nothing is looked up between the inserts, so the oldest entry
    // is also the least recently used: "c" evicts "a".
    cache.insert("c", "3");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup("a"));
    EXPECT_TRUE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("c"));
}

TEST(PlanCache, KeySwapIsCorruption)
{
    // The stamp covers the key: two entries with swapped payloads
    // must not verify. Simulate by corrupting one and confirming the
    // other entry's integrity is independent.
    svc::PlanCache cache(4);
    cache.insert("a", "payload-a");
    cache.insert("b", "payload-b");
    ASSERT_TRUE(cache.corruptBit("a", 0));
    EXPECT_FALSE(cache.lookup("a"));
    auto b = cache.lookup("b");
    ASSERT_TRUE(b);
    EXPECT_EQ(*b, "payload-b");
}

TEST(PlanCache, HitRefreshesRecency)
{
    svc::PlanCache cache(2);
    cache.insert("a", "1");
    cache.insert("b", "2");
    ASSERT_TRUE(cache.lookup("a")); // "a" is now the most recent
    cache.insert("c", "3");         // so "b" is evicted
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("a"));
    EXPECT_TRUE(cache.lookup("c"));
}

TEST(PlanCache, OverwriteRefreshesRecency)
{
    svc::PlanCache cache(2);
    cache.insert("a", "1");
    cache.insert("b", "2");
    cache.insert("a", "1'"); // an overwrite is a use too
    cache.insert("c", "3");
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup("b"));
    auto a = cache.lookup("a");
    ASSERT_TRUE(a);
    EXPECT_EQ(*a, "1'");
    EXPECT_TRUE(cache.lookup("c"));
}

TEST(PlanCache, CorruptDropFreesItsSlot)
{
    svc::PlanCache cache(2);
    cache.insert("a", "1");
    cache.insert("b", "2");
    ASSERT_TRUE(cache.corruptBit("a", 0));
    EXPECT_FALSE(cache.lookup("a"));
    EXPECT_EQ(cache.size(), 1u);

    // The dropped entry's slot is free: this insert evicts nothing.
    cache.insert("c", "3");
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("c"));

    // Nor does it linger in the eviction order: the next eviction
    // removes a live entry and the cache stays at capacity.
    cache.insert("d", "4");
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("c"));
    EXPECT_TRUE(cache.lookup("d"));
}

TEST(PlanCache, ConcurrentMixedCallsKeepEveryContract)
{
    // Every hit moves its entry, so lookups write: hammer lookup,
    // insert and corruptBit from several threads over more keys than
    // entries (the tsan CI leg runs this suite).
    constexpr int kThreads = 4;
    constexpr int kCalls = 20000;
    constexpr int kKeys = 16;
    constexpr std::size_t kCapacity = 8;
    svc::PlanCache cache(kCapacity);
    std::vector<std::string> keys, payloads;
    for (int k = 0; k < kKeys; ++k) {
        keys.push_back(std::to_string(k));
        payloads.push_back("payload-of-key-" + keys.back());
    }

    std::atomic<std::uint64_t> lookups{0};
    std::atomic<int> wrongPayloads{0};
    std::atomic<int> overCapacity{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ct::util::Rng rng(t + 1);
            for (int i = 0; i < kCalls; ++i) {
                std::size_t k = rng.nextBelow(kKeys);
                const std::string &key = keys[k];
                switch (rng.nextBelow(8)) {
                  case 0:
                    cache.corruptBit(key, static_cast<std::uint32_t>(
                                              rng.nextBelow(1u << 20)));
                    break;
                  case 1:
                  case 2:
                  case 3:
                    cache.insert(key, payloads[k]);
                    break;
                  default:
                    lookups.fetch_add(1);
                    if (auto hit = cache.lookup(key);
                        hit && *hit != payloads[k])
                        wrongPayloads.fetch_add(1);
                    break;
                }
                if (cache.size() > kCapacity)
                    overCapacity.fetch_add(1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(wrongPayloads.load(), 0);
    EXPECT_EQ(overCapacity.load(), 0);
    svc::PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses + s.corruptHits, lookups.load());
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.corruptHits, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(cache.size(), kCapacity);
}
