#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sweep/farm.h"

namespace {

using namespace ct;
using sweep::Farm;
using sweep::FarmOptions;

TEST(Farm, InlineModeRunsOnTheCallingThread)
{
    Farm farm(FarmOptions{0, 0});
    std::thread::id caller = std::this_thread::get_id();
    std::size_t ran = 0;
    farm.forEach(10, [&](std::size_t, int worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0);
        ++ran;
    });
    EXPECT_EQ(ran, 10u);
    EXPECT_EQ(farm.stats().steals, 0u);
}

TEST(Farm, ForEachRunsEveryIndexExactlyOnce)
{
    Farm farm(FarmOptions{4, 0});
    std::vector<std::atomic<int>> hits(1000);
    farm.forEach(hits.size(),
                 [&](std::size_t i, int) { hits[i].fetch_add(1); });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(farm.stats().cellsRun, 1000u);
}

TEST(Farm, MapMergesInCanonicalOrder)
{
    Farm farm(FarmOptions{8, 1});
    std::vector<std::size_t> out = farm.map<std::size_t>(
        100, [](std::size_t i, int) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Farm, GrainOneMakesOneChunkPerCell)
{
    Farm farm(FarmOptions{2, 1});
    farm.forEach(50, [](std::size_t, int) {});
    EXPECT_EQ(farm.stats().cellsRun, 50u);
    EXPECT_EQ(farm.stats().chunks, 50u);
}

TEST(Farm, WorkerIdsStayInRange)
{
    Farm farm(FarmOptions{3, 0});
    std::atomic<bool> out_of_range{false};
    farm.forEach(64, [&](std::size_t, int worker) {
        if (worker < 0 || worker >= 3)
            out_of_range = true;
    });
    EXPECT_FALSE(out_of_range.load());
}

TEST(Farm, FarmIsReusableAcrossBatches)
{
    Farm farm(FarmOptions{4, 0});
    std::atomic<std::size_t> count{0};
    farm.forEach(20, [&](std::size_t, int) { ++count; });
    farm.forEach(30, [&](std::size_t, int) { ++count; });
    EXPECT_EQ(count.load(), 50u);
    EXPECT_EQ(farm.stats().cellsRun, 50u);
}

TEST(Farm, PostedTasksFinishBeforeWaitPostedReturns)
{
    Farm farm(FarmOptions{4, 0});
    std::atomic<std::size_t> count{0};
    for (int i = 0; i < 64; ++i)
        farm.post([&](int) { ++count; });
    farm.waitPosted();
    EXPECT_EQ(count.load(), 64u);
    EXPECT_EQ(farm.stats().posted, 64u);
}

TEST(Farm, InlinePostExecutesImmediately)
{
    Farm farm(FarmOptions{0, 0});
    int count = 0;
    farm.post([&](int worker) {
        EXPECT_EQ(worker, 0);
        ++count;
    });
    EXPECT_EQ(count, 1);
}

TEST(Farm, DestructorDrainsPostedTasks)
{
    std::atomic<std::size_t> count{0};
    {
        Farm farm(FarmOptions{2, 0});
        for (int i = 0; i < 16; ++i)
            farm.post([&](int) { ++count; });
    }
    EXPECT_EQ(count.load(), 16u);
}

TEST(ParseThreadCount, AcceptsTheFullRange)
{
    int threads = 0;
    std::string error;
    EXPECT_TRUE(sweep::parseThreadCount("1", threads, error));
    EXPECT_EQ(threads, 1);
    EXPECT_TRUE(sweep::parseThreadCount("8", threads, error));
    EXPECT_EQ(threads, 8);
    EXPECT_TRUE(sweep::parseThreadCount("256", threads, error));
    EXPECT_EQ(threads, 256);
}

TEST(ParseThreadCount, RejectsZero)
{
    int threads = 0;
    std::string error;
    EXPECT_FALSE(sweep::parseThreadCount("0", threads, error));
    EXPECT_NE(error.find(">= 1"), std::string::npos) << error;
}

TEST(ParseThreadCount, RejectsNonNumericText)
{
    int threads = 0;
    std::string error;
    EXPECT_FALSE(sweep::parseThreadCount("abc", threads, error));
    EXPECT_NE(error.find("decimal integer"), std::string::npos)
        << error;
    EXPECT_FALSE(sweep::parseThreadCount("2x", threads, error));
    EXPECT_FALSE(sweep::parseThreadCount("", threads, error));
    EXPECT_FALSE(sweep::parseThreadCount("-3", threads, error));
    // Digits only: ctplan --threads and BENCH_THREADS share this
    // parser, so neither may accept a sign or surrounding space.
    for (const char *text : {"+4", " 4", "4 "}) {
        EXPECT_FALSE(sweep::parseThreadCount(text, threads, error))
            << text;
        EXPECT_NE(error.find("decimal integer"), std::string::npos)
            << text << ": " << error;
    }
}

TEST(ParseThreadCount, RejectsOversubscription)
{
    int threads = 0;
    std::string error;
    EXPECT_FALSE(sweep::parseThreadCount("257", threads, error));
    EXPECT_NE(error.find("oversubscription"), std::string::npos)
        << error;
    EXPECT_FALSE(sweep::parseThreadCount("1000", threads, error));
    EXPECT_FALSE(sweep::parseThreadCount("99999999999999999999999",
                                         threads, error));
    EXPECT_NE(error.find("oversubscription"), std::string::npos)
        << error;
}

// The worker-loan API behind sim::ParallelEngine: run n bodies at
// grain 1 and block until all complete.
TEST(Farm, RunBatchExecutesEveryIndexOnce)
{
    sweep::FarmOptions opts;
    opts.threads = 4;
    sweep::Farm farm(opts);
    constexpr std::size_t kN = 300;
    std::vector<std::atomic<int>> hits(kN);
    std::vector<std::atomic<int>> byWorker(4);
    farm.runBatch(kN, [&](std::size_t i, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 4);
        ++hits[i];
        ++byWorker[static_cast<std::size_t>(worker)];
    });
    int total = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
        total += hits[i].load();
    }
    EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(Farm, RunBatchInlineWhenSerial)
{
    sweep::Farm farm(sweep::FarmOptions{});
    std::vector<std::size_t> order;
    farm.runBatch(5, [&](std::size_t i, int worker) {
        EXPECT_EQ(worker, 0);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

} // namespace
