#include <gtest/gtest.h>

#include <latch>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace {

using namespace ct::util;

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("boom ", 42), testing::ExitedWithCode(1),
                "fatal: boom 42");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("invariant ", "broken"), "panic: invariant");
}

TEST(Logging, LevelGatesOutput)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Quiet);
    testing::internal::CaptureStderr();
    warn("should be hidden");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    warn("now visible");
    EXPECT_NE(testing::internal::GetCapturedStderr().find("now visible"),
              std::string::npos);
    setLogLevel(old);
}

TEST(Logging, DebugHiddenAtInfoLevel)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    debug("hidden");
    inform("shown");
    auto out = testing::internal::GetCapturedStderr();
    EXPECT_EQ(out.find("hidden"), std::string::npos);
    EXPECT_NE(out.find("shown"), std::string::npos);
    setLogLevel(old);
}

TEST(Logging, ConcurrentWarningsStayWholeLines)
{
    // Farm workers warn at once (degraded sweep cells); each line
    // must reach stderr whole, never spliced with another thread's.
    constexpr int threads = 4;
    constexpr int perThread = 2000;
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    {
        std::latch start(threads);
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([t, &start] {
                start.arrive_and_wait();
                for (int i = 0; i < perThread; ++i)
                    warn("thread ", t, " message ", i,
                         " deposits only");
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    std::string out = testing::internal::GetCapturedStderr();
    setLogLevel(old);

    const std::regex whole("warn: thread ([0-9]+) message ([0-9]+) "
                           "deposits only");
    std::istringstream lines(out);
    std::string line;
    std::set<std::string> seen;
    int broken = 0;
    while (std::getline(lines, line)) {
        if (std::regex_match(line, whole))
            seen.insert(line);
        else if (++broken <= 3)
            ADD_FAILURE() << "broken line: '" << line << "'";
    }
    EXPECT_EQ(broken, 0);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(threads * perThread));
}

} // namespace
