#include "svc/request.h"

#include <gtest/gtest.h>

namespace svc = ct::svc;

namespace {

std::optional<svc::Request>
parse(const std::string &line, std::string *error = nullptr)
{
    return svc::Request::tryParse(line, error, nullptr);
}

/** The error path must both reject and diagnose. */
void
expectRejected(const std::string &line, const std::string &needle)
{
    std::string error;
    auto req = svc::Request::tryParse(line, &error, nullptr);
    EXPECT_FALSE(req) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << "no diagnostic for: " << line;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "diagnostic for " << line << " was: " << error;
}

} // namespace

TEST(Request, ParsesEveryOp)
{
    std::string error;
    auto health = parse(R"({"id":1,"op":"health"})", &error);
    ASSERT_TRUE(health) << error;
    EXPECT_EQ(health->op, svc::Op::Health);
    EXPECT_EQ(health->id, 1u);

    auto validate = parse(R"({"id":2,"op":"validate"})", &error);
    ASSERT_TRUE(validate) << error;
    EXPECT_EQ(validate->op, svc::Op::Validate);

    auto plan = parse(
        R"({"id":3,"op":"plan","machine":"t3d","xqy":"1Q64","bytes":2048})",
        &error);
    ASSERT_TRUE(plan) << error;
    EXPECT_EQ(plan->op, svc::Op::Plan);
    EXPECT_EQ(plan->machine, ct::core::MachineId::T3d);
    EXPECT_EQ(plan->x.label(), "1");
    EXPECT_EQ(plan->y.label(), "64");
    EXPECT_EQ(plan->bytes, 2048u);

    auto sim = parse(
        R"({"id":4,"op":"sim","machine":"paragon","xqy":"wQw",)"
        R"("words":8192,"budget":5000,"faults":"drop=0.02,seed=7"})",
        &error);
    ASSERT_TRUE(sim) << error;
    EXPECT_EQ(sim->op, svc::Op::Sim);
    EXPECT_EQ(sim->machine, ct::core::MachineId::Paragon);
    EXPECT_EQ(sim->words, 8192u);
    EXPECT_EQ(sim->budget, 5000u);
    EXPECT_DOUBLE_EQ(sim->faults.drop, 0.02);
    EXPECT_FALSE(sim->faultsSummary.empty());
}

TEST(Request, RejectsUnknownAndMisappliedFields)
{
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","budgte":100})",
                   "unknown field 'budgte'");
    expectRejected(R"({"id":1,"op":"health","words":5})",
                   "does not apply");
    expectRejected(R"({"id":1,"op":"validate","machine":"t3d"})",
                   "does not apply");
    expectRejected(
        R"({"id":1,"op":"plan","machine":"t3d","xqy":"1Q1","budget":9})",
        "does not apply");
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","bytes":64})",
                   "does not apply");
}

TEST(Request, RejectsMissingAndMalformedEssentials)
{
    expectRejected(R"({"op":"health"})", "missing required field 'id'");
    expectRejected(R"({"id":1})", "missing required field 'op'");
    expectRejected(R"({"id":1,"op":"frobnicate"})", "unknown op");
    expectRejected(R"({"id":1,"op":"plan","xqy":"1Q1"})",
                   "requires field 'machine'");
    expectRejected(R"({"id":1,"op":"plan","machine":"cm5","xqy":"1Q1"})",
                   "unknown machine");
    expectRejected(R"({"id":1,"op":"plan","machine":"t3d"})",
                   "requires field 'xqy'");
    expectRejected(
        R"({"id":1,"op":"plan","machine":"t3d","xqy":"nope"})",
        "bad xqy");
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","words":0})",
                   "must be positive");
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","faults":"zap=1"})",
                   "bad faults spec");
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","chaos":"bogus:1"})",
                   "bad chaos spec");
    expectRejected(R"({"id":-3,"op":"health"})",
                   "non-negative integer");
}

TEST(Request, IntegerFieldsAreDigitTokensOverTheFullRange)
{
    std::string error;
    // 2^53 + 1 has no double; the id must still come back exact.
    auto big = parse(R"({"id":9007199254740993,"op":"health"})", &error);
    ASSERT_TRUE(big) << error;
    EXPECT_EQ(big->id, 9007199254740993ULL);
    auto max = parse(R"({"id":18446744073709551615,"op":"sim",)"
                     R"("machine":"t3d","xqy":"1Q1",)"
                     R"("words":18446744073709551615,)"
                     R"("budget":18446744073709551615})",
                     &error);
    ASSERT_TRUE(max) << error;
    EXPECT_EQ(max->id, 18446744073709551615ULL);
    EXPECT_EQ(max->words, 18446744073709551615ULL);
    EXPECT_EQ(max->budget, 18446744073709551615ULL);
    expectRejected(R"({"id":18446744073709551616,"op":"health"})",
                   "field 'id' must be a non-negative integer");

    // Each passes a check on its double value but is no integer.
    for (const char *value : {"1e2", "1.0", "0x1", "+2", "-0"}) {
        const std::string v = value;
        expectRejected(R"({"id":)" + v + R"(,"op":"health"})", "");
        expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                       R"("xqy":"1Q1","words":)" + v + "}",
                       "");
        expectRejected(R"({"id":1,"op":"plan","machine":"t3d",)"
                       R"("xqy":"1Q1","bytes":)" + v + "}",
                       "");
        expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                       R"("xqy":"1Q1","budget":)" + v + "}",
                       "");
    }
    expectRejected(R"({"id":1,"op":"sim","machine":"t3d",)"
                   R"("xqy":"1Q1","words":1e2})",
                   "field 'words' must be a non-negative integer");
}

TEST(Request, PeekRequestIdIsBestEffort)
{
    EXPECT_EQ(svc::peekRequestId(R"({"id":42,"op":"health"})"), 42u);
    // Even a line the full parser rejects can still yield its id.
    EXPECT_EQ(svc::peekRequestId(R"({"id":7,"op":"frobnicate"})"),
              7u);
    EXPECT_EQ(svc::peekRequestId("not json"), 0u);
    EXPECT_EQ(svc::peekRequestId(R"({"id":"seven"})"), 0u);
    // No float detour: out-of-range or fractional ids read as 0.
    EXPECT_EQ(svc::peekRequestId(R"({"id":1e30,"op":"health"})"), 0u);
    EXPECT_EQ(svc::peekRequestId(R"({"id":4.5,"op":"health"})"), 0u);
    EXPECT_EQ(svc::peekRequestId(R"({"id":9007199254740993})"),
              9007199254740993ULL);
}

TEST(Request, IdSurvivesRejectedParse)
{
    std::string error;
    std::uint64_t id = 0;
    auto req = svc::Request::tryParse(
        R"({"id":9,"op":"sim","machine":"t3d"})", &error, &id);
    EXPECT_FALSE(req);
    EXPECT_EQ(id, 9u);
}
