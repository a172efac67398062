#include "svc/json.h"

#include <gtest/gtest.h>

namespace svc = ct::svc;

TEST(FlatJson, ParsesScalarsOfEveryKind)
{
    std::string error;
    auto obj = svc::parseFlatJson(
        R"({"s":"x","n":4096,"f":1.5,"neg":-2,"b":true,"z":null})",
        &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(obj->at("s").kind, svc::JsonValue::Kind::String);
    EXPECT_EQ(obj->at("s").str, "x");
    EXPECT_EQ(obj->at("n").kind, svc::JsonValue::Kind::Number);
    // Numbers keep their source text; each field picks its grammar.
    EXPECT_EQ(obj->at("n").str, "4096");
    EXPECT_EQ(obj->at("f").str, "1.5");
    EXPECT_EQ(obj->at("neg").str, "-2");
    EXPECT_EQ(obj->at("b").kind, svc::JsonValue::Kind::Bool);
    EXPECT_TRUE(obj->at("b").boolean);
    EXPECT_EQ(obj->at("z").kind, svc::JsonValue::Kind::Null);
}

TEST(FlatJson, AcceptsWhitespaceAndEmptyObject)
{
    std::string error;
    EXPECT_TRUE(svc::parseFlatJson("  { }  ", &error)) << error;
    auto obj =
        svc::parseFlatJson("{ \"a\" : 1 , \"b\" : \"x\" }", &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(obj->size(), 2u);
}

TEST(FlatJson, EscapesRoundTrip)
{
    std::string error;
    auto obj = svc::parseFlatJson(
        R"({"k":"a\"b\\c\nd\te"})", &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(obj->at("k").str, "a\"b\\c\nd\te");
    // And the writer renders it back to valid, reparsable JSON.
    svc::JsonWriter w;
    w.field("k", obj->at("k").str);
    auto back = svc::parseFlatJson(w.str(), &error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->at("k").str, obj->at("k").str);
}

TEST(FlatJson, RejectsMalformedInputLoudly)
{
    const char *bad[] = {
        "",                        // empty
        "not json",                // no object
        "{\"a\":1",                // unterminated
        "{\"a\":}",                // missing value
        "{\"a\" 1}",               // missing colon
        "{\"a\":1,}",              // trailing comma
        "{\"a\":1} trailing",      // trailing garbage
        "{\"a\":{}}",              // nesting
        "{\"a\":[1]}",             // array
        "{\"a\":1,\"a\":2}",       // duplicate key
        "{a:1}",                   // unquoted key
        "{\"a\":tru}",             // bad literal
        "{\"a\":\"\\q\"}",         // unsupported escape
    };
    for (const char *line : bad) {
        std::string error;
        EXPECT_FALSE(svc::parseFlatJson(line, &error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty()) << "no diagnostic for: " << line;
    }
}

TEST(JsonWriter, DeterministicFieldOrderAndFormats)
{
    svc::JsonWriter w;
    w.field("s", "v")
        .field("u", std::uint64_t{18446744073709551615ULL})
        .field("i", std::int64_t{-5})
        .field("n", 3)
        .field("b", false);
    w.fixed("f", 1.0 / 3.0);
    EXPECT_EQ(w.str(),
              "{\"s\":\"v\",\"u\":18446744073709551615,"
              "\"i\":-5,\"n\":3,\"b\":false,\"f\":0.333}");
}

TEST(JsonWriter, FragmentSplicesIntoEnvelope)
{
    svc::JsonWriter payload;
    payload.field("a", 1).field("b", "x");
    EXPECT_EQ(payload.fragment(), "\"a\":1,\"b\":\"x\"");
    EXPECT_EQ(payload.str(), "{\"a\":1,\"b\":\"x\"}");

    svc::JsonWriter empty;
    EXPECT_EQ(empty.str(), "{}");
    EXPECT_TRUE(empty.fragment().empty());
}
