#include "svc/json.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace svc = ct::svc;

/** The field @p key of @p obj; fails the test when it is absent. */
const svc::JsonField &
at(const svc::JsonObject &obj, std::string_view key)
{
    const svc::JsonField *f = obj.find(key);
    EXPECT_NE(f, nullptr) << key;
    static const svc::JsonField missing;
    return f ? *f : missing;
}

TEST(FlatJson, ParsesScalarsOfEveryKind)
{
    std::string error;
    const std::string line =
        R"({"s":"x","n":4096,"f":1.5,"neg":-2,"b":true,"z":null})";
    auto obj = svc::parseFlatJson(line, &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(at(*obj, "s").kind, svc::JsonKind::String);
    EXPECT_EQ(at(*obj, "s").str(), "x");
    EXPECT_EQ(at(*obj, "n").kind, svc::JsonKind::Number);
    // Numbers keep their source text; each field picks its grammar.
    EXPECT_EQ(at(*obj, "n").text, "4096");
    EXPECT_EQ(at(*obj, "f").text, "1.5");
    EXPECT_EQ(at(*obj, "neg").text, "-2");
    EXPECT_EQ(at(*obj, "b").kind, svc::JsonKind::Bool);
    EXPECT_TRUE(at(*obj, "b").boolean);
    EXPECT_EQ(at(*obj, "z").kind, svc::JsonKind::Null);
    // Fields come back in line order, viewed in the line itself.
    ASSERT_EQ(obj->size(), 6u);
    EXPECT_EQ(obj->begin()->key, "s");
    EXPECT_EQ((obj->end() - 1)->key, "z");
    EXPECT_EQ(at(*obj, "s").text.data(), line.data() + 6);
    EXPECT_EQ(obj->find("missing"), nullptr);
}

TEST(FlatJson, AcceptsWhitespaceAndEmptyObject)
{
    std::string error;
    const std::string empty = "  { }  ";
    EXPECT_TRUE(svc::parseFlatJson(empty, &error)) << error;
    const std::string spaced = "{ \"a\" : 1 , \"b\" : \"x\" }";
    auto obj = svc::parseFlatJson(spaced, &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(obj->size(), 2u);
}

TEST(FlatJson, EscapesRoundTrip)
{
    std::string error;
    const std::string line = R"({"k":"a\"b\\c\nd\te"})";
    auto obj = svc::parseFlatJson(line, &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_TRUE(at(*obj, "k").textEscaped);
    EXPECT_EQ(at(*obj, "k").str(), "a\"b\\c\nd\te");
    // And the writer renders it back to valid, reparsable JSON.
    svc::JsonWriter w;
    w.field("k", at(*obj, "k").str());
    const std::string again = w.str();
    auto back = svc::parseFlatJson(again, &error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(at(*back, "k").str(), at(*obj, "k").str());
}

TEST(FlatJson, KeysCompareDecoded)
{
    // An escaped key is found, and counted as a duplicate, by its
    // decoded text.
    std::string error;
    const std::string line = R"({"a\/b":1,"c":2})";
    auto obj = svc::parseFlatJson(line, &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(at(*obj, "a/b").text, "1");
    EXPECT_EQ(obj->begin()->keyString(), "a/b");
    const std::string dup = R"({"a\/b":1,"a/b":2})";
    EXPECT_FALSE(svc::parseFlatJson(dup, &error));
    EXPECT_EQ(error, "duplicate key \"a/b\" at offset 17");
}

TEST(FlatJson, LongObjectsKeepEveryFieldAndRefuseDuplicates)
{
    // Past its inline fields an object keeps parsing, in line order,
    // and a duplicate anywhere in it is still refused.
    std::string line = "{";
    for (int i = 0; i < 100; ++i) {
        const std::string n = std::to_string(i);
        line.append(i ? ",\"k" : "\"k").append(n).append("\":").append(n);
    }
    const std::string whole = line + "}";
    std::string error;
    auto obj = svc::parseFlatJson(whole, &error);
    ASSERT_TRUE(obj) << error;
    ASSERT_EQ(obj->size(), 100u);
    int i = 0;
    for (const svc::JsonField &f : *obj) {
        const std::string n = std::to_string(i++);
        EXPECT_EQ(f.key.substr(0, 1), "k");
        EXPECT_EQ(f.key.substr(1), n);
        EXPECT_EQ(f.text, n);
    }
    EXPECT_EQ(at(*obj, "k99").text, "99");
    for (const char *dup : {"k3", "k50", "k99"}) {
        const std::string bad = line + ",\"" + dup + "\":0}";
        EXPECT_FALSE(svc::parseFlatJson(bad, &error)) << dup;
        EXPECT_EQ(error.rfind(std::string("duplicate key \"") + dup, 0),
                  0u)
            << error;
    }
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
    for (const char *text : bad) {
        std::string error;
        const std::string line = text;
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

    svc::JsonWriter envelope(64);
    envelope.field("id", 7).splice(payload.fragment()).splice("");
    EXPECT_EQ(std::move(envelope).take(),
              "{\"id\":7,\"a\":1,\"b\":\"x\"}");
}

TEST(JsonWriter, EscapesRunsAndPiecesAlike)
{
    // Clean runs are appended whole; every character that needs an
    // escape gets the same one, in a field or in a piecewise string.
    const std::string text = "plain \"q\" back\\slash\nnl\ttab\rcr\x01"
                             "\x1f\x7f end";
    const std::string want =
        "\"plain \\\"q\\\" back\\\\slash\\nnl\\ttab\\rcr\\u0001"
        "\\u001f\x7f end\"";
    svc::JsonWriter w;
    w.field("k", text);
    EXPECT_EQ(w.str(), "{\"k\":" + want + "}");

    svc::JsonWriter pieces;
    pieces.openString("k")
        .stringPiece(text.substr(0, 9))
        .stringPiece(text.substr(9))
        .closeString();
    EXPECT_EQ(pieces.str(), w.str());

    svc::JsonWriter mixed;
    mixed.openString("s").stringPiece("a=").fixedPiece(2.0 / 3.0)
        .stringPiece(",b=").fixedPiece(1.0).closeString();
    EXPECT_EQ(mixed.str(), "{\"s\":\"a=0.667,b=1.000\"}");
}
