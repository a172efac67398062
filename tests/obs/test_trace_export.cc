#include <sstream>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace {

using namespace ct::obs;

// One span and one instant with a labelled track: the fixture every
// golden below exports.
Tracer
sampleTracer()
{
    Tracer t(16);
    t.setTrackName(0, "node0 cpu");
    t.span("stage", "gather", 0, 100, 50, "words", 64);
    t.instant("net", "drop", 1, 200, "dst", 3);
    return t;
}

TEST(TraceExport, ChromeGolden)
{
    std::ostringstream os;
    sampleTracer().writeChrome(os, 1.0);
    EXPECT_EQ(
        os.str(),
        "{\"traceEvents\": [\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": \"node0 cpu\"}},\n"
        "{\"name\": \"thread_sort_index\", \"ph\": \"M\", "
        "\"pid\": 0, \"tid\": 0, \"args\": {\"sort_index\": 0}},\n"
        "{\"name\": \"gather\", \"cat\": \"stage\", \"ph\": \"X\", "
        "\"pid\": 0, \"tid\": 0, \"ts\": 100, \"dur\": 50, "
        "\"args\": {\"words\": 64}},\n"
        "{\"name\": \"drop\", \"cat\": \"net\", \"ph\": \"i\", "
        "\"pid\": 0, \"tid\": 1, \"ts\": 200, \"s\": \"t\", "
        "\"args\": {\"dst\": 3}}\n"
        "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(TraceExport, JsonLinesGolden)
{
    std::ostringstream os;
    sampleTracer().writeJsonLines(os, 1.0);
    EXPECT_EQ(
        os.str(),
        "{\"ts\": 100, \"cycles\": 100, \"kind\": \"span\", "
        "\"cat\": \"stage\", \"name\": \"gather\", \"tid\": 0, "
        "\"track\": \"node0 cpu\", \"dur_cycles\": 50, "
        "\"args\": {\"words\": 64}}\n"
        "{\"ts\": 200, \"cycles\": 200, \"kind\": \"instant\", "
        "\"cat\": \"net\", \"name\": \"drop\", \"tid\": 1, "
        "\"args\": {\"dst\": 3}}\n");
}

TEST(TraceExport, ClockConversionIsFixedPoint)
{
    Tracer t(4);
    // 150 MHz clock -> 150 cycles per microsecond.
    t.span("stage", "gather", 0, 150, 75);
    std::ostringstream os;
    t.writeChrome(os, 150.0);
    // 150 cycles = 1.000 us, 75 cycles = 0.500 us: three exact
    // decimals, no float-formatting noise.
    EXPECT_NE(os.str().find("\"ts\": 1.000"), std::string::npos);
    EXPECT_NE(os.str().find("\"dur\": 0.500"), std::string::npos);
}

TEST(TraceExport, WriteDispatchesOnFormat)
{
    Tracer t = sampleTracer();
    std::ostringstream chrome, jsonl;
    t.write(chrome, TraceFormat::Chrome, 1.0);
    t.write(jsonl, TraceFormat::JsonLines, 1.0);
    EXPECT_EQ(chrome.str().substr(0, 15), "{\"traceEvents\":");
    EXPECT_EQ(jsonl.str().substr(0, 7), "{\"ts\": ");
}

TEST(TraceExport, EmptyTracerStillValidChromeJson)
{
    Tracer t(4);
    std::ostringstream os;
    t.writeChrome(os, 1.0);
    EXPECT_EQ(os.str(),
              "{\"traceEvents\": [\n\n], "
              "\"displayTimeUnit\": \"ms\"}\n");
}

TEST(TraceExport, ArgsOmittedWhenUnset)
{
    Tracer t(4);
    t.instant("transport", "retransmit", 2, 10);
    std::ostringstream os;
    t.writeJsonLines(os, 1.0);
    EXPECT_NE(os.str().find("\"args\": {}"), std::string::npos);
}

} // namespace
