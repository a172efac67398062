#include "logging.h"

#include <cstdio>

namespace ct::util {

namespace {

LogLevel globalLevel = LogLevel::Warn;

} // namespace

LogLevel
logLevel()
{
    return globalLevel;
}

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

namespace detail {

namespace {

/**
 * Write "tag: msg\n" to stderr as one fwrite. stdio locks the stream
 * for the whole call, so lines from concurrent threads (farm
 * workers warning at once) never interleave mid-line.
 */
void
writeLine(const char *tag, const std::string &msg)
{
    std::string line = std::string(tag) + ": " + msg + "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace

void
fatalExit(const std::string &msg)
{
    writeLine("fatal", msg);
    std::exit(1);
}

void
panicAbort(const std::string &msg)
{
    writeLine("panic", msg);
    std::abort();
}

void
emit(LogLevel level, const char *tag, const std::string &msg)
{
    if (static_cast<int>(level) <= static_cast<int>(globalLevel))
        writeLine(tag, msg);
}

} // namespace detail

} // namespace ct::util
