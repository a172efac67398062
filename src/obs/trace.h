/**
 * @file
 * Structured tracing keyed off the simulator's virtual clock. A
 * Tracer records typed events -- complete spans (stage executions,
 * resource occupancy with explicit begin time and duration) and
 * instants (packet drop, retransmission, policy decision) -- into
 * a fixed-capacity ring buffer, so tracing a long run costs bounded
 * memory and the newest events always survive.
 *
 * Events carry static-string names/categories (no allocation on the
 * hot path) and up to two named integer arguments. Timestamps are
 * simulated cycles; the exporters convert to microseconds with the
 * machine's clock so a trace opens directly in chrome://tracing or
 * Perfetto (Chrome trace_event JSON) or streams as JSON-lines for
 * scripted analysis.
 *
 * Tracks: the `tid` field identifies a timeline. The simulator maps
 * each hardware unit of each node to its own track (see
 * sim::Machine::setTracer), so spans on one track never overlap.
 *
 * Event taxonomy (docs/OBSERVABILITY.md):
 *   cat "stage"     span  gather / pack / unpack / recv-scatter ...
 *   cat "resource"  span  deposit / fetch-dma engine occupancy
 *   cat "op"        span  one whole communication operation
 *   cat "net"       inst  drop / corrupt / dup / delay / reroute ...
 *   cat "transport" inst  retransmit / nack / abandon / degrade ...
 *   cat "policy"    inst  controller actions / retry-exhausted /
 *                         degrade-to-packing
 */

#ifndef CT_OBS_TRACE_H
#define CT_OBS_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace ct::obs {

/** Virtual-clock timestamp (simulated cycles). */
using TraceClock = std::uint64_t;

/** One recorded event. */
struct TraceEvent
{
    enum class Kind : std::uint8_t { Span, Instant };

    TraceClock ts = 0;  ///< begin time (cycles)
    TraceClock dur = 0; ///< span duration; 0 for instants
    Kind kind = Kind::Instant;
    std::int32_t tid = 0;        ///< track id
    const char *cat = "";        ///< static category string
    const char *name = "";       ///< static event name
    const char *key1 = nullptr;  ///< optional arg names (static)
    const char *key2 = nullptr;
    std::uint64_t val1 = 0;
    std::uint64_t val2 = 0;
};

/** Output flavor of Tracer::write(). */
enum class TraceFormat { Chrome, JsonLines };

/** Parse "chrome" / "jsonl"; false on anything else. */
bool parseTraceFormat(const std::string &text, TraceFormat &format);

/** Ring-buffer event recorder. */
class Tracer
{
  public:
    /** @p capacity events are kept; older ones are overwritten. */
    explicit Tracer(std::size_t capacity = 1 << 16);

    /** Record a complete span [ts, ts + dur). */
    void span(const char *cat, const char *name, std::int32_t tid,
              TraceClock ts, TraceClock dur,
              const char *key1 = nullptr, std::uint64_t val1 = 0,
              const char *key2 = nullptr, std::uint64_t val2 = 0);

    /** Record a point event at @p ts. */
    void instant(const char *cat, const char *name, std::int32_t tid,
                 TraceClock ts, const char *key1 = nullptr,
                 std::uint64_t val1 = 0, const char *key2 = nullptr,
                 std::uint64_t val2 = 0);

    /** Label a track (exported as Chrome thread-name metadata). */
    void setTrackName(std::int32_t tid, std::string name);

    std::size_t capacity() const { return ring.size(); }

    /** Events currently held (<= capacity). */
    std::size_t size() const;

    /** Events recorded over the tracer's lifetime. */
    std::uint64_t recorded() const { return total; }

    /** Events overwritten because the ring wrapped. */
    std::uint64_t dropped() const;

    /** @p i-th held event, oldest first (0 <= i < size()). */
    const TraceEvent &event(std::size_t i) const;

    /** Drop all events (capacity and track names are kept). */
    void clear();

    /**
     * Export every held event. @p cyclesPerUsec converts the virtual
     * clock to trace microseconds (clockHz / 1e6); pass 1.0 to keep
     * raw cycles as the time unit.
     */
    void write(std::ostream &os, TraceFormat format,
               double cyclesPerUsec = 1.0) const;

    void writeChrome(std::ostream &os,
                     double cyclesPerUsec = 1.0) const;
    void writeJsonLines(std::ostream &os,
                        double cyclesPerUsec = 1.0) const;

  private:
    void record(const TraceEvent &event);

    std::vector<TraceEvent> ring;
    std::uint64_t total = 0;
    std::map<std::int32_t, std::string> trackNames;
};

} // namespace ct::obs

#endif // CT_OBS_TRACE_H
