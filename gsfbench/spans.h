/**
 * @file
 * In-memory span log for the benchmark's traced run. A span is a name,
 * a start and an end on the steady clock, the span that caused it, and
 * the id of the op it belongs to. Spans are recorded only around the
 * benchmark's own calls into the library (no span lives inside src/),
 * kept in memory while the run measures, and written out once at exit
 * as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gsfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0;  ///< Since the log's epoch.
        std::int64_t end_ns = 0;
        int parent = -1;            ///< Index of the causing span.
        long op = -1;               ///< Op id the span belongs to.
    };

    SpanLog();

    /** Opens a span; returns its id (an index into spans()). */
    int begin(const std::string &name, int parent, long op);

    /** Closes span @p id; returns its duration in milliseconds. */
    double end(int id);

    /** Runs @p body inside a span; returns the span's milliseconds. */
    template <typename F>
    double time(const std::string &name, int parent, long op, F &&body)
    {
        const int id = begin(name, parent, op);
        body();
        return end(id);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes every span as Chrome trace-event JSON; false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

} // namespace gsfbench
