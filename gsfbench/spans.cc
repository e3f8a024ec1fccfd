#include "spans.h"

#include <fstream>

namespace gsfbench {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

int
SpanLog::begin(const std::string &name, int parent, long op)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.op = op;
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
}

double
SpanLog::end(int id)
{
    Span &span = spans_.at(static_cast<std::size_t>(id));
    span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
        return false;
    }
    // Complete events ("ph": "X"), microsecond timestamps. The op id
    // and parent index ride in args so the causal tree survives.
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << static_cast<double>(s.start_ns) / 1e3
            << ", \"dur\": "
            << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << s.parent << ", \"op\": " << s.op << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace gsfbench
