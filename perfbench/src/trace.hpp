// Span recording for the benchmark's traced runs.
//
// Spans are taken from the benchmark's own code, around each call it makes
// into a library layer (io, stream, volume, iatf, render, track, classify,
// server). A span carries its layer, a name, start/end times, the span that
// was open on the same thread when it began (its parent) and the id of the
// frame, classify step or command it belongs to. Spans stay in memory and
// are written once, as Chrome trace-event JSON, when the run ends.
//
// Recording is off unless enabled; a disabled Span only tests one flag, so
// the untraced ops of a run pay nothing measurable for the instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two clock readings.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Turns span recording on or off for every thread.
void set_tracing(bool on);
bool tracing();

/// Sets the op id (frame, classify step or command) that spans opened on
/// this thread without an explicit id are attributed to.
void set_current_op(std::int64_t op);

/// RAII span around one layer call. `layer` and `name` must be string
/// literals (they are stored by pointer).
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::int64_t id_ = -1;  // -1: not recording
  std::int64_t parent_ = -1;
  std::int64_t op_ = -1;
  Clock::time_point start_;
};

/// Records a span whose start and end were taken elsewhere (a server
/// command is submitted on one thread and completes on another). The
/// caller decides whether the op is traced.
void record_span(const char* layer, const char* name, Clock::time_point start,
                 Clock::time_point end, std::int64_t op);

/// Number of spans recorded so far.
std::size_t span_count();

/// Writes every recorded span as Chrome trace-event JSON ("X" events with
/// id, parent and op in args). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
