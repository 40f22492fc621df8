// Request-scoped tracing: a thread-confined bounded span buffer plus a
// Chrome trace-event JSON exporter (loadable in Perfetto / about:tracing).
//
// The contract mirrors StatsSink exactly:
//   1. Zero overhead when disabled.  Every producer holds a Trace* that may
//      be null; opening a span through a null trace is exactly one pointer
//      compare — ScopedSpan does not read the clock when its Trace* is null.
//   2. Thread-confined by design; nothing is atomic except the process-wide
//      trace-id generator.  One Trace belongs to one request on one thread;
//      unlike a registry, a span tree has no merge, so the batch engine
//      and the closure loop, whose nets run concurrently on pool threads,
//      reject a trace in their per-net options.
//   3. Bounded memory under storm load.  The span buffer is a fixed-capacity
//      ring-less buffer: once full, further spans are counted as dropped
//      instead of recorded, so a pathological request cannot balloon the
//      server's memory.
//
// Span identity: every Trace carries a 64-bit trace id (rendered as 16 hex
// chars, e.g. "9a0f51c3b2d4e607"); every span a 64-bit span id unique within
// the trace, with parent links forming the nesting tree.  The server echoes
// the trace id in the client-visible response line ("trace_id") so client
// logs join server-side traces.
#ifndef MSN_OBS_TRACE_H
#define MSN_OBS_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace msn::obs {

/// Fresh process-unique 64-bit trace id (never zero).  A global atomic
/// counter mixed through splitmix64, so ids are unique, well-spread, and
/// need no locking or entropy source.
std::uint64_t NewTraceId();

/// The canonical textual form of a trace id: 16 lowercase hex characters.
std::string TraceIdHex(std::uint64_t id);

/// One completed span.  `name` must point at a string literal (spans are
/// recorded on hot paths; no allocation per span).
struct TraceSpan {
  const char* name;
  std::uint64_t span_id;
  std::uint64_t parent_id;  ///< 0 for root spans.
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
};

/// The span buffer for one request.  Thread-confined; see file comment.
class Trace {
 public:
  /// Default span capacity.  Generous for one request (a full MSRI run
  /// opens a handful of phase spans per DP), tight enough that a trace is
  /// at most a few hundred KiB.
  static constexpr std::size_t kDefaultCapacity = 16384;

  explicit Trace(std::uint64_t trace_id,
                 std::size_t capacity = kDefaultCapacity)
      : trace_id_(trace_id), capacity_(capacity == 0 ? 1 : capacity) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  std::uint64_t TraceId() const { return trace_id_; }
  std::string TraceIdString() const { return TraceIdHex(trace_id_); }

  const std::vector<TraceSpan>& Spans() const { return spans_; }
  /// Spans that arrived after the buffer filled; counted, not recorded.
  std::uint64_t Dropped() const { return dropped_; }

  /// Records a completed span under the current parent.  Used directly for
  /// spans whose start predates the scope that reports them (queue waits);
  /// most call sites use ScopedSpan instead.
  void RecordSpan(const char* name,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
    Emit(name, NextSpanId(), current_parent_, start, end);
  }

  /// Chrome trace-event JSON: {"traceEvents":[...complete events...]}.
  /// Timestamps are microseconds relative to the earliest span start, so
  /// the file is stable across runs modulo durations.
  void WriteChromeTrace(std::ostream& os) const;
  std::string ChromeTraceString() const;

 private:
  friend class ScopedSpan;

  std::uint64_t NextSpanId() { return ++next_span_id_; }
  /// Makes `span_id` the parent of subsequently opened spans; returns the
  /// previous parent for the caller to restore on scope exit.
  std::uint64_t ExchangeParent(std::uint64_t span_id) {
    const std::uint64_t previous = current_parent_;
    current_parent_ = span_id;
    return previous;
  }
  void RestoreParent(std::uint64_t parent) { current_parent_ = parent; }

  void Emit(const char* name, std::uint64_t span_id, std::uint64_t parent_id,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(TraceSpan{name, span_id, parent_id, start, end});
  }

  std::uint64_t trace_id_;
  std::size_t capacity_;
  std::uint64_t next_span_id_ = 0;
  std::uint64_t current_parent_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceSpan> spans_;
};

/// RAII span: opens on construction, records on destruction.  A null trace
/// disables the span entirely — one pointer compare, no clock read, exactly
/// like ScopedTimer(nullptr).  `name` must be a string literal.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) {
      name_ = name;
      span_id_ = trace_->NextSpanId();
      saved_parent_ = trace_->ExchangeParent(span_id_);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      const auto end = std::chrono::steady_clock::now();
      trace_->RestoreParent(saved_parent_);
      trace_->Emit(name_, span_id_, saved_parent_, start_, end);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  const char* name_ = nullptr;
  std::uint64_t span_id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// RAII phase: one scope feeds a timer and a span, either of which may be
/// null.  `name` must be a string literal.
class ScopedPhase {
 public:
  ScopedPhase(Timer* timer, Trace* trace, const char* name)
      : timer_(timer), span_(trace, name) {}

 private:
  ScopedTimer timer_;
  ScopedSpan span_;
};

}  // namespace msn::obs

#endif  // MSN_OBS_TRACE_H
