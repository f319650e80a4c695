#ifndef XAIDB_OBS_TRACE_H_
#define XAIDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace xai::obs {

// ---------------------------------------------------------------------------
// Flight recorder: event-level tracing alongside the aggregate metrics in
// metrics.h/span.h. Each thread owns a fixed-capacity lock-free ring of
// begin/end/instant/counter events (drop-oldest on overflow), so the last
// few thousand events per thread are always available for post-mortem —
// WriteTraceJson() merges and time-sorts them into Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing.
//
// Same off-discipline as the metrics: every emission site is one relaxed
// atomic load and a predictable branch when tracing is off (XAIDB_TRACE
// unset). Event names must be string literals (or otherwise outlive the
// process) — the recorder stores the pointer, never copies.

namespace internal {
/// Process-wide on/off switch, seeded from the XAIDB_TRACE env var.
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True when the flight recorder is recording — one relaxed load, checked
/// first at every emission site.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Flips tracing at runtime. Initial value comes from XAIDB_TRACE:
/// unset, "0", "off", or "false" mean disabled, anything else enables.
void SetTraceEnabled(bool on);

/// Request sampling knob: NewTraceId() hands out a real (non-zero) id to
/// one in every `n` calls and 0 (untraced) to the rest. 0 or 1 = trace
/// every request (the default). Seeded from XAIDB_TRACE_SAMPLE.
void SetTraceSampleEveryN(uint64_t n);
uint64_t TraceSampleEveryN();

// ---------------------------------------------------------------------------
// Trace-context propagation. A TraceContext names the request a thread is
// currently working for (trace_id) and the innermost open span (span_id,
// the parent for events emitted now). The context is thread-local;
// ThreadPool::ParallelFor captures the caller's context and installs it
// around every chunk, whichever thread runs it, and ExplanationService
// installs each request's context around its sweep — that is what links
// one request's events across threads.

struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 = not attributed to any sampled request.
  uint64_t span_id = 0;   ///< Innermost open span; parent for new events.
  bool active() const { return trace_id != 0; }
};

/// New request id: unique, non-zero when tracing is on and the request is
/// sampled in; 0 otherwise (callers thread the 0 through untouched — an
/// untraced request costs nothing downstream).
uint64_t NewTraceId();

/// New span id, unique and non-zero for the process lifetime.
uint64_t NewSpanId();

TraceContext CurrentTraceContext();
void SetCurrentTraceContext(TraceContext ctx);

/// RAII: installs `ctx` as the current thread's context, restores the
/// previous one on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx)
      : prev_(CurrentTraceContext()) {
    SetCurrentTraceContext(ctx);
  }
  ~ScopedTraceContext() { SetCurrentTraceContext(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

// ---------------------------------------------------------------------------
// Event emission. All no-ops (one relaxed load) when tracing is off.

/// Raw paired duration events on the calling thread ('B'/'E'), tagged
/// with the current context but NOT maintaining it — callers pair them
/// manually. Prefer ScopedTraceEvent, which allocates the span id,
/// scopes the context, and latches the on/off decision once.
void TraceBegin(const char* name);
void TraceEnd(const char* name);

/// Point-in-time marker ('i') with an optional numeric payload.
void TraceInstant(const char* name, double value = 0.0);

/// Sampled counter track ('C') — renders as a graph in Perfetto.
void TraceCounter(const char* name, double value);

/// Async request span ('b'/'e'): ties a logical operation (one service
/// request) together across threads by id, independent of thread nesting.
void TraceAsyncBegin(const char* name, uint64_t id);
void TraceAsyncEnd(const char* name, uint64_t id);

/// RAII paired B/E event that also maintains the context: the span id it
/// allocates becomes the current context's span_id for the scope, so
/// nested events (and ParallelFor chunks launched inside) parent onto it.
/// The on/off decision is latched at construction — the same rule as
/// ScopedSpan: started-while-off records nothing even if tracing is
/// enabled before the close; started-while-on records a paired B/E even
/// if tracing is disabled before the close.
class ScopedTraceEvent {
 public:
  explicit ScopedTraceEvent(const char* name);
  ~ScopedTraceEvent();
  ScopedTraceEvent(const ScopedTraceEvent&) = delete;
  ScopedTraceEvent& operator=(const ScopedTraceEvent&) = delete;

 private:
  const char* name_;
  bool active_;
  TraceContext prev_;
};

// ---------------------------------------------------------------------------
// Inspection & export.

/// One consistent copy of a recorded event (snapshot readers re-check the
/// slot's sequence number and skip slots caught mid-write).
struct TraceEventView {
  const char* name = nullptr;
  char phase = '?';  ///< 'B','E','i','C','b','e'
  uint32_t tid = 0;  ///< Recorder-assigned small integer, stable per thread.
  uint64_t ts_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  double value = 0.0;  ///< instant/counter payload; async id for 'b'/'e'.
};

/// Merged, time-sorted copy of every thread's surviving (non-overwritten)
/// events. Safe to call while writers are emitting.
std::vector<TraceEventView> TraceSnapshot();

/// Events recorded since the last ResetTrace (including later-overwritten
/// ones) and events lost to ring overflow (drop-oldest).
uint64_t TraceEventCount();
uint64_t TraceDroppedCount();

/// Clears every buffer. Must be called while no thread is emitting
/// (tests, between bench runs) — concurrent writers may lose or corrupt
/// individual events, never crash.
void ResetTrace();

/// Ring capacity (events per thread) for buffers created AFTER this call;
/// existing buffers keep their size. Seeded from XAIDB_TRACE_CAPACITY
/// (default 4096, minimum 8). Intended for tests.
void SetTraceBufferCapacity(size_t capacity);
size_t TraceBufferCapacity();

/// Serializes the merged buffers as Chrome trace-event JSON:
/// {"traceEvents":[{"name","ph","ts","pid","tid","args",...},...]}.
/// ts/dur are microseconds since process start. 'E' events whose 'B' was
/// overwritten by ring wraparound are dropped so the stream always
/// imports cleanly.
std::string TraceToJson();

/// Writes TraceToJson() to `path`; kInvalidArgument on an empty path,
/// kIOError when the file cannot be opened or fully written.
Status WriteTraceJson(const std::string& path);

}  // namespace xai::obs

#endif  // XAIDB_OBS_TRACE_H_
