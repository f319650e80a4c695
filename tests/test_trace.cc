// Tests for the flight recorder (obs/trace.h): ring overflow keeping the
// newest events, the latched on/off decision for scoped events and spans,
// trace-context propagation through ThreadPool::ParallelFor, Chrome
// trace-event JSON well-formedness (parsed back by a real JSON parser),
// sampling, and an 8-thread emit/snapshot stress run. Registered under
// the `obs` ctest label so the whole file runs in the TSan job.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace xai {
namespace {

/// Every test starts from a clean, enabled recorder with default knobs
/// and leaves tracing disabled (the default for other test binaries).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetTrace();
    obs::SetTraceSampleEveryN(1);
    obs::SetTraceEnabled(true);
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::SetTraceSampleEveryN(1);
    obs::SetTraceBufferCapacity(4096);
    obs::SetCurrentTraceContext({});
    obs::ResetTrace();
  }
};

std::vector<obs::TraceEventView> EventsNamed(const std::string& name) {
  std::vector<obs::TraceEventView> out;
  for (const obs::TraceEventView& e : obs::TraceSnapshot())
    if (e.name != nullptr && name == e.name) out.push_back(e);
  return out;
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser — enough to verify that
// TraceToJson emits syntactically valid JSON (the parse-back check the
// exporter's acceptance requires), without any external dependency.

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& s) : s_(s) {}
  // The parser holds a reference; refuse temporaries outright.
  explicit MiniJsonParser(std::string&&) = delete;

  bool Parse() {
    i_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  bool Value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (Peek('}')) { ++i_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++i_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++i_; continue; }
      if (Peek('}')) { ++i_; return true; }
      return false;
    }
  }

  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (Peek(']')) { ++i_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++i_; continue; }
      if (Peek(']')) { ++i_; return true; }
      return false;
    }
  }

  bool String() {
    if (!Peek('"')) return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        const char c = s_[i_];
        if (c == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[i_])))
              return false;
          }
        } else if (c != '"' && c != '\\' && c != '/' && c != 'b' &&
                   c != 'f' && c != 'n' && c != 'r' && c != 't') {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing '"'
    return true;
  }

  bool Number() {
    const size_t start = i_;
    if (Peek('-')) ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }

  bool Literal(const char* lit) {
    const size_t len = std::strlen(lit);
    if (s_.compare(i_, len, lit) != 0) return false;
    i_ += len;
    return true;
  }

  bool Peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r'))
      ++i_;
  }

  const std::string& s_;
  size_t i_ = 0;
};

// ---------------------------------------------------------------------------

TEST_F(TraceTest, DisabledRecorderIsANoop) {
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::NewTraceId(), 0u);
  obs::TraceInstant("test.noop", 1.0);
  obs::TraceCounter("test.noop", 2.0);
  { obs::ScopedTraceEvent ev("test.noop"); }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  EXPECT_TRUE(obs::TraceSnapshot().empty());
}

TEST_F(TraceTest, InstantCarriesPayloadAndContext) {
  obs::ScopedTraceContext ctx(obs::TraceContext{77, 5});
  obs::TraceInstant("test.payload", 2.5);
  const auto events = EventsNamed("test.payload");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_DOUBLE_EQ(events[0].value, 2.5);
  EXPECT_EQ(events[0].trace_id, 77u);
  EXPECT_EQ(events[0].parent_span, 5u);
}

TEST_F(TraceTest, ScopedEventNestsContextAndRestoresIt) {
  obs::ScopedTraceContext ctx(obs::TraceContext{9, 0});
  uint64_t outer_span = 0;
  {
    obs::ScopedTraceEvent outer("test.outer");
    outer_span = obs::CurrentTraceContext().span_id;
    EXPECT_NE(outer_span, 0u);
    {
      obs::ScopedTraceEvent inner("test.inner");
      EXPECT_NE(obs::CurrentTraceContext().span_id, outer_span);
    }
    EXPECT_EQ(obs::CurrentTraceContext().span_id, outer_span);
  }
  EXPECT_EQ(obs::CurrentTraceContext().span_id, 0u);
  const auto inner = EventsNamed("test.inner");
  ASSERT_EQ(inner.size(), 2u);  // B + E
  EXPECT_EQ(inner[0].phase, 'B');
  EXPECT_EQ(inner[1].phase, 'E');
  // Cross-event linkage: the inner B parents onto the outer span and
  // carries the installed trace_id.
  EXPECT_EQ(inner[0].parent_span, outer_span);
  EXPECT_EQ(inner[0].trace_id, 9u);
}

TEST_F(TraceTest, RingOverflowKeepsNewestEvents) {
  // A fresh thread gets a fresh buffer, created at the reduced capacity;
  // 50 events through a 16-slot ring must keep exactly the newest 16.
  obs::SetTraceBufferCapacity(16);
  std::thread([] {
    for (int i = 0; i < 50; ++i)
      obs::TraceInstant("test.overflow", static_cast<double>(i));
  }).join();
  obs::SetTraceBufferCapacity(4096);

  const auto events = EventsNamed("test.overflow");
  ASSERT_EQ(events.size(), 16u);
  // Snapshot is time-sorted and per-thread timestamps are monotonic, so
  // the survivors are 34..49 in order — drop-oldest, newest retained.
  for (size_t k = 0; k < events.size(); ++k)
    EXPECT_DOUBLE_EQ(events[k].value, 34.0 + static_cast<double>(k));
  EXPECT_GE(obs::TraceDroppedCount(), 34u);
}

TEST_F(TraceTest, ToggleMidScopeIsLatchedBothDirections) {
  // Started while ON, disabled before close: paired B/E still recorded.
  {
    obs::ScopedTraceEvent ev("test.latch_on");
    obs::SetTraceEnabled(false);
  }
  obs::SetTraceEnabled(true);
  const auto on_events = EventsNamed("test.latch_on");
  ASSERT_EQ(on_events.size(), 2u);
  EXPECT_EQ(on_events[0].phase, 'B');
  EXPECT_EQ(on_events[1].phase, 'E');

  // Started while OFF, enabled before close: nothing recorded.
  obs::SetTraceEnabled(false);
  {
    obs::ScopedTraceEvent ev("test.latch_off");
    obs::SetTraceEnabled(true);
  }
  EXPECT_TRUE(EventsNamed("test.latch_off").empty());
}

TEST_F(TraceTest, ScopedSpanAppliesTheSameLatchRule) {
  // ScopedSpan latches metrics and tracing independently, each at
  // construction. Metrics toggled off mid-span: the span still records
  // its aggregate; tracing stays latched the same way.
  obs::SetEnabled(true);
  obs::ResetSpans();
  {
    obs::ScopedSpan span("test_latch_span");
    obs::SetEnabled(false);
    obs::SetTraceEnabled(false);
  }
  obs::SetTraceEnabled(true);
  const auto spans = obs::SpanSnapshot();
  const auto it = spans.find("test_latch_span");
  ASSERT_NE(it, spans.end());
  EXPECT_EQ(it->second.count, 1u);
  const auto trace_events = EventsNamed("test_latch_span");
  ASSERT_EQ(trace_events.size(), 2u);  // latched: paired B/E survived

  // And the off-at-construction direction: no aggregate, no events.
  obs::ResetSpans();
  obs::ResetTrace();
  obs::SetTraceEnabled(false);
  {
    obs::ScopedSpan span("test_latch_span_off");
    obs::SetEnabled(true);
    obs::SetTraceEnabled(true);
  }
  EXPECT_EQ(obs::SpanSnapshot().count("test_latch_span_off"), 0u);
  EXPECT_TRUE(EventsNamed("test_latch_span_off").empty());
  obs::SetEnabled(false);
  obs::ResetSpans();
}

TEST_F(TraceTest, ParallelForPropagatesContextAcrossThreads) {
  SetGlobalThreads(4);
  const uint64_t trace_id = obs::NewTraceId();
  ASSERT_NE(trace_id, 0u);
  uint64_t launch_span = 0;
  // The caller runs chunks of its own sweep and could finish all 8 trivial
  // ones before a worker wakes. A bounded rendezvous holds every chunk
  // until a second thread has entered one, so the sweep crosses threads.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> entered;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  {
    obs::ScopedTraceContext ctx(obs::TraceContext{trace_id, 0});
    obs::ScopedTraceEvent launch("test.launch");
    launch_span = obs::CurrentTraceContext().span_id;
    GlobalPool().ParallelFor(0, 8, 1, [&](size_t) {
      obs::TraceInstant("test.chunk_work", 1.0);
      std::unique_lock<std::mutex> lock(mu);
      entered.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_until(lock, deadline, [&] { return entered.size() >= 2; });
    });
  }
  SetGlobalThreads(0);

  size_t chunks = 0;
  std::set<uint32_t> chunk_tids;
  for (const obs::TraceEventView& e : obs::TraceSnapshot()) {
    if (e.name == nullptr || std::string(e.name) != "pool_chunk") continue;
    if (e.phase != 'B') continue;
    ++chunks;
    chunk_tids.insert(e.tid);
    // The fan-out linkage: every chunk carries the caller's trace_id and
    // parents onto the span that launched the sweep, on whichever thread
    // (the caller or a worker) runs it.
    EXPECT_EQ(e.trace_id, trace_id);
    EXPECT_EQ(e.parent_span, launch_span);
  }
  EXPECT_EQ(chunks, 8u);
  EXPECT_GE(chunk_tids.size(), 2u);
  // Work inside the chunk inherits the installed context too.
  for (const obs::TraceEventView& e : EventsNamed("test.chunk_work"))
    EXPECT_EQ(e.trace_id, trace_id);
}

TEST_F(TraceTest, SamplingHandsOutOneIdInEveryN) {
  obs::SetTraceSampleEveryN(4);
  size_t sampled = 0;
  for (int i = 0; i < 16; ++i)
    if (obs::NewTraceId() != 0) ++sampled;
  EXPECT_EQ(sampled, 4u);
}

TEST_F(TraceTest, TraceJsonParsesBackAndBalances) {
  {
    obs::ScopedTraceEvent outer("test.json_outer");
    obs::TraceInstant("test.json_instant", 3.25);
    obs::TraceCounter("test.json_counter", 7.0);
    obs::TraceAsyncBegin("test.json_async", 0x123);
    obs::TraceAsyncEnd("test.json_async", 0x123);
    { obs::ScopedTraceEvent inner("test.json \"quoted\\name\""); }
  }
  const std::string json = obs::TraceToJson();

  MiniJsonParser parser(json);
  EXPECT_TRUE(parser.Parse()) << json;

  // Structural spot checks on top of raw validity.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("test.json_instant"), std::string::npos);
  size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos)
    ++begins, pos += 8;
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos)
    ++ends, pos += 8;
  EXPECT_EQ(begins, ends);  // importers require balanced durations
  EXPECT_GE(begins, 2u);
}

TEST_F(TraceTest, OrphanedEndsAreDroppedFromJson) {
  // Overflow a tiny ring with nested scopes so some 'E' events survive
  // whose 'B' was overwritten; the exporter must drop them (and stay
  // balanced) rather than emit an import-breaking orphan.
  obs::SetTraceBufferCapacity(8);
  std::thread([] {
    for (int i = 0; i < 20; ++i) obs::ScopedTraceEvent ev("test.orphan");
  }).join();
  obs::SetTraceBufferCapacity(4096);
  const std::string json = obs::TraceToJson();
  MiniJsonParser parser(json);
  EXPECT_TRUE(parser.Parse()) << json;
  size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos)
    ++begins, pos += 8;
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos)
    ++ends, pos += 8;
  EXPECT_EQ(begins, ends);
}

TEST_F(TraceTest, WriteTraceJsonErrorsAreTyped) {
  EXPECT_EQ(obs::WriteTraceJson("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(obs::WriteTraceJson("/nonexistent-dir-xaidb/trace.json").code(),
            StatusCode::kIOError);

  obs::TraceInstant("test.write", 1.0);
  const std::string path = "/tmp/xaidb_test_trace.json";
  ASSERT_TRUE(obs::WriteTraceJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  MiniJsonParser parser(content);
  EXPECT_TRUE(parser.Parse());
  EXPECT_NE(content.find("test.write"), std::string::npos);
}

// 8 writer threads emit scoped + instant + counter events through small
// rings (forcing constant wraparound) while the main thread repeatedly
// snapshots and serializes. Runs under TSan via the `obs` label: the
// seqlock slots must be data-race-free by construction.
TEST_F(TraceTest, ConcurrentEmitAndSnapshotStress) {
  constexpr size_t kThreads = 8;
  constexpr int kIters = 2000;
  obs::SetTraceBufferCapacity(64);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        obs::ScopedTraceEvent ev("test.stress_scope");
        obs::TraceInstant("test.stress_instant", static_cast<double>(i));
        obs::TraceCounter("test.stress_counter", static_cast<double>(i));
      }
    });
  }
  for (int r = 0; r < 50; ++r) {
    const std::vector<obs::TraceEventView> snap = obs::TraceSnapshot();
    for (const obs::TraceEventView& e : snap) {
      // Every surviving slot must hold a fully-formed event.
      ASSERT_NE(e.name, nullptr);
      ASSERT_TRUE(e.phase == 'B' || e.phase == 'E' || e.phase == 'i' ||
                  e.phase == 'C' || e.phase == 'b' || e.phase == 'e');
    }
    const std::string json = obs::TraceToJson();
    ASSERT_FALSE(json.empty());
  }
  for (std::thread& w : writers) w.join();
  obs::SetTraceBufferCapacity(4096);
  // 4 events per iteration (B, i, C, E) per thread reached the recorder.
  EXPECT_GE(obs::TraceEventCount(), kThreads * kIters * 4u);
  const std::string final_json = obs::TraceToJson();
  MiniJsonParser parser(final_json);
  EXPECT_TRUE(parser.Parse());
}

}  // namespace
}  // namespace xai
