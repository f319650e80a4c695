// Tests for the serving layer and the ExplainBatch explainer API it rides
// on: coalesced results bit-identical to solo serving, duplicate requests
// answered from one computation, deadline expiry as a typed error,
// drain-on-shutdown completing everything in flight, priority ordering,
// backpressure, refusal of non-finite instances before they queue, and an
// 8-thread submit/consume race (the `serve` ctest
// label is part of the TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "model/gbdt.h"
#include "model/logistic_regression.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "serve/service.h"

namespace xai {
namespace {

/// Small shared fixture: loan data + a GBDT, built once per binary.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(MakeLoanDataset(400, {.seed = 11}));
    auto m = GradientBoostedTrees::Fit(*ds_, {.num_rounds = 20});
    ASSERT_TRUE(m.ok());
    gbdt_ = new GradientBoostedTrees(std::move(*m));
  }
  static void TearDownTestSuite() {
    delete gbdt_;
    delete ds_;
    gbdt_ = nullptr;
    ds_ = nullptr;
  }

  static ExplainerConfig FastConfig() {
    ExplainerConfig config;
    config.kernel_shap.max_background = 10;
    config.lime.num_samples = 200;
    config.mc_shapley.num_permutations = 10;
    config.mc_shapley.max_background = 10;
    return config;
  }

  /// Borrowed handle around the shared GBDT — what every service /
  /// factory call site passes now that both take ModelHandle.
  static ModelHandle Handle() {
    return ModelHandle::Borrow(*gbdt_, "gbdt", 1);
  }

  static ExplanationRequest Request(size_t row, ExplainerKind kind) {
    ExplanationRequest req;
    req.instance = ds_->row(row);
    req.kind = kind;
    return req;
  }

  static Dataset* ds_;
  static GradientBoostedTrees* gbdt_;
};

Dataset* ServeTest::ds_ = nullptr;
GradientBoostedTrees* ServeTest::gbdt_ = nullptr;

// ---------------------------------------------------------------------------
// ExplainBatch API: every family's batch path is bit-identical per row to
// the solo Explain path — the property coalescing relies on.

TEST_F(ServeTest, ExplainBatchBitIdenticalAllFamilies) {
  const size_t kRows = 5;
  Matrix rows(kRows, ds_->d());
  for (size_t i = 0; i < kRows; ++i) rows.SetRow(i, ds_->row(i));
  for (ExplainerKind kind :
       {ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
        ExplainerKind::kLime, ExplainerKind::kMcShapley}) {
    SCOPED_TRACE(ExplainerKindName(kind));
    auto batch_ex = MakeExplainer(kind, Handle(), *ds_, FastConfig());
    ASSERT_TRUE(batch_ex.ok());
    auto batch = (*batch_ex)->ExplainBatch(rows);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), kRows);
    // Fresh explainer for the solo side so no state leaks between paths.
    auto solo_ex = MakeExplainer(kind, Handle(), *ds_, FastConfig());
    ASSERT_TRUE(solo_ex.ok());
    for (size_t i = 0; i < kRows; ++i) {
      auto solo = (*solo_ex)->Explain(ds_->row(i));
      ASSERT_TRUE(solo.ok());
      ASSERT_EQ(solo->values.size(), (*batch)[i].values.size());
      for (size_t j = 0; j < solo->values.size(); ++j)
        EXPECT_EQ(solo->values[j], (*batch)[i].values[j])
            << "row " << i << " feature " << j;
      EXPECT_EQ(solo->base_value, (*batch)[i].base_value);
    }
  }
}

TEST_F(ServeTest, FactoryRejectsTreeShapOnNonTreeModel) {
  auto logistic = LogisticRegression::Fit(*ds_, {});
  ASSERT_TRUE(logistic.ok());
  auto ex = MakeExplainer(ExplainerKind::kTreeShap,
                          ModelHandle::Borrow(*logistic), *ds_, {});
  ASSERT_FALSE(ex.ok());
  EXPECT_EQ(ex.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, ParseExplainerKindRoundTrips) {
  for (ExplainerKind kind :
       {ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
        ExplainerKind::kLime, ExplainerKind::kMcShapley}) {
    auto parsed = ParseExplainerKind(ExplainerKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseExplainerKind("nope").ok());
}

TEST_F(ServeTest, FingerprintSeparatesKindsAndBudgets) {
  const ExplainerConfig config = FastConfig();
  EXPECT_NE(config.Fingerprint(ExplainerKind::kKernelShap),
            config.Fingerprint(ExplainerKind::kLime));
  ExplainerConfig other = config;
  other.kernel_shap.num_samples += 1;
  EXPECT_NE(config.Fingerprint(ExplainerKind::kKernelShap),
            other.Fingerprint(ExplainerKind::kKernelShap));
  // Fields another family reads don't perturb this family's key.
  other = config;
  other.lime.num_samples += 1;
  EXPECT_EQ(config.Fingerprint(ExplainerKind::kKernelShap),
            other.Fingerprint(ExplainerKind::kKernelShap));
}

// ---------------------------------------------------------------------------
// Service behavior.

TEST_F(ServeTest, CoalescedEqualsSoloBitIdentical) {
  // Solo ground truth: one request at a time, coalescing off.
  std::vector<FeatureAttribution> solo;
  {
    ExplanationServiceOptions opts;
    opts.config = FastConfig();
    opts.coalesce = false;
    ExplanationService service(Handle(), *ds_, opts);
    for (size_t i = 0; i < 6; ++i) {
      auto r = service.Submit(Request(i % 3, ExplainerKind::kKernelShap))
                   .get();
      ASSERT_TRUE(r.ok());
      solo.push_back(std::move(r).value().attribution);
    }
  }
  // Coalesced: same 6 requests staged while paused, served in batches.
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<std::future<Result<ExplanationResponse>>> futures;
  for (size_t i = 0; i < 6; ++i)
    futures.push_back(service.Submit(Request(i % 3, ExplainerKind::kKernelShap)));
  service.Resume();
  for (size_t i = 0; i < 6; ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->attribution.values.size(), solo[i].values.size());
    for (size_t j = 0; j < r->attribution.values.size(); ++j)
      EXPECT_EQ(r->attribution.values[j], solo[i].values[j]);
    // Every completed request carries its latency breakdown: all 6 rode
    // one coalesced sweep, and time totals are self-consistent.
    EXPECT_EQ(r->breakdown.coalesce_batch_size, 6u);
    EXPECT_GT(r->breakdown.sweep_ms, 0.0);
    EXPECT_GE(r->breakdown.queue_ms, 0.0);
    EXPECT_GE(r->breakdown.total_ms, r->breakdown.sweep_ms);
  }
  // 6 requests over 3 distinct rows in one batch: 3 were answered from a
  // duplicate's computation.
  const ExplanationServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_duplicates, 3u);
}

TEST_F(ServeTest, MixedKindsNeverCoalesceTogether) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<std::future<Result<ExplanationResponse>>> futures;
  for (size_t i = 0; i < 4; ++i)
    futures.push_back(service.Submit(Request(
        0, i % 2 == 0 ? ExplainerKind::kTreeShap : ExplainerKind::kLime)));
  service.Resume();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  const ExplanationServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);  // one per family
  EXPECT_EQ(stats.coalesced_duplicates, 2u);
}

TEST_F(ServeTest, BudgetOverrideChangesResultAndKey) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;
  ExplanationService service(Handle(), *ds_, opts);
  ExplanationRequest a = Request(0, ExplainerKind::kMcShapley);
  ExplanationRequest b = Request(0, ExplainerKind::kMcShapley);
  b.budget = 25;  // different permutation budget -> must not coalesce
  auto fa = service.Submit(std::move(a));
  auto fb = service.Submit(std::move(b));
  service.Resume();
  auto ra = fa.get();
  auto rb = fb.get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(service.stats().batches, 2u);
  // More permutations -> a genuinely different (better) estimate.
  bool any_diff = false;
  for (size_t j = 0; j < ra->attribution.values.size(); ++j)
    if (ra->attribution.values[j] != rb->attribution.values[j])
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST_F(ServeTest, DeadlineExpiryIsTypedError) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;  // hold the queue so the deadline passes
  ExplanationService service(Handle(), *ds_, opts);
  ExplanationRequest req = Request(0, ExplainerKind::kTreeShap);
  req.timeout = std::chrono::milliseconds(5);
  auto fut = service.Submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.Resume();
  auto r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<std::future<Result<ExplanationResponse>>> futures;
  for (size_t i = 0; i < 8; ++i)
    futures.push_back(service.Submit(Request(i, ExplainerKind::kTreeShap)));
  // Shutdown without ever resuming: accepted requests must still be
  // evaluated, not dropped.
  service.Shutdown();
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(service.stats().completed, 8u);
}

TEST_F(ServeTest, SubmitAfterShutdownIsUnavailable) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  ExplanationService service(Handle(), *ds_, opts);
  service.Shutdown();
  auto fut = service.Submit(Request(0, ExplainerKind::kTreeShap));
  auto r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  auto try_r = service.TrySubmit(Request(0, ExplainerKind::kTreeShap));
  ASSERT_FALSE(try_r.ok());
  EXPECT_EQ(try_r.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, NonFiniteInstanceIsRejectedBeforeQueueing) {
  obs::SetEnabled(true);
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected_nonfinite");
  const uint64_t before = counter->Value();
  const std::string dir = ::testing::TempDir() + "xai_serve_nonfinite";
  std::filesystem::remove_all(dir);
  auto log = obs::AuditLog::Open(dir);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  std::shared_ptr<obs::AuditLog> audit = std::move(log).value();

  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.audit = audit;
  ExplanationService service(Handle(), *ds_, opts);
  ExplanationRequest nan_req = Request(0, ExplainerKind::kKernelShap);
  nan_req.instance[2] = std::numeric_limits<double>::quiet_NaN();
  bool cb_fired = false;
  auto nan_r = service
                   .Submit(nan_req,
                           [&](const Result<ExplanationResponse>& r) {
                             cb_fired = !r.ok();
                           })
                   .get();
  ASSERT_FALSE(nan_r.ok());
  EXPECT_EQ(nan_r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_r.status().message().find("feature 2"), std::string::npos);
  EXPECT_TRUE(cb_fired);

  ExplanationRequest inf_req = Request(1, ExplainerKind::kTreeShap);
  inf_req.instance[0] = -std::numeric_limits<double>::infinity();
  auto inf_r = service.TrySubmit(inf_req);
  ASSERT_FALSE(inf_r.ok());
  EXPECT_EQ(inf_r.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(counter->Value(), before + 2);
  EXPECT_EQ(service.stats().rejected, 2u);
  EXPECT_EQ(service.stats().submitted, 0u);
  // A finite request still serves, and it is the only one audited.
  ASSERT_TRUE(service.Submit(Request(0, ExplainerKind::kTreeShap)).get().ok());
  service.Shutdown();
  audit->Flush();
  EXPECT_EQ(audit->stats().appended, 1u);
  EXPECT_EQ(audit->stats().dropped, 0u);
  obs::SetEnabled(false);
}

TEST_F(ServeTest, TrySubmitReportsFullQueue) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.queue_capacity = 2;
  opts.start_paused = true;  // nothing drains, so the queue genuinely fills
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<std::future<Result<ExplanationResponse>>> futures;
  for (size_t i = 0; i < 2; ++i) {
    auto r = service.TrySubmit(Request(i, ExplainerKind::kTreeShap));
    ASSERT_TRUE(r.ok());
    futures.push_back(std::move(r).value());
  }
  auto rejected = service.TrySubmit(Request(0, ExplainerKind::kTreeShap));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().rejected, 1u);
  service.Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST_F(ServeTest, PriorityOrdersServing) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.start_paused = true;
  opts.max_batch = 1;  // serve strictly one at a time
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::future<Result<ExplanationResponse>>> futures;
  for (int priority : {0, 2, 1}) {
    ExplanationRequest req = Request(static_cast<size_t>(priority),
                                     ExplainerKind::kTreeShap);
    req.priority = priority;
    futures.push_back(service.Submit(
        std::move(req), [&, priority](const Result<ExplanationResponse>&) {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(priority);
        }));
  }
  service.Resume();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  service.Shutdown();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
}

TEST_F(ServeTest, CallbackAndFutureBothFire) {
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  ExplanationService service(Handle(), *ds_, opts);
  std::promise<double> cb_base;
  auto cb_future = cb_base.get_future();
  auto fut = service.Submit(Request(0, ExplainerKind::kTreeShap),
                            [&](const Result<ExplanationResponse>& r) {
                              cb_base.set_value(
                                  r.ok() ? r->attribution.base_value : -1e30);
                            });
  auto r = fut.get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cb_future.get(), r->attribution.base_value);
  // Solo (uncoalesced) request: batch of one, with a breakdown.
  EXPECT_EQ(r->breakdown.coalesce_batch_size, 1u);
  EXPECT_GE(r->breakdown.total_ms, 0.0);
}

// 8 threads hammer Submit against the live dispatcher (this test runs
// under TSan via the `serve` label). Every future must resolve, and every
// result must match solo serving bit-for-bit.
TEST_F(ServeTest, ConcurrentSubmitRace) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 12;
  ExplanationServiceOptions opts;
  opts.config = FastConfig();
  opts.queue_capacity = 16;  // small: exercises backpressure too
  ExplanationService service(Handle(), *ds_, opts);
  std::vector<FeatureAttribution> want;
  {
    auto ex =
        MakeExplainer(ExplainerKind::kTreeShap, Handle(), *ds_, FastConfig());
    ASSERT_TRUE(ex.ok());
    for (size_t i = 0; i < 4; ++i) {
      auto attr = (*ex)->Explain(ds_->row(i));
      ASSERT_TRUE(attr.ok());
      want.push_back(std::move(attr).value());
    }
  }
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> resolved{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t row = (t + i) % 4;
        auto r =
            service.Submit(Request(row, ExplainerKind::kTreeShap)).get();
        if (!r.ok()) continue;
        resolved.fetch_add(1);
        if (r->breakdown.coalesce_batch_size == 0) mismatches.fetch_add(1);
        for (size_t j = 0; j < r->attribution.values.size(); ++j)
          if (r->attribution.values[j] != want[row].values[j])
            mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  service.Shutdown();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().completed, kThreads * kPerThread);
}

// The acceptance criterion for trace-context propagation: one request's
// events — submit instant on the caller thread, dequeue + sweep on the
// dispatcher, pool_chunk on the workers — all share the request's
// trace_id, across at least two OS threads.
TEST_F(ServeTest, ConnectedTraceAcrossThreads) {
  obs::ResetTrace();
  obs::SetTraceEnabled(true);
  SetGlobalThreads(4);  // guarantee real pool workers for the sweep
  uint64_t trace_id = 0;
  {
    ExplanationServiceOptions opts;
    opts.config = FastConfig();
    ExplanationService service(Handle(), *ds_, opts);
    auto r = service.Submit(Request(0, ExplainerKind::kKernelShap)).get();
    ASSERT_TRUE(r.ok());
    trace_id = r->breakdown.trace_id;
    service.Shutdown();
  }
  obs::SetTraceEnabled(false);
  SetGlobalThreads(0);
  ASSERT_NE(trace_id, 0u);

  std::set<uint32_t> tids;
  bool saw_submit = false, saw_dequeue = false, saw_batch = false,
       saw_chunk = false;
  for (const obs::TraceEventView& e : obs::TraceSnapshot()) {
    if (e.trace_id != trace_id) continue;
    tids.insert(e.tid);
    const std::string name = e.name;
    if (name == "serve.submit") saw_submit = true;
    if (name == "serve.dequeue") saw_dequeue = true;
    if (name == "serve_batch") saw_batch = true;
    if (name == "pool_chunk") saw_chunk = true;
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_dequeue);
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_chunk);
  // Caller thread + dispatcher thread at minimum; pool workers on top.
  EXPECT_GE(tids.size(), 2u);
  obs::ResetTrace();
}

}  // namespace
}  // namespace xai
