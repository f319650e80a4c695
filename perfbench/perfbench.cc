// perfbench — the repository benchmark. One binary, one workload per run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source <id>]
//
// Workloads (README.md in this directory records why each was chosen):
//   serve_skewed      open-loop Poisson load into one ExplanationService
//                     over a loan-data GBDT, audit ledger on
//   batch_treeshap    TreeShapExplainer::ExplainBatch over a held-out table
//                     on min(4, nproc) worker threads
//   batch_kernelshap  KernelSHAP ExplainBatch (sampled, cache off), same model
//   train_gbdt        repeated hist-method GradientBoostedTrees::Fit
//
// Every workload reports the same end-to-end metrics, each defined on the
// workload's own operation (a request, an ExplainBatch call on a chunk of
// the table, a fit): p50_ms, capacity_rps (requests or rows completed per
// second while the system is kept busy), setup_s (median of several
// set-ups) and peak_rss_mib. The tail (the highest percentile the sample
// supports, see harness.h) is printed and reported as a per-layer metric.
// With --trace 1 the run measures twice, untraced then traced, and reports
// per-layer metrics, a self-time table and the tracing overhead instead.
// Correctness gates fail the run: the last stdout line is
// {"correct": false, ...} and the exit code is 1.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/explainer_factory.h"
#include "harness.h"
#include "model/gbdt.h"
#include "model/metrics.h"
#include "model/registry.h"
#include "obs/audit.h"
#include "probes.h"
#include "serve/service.h"

namespace {

using perfbench::LatencySummary;
using perfbench::NowNs;
using perfbench::Span;
using perfbench::SpanLog;
using perfbench::Summarize;
using perfbench::TimedGbdt;

constexpr int kSetupReps = 5;

/// min(4, nproc): the library threads of batch_kernelshap, the TreeSHAP
/// workers of batch_treeshap, and the pool the dispatch probes time.
size_t MaxThreads() {
  return std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

/// The served and explained models are trained on fixed data, so every
/// seed explains the same model; the seed draws the rows asked about and
/// the arrival schedule. (train_gbdt's input is its training table, which
/// the seed draws.)
constexpr uint64_t kModelDataSeed = 2022;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string source = "unknown";
};

/// End-to-end figures of one measured pass.
struct E2e {
  LatencySummary latency;  ///< Per operation, in ms.
  double pooled_tail = 0.0;  ///< serve_skewed: tail over the whole phase.
  size_t windows = 1;        ///< serve_skewed: windows the tail is taken in.
  double capacity_rps = 0.0;
};

/// What the run prints as its last line, plus the layer figures.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  E2e e2e;
  double setup_s = 0.0;
  std::map<std::string, double> layer;  ///< Per-layer metric values.
  std::vector<Span> spans;              ///< Traced pass, for the table.
};

/// The per-layer metrics every traced run prints, with their units. A
/// metric whose layer the workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.sweep_ms.p50", "ms"},
    {"serve.other_ms.p50", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.dedup_frac", "ratio"},
    {"load.late_ms.p99", "ms"},
    {"core.cache.hit_rate", "ratio"},
    {"core.cache.lookups", "count"},
    {"core.cache.evictions", "count"},
    {"model.predict.calls", "count"},
    {"model.predict.rows", "count"},
    {"model.predict.busy_ms", "ms"},
    {"model.predict.ns_per_row", "ns"},
    {"model.fit.hist_tree_ms", "ms"},
    {"model.fit.rest_s", "s"},
    {"feature.treeshap.busy_ms", "ms"},
    {"feature.treeshap.us_per_row", "us"},
    {"feature.kernelshap.self_ms", "ms"},
    {"feature.kernelshap.evals_per_row", "count"},
    {"data.bin_build_s", "s"},
    {"common.parallel_for_us.c4", "us"},
    {"common.parallel_for_us.c16", "us"},
    {"common.parallel_for_us.c64", "us"},
    {"obs.audit.records", "count"},
    {"obs.audit.dropped", "count"},
    {"obs.audit.bytes", "B"},
    {"obs.audit.fsyncs", "count"},
    {"trace.overhead_pct.p50_ms", "%"},
    {"trace.overhead_pct.p99_ms", "%"},
    {"trace.overhead_pct.capacity_rps", "%"},
    {"trace.unattributed_pct", "%"},
    {"tail.p99_ms", "ms"},
};

void Gate(Outcome* o, bool ok, const std::string& what) {
  std::printf("gate  %-58s %s\n", what.c_str(), ok ? "pass" : "FAIL");
  if (!ok) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 what.c_str());
    o->correct = false;
  }
}

/// Peak resident set of this process image, from /proc/self/status
/// VmHWM (getrusage's ru_maxrss would include the launching process's
/// peak, which survives exec).
double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

/// Runs `setup` kSetupReps times (each replaces the previous state) on one
/// library thread and returns the median wall time in seconds. Set-up fits
/// are many small ParallelFor calls; on four threads their time tripled in
/// busy spells of the shared host. Fits are bit-identical for any thread
/// count, so the model is the same.
template <typename F>
double TimedSetup(F&& setup) {
  const size_t threads = xai::GlobalThreadCount();
  xai::SetGlobalThreads(1);
  std::vector<double> s;
  for (int r = 0; r < kSetupReps; ++r) {
    const int64_t t0 = NowNs();
    setup();
    s.push_back(SecondsSince(t0));
  }
  xai::SetGlobalThreads(threads);
  return Median(s);
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The training-layer probes every traced run takes on its workload's own
/// training table: standalone bin build, one direct histogram tree fit,
/// and the rest of a whole fit (fit time minus bin build).
void TrainingProbes(const xai::Dataset& train, const xai::TreeConfig& tree,
                    double fit_s, Outcome* o) {
  xai::BinnedDataset binned;
  const double bin_s =
      perfbench::BinBuildProbeS(train.x(), tree.train.max_bins, &binned);
  double mean = 0.0;
  for (double y : train.y()) mean += y;
  mean /= static_cast<double>(std::max<size_t>(1, train.n()));
  std::vector<double> targets(train.y());
  for (double& t : targets) t -= mean;
  o->layer["data.bin_build_s"] = bin_s;
  o->layer["model.fit.hist_tree_ms"] =
      perfbench::HistTreeProbeMs(binned, targets, tree);
  o->layer["model.fit.rest_s"] = fit_s - bin_s;
}

/// Times ParallelFor dispatch on a pool of MaxThreads(), whatever the
/// workload ran with.
void DispatchProbes(Outcome* o) {
  const size_t threads = xai::GlobalThreadCount();
  xai::SetGlobalThreads(MaxThreads());
  o->layer["common.parallel_for_us.c4"] = perfbench::ParallelForProbeUs(4, 2000);
  o->layer["common.parallel_for_us.c16"] =
      perfbench::ParallelForProbeUs(16, 2000);
  o->layer["common.parallel_for_us.c64"] =
      perfbench::ParallelForProbeUs(64, 2000);
  xai::SetGlobalThreads(threads);
}

/// Attaches every model.predict span that overlaps a span named
/// `parent_name` as that span's child (copied once per parent: a sweep
/// shared by coalesced requests appears under each of them).
void AttachModelSpans(std::vector<Span> model, std::vector<Span>* spans,
                      const std::string& parent_name) {
  std::sort(model.begin(), model.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  const size_t n = spans->size();
  for (size_t i = 0; i < n; ++i) {
    const Span p = (*spans)[i];
    if (p.name != parent_name) continue;
    // Model calls never outlive the sweep that made them, so any span
    // overlapping [start, end) started after start minus the longest call.
    auto it = std::lower_bound(
        model.begin(), model.end(), p.start_ns - 50'000'000,
        [](const Span& s, int64_t t) { return s.start_ns < t; });
    for (; it != model.end() && it->start_ns < p.end_ns; ++it) {
      if (it->end_ns <= p.start_ns) continue;
      Span c = *it;
      c.parent = static_cast<int64_t>(i);
      c.id = p.id;
      spans->push_back(std::move(c));
    }
  }
}

// ---------------------------------------------------------------------------
// serve_skewed

constexpr size_t kLoanRows = 2000;
constexpr size_t kHotRows = 16;
constexpr size_t kWarmRows = 64;
constexpr double kTreeShapFrac = 1.0 / 8.0;
constexpr double kHotFrac = 0.25;
constexpr double kPhase1Rps = 80.0;  // about a seventh of capacity
constexpr double kPhase2Rps = 4000.0;
/// A measured pass is a run of cycles, each a phase-1 segment of
/// kSegmentS seconds followed by a phase-2 burst of kBurstRequests, so both
/// phases sample every part of the pass. A cycle takes about kCycleS.
constexpr double kSegmentS = 2.0;
constexpr size_t kBurstRequests = 800;
constexpr double kCycleS = 3.4;
constexpr size_t kSolveEvery = 16;  ///< Gate one request in this many.

struct ServeState {
  xai::Dataset train;
  std::unique_ptr<TimedGbdt> model;
  std::shared_ptr<xai::obs::AuditLog> audit;
  std::unique_ptr<xai::ExplanationService> service;
  std::vector<std::vector<double>> hot;
  xai::Dataset fresh;  ///< Rows no request has asked about yet.
  xai::ExplainerConfig config;
  double fit_s = 0.0;
  uint64_t warm_successes = 0;
};

enum class SlotState : int { kPending, kOk, kExpired, kError, kRefused };

struct Slot {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  SlotState state = SlotState::kPending;
  xai::ExplanationBreakdown bd;
  bool keep = false;  ///< Copy the attribution for the solo-Explain gate.
  xai::FeatureAttribution attr;
};

struct PhaseRun {
  std::vector<Slot> slots;
  uint64_t accepted = 0;
  int64_t start_ns = 0;
};

std::vector<double> RowOf(const ServeState& s, const perfbench::PlannedRequest& r) {
  return r.hot ? s.hot[r.row] : s.fresh.row(r.row);
}

/// Issues `plan` open-loop: each request is submitted at its due time
/// (the generator sleeps until then and records how late it ran) whether
/// or not earlier ones have finished. Returns once every accepted request
/// has completed.
PhaseRun RunPhase(ServeState& s, const std::vector<perfbench::PlannedRequest>& plan,
                  bool keep_samples) {
  PhaseRun run;
  run.slots.resize(plan.size());
  std::atomic<uint64_t> done{0};
  run.start_ns = NowNs() + 2'000'000;
  for (size_t i = 0; i < plan.size(); ++i) {
    Slot& slot = run.slots[i];
    slot.keep = keep_samples && i % kSolveEvery == 0;
    xai::ExplanationRequest req;
    req.instance = RowOf(s, plan[i]);
    req.kind = plan[i].tree_shap ? xai::ExplainerKind::kTreeShap
                                 : xai::ExplainerKind::kKernelShap;
    slot.due_ns = run.start_ns + plan[i].due_ns;
    SleepUntilNs(slot.due_ns);
    slot.submit_ns = NowNs();
    auto fut = s.service->TrySubmit(
        std::move(req),
        [&slot, &done](const xai::Result<xai::ExplanationResponse>& r) {
          slot.done_ns = NowNs();
          if (r.ok()) {
            slot.state = SlotState::kOk;
            slot.bd = r.value().breakdown;
            if (slot.keep) slot.attr = r.value().attribution;
          } else {
            slot.state = r.status().code() == xai::StatusCode::kDeadlineExceeded
                             ? SlotState::kExpired
                             : SlotState::kError;
          }
          done.fetch_add(1, std::memory_order_release);
        });
    if (fut.ok()) {
      ++run.accepted;
    } else {
      slot.state = SlotState::kRefused;
    }
  }
  const int64_t give_up = NowNs() + 120'000'000'000LL;
  while (done.load(std::memory_order_acquire) < run.accepted) {
    if (NowNs() > give_up) {
      std::fprintf(stderr, "perfbench: requests did not complete\n");
      std::_Exit(1);  // callbacks still hold references into `run`
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return run;
}

struct PhaseCounts {
  uint64_t attempted = 0, succeeded = 0, failed = 0, refused = 0, expired = 0;
};

PhaseCounts Count(const PhaseRun& run) {
  PhaseCounts c;
  for (const Slot& s : run.slots) {
    ++c.attempted;
    switch (s.state) {
      case SlotState::kOk: ++c.succeeded; break;
      case SlotState::kRefused: ++c.refused; ++c.failed; break;
      case SlotState::kExpired: ++c.expired; ++c.failed; break;
      default: ++c.failed; break;
    }
  }
  return c;
}

void PrintCounts(const char* phase, const PhaseCounts& c) {
  std::printf("%-22s attempted %llu  succeeded %llu  failed %llu  refused %llu"
              "  expired %llu  failed_frac %.4f\n",
              phase, static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.succeeded),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.refused),
              static_cast<unsigned long long>(c.expired),
              c.attempted ? static_cast<double>(c.failed) /
                                static_cast<double>(c.attempted)
                          : 0.0);
}

void BuildServe(const Args& a, const std::string& audit_dir, ServeState* s,
                size_t fresh_rows) {
  namespace fs = std::filesystem;
  s->service.reset();  // the old service borrows the old model
  s->audit.reset();
  std::error_code ec;
  fs::remove_all(audit_dir, ec);
  s->train = xai::MakeLoanDataset(kLoanRows, {.seed = kModelDataSeed});
  s->fresh = xai::MakeLoanDataset(fresh_rows + kWarmRows,
                                  {.seed = a.seed * 2 + 2});
  perfbench::SplitMix pick(a.seed ^ 0x407ULL);
  s->hot.clear();
  for (size_t i = 0; i < kHotRows; ++i)
    s->hot.push_back(s->train.row(pick.Next() % s->train.n()));
  const int64_t f0 = NowNs();
  auto fit = xai::GradientBoostedTrees::Fit(s->train, {.num_rounds = 40});
  s->fit_s = SecondsSince(f0);
  if (!fit.ok()) {
    std::fprintf(stderr, "perfbench: fit failed: %s\n",
                 fit.status().ToString().c_str());
    std::exit(1);
  }
  s->model = std::make_unique<TimedGbdt>(std::move(fit).value());
  auto log = xai::obs::AuditLog::Open(audit_dir);
  if (!log.ok()) {
    std::fprintf(stderr, "perfbench: audit open failed: %s\n",
                 log.status().ToString().c_str());
    std::exit(1);
  }
  s->audit = std::move(log).value();
  xai::ExplanationServiceOptions opts;
  opts.config = s->config;
  opts.queue_capacity = 1 << 20;  // nothing is refused
  opts.audit = s->audit;
  s->service = std::make_unique<xai::ExplanationService>(
      xai::ModelHandle::Borrow(*s->model, "loan-gbdt"), s->train, opts);
  // Warm-up: both families on the hot rows and on rows the measured
  // phases never use (the last kWarmRows of the fresh pool).
  std::vector<perfbench::PlannedRequest> warm;
  for (size_t i = 0; i < kHotRows; ++i) {
    warm.push_back({0, false, true, i});
    warm.push_back({0, true, true, i});
  }
  for (size_t i = 0; i < kWarmRows; ++i)
    warm.push_back({0, i % 8 == 0, false, fresh_rows + i});
  const PhaseRun run = RunPhase(*s, warm, false);
  s->warm_successes = Count(run).succeeded;
}

/// The plan of one measured pass: per cycle, a phase-1 segment at
/// kPhase1Rps for kSegmentS and a phase-2 burst of kBurstRequests at
/// kPhase2Rps. Each phase's requests are stored back to back, so the mix
/// strata run across segment boundaries; seg1/seg2 hold the cycle sizes.
struct ServePlan {
  std::vector<perfbench::PlannedRequest> phase1, phase2;
  std::vector<size_t> seg1, seg2;
};

ServePlan PlanServe(uint64_t seed, double budget_s, size_t* next_fresh) {
  ServePlan p;
  const size_t cycles =
      std::max<size_t>(2, static_cast<size_t>(budget_s / kCycleS));
  std::vector<int64_t> a1, a2;
  for (size_t c = 0; c < cycles; ++c) {
    const uint64_t cs = seed * 1'000'003ULL + 2 * c;
    const auto seg = perfbench::PoissonArrivals(cs, kPhase1Rps, kSegmentS);
    p.seg1.push_back(seg.size());
    a1.insert(a1.end(), seg.begin(), seg.end());
    auto burst = perfbench::PoissonArrivals(
        cs + 1, kPhase2Rps,
        2.0 * static_cast<double>(kBurstRequests) / kPhase2Rps);
    burst.resize(std::min(burst.size(), kBurstRequests));
    p.seg2.push_back(burst.size());
    a2.insert(a2.end(), burst.begin(), burst.end());
  }
  p.phase1 = perfbench::PlanRequests(seed, a1, kTreeShapFrac, kHotFrac,
                                     kHotRows, next_fresh);
  p.phase2 = perfbench::PlanRequests(seed + 7919, a2, kTreeShapFrac, kHotFrac,
                                     kHotRows, next_fresh);
  return p;
}

/// Completions and seconds of one saturating burst: the completions of
/// every sweep after the first, over the time from the end of the first
/// sweep to the end of the last. The requests of one sweep complete
/// together (they share its sweep_ms and batch size), so the span never
/// cuts a sweep.
struct Drain {
  double completions = 0.0, seconds = 0.0;
};

Drain DrainOf(const PhaseRun& run) {
  std::map<std::pair<double, size_t>, std::pair<int64_t, size_t>> sweeps;
  for (const Slot& sl : run.slots) {
    if (sl.state != SlotState::kOk) continue;
    auto& [end, count] = sweeps[{sl.bd.sweep_ms, sl.bd.coalesce_batch_size}];
    end = std::max(end, sl.done_ns);
    ++count;
  }
  std::vector<std::pair<int64_t, size_t>> ends;
  for (const auto& [key, v] : sweeps) ends.push_back(v);
  if (ends.size() < 2) return {};
  std::sort(ends.begin(), ends.end());
  size_t after_first = 0;
  for (size_t i = 1; i < ends.size(); ++i) after_first += ends[i].second;
  return {static_cast<double>(after_first),
          static_cast<double>(ends.back().first - ends.front().first) * 1e-9};
}

/// Phase-1 latency from due time: the median over every segment, and as
/// the tail the median of the p99s of consecutive windows of at least 1000
/// requests each (a noisy second of the machine then moves one window, not
/// the figure). The capacity is the bursts' drain completions over their
/// drain seconds, summed over every burst.
E2e ServeE2e(const PhaseRun& p1, const std::vector<Drain>& drains) {
  E2e e;
  std::vector<double> all;
  for (const Slot& sl : p1.slots)
    if (sl.state == SlotState::kOk)
      all.push_back(static_cast<double>(sl.done_ns - sl.due_ns) * 1e-6);
  e.windows = std::max<size_t>(1, all.size() / 1000);
  std::vector<std::vector<double>> windows(e.windows);
  for (size_t i = 0; i < all.size(); ++i)
    windows[i * e.windows / all.size()].push_back(all[i]);
  e.latency = Summarize(std::move(all));
  e.pooled_tail = e.latency.tail;
  std::tie(e.latency.tail_pct, e.latency.tail) =
      perfbench::WindowedTail(std::move(windows));
  Drain sum;
  for (const Drain& d : drains) {
    sum.completions += d.completions;
    sum.seconds += d.seconds;
  }
  e.capacity_rps = sum.seconds > 0 ? sum.completions / sum.seconds : 0.0;
  return e;
}

/// What a traced pass records beyond the figures: the model calls made
/// during phase-1 segments (count, rows, busy time, spans) and the
/// service's batching counters summed over the bursts.
struct ServeTrace {
  SpanLog model_log;
  uint64_t calls = 0, rows = 0, busy_ns = 0;
  uint64_t burst_batched = 0, burst_duplicates = 0;
};

struct ServePass {
  PhaseRun p1, p2;  ///< Every cycle's segment (burst), back to back.
  std::vector<Drain> drains;  ///< One per burst.
  E2e e2e;
};

void AppendRun(PhaseRun* all, PhaseRun part) {
  if (all->slots.empty()) all->start_ns = part.start_ns;
  all->accepted += part.accepted;
  std::move(part.slots.begin(), part.slots.end(),
            std::back_inserter(all->slots));
}

ServePass MeasureServe(ServeState& s, const ServePlan& plan,
                       ServeTrace* trace) {
  ServePass pass;
  auto o1 = plan.phase1.begin(), o2 = plan.phase2.begin();
  for (size_t c = 0; c < plan.seg1.size(); ++c) {
    const std::vector<perfbench::PlannedRequest> seg(o1, o1 + plan.seg1[c]);
    const std::vector<perfbench::PlannedRequest> burst(o2, o2 + plan.seg2[c]);
    o1 += static_cast<std::ptrdiff_t>(plan.seg1[c]);
    o2 += static_cast<std::ptrdiff_t>(plan.seg2[c]);
    if (trace) s.model->Trace(&trace->model_log);
    PhaseRun r1 = RunPhase(s, seg, true);
    if (trace) {
      trace->calls += s.model->calls();
      trace->rows += s.model->rows();
      trace->busy_ns += s.model->busy_ns();
      s.model->Trace(nullptr);
    }
    const xai::ExplanationServiceStats before = s.service->stats();
    PhaseRun r2 = RunPhase(s, burst, true);
    if (trace) {
      const xai::ExplanationServiceStats after = s.service->stats();
      trace->burst_batched += after.batched_requests - before.batched_requests;
      trace->burst_duplicates +=
          after.coalesced_duplicates - before.coalesced_duplicates;
    }
    pass.drains.push_back(DrainOf(r2));
    AppendRun(&pass.p1, std::move(r1));
    AppendRun(&pass.p2, std::move(r2));
  }
  pass.e2e = ServeE2e(pass.p1, pass.drains);
  return pass;
}

void ReportServePass(const char* label, const ServePass& pass) {
  std::vector<double> late, burst_rps;
  for (const Slot& sl : pass.p1.slots)
    late.push_back(static_cast<double>(sl.submit_ns - sl.due_ns) * 1e-6);
  for (const Drain& d : pass.drains)
    if (d.seconds > 0) burst_rps.push_back(d.completions / d.seconds);
  std::sort(burst_rps.begin(), burst_rps.end());
  const LatencySummary l = Summarize(late);
  const LatencySummary& e = pass.e2e.latency;
  std::printf("%s phase 1 @ %.0f/s in %zu segments of %.0f s: latency from "
              "due p50 %.3f ms, p%d %.3f ms (median of %zu windows; pooled "
              "%.3f ms), max %.3f ms (n=%zu); generator late p50 %.3f ms, "
              "p%d %.3f ms\n",
              label, kPhase1Rps, pass.drains.size(), kSegmentS, e.p50,
              e.tail_pct, e.tail, pass.e2e.windows, pass.e2e.pooled_tail,
              e.max, e.n, l.p50, l.tail_pct, l.tail);
  std::printf("%s phase 2: %zu bursts of %zu requests @ %.0f/s offered: "
              "%.1f completions/s (bursts from %.1f to %.1f)\n",
              label, pass.drains.size(), kBurstRequests, kPhase2Rps,
              pass.e2e.capacity_rps, burst_rps.empty() ? 0.0 : burst_rps[0],
              burst_rps.empty() ? 0.0 : burst_rps.back());
  PrintCounts("  phase 1", Count(pass.p1));
  PrintCounts("  phase 2", Count(pass.p2));
}

/// Phase-1 spans of the traced pass: per successful request the end-to-end
/// span (due to completion), generator lateness, queue wait and the
/// ExplainBatch sweep it rode (from the response's breakdown), with the
/// model calls made during that sweep under it.
std::vector<Span> ServeSpans(const PhaseRun& p1,
                             const std::vector<perfbench::PlannedRequest>& plan,
                             std::vector<Span> model) {
  std::vector<Span> spans;
  for (size_t i = 0; i < p1.slots.size(); ++i) {
    const Slot& sl = p1.slots[i];
    if (sl.state != SlotState::kOk) continue;
    const uint64_t id = i + 1;
    const int64_t root = static_cast<int64_t>(spans.size());
    spans.push_back({"e2e.request", sl.due_ns, sl.done_ns, -1, id});
    spans.push_back({"load.late", sl.due_ns, sl.submit_ns, root, id});
    const int64_t deq =
        sl.submit_ns + static_cast<int64_t>(sl.bd.queue_ms * 1e6);
    spans.push_back({"serve.queue", sl.submit_ns, deq, root, id});
    spans.push_back({plan[i].tree_shap ? "feature.treeshap" : "feature.kernelshap",
                     deq, deq + static_cast<int64_t>(sl.bd.sweep_ms * 1e6),
                     root, id});
  }
  AttachModelSpans(std::move(model), &spans, "feature.kernelshap");
  return spans;
}

Outcome RunServe(const Args& a) {
  Outcome o;
  const std::string audit_dir =
      a.out_dir + "/audit-" + std::to_string(getpid());
  ServeState s;
  s.config.kernel_shap.max_background = 20;
  // Plans first: they fix how many fresh rows the run needs.
  size_t next_fresh = 0;
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const ServePlan plan = PlanServe(a.seed, budget, &next_fresh);
  ServePlan traced_plan;
  if (a.trace) traced_plan = PlanServe(a.seed + 104729, budget, &next_fresh);
  o.setup_s = TimedSetup([&] { BuildServe(a, audit_dir, &s, next_fresh); });
  std::printf("setup: loan GBDT (%zu rows, d=8, 40 rounds), service + audit "
              "ledger, %zu warm-up requests; median of %d: %.3f s\n",
              kLoanRows, 2 * kHotRows + kWarmRows, kSetupReps, o.setup_s);

  const ServePass pass = MeasureServe(s, plan, nullptr);
  ReportServePass("untraced", pass);
  o.e2e = pass.e2e;
  std::vector<const ServePass*> passes = {&pass};
  std::vector<const std::vector<perfbench::PlannedRequest>*> plans = {
      &plan.phase1, &plan.phase2};

  ServePass traced;
  if (a.trace) {
    const xai::ExplanationServiceStats st0 = s.service->stats();
    const xai::obs::AuditLogStats au0 = s.audit->stats();
    ServeTrace tr;
    traced = MeasureServe(s, traced_plan, &tr);
    const uint64_t calls1 = tr.calls, rows1 = tr.rows, busy1 = tr.busy_ns;
    std::vector<Span> model_spans = tr.model_log.Take();
    s.audit->Flush();
    const xai::ExplanationServiceStats st2 = s.service->stats();
    const xai::obs::AuditLogStats au2 = s.audit->stats();
    ReportServePass("traced", traced);
    passes.push_back(&traced);
    plans.push_back(&traced_plan.phase1);
    plans.push_back(&traced_plan.phase2);

    // serve: phase-1 breakdowns explain latency, phase-2 batching explains
    // capacity.
    std::vector<double> queue, sweep, other, late;
    double ts_sweep_ms = 0.0;
    uint64_t ks_rows = 0, ts_rows = 0;
    for (size_t i = 0; i < traced.p1.slots.size(); ++i) {
      const Slot& sl = traced.p1.slots[i];
      late.push_back(static_cast<double>(sl.submit_ns - sl.due_ns) * 1e-6);
      if (sl.state != SlotState::kOk) continue;
      queue.push_back(sl.bd.queue_ms);
      sweep.push_back(sl.bd.sweep_ms);
      other.push_back(sl.bd.total_ms - sl.bd.queue_ms - sl.bd.sweep_ms);
      if (traced_plan.phase1[i].tree_shap) {
        ts_sweep_ms += sl.bd.sweep_ms / static_cast<double>(std::max<size_t>(
                                            1, sl.bd.coalesce_batch_size));
        ++ts_rows;
      } else {
        ++ks_rows;
      }
    }
    const LatencySummary q = Summarize(queue);
    o.layer["serve.queue_ms.p50"] = q.p50;
    o.layer["serve.queue_ms.p99"] = q.tail;
    o.layer["serve.sweep_ms.p50"] = Summarize(sweep).p50;
    o.layer["serve.other_ms.p50"] = Summarize(other).p50;
    o.layer["load.late_ms.p99"] = Summarize(late).tail;
    double batch_sum = 0.0;
    uint64_t batch_n = 0;
    for (const Slot& sl : traced.p2.slots)
      if (sl.state == SlotState::kOk) {
        batch_sum += static_cast<double>(sl.bd.coalesce_batch_size);
        ++batch_n;
      }
    o.layer["serve.batch_size.mean"] =
        batch_n ? batch_sum / static_cast<double>(batch_n) : 0.0;
    o.layer["serve.dedup_frac"] =
        tr.burst_batched ? static_cast<double>(tr.burst_duplicates) /
                               static_cast<double>(tr.burst_batched)
                         : 0.0;
    const uint64_t hits = st2.cache_hits - st0.cache_hits;
    const uint64_t lookups = hits + st2.cache_misses - st0.cache_misses;
    o.layer["core.cache.hit_rate"] =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                : 0.0;
    o.layer["core.cache.lookups"] = static_cast<double>(lookups);
    o.layer["core.cache.evictions"] =
        static_cast<double>(st2.cache_evictions - st0.cache_evictions);
    o.layer["model.predict.calls"] = static_cast<double>(calls1);
    o.layer["model.predict.rows"] = static_cast<double>(rows1);
    o.layer["model.predict.busy_ms"] = static_cast<double>(busy1) * 1e-6;
    o.layer["model.predict.ns_per_row"] =
        rows1 ? static_cast<double>(busy1) / static_cast<double>(rows1) : 0.0;
    o.layer["feature.treeshap.busy_ms"] = ts_sweep_ms;
    o.layer["feature.treeshap.us_per_row"] =
        ts_rows ? 1e3 * ts_sweep_ms / static_cast<double>(ts_rows) : 0.0;
    o.layer["feature.kernelshap.evals_per_row"] =
        ks_rows ? static_cast<double>(rows1) / static_cast<double>(ks_rows)
                : 0.0;
    o.layer["obs.audit.records"] =
        static_cast<double>(au2.written - au0.written);
    o.layer["obs.audit.dropped"] =
        static_cast<double>(au2.dropped - au0.dropped);
    o.layer["obs.audit.bytes"] = static_cast<double>(au2.bytes - au0.bytes);
    o.layer["obs.audit.fsyncs"] = static_cast<double>(au2.fsyncs - au0.fsyncs);
    o.spans = ServeSpans(traced.p1, traced_plan.phase1, std::move(model_spans));
    // Sweep wall time not covered by model calls, shared among the
    // requests of the sweep.
    const std::vector<int64_t> self = perfbench::SelfTimes(o.spans);
    double ks_self_ms = 0.0;
    for (size_t i = 0; i < o.spans.size(); ++i) {
      if (o.spans[i].name != "feature.kernelshap") continue;
      const Slot& sl = traced.p1.slots[o.spans[i].id - 1];
      ks_self_ms += static_cast<double>(self[i]) * 1e-6 /
                    static_cast<double>(
                        std::max<size_t>(1, sl.bd.coalesce_batch_size));
    }
    o.layer["feature.kernelshap.self_ms"] =
        ks_rows ? ks_self_ms / static_cast<double>(ks_rows) : 0.0;
    o.layer["tail.p99_ms"] = pass.e2e.latency.tail;
    o.e2e = traced.e2e;
  }

  s.service->Shutdown();
  s.audit->Flush();
  const xai::ExplanationServiceStats st = s.service->stats();
  const xai::obs::AuditLogStats au = s.audit->stats();

  // Open-loop accounting and gates over every measured pass.
  uint64_t successes = s.warm_successes;
  for (const ServePass* p : passes)
    for (const PhaseRun* r : {&p->p1, &p->p2}) {
      const PhaseCounts c = Count(*r);
      o.attempted += c.attempted;
      o.failed += c.failed;
      successes += c.succeeded;
    }
  std::printf("service: %llu submitted, %llu completed, %llu expired, "
              "%llu batches, %llu coalesced duplicates; cache %llu hits / "
              "%llu misses, %llu evictions\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.expired),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.coalesced_duplicates),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_misses),
              static_cast<unsigned long long>(st.cache_evictions));
  std::printf("audit ledger: %llu records, %llu dropped, %llu bytes, "
              "%llu fsyncs\n",
              static_cast<unsigned long long>(au.written),
              static_cast<unsigned long long>(au.dropped),
              static_cast<unsigned long long>(au.bytes),
              static_cast<unsigned long long>(au.fsyncs));
  Gate(&o, au.dropped == 0, "serve: audit ledger dropped == 0");
  Gate(&o, au.written == successes,
       "serve: audit ledger records == successful requests (" +
           std::to_string(successes) + ")");

  // Sampled responses against a solo Explain of the same row.
  auto kernel = xai::MakeExplainer(xai::ExplainerKind::kKernelShap,
                                   xai::ModelHandle::Borrow(*s.model), s.train,
                                   s.config);
  auto tree = xai::MakeExplainer(xai::ExplainerKind::kTreeShap,
                                 xai::ModelHandle::Borrow(*s.model), s.train,
                                 s.config);
  size_t checked = 0, mismatched = 0;
  if (kernel.ok() && tree.ok()) {
    for (size_t pi = 0; pi < passes.size(); ++pi) {
      const PhaseRun* runs[2] = {&passes[pi]->p1, &passes[pi]->p2};
      for (int ph = 0; ph < 2; ++ph) {
        const auto& pl = *plans[2 * pi + static_cast<size_t>(ph)];
        for (size_t i = 0; i < runs[ph]->slots.size(); ++i) {
          const Slot& sl = runs[ph]->slots[i];
          if (!sl.keep || sl.state != SlotState::kOk) continue;
          auto solo = (pl[i].tree_shap ? *tree : *kernel)->Explain(
              RowOf(s, pl[i]));
          ++checked;
          if (!solo.ok() || !BitEqual(solo->values, sl.attr.values) ||
              !BitEqual(solo->base_value, sl.attr.base_value) ||
              !BitEqual(solo->prediction, sl.attr.prediction))
            ++mismatched;
        }
      }
    }
  }
  Gate(&o, kernel.ok() && tree.ok() && checked > 0 && mismatched == 0,
       "serve: " + std::to_string(checked) +
           " sampled responses bit-identical to solo Explain");
  s.service.reset();
  s.audit.reset();
  std::error_code ec;
  std::filesystem::remove_all(audit_dir, ec);

  if (a.trace) {
    TrainingProbes(s.train, xai::GbdtOptions().tree, s.fit_s, &o);
    DispatchProbes(&o);
    o.layer["trace.overhead_pct.p50_ms"] =
        100.0 * (traced.e2e.latency.p50 / pass.e2e.latency.p50 - 1.0);
    o.layer["trace.overhead_pct.p99_ms"] =
        100.0 * (traced.e2e.latency.tail / pass.e2e.latency.tail - 1.0);
    o.layer["trace.overhead_pct.capacity_rps"] =
        100.0 * (traced.e2e.capacity_rps / pass.e2e.capacity_rps - 1.0);
  }
  return o;
}

// ---------------------------------------------------------------------------
// batch_treeshap / batch_kernelshap

constexpr size_t kBatchTrainRows = 10000;
constexpr size_t kHeldOutRows = 4096;
/// Rows per ExplainBatch call: about 0.15 s of TreeSHAP on one thread and
/// 0.5 s of KernelSHAP on the pool, so a run holds a hundred or more.
constexpr size_t kTreeShapBlock = 64;
constexpr size_t kKernelShapBlock = 8;
/// KernelSHAP: one kept block in this many is checked against Explain.
constexpr size_t kKeepEvery = 4;

xai::GbdtOptions BatchGbdtOptions() {
  xai::GbdtOptions opts;
  opts.num_rounds = 200;
  opts.tree = {.max_depth = 6, .min_samples_leaf = 20, .max_features = 0};
  return opts;
}

struct BatchState {
  xai::Dataset train;
  xai::Dataset held_out;
  std::unique_ptr<TimedGbdt> model;
  double fit_s = 0.0;
};

void BuildBatch(uint64_t seed, BatchState* s) {
  s->train = xai::MakeGaussianDataset(
      kBatchTrainRows, {.seed = kModelDataSeed, .dims = 16, .rho = 0.25});
  s->held_out = xai::MakeGaussianDataset(
      kHeldOutRows, {.seed = seed * 2 + 2, .dims = 16, .rho = 0.25});
  const int64_t f0 = NowNs();
  auto fit = xai::GradientBoostedTrees::Fit(s->train, BatchGbdtOptions());
  s->fit_s = SecondsSince(f0);
  if (!fit.ok()) {
    std::fprintf(stderr, "perfbench: fit failed: %s\n",
                 fit.status().ToString().c_str());
    std::exit(1);
  }
  s->model = std::make_unique<TimedGbdt>(std::move(fit).value());
}

struct BlockPass {
  E2e e2e;
  uint64_t blocks = 0, rows = 0, failed = 0;
  double busy_ms = 0.0;  ///< Time inside ExplainBatch, summed over workers.
  std::vector<Span> spans;
  std::vector<std::pair<size_t, std::vector<xai::FeatureAttribution>>> kept;
};

/// Explains blocks of the held-out table until `seconds` have passed, on
/// one thread per explainer in `ex`, each walking the table (wrapping around)
/// from its own offset and calling ExplainBatch on one block at a time.
/// With `keep`, the attributions of one block in kKeepEvery are kept for
/// the gates; `check(worker, block, attributions)` runs on every block
/// outside the timing and must be safe to call from distinct workers.
/// p50 is the median ExplainBatch call, over every worker; capacity is the
/// sum of the workers' rows per second inside ExplainBatch.
template <typename Check>
BlockPass RunBlocks(const std::vector<xai::AttributionExplainer*>& ex,
                    const xai::Dataset& rows, size_t block, double seconds,
                    bool keep, const char* span_name, bool trace,
                    Check&& check) {
  const size_t workers = ex.size();
  std::vector<BlockPass> part(workers);
  std::vector<std::vector<double>> lat(workers);
  std::atomic<uint64_t> next_id{0};
  const int64_t t_end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  auto work = [&](size_t w) {
    BlockPass& p = part[w];
    size_t next = w * rows.n() / workers;
    int64_t busy_ns = 0;
    while (NowNs() < t_end) {
      const size_t first = next;
      const uint64_t id = next_id.fetch_add(1) + 1;
      const int64_t t0 = NowNs();
      xai::Matrix m(block, rows.d());
      for (size_t i = 0; i < block; ++i) {
        const double* src = rows.x().RowPtr((first + i) % rows.n());
        std::copy(src, src + rows.d(), m.RowPtr(i));
      }
      const int64_t t1 = NowNs();
      auto out = ex[w]->ExplainBatch(m);
      const int64_t t2 = NowNs();
      next = (first + block) % rows.n();
      ++p.blocks;
      lat[w].push_back(static_cast<double>(t2 - t0) * 1e-6);
      busy_ns += t2 - t1;
      if (trace) {
        const int64_t root = static_cast<int64_t>(p.spans.size());
        p.spans.push_back({"e2e.block", t0, t2, -1, id});
        p.spans.push_back({span_name, t1, t2, root, id});
      }
      if (!out.ok() || out->size() != block) {
        p.failed += block;
        continue;
      }
      p.rows += block;
      check(w, m, *out);
      if (keep && p.blocks % kKeepEvery == 1)
        p.kept.emplace_back(first, std::move(out).value());
    }
    p.busy_ms = static_cast<double>(busy_ns) * 1e-6;
  };
  std::vector<std::thread> threads;
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
  work(0);
  for (std::thread& t : threads) t.join();

  BlockPass p;
  std::vector<double> all;
  for (size_t w = 0; w < workers; ++w) {
    BlockPass& q = part[w];
    p.blocks += q.blocks;
    p.rows += q.rows;
    p.failed += q.failed;
    p.busy_ms += q.busy_ms;
    if (q.busy_ms > 0)
      p.e2e.capacity_rps += static_cast<double>(q.rows) / (q.busy_ms * 1e-3);
    // Re-parent the worker's spans onto their place in the merged log.
    const int64_t base = static_cast<int64_t>(p.spans.size());
    for (Span& sp : q.spans) {
      if (sp.parent >= 0) sp.parent += base;
      p.spans.push_back(std::move(sp));
    }
    std::move(q.kept.begin(), q.kept.end(), std::back_inserter(p.kept));
    all.insert(all.end(), lat[w].begin(), lat[w].end());
  }
  p.e2e.latency = Summarize(std::move(all));
  return p;
}

Outcome RunBatch(const Args& a, bool tree_shap) {
  Outcome o;
  BatchState s;
  o.setup_s = TimedSetup([&] { BuildBatch(a.seed, &s); });
  std::printf("setup: %zu x 16 Gaussian rows, GBDT 200 rounds depth 6 (fit "
              "%.3f s), %zu held-out rows; median of %d: %.3f s\n",
              kBatchTrainRows, s.fit_s, kHeldOutRows, kSetupReps, o.setup_s);
  const xai::ModelHandle handle = xai::ModelHandle::Borrow(*s.model);
  xai::ExplainerConfig config;  // KernelSHAP: d=16 > 13, so sampled
  config.cache = nullptr;       // no coalition cache
  // TreeSHAP ExplainBatch runs on the calling thread, so the table is
  // explained by MaxThreads() workers, each with its own explainer; their
  // summed rate also averages over the host cores they land on. KernelSHAP
  // spreads each row over the pool: one worker.
  const size_t workers = tree_shap ? MaxThreads() : 1;
  std::vector<std::unique_ptr<xai::AttributionExplainer>> owned;
  std::vector<xai::AttributionExplainer*> ex;
  for (size_t w = 0; w < workers; ++w) {
    auto made = xai::MakeExplainer(tree_shap ? xai::ExplainerKind::kTreeShap
                                             : xai::ExplainerKind::kKernelShap,
                                   handle, s.train, config);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: explainer: %s\n",
                   made.status().ToString().c_str());
      std::exit(1);
    }
    owned.push_back(std::move(made).value());
    ex.push_back(owned.back().get());
  }
  const size_t block = tree_shap ? kTreeShapBlock : kKernelShapBlock;
  const char* span_name = tree_shap ? "feature.treeshap" : "feature.kernelshap";

  // TreeSHAP efficiency on every explained row: base + sum(phi) equals the
  // model margin within the tolerance the TreeSHAP unit tests use.
  std::vector<uint64_t> eff_rows(workers, 0), eff_bad(workers, 0);
  auto check = [&](size_t w, const xai::Matrix& m,
                   const std::vector<xai::FeatureAttribution>& out) {
    if (!tree_shap) return;
    const std::vector<double> margin = s.model->PredictMarginBatch(m);
    for (size_t i = 0; i < out.size(); ++i) {
      ++eff_rows[w];
      if (!(std::fabs(out[i].Reconstruction() - margin[i]) <= 1e-7) ||
          !(std::fabs(out[i].prediction - margin[i]) <= 1e-9))
        ++eff_bad[w];
    }
  };
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const bool keep = !tree_shap;
  BlockPass pass = RunBlocks(ex, s.held_out, block, budget, keep, span_name,
                             false, check);
  auto report = [&](const char* label, const BlockPass& p) {
    const LatencySummary& l = p.e2e.latency;
    std::printf("%s: %llu blocks of %zu rows on %zu worker(s); block latency "
                "p50 %.3f ms, p%d %.3f ms, max %.3f ms (n=%zu); %.2f rows/s "
                "inside ExplainBatch; failed %llu of %llu rows\n",
                label, static_cast<unsigned long long>(p.blocks), block,
                workers, l.p50, l.tail_pct, l.tail, l.max, l.n,
                p.e2e.capacity_rps, static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.rows + p.failed));
  };
  report("untraced", pass);
  o.e2e = pass.e2e;
  o.attempted = pass.rows + pass.failed;
  o.failed = pass.failed;
  std::vector<BlockPass*> passes = {&pass};

  BlockPass traced;
  if (a.trace) {
    SpanLog model_log;
    s.model->Trace(&model_log);
    traced = RunBlocks(ex, s.held_out, block, budget, keep, span_name, true,
                       check);
    s.model->Trace(nullptr);
    report("traced", traced);
    passes.push_back(&traced);
    o.attempted += traced.rows + traced.failed;
    o.failed += traced.failed;
    const double calls = static_cast<double>(s.model->calls());
    const double mrows = static_cast<double>(s.model->rows());
    const double mbusy_ms = static_cast<double>(s.model->busy_ns()) * 1e-6;
    o.layer["model.predict.calls"] = calls;
    o.layer["model.predict.rows"] = mrows;
    o.layer["model.predict.busy_ms"] = mbusy_ms;
    o.layer["model.predict.ns_per_row"] = mrows > 0 ? mbusy_ms * 1e6 / mrows : 0;
    const double rows = static_cast<double>(std::max<uint64_t>(1, traced.rows));
    o.spans = std::move(traced.spans);
    AttachModelSpans(model_log.Take(), &o.spans, span_name);
    if (tree_shap) {
      o.layer["feature.treeshap.busy_ms"] = traced.busy_ms;
      o.layer["feature.treeshap.us_per_row"] = 1e3 * traced.busy_ms / rows;
    } else {
      // ExplainBatch wall time not covered by model calls.
      const std::vector<int64_t> self = perfbench::SelfTimes(o.spans);
      double self_ms = 0.0;
      for (size_t i = 0; i < o.spans.size(); ++i)
        if (o.spans[i].name == span_name)
          self_ms += static_cast<double>(self[i]) * 1e-6;
      o.layer["feature.kernelshap.self_ms"] = self_ms / rows;
      o.layer["feature.kernelshap.evals_per_row"] = mrows / rows;
    }
    o.layer["tail.p99_ms"] = pass.e2e.latency.tail;
    o.e2e = traced.e2e;
    TrainingProbes(s.train, BatchGbdtOptions().tree, s.fit_s, &o);
    DispatchProbes(&o);
    o.layer["trace.overhead_pct.p50_ms"] =
        100.0 * (traced.e2e.latency.p50 / pass.e2e.latency.p50 - 1.0);
    o.layer["trace.overhead_pct.p99_ms"] =
        100.0 * (traced.e2e.latency.tail / pass.e2e.latency.tail - 1.0);
    o.layer["trace.overhead_pct.capacity_rps"] =
        100.0 * (traced.e2e.capacity_rps / pass.e2e.capacity_rps - 1.0);
  }

  if (tree_shap) {
    const uint64_t rows_checked =
        std::accumulate(eff_rows.begin(), eff_rows.end(), uint64_t{0});
    const uint64_t bad =
        std::accumulate(eff_bad.begin(), eff_bad.end(), uint64_t{0});
    Gate(&o, rows_checked > 0 && bad == 0,
         "batch: TreeSHAP efficiency on " + std::to_string(rows_checked) +
             " rows (|base + sum(phi) - margin| <= 1e-7)");
  } else {
    // Sampled KernelSHAP batch rows against per-row Explain, bitwise.
    size_t checked = 0, mismatched = 0;
    for (const BlockPass* p : passes)
      for (const auto& [first, attrs] : p->kept) {
        const std::vector<double> row = s.held_out.row(first);
        auto solo = ex[0]->Explain(row);
        ++checked;
        if (!solo.ok() || !BitEqual(solo->values, attrs[0].values) ||
            !BitEqual(solo->base_value, attrs[0].base_value))
          ++mismatched;
      }
    Gate(&o, checked > 0 && mismatched == 0,
         "batch: " + std::to_string(checked) +
             " sampled KernelSHAP batch rows bit-identical to Explain");
  }
  return o;
}

// ---------------------------------------------------------------------------
// train_gbdt

constexpr size_t kTrainRows = 250000;
constexpr double kAucFloor = 0.80;

xai::GbdtOptions TrainGbdtOptions() {
  xai::GbdtOptions opts;
  opts.num_rounds = 10;
  opts.tree = {.max_depth = 6, .min_samples_leaf = 20, .max_features = 0};
  opts.tree.train.method = xai::TrainMethod::kHist;
  return opts;
}

Outcome RunTrain(const Args& a) {
  Outcome o;
  xai::Dataset ds;
  o.setup_s = TimedSetup([&] {
    ds = xai::MakeGaussianDataset(
        kTrainRows, {.seed = a.seed * 2 + 1, .dims = 16, .rho = 0.25});
  });
  std::printf("setup: %zu x 16 Gaussian rows; median of %d: %.3f s\n",
              kTrainRows, kSetupReps, o.setup_s);
  const xai::GbdtOptions opts = TrainGbdtOptions();
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  double last_auc = 0.0;
  bool all_ok = true;

  auto run = [&](bool trace, std::vector<Span>* spans) {
    std::vector<double> fit_ms;
    const int64_t t_end = NowNs() + static_cast<int64_t>(budget * 1e9);
    do {
      const int64_t t0 = NowNs();
      auto fit = xai::GradientBoostedTrees::Fit(ds, opts);
      const int64_t t1 = NowNs();
      fit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      ++o.attempted;
      if (trace) {
        const int64_t root = static_cast<int64_t>(spans->size());
        spans->push_back({"e2e.fit", t0, t1, -1, fit_ms.size()});
        spans->push_back({"model.fit", t0, t1, root, fit_ms.size()});
      }
      if (!fit.ok()) {
        ++o.failed;
        all_ok = false;
        continue;
      }
      last_auc = xai::EvaluateAuc(*fit, ds);
      if (!(last_auc >= kAucFloor)) all_ok = false;
    } while (NowNs() < t_end);
    E2e e;
    e.latency = Summarize(fit_ms);
    const double rows_rounds =
        static_cast<double>(kTrainRows) * static_cast<double>(opts.num_rounds);
    e.capacity_rps = rows_rounds / (e.latency.p50 * 1e-3);
    std::printf("%s: %zu fits of %zu rows x %d rounds, depth %d: fit p50 "
                "%.1f ms, p%d %.1f ms, max %.1f ms; %.0f row-rounds/s; "
                "train AUC %.4f\n",
                trace ? "traced" : "untraced", e.latency.n, kTrainRows,
                opts.num_rounds, opts.tree.max_depth, e.latency.p50,
                e.latency.tail_pct, e.latency.tail, e.latency.max,
                e.capacity_rps, last_auc);
    return e;
  };
  const E2e untraced = run(false, nullptr);
  o.e2e = untraced;
  if (a.trace) {
    const E2e traced = run(true, &o.spans);
    o.layer["tail.p99_ms"] = untraced.latency.tail;
    o.e2e = traced;
    TrainingProbes(ds, opts.tree, traced.latency.p50 * 1e-3, &o);
    DispatchProbes(&o);
    std::printf("fit split (standalone bin-build probe): bin build %.3f s, "
                "rest %.3f s\n",
                o.layer["data.bin_build_s"], o.layer["model.fit.rest_s"]);
    o.layer["trace.overhead_pct.p50_ms"] =
        100.0 * (traced.latency.p50 / untraced.latency.p50 - 1.0);
    o.layer["trace.overhead_pct.p99_ms"] =
        100.0 * (traced.latency.tail / untraced.latency.tail - 1.0);
    o.layer["trace.overhead_pct.capacity_rps"] =
        100.0 * (traced.capacity_rps / untraced.capacity_rps - 1.0);
  }
  Gate(&o, all_ok,
       "train: every fit succeeded with train AUC >= " +
           std::to_string(kAucFloor).substr(0, 4));
  return o;
}

// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

void PrintEnv(const Args& a) {
  std::printf("env {\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"source\": \"%s\", \"threads\": %zu, "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              JsonEscape(CpuModel()).c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              JsonEscape("gcc " __VERSION__).c_str(),
              JsonEscape(a.source).c_str(), xai::GlobalThreadCount(),
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
}

void PrintLayerTable(const Outcome& o) {
  const auto table = perfbench::LayerTable(o.spans);
  double total = 0.0;
  for (const auto& [name, ns] : table) total += ns;
  std::printf("self time by layer (%zu spans, %.1f ms end to end):\n",
              o.spans.size(), total * 1e-6);
  for (const auto& [name, ns] : table)
    std::printf("  %-14s %12.3f ms %7.2f%%\n", name.c_str(), ns * 1e-6,
                total > 0 ? 100.0 * ns / total : 0.0);
}

double UnattributedPct(const Outcome& o) {
  double total = 0.0, un = 0.0;
  for (const auto& [name, ns] : perfbench::LayerTable(o.spans)) {
    total += ns;
    if (name == "unattributed") un += ns;
  }
  return total > 0 ? 100.0 * un / total : 0.0;
}

void WriteSpans(const Args& a, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans)
    std::fprintf(f, "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"id\": %llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--source") a->source = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_skewed|batch_treeshap|"
                 "batch_kernelshap|train_gbdt --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--source ID]\n");
    return 2;
  }
  // Library threads: MaxThreads() for batch_kernelshap, whose ParallelFor
  // chunks are long, and one elsewhere. On a shared 4-vCPU host, short
  // ParallelFor calls on four threads made serve_skewed swing 30-50% and
  // train_gbdt 22% from run to run, against 8% and 7% on one thread in the
  // same minutes (README.md). batch_treeshap makes no ParallelFor call.
  xai::SetGlobalThreads(a.workload == "batch_kernelshap" ? MaxThreads() : 1);
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  PrintEnv(a);

  Outcome o;
  if (a.workload == "serve_skewed") {
    o = RunServe(a);
  } else if (a.workload == "batch_treeshap") {
    o = RunBatch(a, true);
  } else if (a.workload == "batch_kernelshap") {
    o = RunBatch(a, false);
  } else if (a.workload == "train_gbdt") {
    o = RunTrain(a);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("failed_frac %.6f (%llu failed of %llu attempted)\n",
              o.attempted ? static_cast<double>(o.failed) /
                                static_cast<double>(o.attempted)
                          : 0.0,
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (a.trace) {
    PrintLayerTable(o);
    WriteSpans(a, o.spans);
    o.layer["trace.unattributed_pct"] = UnattributedPct(o);
    for (const auto& [name, unit] : kLayerMetrics)
      metrics.emplace_back(name, o.layer[name], unit);
  } else {
    metrics = {{"p50_ms", o.e2e.latency.p50, "ms"},
               {"capacity_rps", o.e2e.capacity_rps, "1/s"},
               {"setup_s", o.setup_s, "s"},
               {"peak_rss_mib", PeakRssMib(), "MiB"}};
  }
  for (const auto& [name, value, unit] : metrics)
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
  std::string json = "{\"correct\": ";
  json += o.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}
