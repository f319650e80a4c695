#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "math/matrix.h"
#include "obs/audit.h"
#include "obs/obs.h"

namespace xai {

namespace {

using Clock = std::chrono::steady_clock;

/// Overlays a request's budget onto the family's sample / permutation
/// count. The returned config fully determines the attribution, so its
/// Fingerprint doubles as the coalescing key.
ExplainerConfig ApplyBudget(ExplainerConfig c, ExplainerKind kind,
                            int budget) {
  if (budget <= 0) return c;
  switch (kind) {
    case ExplainerKind::kTreeShap:
      break;  // exact — no sampling budget to override
    case ExplainerKind::kKernelShap:
      c.kernel_shap.num_samples = budget;
      break;
    case ExplainerKind::kLime:
      c.lime.num_samples = budget;
      break;
    case ExplainerKind::kMcShapley:
      c.mc_shapley.num_permutations = budget;
      break;
  }
  return c;
}

/// Folds the request arity into a config fingerprint — requests of
/// different width can never share a sweep's Matrix.
uint64_t MixArity(uint64_t fp, size_t arity) {
  return fp ^ (0x9e3779b97f4a7c15ULL * (arity + 1));
}

/// FNV-1a over a row's raw bytes, for the warm-history dedup set.
uint64_t HashRow(const std::vector<double>& row) {
  uint64_t h = 14695981039346656037ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(row.data());
  for (size_t i = 0; i < row.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool IsShapleyFamily(ExplainerKind kind) {
  return kind == ExplainerKind::kKernelShap ||
         kind == ExplainerKind::kMcShapley;
}

}  // namespace

struct ExplanationService::Pending {
  ExplanationRequest req;
  std::promise<Result<ExplanationResponse>> promise;
  Callback cb;
  Clock::time_point submit_time;
  Clock::time_point deadline;  // time_point::max() when none
  uint64_t seq = 0;
  /// Full coalescing key: family fingerprint with the model version baked
  /// in, plus arity. Only requests captured on the same version coalesce.
  uint64_t key = 0;
  /// Version-agnostic family key (model_fingerprint zeroed) — indexes the
  /// shared-across-swaps coalition cache and warm history.
  uint64_t family_key = 0;
  /// The serving version captured at Submit. Holding it here is what
  /// guarantees the request is evaluated on the version it was admitted
  /// under, even if a swap flips the serving handle while it queues.
  ModelHandle handle;
  /// Filled in as the request moves through the pipeline; trace_id is
  /// assigned at Submit, queue_ms/sweep_ms/batch size by the dispatcher.
  ExplanationBreakdown breakdown;

  /// Fulfils promise then callback, recording end-to-end latency and
  /// closing the request's async trace span. Runs on the dispatcher
  /// thread (or the submitting thread for shutdown rejections).
  void Finish(Result<ExplanationResponse> result) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - submit_time)
                        .count();
    XAI_OBS_OBSERVE("serve.request_latency_us", us);
    if (result.ok()) {
      result.value().breakdown = breakdown;
      result.value().breakdown.total_ms = static_cast<double>(us) * 1e-3;
    }
    if (breakdown.trace_id != 0)
      obs::TraceAsyncEnd("serve.request", breakdown.trace_id);
    promise.set_value(result);
    if (cb) cb(result);
  }
};

ExplanationService::ExplanationService(ModelHandle model,
                                       const Dataset& background,
                                       ExplanationServiceOptions opts)
    : serving_(std::make_shared<const ModelHandle>(std::move(model))),
      background_(background),
      opts_(std::move(opts)),
      paused_(opts_.start_paused) {
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  stats_.model_version = serving_.load()->version();
  XAI_OBS_GAUGE_SET("serve.model_version", stats_.model_version);
  dispatcher_ = std::thread([this] { RunDispatcher(); });
}

ExplanationService::~ExplanationService() { Shutdown(); }

std::unique_ptr<ExplanationService::Pending> ExplanationService::MakePending(
    ExplanationRequest req, Callback cb) const {
  auto p = std::make_unique<Pending>();
  p->submit_time = Clock::now();
  p->deadline = req.timeout.count() > 0 ? p->submit_time + req.timeout
                                        : Clock::time_point::max();
  p->cb = std::move(cb);
  // Capture the serving version now: the request is evaluated against
  // exactly this handle no matter how many swaps land while it queues.
  p->handle = *serving_.load();
  ExplainerConfig cfg = ApplyBudget(opts_.config, req.kind, req.budget);
  cfg.model_fingerprint = 0;  // family key: any version
  p->family_key = MixArity(cfg.Fingerprint(req.kind), req.instance.size());
  cfg.model_fingerprint = p->handle.fingerprint();
  p->key = MixArity(cfg.Fingerprint(req.kind), req.instance.size());
  p->breakdown.model_version = p->handle.version();
  p->req = std::move(req);
  // Trace-context propagation starts here: the request's id is minted on
  // the submitting thread, its async span opens on this thread, and the
  // dispatcher re-installs the id around everything done on its behalf.
  p->breakdown.trace_id = obs::NewTraceId();
  if (p->breakdown.trace_id != 0) {
    obs::ScopedTraceContext ctx(
        obs::TraceContext{p->breakdown.trace_id, 0});
    obs::TraceAsyncBegin("serve.request", p->breakdown.trace_id);
    obs::TraceInstant("serve.submit",
                      static_cast<double>(p->breakdown.trace_id));
  }
  return p;
}

void ExplanationService::EnqueueLocked(std::unique_ptr<Pending> p) {
  p->seq = next_seq_++;
  ++stats_.submitted;
  queue_.push_back(std::move(p));
  XAI_OBS_GAUGE_SET("serve.queue_depth", queue_.size());
}

Status ExplanationService::RejectNonFinite(
    const std::vector<double>& instance) {
  for (size_t j = 0; j < instance.size(); ++j) {
    if (std::isfinite(instance[j])) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    XAI_OBS_COUNT("serve.rejected_nonfinite");
    return Status::InvalidArgument(
        "ExplanationService: non-finite instance value at feature " +
        std::to_string(j));
  }
  return Status::OK();
}

std::future<Result<ExplanationResponse>> ExplanationService::Submit(
    ExplanationRequest req, Callback cb) {
  if (Status st = RejectNonFinite(req.instance); !st.ok()) {
    std::promise<Result<ExplanationResponse>> promise;
    const Result<ExplanationResponse> result(std::move(st));
    promise.set_value(result);
    if (cb) cb(result);
    return promise.get_future();
  }
  auto p = MakePending(std::move(req), std::move(cb));
  auto fut = p->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_capacity_.wait(lock, [&] {
      return shutdown_ || queue_.size() < opts_.queue_capacity;
    });
    if (shutdown_) {
      ++stats_.rejected;
      lock.unlock();
      p->Finish(Status::Unavailable("ExplanationService is shut down"));
      return fut;
    }
    EnqueueLocked(std::move(p));
  }
  cv_work_.notify_one();
  return fut;
}

Result<std::future<Result<ExplanationResponse>>> ExplanationService::TrySubmit(
    ExplanationRequest req, Callback cb) {
  XAI_RETURN_NOT_OK(RejectNonFinite(req.instance));
  auto p = MakePending(std::move(req), std::move(cb));
  auto fut = p->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ++stats_.rejected;
      return Status::Unavailable("ExplanationService is shut down");
    }
    if (queue_.size() >= opts_.queue_capacity) {
      ++stats_.rejected;
      return Status::Unavailable("ExplanationService queue is full");
    }
    EnqueueLocked(std::move(p));
  }
  cv_work_.notify_one();
  return fut;
}

void ExplanationService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void ExplanationService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    paused_ = false;  // drain even if never resumed
  }
  cv_work_.notify_all();
  cv_capacity_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ModelHandle ExplanationService::serving_model() const {
  return *serving_.load();
}

Result<ModelSwapReport> ExplanationService::SwapModel(
    ModelHandle next, ModelSwapOptions swap_opts) {
  if (!next.valid())
    return Status::InvalidArgument("SwapModel: invalid model handle");
  if (next.model().num_features() != 0 && background_.d() != 0 &&
      next.model().num_features() != background_.d())
    return Status::InvalidArgument(
        "SwapModel: incoming model expects " +
        std::to_string(next.model().num_features()) + " features, service " +
        "background has " + std::to_string(background_.d()));
  // One swap at a time; the dispatcher keeps serving the old version
  // throughout — we only take mu_ for short map snapshots/inserts.
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  const ModelHandle prev = *serving_.load();

  ModelSwapReport report;
  report.from = prev.VersionedName();
  report.to = next.VersionedName();
  obs::Stopwatch warm_timer;

  // Snapshot every coalescing family seen so far, with its recent rows.
  struct FamilySnapshot {
    uint64_t family_key = 0;
    ExplainerKind kind = ExplainerKind::kKernelShap;
    int budget = 0;
    size_t arity = 0;
    std::vector<std::vector<double>> rows;
  };
  std::vector<FamilySnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(families_.size());
    for (const auto& [fkey, hist] : families_) {
      FamilySnapshot fs;
      fs.family_key = fkey;
      fs.kind = hist.kind;
      fs.budget = hist.budget;
      fs.arity = hist.arity;
      const size_t take = std::min(swap_opts.warm_rows, hist.rows.size());
      fs.rows.assign(hist.rows.end() - static_cast<long>(take),
                     hist.rows.end());
      snapshot.push_back(std::move(fs));
    }
  }

  // Build (validating!) and warm the incoming version's explainer for
  // every family BEFORE the flip. A family the new model cannot serve —
  // treeshap over a non-tree model, say — rejects the whole swap here,
  // with the old version still serving and nothing mutated.
  std::vector<std::pair<uint64_t, ExplainerEntry>> built;
  built.reserve(snapshot.size());
  for (FamilySnapshot& fs : snapshot) {
    ExplainerConfig cfg = ApplyBudget(opts_.config, fs.kind, fs.budget);
    cfg.model_fingerprint = next.fingerprint();
    cfg.cache = FamilyCache(fs.kind, fs.family_key);
    const uint64_t key = MixArity(cfg.Fingerprint(fs.kind), fs.arity);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (explainers_.count(key)) continue;  // re-swap to a known version
    }
    auto ex = MakeExplainer(fs.kind, next, background_, cfg);
    if (!ex.ok())
      return Status::InvalidArgument(
          "SwapModel: incoming model " + next.VersionedName() +
          " cannot serve family '" + ExplainerKindName(fs.kind) +
          "': " + ex.status().message());
    if (!fs.rows.empty()) {
      Matrix rows(fs.rows.size(), fs.arity);
      for (size_t i = 0; i < fs.rows.size(); ++i) rows.SetRow(i, fs.rows[i]);
      // Warming replay: populates the family's shared coalition cache
      // with new-version entries (distinct keyspace — the eval engine's
      // context fingerprint covers the model identity) while the old
      // version still answers live traffic. Attribution output discarded.
      Result<std::vector<FeatureAttribution>> warmed =
          ex.value()->ExplainBatch(rows);
      if (!warmed.ok())
        return Status::InvalidArgument(
            "SwapModel: warming failed for family '" +
            std::string(ExplainerKindName(fs.kind)) +
            "': " + warmed.status().message());
      report.warmed_rows += fs.rows.size();
    }
    ExplainerEntry entry;
    entry.explainer = std::move(ex).value();
    entry.handle = next;
    built.emplace_back(key, std::move(entry));
    ++report.warmed_families;
  }

  // Publish the pre-built explainers, then flip. Requests captured before
  // the store keep their old handle (and old-version explainers, which
  // stay in explainers_ for as long as they might be needed); requests
  // captured after see only `next`.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, entry] : built)
      explainers_.emplace(key, std::move(entry));
  }
  serving_.store(std::make_shared<const ModelHandle>(next));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.swaps;
    stats_.model_version = next.version();
  }
  XAI_OBS_COUNT("serve.swaps");
  XAI_OBS_GAUGE_SET("serve.model_version", next.version());
  report.warm_ms = warm_timer.ElapsedUs() * 1e-3;
  return report;
}

ExplanationServiceStats ExplanationService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExplanationServiceStats out = stats_;
  out.queue_depth = queue_.size();
  for (const auto& [key, cache] : caches_) {
    const EvalCacheStats cs = cache->stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    out.cache_evictions += cs.evictions;
    out.cache_entries += cs.entries;
  }
  return out;
}

void ExplanationService::RunDispatcher() {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;  // spurious wake while paused
      }
      // Leader: highest priority; ties go to the earliest submission
      // (the queue is in seq order, so the first max wins).
      size_t best = 0;
      for (size_t i = 1; i < queue_.size(); ++i)
        if (queue_[i]->req.priority > queue_[best]->req.priority) best = i;
      const uint64_t key = queue_[best]->key;
      const size_t limit = opts_.coalesce ? opts_.max_batch : 1;
      batch.push_back(std::move(queue_[best]));
      queue_.erase(queue_.begin() + static_cast<long>(best));
      // Followers: every compatible pending request, in submission order.
      // kind + budget are compared directly so a (vanishingly unlikely)
      // fingerprint collision can never mix families in one sweep.
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < limit;) {
        if ((*it)->key == key && (*it)->req.kind == batch[0]->req.kind &&
            (*it)->req.budget == batch[0]->req.budget) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      XAI_OBS_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    cv_capacity_.notify_all();
    ServeBatch(std::move(batch));
  }
}

std::shared_ptr<CoalitionValueCache> ExplanationService::FamilyCache(
    ExplainerKind kind, uint64_t family_key) {
  // One memo cache per coalescing *family*, shared by every model version
  // the family serves: instances repeated across batches (and across a
  // hot-swap's warming pass) hit instead of re-evaluating the model. Only
  // the Shapley families route coalition values through the engine;
  // building caches for the others would just pad the stats with dead
  // capacity.
  if (opts_.cache_size == 0 || !IsShapleyFamily(kind)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = caches_.find(family_key);
  if (it != caches_.end()) return it->second;
  auto cache = std::make_shared<CoalitionValueCache>(opts_.cache_size);
  caches_.emplace(family_key, cache);
  return cache;
}

Result<AttributionExplainer*> ExplanationService::GetExplainer(
    const Pending& leader) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = explainers_.find(leader.key);
    if (it != explainers_.end()) return it->second.explainer.get();
  }
  const ExplainerKind kind = leader.req.kind;
  ExplainerConfig cfg = ApplyBudget(opts_.config, kind, leader.req.budget);
  cfg.model_fingerprint = leader.handle.fingerprint();
  cfg.cache = FamilyCache(kind, leader.family_key);
  XAI_ASSIGN_OR_RETURN(std::unique_ptr<AttributionExplainer> ex,
                       MakeExplainer(kind, leader.handle, background_, cfg));
  AttributionExplainer* raw = ex.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      explainers_.try_emplace(leader.key);
  if (inserted) {
    it->second.explainer = std::move(ex);
    it->second.handle = leader.handle;
  }
  return inserted ? raw : it->second.explainer.get();
}

void ExplanationService::FinishError(
    std::vector<std::unique_ptr<Pending>>& batch, const Status& status) {
  for (auto& p : batch) p->Finish(status);
}

void ExplanationService::ServeBatch(
    std::vector<std::unique_ptr<Pending>> batch) {
  XAI_OBS_COUNT("serve.batches");
  XAI_OBS_COUNT_N("serve.batched_requests", batch.size());

  // Partition: requests whose deadline passed while queued are expired
  // without evaluation — cheaper than computing an answer nobody is
  // waiting for.
  const auto now = Clock::now();
  std::vector<std::unique_ptr<Pending>> expired;
  std::vector<std::unique_ptr<Pending>> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (now >= p->deadline) {
      XAI_OBS_COUNT("serve.expired");
      expired.push_back(std::move(p));
    } else {
      live.push_back(std::move(p));
    }
  }

  // Queue wait ends now, for every live request drafted into this batch.
  for (auto& p : live) {
    const auto wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - p->submit_time)
            .count();
    p->breakdown.queue_ms = static_cast<double>(wait_us) * 1e-3;
    p->breakdown.coalesce_batch_size = live.size();
    XAI_OBS_OBSERVE("serve.queue_wait_us", wait_us);
    if (p->breakdown.trace_id != 0) {
      obs::ScopedTraceContext ctx(
          obs::TraceContext{p->breakdown.trace_id, 0});
      obs::TraceInstant("serve.dequeue", p->breakdown.queue_ms);
    }
  }

  // Collapse bit-identical instances: each unique row is evaluated once
  // and its attribution fans out to every duplicate request — sound
  // because attributions are deterministic in (instance, key).
  std::map<std::vector<double>, size_t> index;
  std::vector<size_t> slot(live.size());
  std::vector<const std::vector<double>*> unique_rows;
  for (size_t i = 0; i < live.size(); ++i) {
    auto [it, inserted] =
        index.try_emplace(live[i]->req.instance, unique_rows.size());
    if (inserted) unique_rows.push_back(&live[i]->req.instance);
    slot[i] = it->second;
  }
  const uint64_t n_duplicates = live.size() - unique_rows.size();
  XAI_OBS_COUNT_N("serve.coalesced_duplicates", n_duplicates);

  // Publish stats BEFORE fulfilling any promise: a caller that observed
  // its future resolve must see this batch already reflected in stats().
  // The same critical section records this batch's unique rows into the
  // family's warm history — the instances SwapModel replays against an
  // incoming model version.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.batched_requests += batch.size();
    stats_.expired += expired.size();
    stats_.completed += live.size();
    stats_.coalesced_duplicates += n_duplicates;
    if (!live.empty()) {
      FamilyHistory& hist = families_[live[0]->family_key];
      hist.kind = live[0]->req.kind;
      hist.budget = live[0]->req.budget;
      hist.arity = live[0]->req.instance.size();
      for (const std::vector<double>* row : unique_rows) {
        if (!hist.seen.insert(HashRow(*row)).second) continue;
        if (hist.rows.size() < kHistoryCap) {
          hist.rows.push_back(*row);
        } else {
          // Ring overwrite; drop the evictee's hash so it can re-enter.
          hist.seen.erase(HashRow(hist.rows[hist.next]));
          hist.rows[hist.next] = *row;
          hist.next = (hist.next + 1) % kHistoryCap;
        }
      }
    }
  }

  FinishError(expired, Status::DeadlineExceeded(
                           "deadline passed before evaluation started"));
  if (live.empty()) return;

  Matrix rows(unique_rows.size(), live[0]->req.instance.size());
  for (size_t i = 0; i < unique_rows.size(); ++i)
    rows.SetRow(i, *unique_rows[i]);

  // The sweep runs under the leader's trace context: the serve_batch span
  // and every ParallelFor chunk inside the explainer carry its trace_id.
  // Coalesced riders link themselves to the leader with a ride_batch
  // instant so their timelines point at the sweep that answered them.
  const uint64_t leader_trace = live[0]->breakdown.trace_id;
  obs::ScopedTraceContext sweep_ctx(obs::TraceContext{leader_trace, 0});
  XAI_OBS_SPAN("serve_batch");
  for (auto& p : live) {
    if (p->breakdown.trace_id != 0 && p->breakdown.trace_id != leader_trace) {
      obs::ScopedTraceContext ctx(obs::TraceContext{
          p->breakdown.trace_id, obs::CurrentTraceContext().span_id});
      obs::TraceInstant("serve.ride_batch",
                        static_cast<double>(leader_trace));
    }
  }

  Result<AttributionExplainer*> ex = GetExplainer(*live[0]);
  if (!ex.ok()) {
    FinishError(live, ex.status());
    return;
  }
  obs::Stopwatch sweep;
  Result<std::vector<FeatureAttribution>> results = (*ex)->ExplainBatch(rows);
  const double sweep_us = sweep.ElapsedUs();
  // Request-weighted (one observation per request, not per batch), so the
  // serve.sweep_us percentiles answer "what sweep time did a request see".
  for (auto& p : live) {
    p->breakdown.sweep_ms = sweep_us * 1e-3;
    XAI_OBS_OBSERVE("serve.sweep_us", sweep_us);
  }
  if (!results.ok()) {
    FinishError(live, results.status());
    return;
  }
  for (size_t i = 0; i < live.size(); ++i) {
    ExplanationResponse resp;
    resp.attribution = results.value()[slot[i]];
    // Monitoring hook: observers see the response (attribution + the
    // breakdown as known so far) before the caller's future resolves, so
    // a drift verdict can never lag the response that caused it.
    if (opts_.response_observer) {
      resp.breakdown = live[i]->breakdown;
      opts_.response_observer(live[i]->req, resp);
    }
    live[i]->Finish(std::move(resp));
    // Provenance: ledger the served response after its promise resolves.
    // The staged append fills a ring slot in place (no allocation, no
    // syscall — the ledger's drain thread does all I/O), so auditing adds
    // nothing observable to request latency; a full ring drops and counts.
    if (opts_.audit) {
      if (obs::AuditRecord* rec = opts_.audit->StageAppend()) {
        const Pending& p = *live[i];
        const FeatureAttribution& fa = results.value()[slot[i]];
        rec->trace_id = p.breakdown.trace_id;
        rec->row_hash = HashRow(p.req.instance);
        rec->model_fingerprint = p.handle.fingerprint();
        rec->config_fingerprint = p.key;
        rec->model_name = p.handle.name();
        rec->model_version = p.handle.version();
        rec->kind = static_cast<uint8_t>(p.req.kind);
        rec->budget = p.req.budget;
        rec->queue_ms = static_cast<float>(p.breakdown.queue_ms);
        rec->sweep_ms = static_cast<float>(p.breakdown.sweep_ms);
        rec->total_ms = static_cast<float>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - p.submit_time)
                .count() *
            1e-3);
        rec->batch_size =
            static_cast<uint32_t>(p.breakdown.coalesce_batch_size);
        rec->instance = p.req.instance;
        rec->base_value = fa.base_value;
        rec->prediction = fa.prediction;
        obs::TopKAttributionsInto(fa.values, opts_.audit->options().top_k,
                                  &rec->top_attr);
        opts_.audit->CommitAppend();
      }
    }
  }
}

}  // namespace xai
