#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>

#include "obs/trace.h"

namespace xai {

namespace {
// True while a thread runs chunks (for good, on pool workers), so a nested
// ParallelFor from inside a chunk runs inline instead of waiting on the job
// slot its own sweep holds.
thread_local bool t_in_chunk = false;
}  // namespace

// One ParallelFor sweep, on its caller's stack. Chunk c always covers
// [begin + c * chunk, min(end, begin + (c + 1) * chunk)), whichever
// participant claims it from the cursor.
struct ThreadPool::Job {
  size_t begin, end, chunk, num_chunks;
  const std::function<void(size_t)>& fn;
  bool traced;
  obs::TraceContext ctx;  // The caller's, installed around every chunk.
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // Written once, by whoever set `failed`.
  size_t workers_in = 0;     // Guarded by ThreadPool::mu_.

  // Claims and runs chunks until the cursor passes the end. First
  // exception wins; the rest of the sweep still runs so every output slot
  // the caller reduces over is written.
  void RunChunks() {
    for (size_t c = next++; c < num_chunks; c = next++) {
      const size_t lo = begin + c * chunk, hi = std::min(end, lo + chunk);
      try {
        if (traced) {
          obs::ScopedTraceContext install(ctx);
          obs::ScopedTraceEvent event("pool_chunk");
          for (size_t i = lo; i < hi; ++i) fn(i);
        } else {
          for (size_t i = lo; i < hi; ++i) fn(i);
        }
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  // The calling thread is the last participant of every sweep.
  for (size_t i = 1; i < num_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_in_chunk = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Only a publish, made under mu_, turns this true; claiming chunks
    // outside the lock only turns it false, so no wake-up is lost.
    cv_.wait(lock, [this] {
      return shutdown_ || (job_ != nullptr && job_->next < job_->num_chunks);
    });
    if (shutdown_) return;
    Job* job = job_;
    ++job->workers_in;
    lock.unlock();
    job->RunChunks();
    lock.lock();
    // The owner takes its job out of the slot before it waits; once it
    // has, the last worker to leave wakes it.
    if (--job->workers_in == 0 && job_ != job) cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t chunk_size,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (chunk_size == 0) chunk_size = 1;
  const size_t num_chunks = (end - begin - 1) / chunk_size + 1;

  // Inline when there is nobody to share with: no workers, a nested call,
  // one chunk, or another caller's sweep in the slot.
  std::unique_lock<std::mutex> call;
  if (!workers_.empty() && !t_in_chunk && num_chunks > 1)
    call = std::unique_lock<std::mutex>(call_mu_, std::try_to_lock);
  if (!call.owns_lock()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // The caller's trace context, captured once at the fan-out and installed
  // around every chunk. One relaxed load when tracing is off.
  const bool traced = obs::TraceEnabled();
  Job job{begin, end, chunk_size, num_chunks, fn, traced,
          traced ? obs::CurrentTraceContext() : obs::TraceContext{}};
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
  }
  cv_.notify_all();
  t_in_chunk = true;
  job.RunChunks();
  t_in_chunk = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    cv_.wait(lock, [&job] { return job.workers_in == 0; });
  }
  if (job.failed.load()) std::rethrow_exception(job.error);
}

namespace {

std::atomic<size_t> g_thread_override{0};

size_t EnvThreadCount() {
  const char* env = std::getenv("XAIDB_THREADS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace

size_t GlobalThreadCount() {
  const size_t override_n = g_thread_override.load(std::memory_order_relaxed);
  return override_n >= 1 ? override_n : EnvThreadCount();
}

void SetGlobalThreads(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

ThreadPool& GlobalPool() {
  // Never replaced or freed before exit, so a held reference cannot dangle.
  static std::mutex mu;
  static std::map<size_t, ThreadPool> pools;
  const size_t want = GlobalThreadCount();
  std::lock_guard<std::mutex> lock(mu);
  return pools.try_emplace(want, want).first->second;
}

uint64_t ChunkSeed(uint64_t seed, uint64_t chunk_index) {
  // splitmix64 finalizer over a Weyl-sequenced counter.
  uint64_t z = seed + (chunk_index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace xai
