#ifndef XAIDB_COMMON_THREAD_POOL_H_
#define XAIDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xai {

/// Fork-join pool behind every parallel sweep in the library (MC-Shapley
/// permutations, KernelSHAP/LIME batch chunks, distributional values,
/// forest and histogram training). Design constraints, in order:
///
///  1. **Determinism.** Work is always split into chunks whose boundaries
///     depend only on the problem size — never on the thread count — and
///     any randomness inside a chunk comes from a counter-based stream
///     derived from (seed, chunk index). Together with callers reducing
///     chunk results in chunk order, this makes every parallel path
///     bit-identical to its serial run at a fixed seed.
///  2. **No exceptions across the pool boundary.** The first exception a
///     chunk throws is captured and rethrown on the calling thread after
///     every chunk has run (their slots in the output must stay defined
///     for the deterministic reduction).
///  3. **Per-call join.** A pool of N has N participants: N-1 workers plus
///     the calling thread, which runs chunks of its own sweep and then
///     waits only for the workers that entered that sweep. The pool has
///     one job slot; a call that finds it taken by another caller, a call
///     made from inside a chunk (nesting) and a one-chunk sweep all run
///     inline on the calling thread, so no caller ever waits on another
///     caller's chunks. A pool of size <= 1 spawns no threads.
///  4. **Lifetime.** GlobalPool()'s pools live until process exit.
class ThreadPool {
 public:
  /// `num_threads` <= 1 means inline execution (no worker threads).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants per sweep, the calling thread included.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) for i in [begin, end), partitioned into fixed chunks of
  /// `chunk_size` (boundaries independent of thread count). Blocks until
  /// all iterations finish; rethrows the first chunk exception on the
  /// caller. fn must be safe to call concurrently for distinct i.
  ///
  /// When the flight recorder is on (obs::TraceEnabled), the caller's
  /// obs::TraceContext is captured here and installed around every chunk
  /// of a shared sweep, each wrapped in a "pool_chunk" trace event on
  /// whichever thread runs it — one request's events stay linked across
  /// the fan-out.
  void ParallelFor(size_t begin, size_t end, size_t chunk_size,
                   const std::function<void(size_t)>& fn);

 private:
  struct Job;
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex call_mu_;  // Held by the caller whose job owns the slot.
  std::mutex mu_;       // Guards job_, shutdown_ and Job::workers_in.
  std::condition_variable cv_;  // Job published, job left, or shutdown.
  Job* job_ = nullptr;
  bool shutdown_ = false;
};

/// The configured library-wide parallelism degree. Resolution order:
/// SetGlobalThreads() (CLI flags, tests) > XAIDB_THREADS env var >
/// hardware_concurrency. Always >= 1.
size_t GlobalThreadCount();

/// Overrides the global thread count (0 restores the env/hardware
/// default). Takes effect on the next GlobalPool() use.
void SetGlobalThreads(size_t n);

/// The process-wide pool of GlobalThreadCount() participants. One pool per
/// size, built on first use and kept until exit: a reference taken before
/// a SetGlobalThreads() change stays valid and keeps its size.
ThreadPool& GlobalPool();

/// Derives the seed for chunk `chunk_index` of a sweep seeded with `seed`:
/// a splitmix64-style counter stream, so chunk streams are decorrelated
/// and depend only on (seed, chunk index) — the determinism contract that
/// makes thread count irrelevant to results.
uint64_t ChunkSeed(uint64_t seed, uint64_t chunk_index);

}  // namespace xai

#endif  // XAIDB_COMMON_THREAD_POOL_H_
