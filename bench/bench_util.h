#ifndef XAIDB_BENCH_BENCH_UTIL_H_
#define XAIDB_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_engine.h"
#include "obs/obs.h"

namespace xai::bench {

/// Wall-clock stopwatch in milliseconds — the library's own obs::Stopwatch,
/// so benches and internal instrumentation share one timing primitive.
using Timer = ::xai::obs::Stopwatch;

/// Prints an experiment banner: id, claim, and the series/rows to expect.
inline void Banner(const char* experiment_id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment_id);
  std::printf("claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// printf-style row helper so every bench prints aligned CSV-ish tables.
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
}

/// When XAIDB_METRICS is on, prints the library's internal counters and
/// span timings accumulated so far (model evals, samples drawn, coalitions
/// enumerated) so a bench reports observed internal cost next to its
/// wall-clock table. When the flight recorder is on, also prints its event
/// and ring-overflow drop counts (even with metrics off, so a tracing run
/// always reports whether its ring was big enough). No-op — and no output
/// — when both are off, keeping default bench output diff-stable.
inline void ReportMetrics() {
  if (::xai::obs::Enabled())
    std::fputs(::xai::obs::MetricsToTable().c_str(), stdout);
  else if (::xai::obs::TraceEnabled())
    std::printf("trace: %llu events recorded, %llu dropped by ring overflow\n",
                static_cast<unsigned long long>(::xai::obs::TraceEventCount()),
                static_cast<unsigned long long>(
                    ::xai::obs::TraceDroppedCount()));
}

/// Zeroes the internal counters so a ReportMetrics() at the end of a bench
/// covers exactly that bench's work. No-op when metrics are off.
inline void ResetMetrics() {
  if (!::xai::obs::Enabled()) return;
  ::xai::obs::MetricsRegistry::Global().ResetAll();
}

/// Shared CLI conventions for the bench binaries:
///   bench_foo [output.json] [--trace-json <path>]
/// TraceJsonArg scans argv for --trace-json, turns the flight recorder on
/// when present, and returns the capture path ("" when absent).
/// PositionalArg returns the i-th argument that is neither a --flag nor a
/// flag's value, so JSON output paths keep working in any argument order.
inline std::string TraceJsonArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace-json") {
      ::xai::obs::SetTraceEnabled(true);
      return argv[i + 1];
    }
  }
  return "";
}

inline std::string PositionalArg(int argc, char** argv, int index,
                                 const std::string& fallback) {
  int seen = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      ++i;  // skip the flag's value
      continue;
    }
    if (seen++ == index) return arg;
  }
  return fallback;
}

/// Renders coalition-value cache counters as a JSON object fragment for a
/// bench's BENCH_*.json file: {"hits": .., "misses": .., "hit_rate": ..,
/// "entries": .., "evictions": ..}. Pass a delta of two EvalCacheStats
/// snapshots to scope the numbers to one phase of a bench.
inline std::string CacheStatsJson(const ::xai::EvalCacheStats& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.4f, "
                "\"entries\": %llu, \"evictions\": %llu}",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses), s.HitRate(),
                static_cast<unsigned long long>(s.entries),
                static_cast<unsigned long long>(s.evictions));
  return buf;
}

/// Prints one aligned cache-stats table row (pairs with CacheStatsJson the
/// way Row pairs with WriteJson).
inline void ReportCacheStats(const char* label,
                             const ::xai::EvalCacheStats& s) {
  Row("%-14s %llu hits / %llu misses (%.1f%% hit rate), %llu entries, "
      "%llu evictions",
      label, static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses), 100.0 * s.HitRate(),
      static_cast<unsigned long long>(s.entries),
      static_cast<unsigned long long>(s.evictions));
}

/// Peak resident set size of this process so far, in bytes (Linux
/// ru_maxrss is KiB; macOS reports bytes directly). 0 when unavailable.
inline uint64_t PeakRssBytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#ifdef __APPLE__
  return static_cast<uint64_t>(ru.ru_maxrss);
#else
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
#endif
}

/// JSON object fragment recording the process resource footprint, written
/// into every BENCH_*.json so memory joins the perf trajectory:
/// {"peak_rss_bytes": .., "peak_rss_mib": ..[, "audit_log_bytes": ..]}.
/// Pass the ledger's stats().bytes when the bench ran with auditing on.
inline std::string ResourcesJson(uint64_t audit_log_bytes = 0) {
  const uint64_t rss = PeakRssBytes();
  char buf[160];
  if (audit_log_bytes > 0) {
    std::snprintf(buf, sizeof(buf),
                  "{\"peak_rss_bytes\": %llu, \"peak_rss_mib\": %.1f, "
                  "\"audit_log_bytes\": %llu}",
                  static_cast<unsigned long long>(rss),
                  static_cast<double>(rss) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(audit_log_bytes));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"peak_rss_bytes\": %llu, \"peak_rss_mib\": %.1f}",
                  static_cast<unsigned long long>(rss),
                  static_cast<double>(rss) / (1024.0 * 1024.0));
  }
  return buf;
}

/// JSON object fragment recording where a bench ran: CPU model, nproc,
/// build type, compiler and the git commit of the working directory, with
/// a "-dirty" suffix when the checkout has uncommitted changes ("unknown"
/// outside a checkout). Call it before the bench writes its own output
/// file into the checkout. Quotes and backslashes in the CPU model are
/// dropped.
inline std::string EnvJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu.clear();
      for (char c : line.substr(colon + 1))
        if (c != '"' && c != '\\') cpu.push_back(c);
      cpu.erase(0, cpu.find_first_not_of(' '));
      break;
    }
  }
  std::string sha;
  if (std::FILE* git =
          popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), git)) sha = buf;
    pclose(git);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  if (sha.empty()) sha = "unknown";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"gcc %s\", \"git_sha\": \"%s\"}",
                cpu.c_str(), std::thread::hardware_concurrency(),
                XAI_BUILD_TYPE, __VERSION__, sha.c_str());
  return buf;
}

/// Writes the merged flight-recorder buffers to `path` (Chrome trace JSON)
/// and reports where the trace went plus how much the ring dropped. No-op
/// when path is empty.
inline void MaybeWriteTrace(const std::string& path) {
  if (path.empty()) return;
  const ::xai::Status s = ::xai::obs::WriteTraceJson(path);
  if (s.ok())
    std::printf("trace: wrote %s (%llu events, %llu dropped)\n", path.c_str(),
                static_cast<unsigned long long>(::xai::obs::TraceEventCount()),
                static_cast<unsigned long long>(
                    ::xai::obs::TraceDroppedCount()));
  else
    std::printf("trace: FAILED to write %s: %s\n", path.c_str(),
                s.message().c_str());
}

}  // namespace xai::bench

#endif  // XAIDB_BENCH_BENCH_UTIL_H_
