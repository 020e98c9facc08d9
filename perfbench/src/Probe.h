//===- perfbench/src/Probe.h - spans, job records, metrics ------*- C++ -*-===//
///
/// \file
/// What the benchmark records from outside the library, and how it turns
/// that into metrics:
///
///  - ScopedSpan: the benchmark's own spans around each public call (the
///    job as the client sees it, keyPointSpec, RepairEngine::run,
///    RpcClient::repair), recorded as obs::TraceEvents (JobId = the
///    benchmark's job id) in a TraceBuffer of their own, on the library's
///    trace clock so they line up with the library's phase spans;
///  - JobRecord: one job's client latency plus the counters its report
///    carries (RepairStats, SimplexStats, SweepAttempt);
///  - deriveLayerMetrics: the per-layer metrics of a traced phase, with
///    every library phase span attributed to the benchmark job that
///    caused it and self time = span - the part its child spans cover;
///  - MetricSet: named metrics with units, printed as the run's result;
///  - hostProbeSeconds: how fast the host is right now, measured without
///    the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "cache/ArtifactCache.h"
#include "lp/Simplex.h"
#include "obs/Trace.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace prdnn {
struct RepairReport;
} // namespace prdnn

namespace perfbench {

/// Records a span (Name a string literal) from construction to
/// destruction into \p Log; a null log records nothing (untraced phases).
class ScopedSpan {
public:
  ScopedSpan(prdnn::obs::TraceBuffer *Log, std::uint64_t Job,
             const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  prdnn::obs::TraceBuffer *Log;
  prdnn::obs::TraceEvent E;
};

/// One completed job, as the client saw it.
struct JobRecord {
  std::uint64_t Id = 0;
  /// RepairReport::JobId (engine-assigned for served jobs, 0 inline).
  std::uint64_t EngineJobId = 0;
  double LatencySeconds = 0.0;
  bool Failed = false;
  bool Sweep = false; ///< the request was a kAutoLayer sweep
  /// Which pass over the pool the job belongs to, and when it started
  /// (seconds since the timed phase began).
  int Pass = 0;
  double StartSeconds = 0.0;

  // Report counters (zero when the job failed before a report arrived).
  double QueueSeconds = 0.0;
  double TotalSeconds = 0.0;
  double OtherSeconds = 0.0;
  int SpecRows = 0;
  int LpRowsUsed = 0;
  int CgRounds = 0;
  int LpIterations = 0; ///< all attempts
  int LpRefactors = 0;  ///< all attempts
  prdnn::lp::SimplexStats Kernels; ///< winning attempt
  int Attempts = 0;
  int WarmAttempts = 0;
  double AttemptSeconds = 0.0;
  std::int64_t CacheHits = 0;
  std::int64_t CacheMisses = 0;
  /// Per artifact kind (winning attempt): Jacobian, LinRegions,
  /// Pattern, Basis.
  int KindHits[4] = {0, 0, 0, 0};
  int KindMisses[4] = {0, 0, 0, 0};
  int KeyPoints = 0;
  int Regions = 0;

  void fill(const prdnn::RepairReport &R);
};

/// Cache, store, service and wire counters of one timed phase, read from
/// the library's stats calls.
struct PhaseCounters {
  std::uint64_t CacheEvictions = 0;
  std::uint64_t CacheBytes = 0;
  bool HasStore = false;
  prdnn::persist::StoreStats Store;
  std::uint64_t ServeRejects = 0;
  std::uint64_t RpcBytes = 0;
  std::uint64_t RpcRetries = 0;
};

/// Named metrics with units, in insertion order.
class MetricSet {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
  entries() const {
    return Entries;
  }
  /// The run's result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string resultJson(bool Correct, std::uint64_t Attempted,
                         std::uint64_t Failed) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Entries;
};

double median(std::vector<double> Values);

/// Seconds a fixed kernel owned by the benchmark takes now: dense
/// matrix-vector products over a 2 MiB matrix, one copy per hardware
/// thread, all run at once; the median over threads of each thread's
/// best of five trials. It calls nothing in the library, so it measures
/// the host alone. The host this was built on shares its cores and
/// caches with other machines, and its speed drifts by up to 1.6x over
/// minutes; a run divides its end-to-end times by (probe / reference
/// probe) to report them at the reference host's speed.
double hostProbeSeconds();

/// The client-side timing of one phase. The jobs are split into windows
/// of \p PassesPerWindow consecutive passes, and each figure is the
/// median over windows, so a burst of contention on
/// the host that hits part of a run moves only a few windows.
struct Timing {
  double JobsPerSecond = 0.0;
  double P50 = 0.0;
  /// Per window, the highest percentile with at least ten jobs beyond
  /// it: the 11th-largest latency (the largest in a window of 20 jobs or
  /// fewer).
  double Tail = 0.0;
  double TailPercentile = 0.0; ///< of the first window
  int Windows = 0;
  size_t JobsPerWindow = 0; ///< of the first window
};
Timing summarizeTiming(const std::vector<JobRecord> &Jobs,
                       int PassesPerWindow);

/// Per-layer metrics of one traced phase (see the file comment).
/// \p Bench holds the benchmark's spans, \p Library the library's phase
/// spans of that phase.
void deriveLayerMetrics(const std::vector<JobRecord> &Jobs,
                        const std::vector<prdnn::obs::TraceEvent> &Bench,
                        const std::vector<prdnn::obs::TraceEvent> &Library,
                        const PhaseCounters &C, MetricSet &Out);

/// Chrome trace-event JSON of the benchmark spans and the library spans,
/// each library span tagged with the benchmark job it was attributed to.
std::string chromeTrace(const std::vector<prdnn::obs::TraceEvent> &Bench,
                        const std::vector<prdnn::obs::TraceEvent> &Library,
                        const std::vector<JobRecord> &Jobs);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
