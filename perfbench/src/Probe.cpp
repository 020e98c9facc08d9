//===- perfbench/src/Probe.cpp --------------------------------------------===//

#include "Probe.h"

#include "api/RepairReport.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace prdnn;

namespace perfbench {

ScopedSpan::ScopedSpan(obs::TraceBuffer *Log, std::uint64_t Job,
                       const char *Name)
    : Log(Log) {
  if (!Log)
    return;
  E.JobId = Job;
  E.Name = Name;
  E.ThreadId = obs::threadOrdinal();
  E.StartNanos = obs::TraceBuffer::nowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!Log)
    return;
  E.DurationNanos = obs::TraceBuffer::nowNanos() - E.StartNanos;
  Log->record(E);
}

void JobRecord::fill(const RepairReport &R) {
  EngineJobId = R.JobId;
  QueueSeconds = R.QueueSeconds;
  TotalSeconds = R.TotalSeconds;
  const RepairStats &S = R.stats();
  OtherSeconds = S.OtherSeconds;
  SpecRows = S.SpecRows;
  LpRowsUsed = S.LpRowsUsed;
  CgRounds = S.CgRounds;
  Kernels = S.LpKernels;
  KeyPoints = S.KeyPoints;
  Regions = S.LinearRegions;
  Attempts = static_cast<int>(R.Sweep.size());
  for (const SweepAttempt &A : R.Sweep) {
    LpIterations += A.LpIterations;
    LpRefactors += A.LpRefactors;
    AttemptSeconds += A.Seconds;
    WarmAttempts += A.WarmStarted ? 1 : 0;
  }
  CacheHits = R.CacheHits;
  CacheMisses = R.CacheMisses;
  const int Hits[4] = {S.JacobianCacheHits, S.LinRegionsCacheHits,
                       S.PatternCacheHits, S.BasisHits};
  const int Misses[4] = {S.JacobianCacheMisses, S.LinRegionsCacheMisses,
                         S.PatternCacheMisses, S.BasisMisses};
  std::memcpy(KindHits, Hits, sizeof(Hits));
  std::memcpy(KindMisses, Misses, sizeof(Misses));
}

void MetricSet::add(const std::string &Name, double Value,
                    const std::string &Unit) {
  Entries.push_back({Name, {std::isfinite(Value) ? Value : 0.0, Unit}});
}

std::string MetricSet::resultJson(bool Correct, std::uint64_t Attempted,
                                  std::uint64_t Failed) const {
  std::ostringstream Os;
  Os << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  char Buffer[64];
  for (size_t I = 0; I < Entries.size(); ++I) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Entries[I].second.first);
    Os << (I ? ", " : "") << '"' << Entries[I].first << "\": {\"value\": "
       << Buffer << ", \"unit\": \"" << Entries[I].second.second << "\"}";
  }
  Os << "}}";
  return Os.str();
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double hostProbeSeconds() {
  const int N = 512, Reps = 48, Trials = 5;
  const unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> Best(Threads);
  auto Work = [&](unsigned T) {
    std::vector<double> A(static_cast<size_t>(N) * N), X(N, 1.0), Y(N);
    for (size_t I = 0; I < A.size(); ++I)
      A[I] = static_cast<double>((I * 7919 + T) % 1000) * 1e-3 - 0.5;
    double Fastest = std::numeric_limits<double>::infinity(), Sink = 0.0;
    for (int Trial = 0; Trial < Trials; ++Trial) {
      auto T0 = std::chrono::steady_clock::now();
      for (int R = 0; R < Reps; ++R) {
        for (int I = 0; I < N; ++I) {
          const double *Row = &A[static_cast<size_t>(I) * N];
          double S = 0.0;
          for (int J = 0; J < N; ++J)
            S += Row[J] * X[J];
          Y[I] = S;
        }
        for (int I = 0; I < N; ++I)
          X[I] = Y[I] / (1.0 + std::fabs(Y[I]));
      }
      Fastest = std::min(
          Fastest, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count());
      Sink += X[0];
    }
    // Keeps the products from being optimised away.
    Best[T] = Fastest + (Sink == 12345.0 ? 1e-12 : 0.0);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back(Work, T);
  for (std::thread &T : Pool)
    T.join();
  return median(Best);
}

Timing summarizeTiming(const std::vector<JobRecord> &Jobs,
                       int PassesPerWindow) {
  std::map<int, std::vector<const JobRecord *>> Windows;
  for (const JobRecord &J : Jobs)
    Windows[J.Pass / PassesPerWindow].push_back(&J);
  std::vector<double> Rates, P50s, Tails;
  Timing T;
  for (const auto &[Index, Window] : Windows) {
    double First = Window.front()->StartSeconds, Last = 0.0;
    std::vector<double> Latency;
    for (const JobRecord *J : Window) {
      First = std::min(First, J->StartSeconds);
      Last = std::max(Last, J->StartSeconds + J->LatencySeconds);
      Latency.push_back(J->LatencySeconds);
    }
    std::sort(Latency.begin(), Latency.end());
    // With 20 jobs or fewer that rank would not lie above the median, so
    // the tail is the largest latency there.
    const size_t N = Latency.size(), Rank = N > 20 ? N - 11 : N - 1;
    if (T.Windows++ == 0) {
      T.JobsPerWindow = N;
      T.TailPercentile = 100.0 * double(Rank + 1) / double(N);
    }
    Rates.push_back(Last > First ? double(N) / (Last - First) : 0.0);
    P50s.push_back(median(Latency));
    Tails.push_back(Latency[Rank]);
  }
  T.JobsPerSecond = median(Rates);
  T.P50 = median(P50s);
  T.Tail = median(Tails);
  return T;
}

namespace {

constexpr double kNs = 1e-9;

struct Interval {
  std::uint64_t Start, End;
};

/// Length of the union of \p Children clipped to [Start, End).
std::uint64_t coveredNanos(std::vector<Interval> Children,
                           std::uint64_t Start, std::uint64_t End) {
  std::sort(Children.begin(), Children.end(),
            [](const Interval &A, const Interval &B) {
              return A.Start < B.Start;
            });
  std::uint64_t Covered = 0, Reach = Start;
  for (const Interval &C : Children) {
    std::uint64_t S = std::max(C.Start, Reach), E = std::min(C.End, End);
    if (E > S) {
      Covered += E - S;
      Reach = E;
    }
  }
  return Covered;
}

std::uint64_t endNanos(const obs::TraceEvent &E) {
  return E.StartNanos + E.DurationNanos;
}

bool isEngineCall(const obs::TraceEvent &S) {
  return std::strcmp(S.Name, "api.run") == 0 ||
         std::strcmp(S.Name, "rpc.repair") == 0;
}

/// The benchmark job each library span belongs to (0 = unattributed):
/// served spans by the engine job id the report carried, inline spans
/// (engine job id 0) by the engine-call span whose interval holds them -
/// inline workloads run one job at a time.
std::vector<std::uint64_t>
attribute(const std::vector<JobRecord> &Jobs,
          const std::vector<obs::TraceEvent> &Bench,
          const std::vector<obs::TraceEvent> &Library) {
  std::unordered_map<std::uint64_t, std::uint64_t> ByEngineId;
  for (const JobRecord &J : Jobs)
    if (J.EngineJobId != 0)
      ByEngineId[J.EngineJobId] = J.Id;
  std::vector<const obs::TraceEvent *> Calls;
  for (const obs::TraceEvent &S : Bench)
    if (isEngineCall(S))
      Calls.push_back(&S);
  std::sort(Calls.begin(), Calls.end(),
            [](const obs::TraceEvent *A, const obs::TraceEvent *B) {
              return A->StartNanos < B->StartNanos;
            });
  std::vector<std::uint64_t> Owner(Library.size(), 0);
  for (size_t I = 0; I < Library.size(); ++I) {
    const obs::TraceEvent &E = Library[I];
    if (E.JobId != 0) {
      auto It = ByEngineId.find(E.JobId);
      Owner[I] = It == ByEngineId.end() ? 0 : It->second;
      continue;
    }
    auto It = std::upper_bound(Calls.begin(), Calls.end(), E.StartNanos,
                               [](std::uint64_t T, const obs::TraceEvent *S) {
                                 return T < S->StartNanos;
                               });
    if (It != Calls.begin() && E.StartNanos <= endNanos(**std::prev(It)))
      Owner[I] = (*std::prev(It))->JobId;
  }
  return Owner;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

void deriveLayerMetrics(const std::vector<JobRecord> &Jobs,
                        const std::vector<obs::TraceEvent> &Bench,
                        const std::vector<obs::TraceEvent> &Library,
                        const PhaseCounters &C, MetricSet &Out) {
  const double N = static_cast<double>(std::max<size_t>(Jobs.size(), 1));
  std::vector<std::uint64_t> Owner = attribute(Jobs, Bench, Library);

  // Library phase time by span name, and each engine call's children.
  std::map<std::string, double> PhaseSeconds;
  std::unordered_map<std::uint64_t, std::vector<Interval>> Children;
  for (size_t I = 0; I < Library.size(); ++I) {
    if (Owner[I] == 0)
      continue;
    const obs::TraceEvent &E = Library[I];
    PhaseSeconds[E.Name] += E.DurationNanos * kNs;
    Children[Owner[I]].push_back({E.StartNanos, endNanos(E)});
  }
  double KeyPointSeconds = 0.0, EngineSelf = 0.0;
  for (const obs::TraceEvent &S : Bench) {
    if (std::strcmp(S.Name, "syrenn.keyPointSpec") == 0)
      KeyPointSeconds += S.DurationNanos * kNs;
    if (isEngineCall(S)) {
      auto It = Children.find(S.JobId);
      std::uint64_t Covered =
          It == Children.end()
              ? 0
              : coveredNanos(It->second, S.StartNanos, endNanos(S));
      EngineSelf += (S.DurationNanos - Covered) * kNs;
    }
  }

  double SpecRows = 0, RowsUsed = 0, CgRounds = 0, Iterations = 0,
         Refactors = 0, Other = 0, Regions = 0, KeyPoints = 0, JobSeconds = 0,
         Hits = 0, Misses = 0, Attempts = 0, WarmAttempts = 0, RpcOverhead = 0,
         SweepJobs = 0, SweepWall = 0, SweepAttemptSeconds = 0,
         SweepAttempts = 0;
  double KindHits[4] = {0, 0, 0, 0}, KindMisses[4] = {0, 0, 0, 0};
  lp::SimplexStats Kernels;
  for (const JobRecord &J : Jobs) {
    SpecRows += J.SpecRows;
    RowsUsed += J.LpRowsUsed;
    CgRounds += J.CgRounds;
    Iterations += J.LpIterations;
    Refactors += J.LpRefactors;
    Other += J.OtherSeconds;
    Regions += J.Regions;
    KeyPoints += J.KeyPoints;
    JobSeconds += J.TotalSeconds;
    Hits += J.CacheHits;
    Misses += J.CacheMisses;
    Attempts += J.Attempts;
    WarmAttempts += J.WarmAttempts;
    Kernels.accumulate(J.Kernels);
    for (int K = 0; K < 4; ++K) {
      KindHits[K] += J.KindHits[K];
      KindMisses[K] += J.KindMisses[K];
    }
    if (J.EngineJobId != 0)
      RpcOverhead += J.LatencySeconds - J.QueueSeconds - J.TotalSeconds;
    if (J.Sweep) {
      ++SweepJobs;
      SweepWall += J.TotalSeconds;
      SweepAttemptSeconds += J.AttemptSeconds;
      SweepAttempts += J.Attempts;
    }
  }
  const double NSweep = std::max(SweepJobs, 1.0);

  Out.add("lp.lp_s", PhaseSeconds["Lp"] / N, "s");
  Out.add("lp.iterations", Iterations / N, "count");
  Out.add("lp.cg_rounds", CgRounds / N, "count");
  Out.add("lp.rows_used_frac", ratio(RowsUsed, SpecRows), "ratio");
  Out.add("lp.refactors", Refactors / N, "count");
  Out.add("lp.pricing_s", Kernels.PricingSeconds / N, "s");
  Out.add("lp.ftran_s", Kernels.FtranSeconds / N, "s");
  Out.add("lp.btran_s", Kernels.BtranSeconds / N, "s");
  Out.add("lp.ratio_s", Kernels.RatioSeconds / N, "s");
  Out.add("lp.update_s", Kernels.UpdateSeconds / N, "s");
  Out.add("lp.refactor_s", Kernels.RefactorSeconds / N, "s");
  Out.add("lp.warm_started_frac", ratio(WarmAttempts, Attempts), "ratio");
  Out.add("nn.jacobian_s", PhaseSeconds["Jacobian"] / N, "s");
  Out.add("nn.spec_rows", SpecRows / N, "count");
  Out.add("core.other_s", Other / N, "s");
  Out.add("core.verify_s", PhaseSeconds["Verify"] / N, "s");
  Out.add("syrenn.linregions_s",
          (PhaseSeconds["LinRegions"] + KeyPointSeconds) / N, "s");
  Out.add("syrenn.regions", Regions / N, "count");
  Out.add("syrenn.key_points", KeyPoints / N, "count");
  Out.add("api.sweep_wall_s", SweepWall / NSweep, "s");
  Out.add("api.sweep_attempt_s", SweepAttemptSeconds / NSweep, "s");
  Out.add("api.sweep_attempts", SweepAttempts / NSweep, "count");
  Out.add("api.queue_wait_s", PhaseSeconds["Queued"] / N, "s");
  Out.add("api.job_s", JobSeconds / N, "s");
  Out.add("api.self_s", EngineSelf / N, "s");
  Out.add("cache.hit_frac", ratio(Hits, Hits + Misses), "ratio");
  const char *Kinds[4] = {"jacobian", "linregions", "pattern", "basis"};
  for (int K = 0; K < 4; ++K)
    Out.add(std::string("cache.") + Kinds[K] + "_hit_frac",
            ratio(KindHits[K], KindHits[K] + KindMisses[K]), "ratio");
  Out.add("cache.bytes", static_cast<double>(C.CacheBytes), "bytes");
  Out.add("cache.evictions", static_cast<double>(C.CacheEvictions), "count");
  Out.add("persist.store_hit_frac", C.Store.hitRate(), "ratio");
  Out.add("persist.writes", static_cast<double>(C.Store.Writes), "count");
  Out.add("persist.write_skips", static_cast<double>(C.Store.WriteSkips),
          "count");
  Out.add("persist.bytes", static_cast<double>(C.Store.BytesHeld), "bytes");
  Out.add("serve.rejects", static_cast<double>(C.ServeRejects), "count");
  Out.add("rpc.overhead_s", RpcOverhead / N, "s");
  Out.add("rpc.bytes_per_job", static_cast<double>(C.RpcBytes) / N, "bytes");
  Out.add("rpc.retries", static_cast<double>(C.RpcRetries), "count");
}

std::string chromeTrace(const std::vector<obs::TraceEvent> &Bench,
                        const std::vector<obs::TraceEvent> &Library,
                        const std::vector<JobRecord> &Jobs) {
  std::vector<std::uint64_t> Owner = attribute(Jobs, Bench, Library);
  std::ostringstream Os;
  Os << "{\"traceEvents\": [";
  bool First = true;
  auto Emit = [&](const char *Name, int Pid, std::uint32_t Tid,
                  std::uint64_t Start, std::uint64_t Dur, std::uint64_t Job) {
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"job\": %llu}}",
                  First ? "" : ",", Name, Pid, Tid, Start / 1e3, Dur / 1e3,
                  static_cast<unsigned long long>(Job));
    Os << Buffer;
    First = false;
  };
  for (const obs::TraceEvent &S : Bench)
    Emit(S.Name, 1, S.ThreadId, S.StartNanos, S.DurationNanos, S.JobId);
  for (size_t I = 0; I < Library.size(); ++I)
    Emit(Library[I].Name, 2, Library[I].ThreadId, Library[I].StartNanos,
         Library[I].DurationNanos, Owner[I]);
  Os << "\n]}\n";
  return Os.str();
}

} // namespace perfbench
