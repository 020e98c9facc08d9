//===- perfbench/src/Main.cpp - end-to-end repair benchmark ---------------===//
//
// One benchmark for the paper's §7 workloads through the public API:
//
//   repair_e2e --workload fog-lines|acas-slices|served-repeats
//              --seed N --seconds S --trace 0|1
//              [--smoke] [--out-dir DIR]
//
// What is repaired is fixed; the seed N orders and mixes the jobs.
// Set-up (training, slice search, reference twins, service start) runs
// twice (once with --smoke) and setup_s is its median. The timed phase
// then repairs the work that took S seconds on the reference host (see
// passSeconds) and checks every report from outside the library. End-to-end times are reported at the
// reference host's speed (see hostProbeSeconds); the raw figures are
// printed on a '#' line.
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 an untraced phase is followed by a traced one, which
// exports a Chrome trace and the Prometheus page to DIR and yields the
// per-layer metrics. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Workloads.h"

#include "rpc/RpcClient.h"
#include "rpc/RpcServer.h"
#include "serve/RepairService.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace prdnn;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Args {
  Workload Kind = Workload::FogLines;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  /// Set-ups per run; setup_s is their median.
  int SetupRepeats = 2;
  std::string OutDir = ".bench_build/perfbench-out";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      std::optional<Workload> W = parseWorkload(Value);
      if (!W)
        return false;
      A.Kind = *W;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      A.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return false;
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  if (A.Smoke)
    A.SetupRepeats = 1;
  return HaveWorkload;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int clientCount() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Removes a directory tree when destroyed (declared before the service
/// that writes into it, so it is removed after the service is gone).
struct DirGuard {
  std::string Path;
  ~DirGuard() {
    std::error_code Ec;
    if (!Path.empty())
      std::filesystem::remove_all(Path, Ec);
  }
};

/// What a timed phase repairs through: an inline engine, or a service
/// behind an in-process RPC server on loopback.
struct Runtime {
  DirGuard Store;
  std::unique_ptr<RepairEngine> Engine;
  std::unique_ptr<serve::RepairService> Service;
  std::unique_ptr<rpc::RpcServer> Server;
  /// served-repeats: the fingerprint-addressed request of each pool
  /// entry.
  std::vector<serve::ServeRequest> Requests;

  ~Runtime() {
    if (Server)
      Server->stop();
  }
};

std::unique_ptr<Runtime>
startRuntime(WorkloadData &W, const std::shared_ptr<obs::Telemetry> &T,
             const std::string &StoreDir) {
  auto R = std::make_unique<Runtime>();
  if (W.Kind != Workload::ServedRepeats) {
    EngineOptions Options;
    Options.Telemetry = T;
    R->Engine = std::make_unique<RepairEngine>(Options);
    return R;
  }
  R->Store.Path = StoreDir;
  std::filesystem::remove_all(StoreDir);
  serve::ServiceOptions Options;
  Options.StoreDirectory = StoreDir;
  Options.Engine.NumWorkers = clientCount();
  Options.Engine.Telemetry = T;
  Options.Telemetry = false;
  R->Service = std::make_unique<serve::RepairService>(Options);
  for (auto &M : W.Models) {
    serve::RegistryError Err = serve::RegistryError::None;
    M->Fingerprint = R->Service->registry().publish(*M->Net, &Err);
    if (Err != serve::RegistryError::None)
      throw std::runtime_error("publishing " + M->Name + ": " +
                               serve::toString(Err));
  }
  R->Server = std::make_unique<rpc::RpcServer>(*R->Service,
                                               rpc::RpcServerOptions{});
  rpc::RpcError Err = rpc::RpcError::None;
  if (!R->Server->start(&Err))
    throw std::runtime_error(std::string("rpc server start: ") +
                             rpc::toString(Err));
  for (const PoolEntry &E : W.Pool) {
    serve::ServeRequest S;
    S.Model = E.M->Fingerprint;
    S.Spec = E.Request.Spec;
    S.LayerIndex = E.Request.LayerIndex;
    S.SweepLayers = E.Request.SweepLayers;
    S.Options = E.Request.Options;
    R->Requests.push_back(std::move(S));
  }
  return R;
}

/// How long one pass over the pool took on the reference host (4 cores,
/// AVX2, Release build of the commit that added this benchmark). A run
/// repairs round(--seconds / PassSeconds) passes, at least one, so it
/// lasts about --seconds there. The amount of work is thus fixed by the
/// arguments, not by the speed of the code under test: a faster library
/// finishes sooner instead of running more jobs, which would move the
/// tail percentile onto other requests and change the cold/warm mix of
/// served-repeats.
double passSeconds(Workload W) {
  switch (W) {
  case Workload::FogLines:
    return 6.5; // 8 jobs
  case Workload::AcasSlices:
    return 0.15; // 10 jobs
  case Workload::ServedRepeats:
    return 3.2; // each client sends every pool entry once
  }
  return 1.0;
}

/// Passes per timing window (see summarizeTiming). A fog-lines pass is
/// long (its 25-line group dominates) and a run holds only a few, so each
/// pass is a window of its own and a burst of contention on the host
/// that hits one pass does not move the median. served-repeats keeps its
/// cold first pass and the warm ones in one window.
int passesPerWindow(Workload W) {
  return W == Workload::FogLines ? 1 : 10;
}

int passCount(const Args &A) {
  return std::max(1, static_cast<int>(std::lround(A.Seconds /
                                                  passSeconds(A.Kind))));
}

/// One timed phase: every job's record plus what was checked.
struct Phase {
  std::vector<JobRecord> Jobs;
  double WallSeconds = 0.0;
  std::uint64_t Failed = 0;
  PhaseCounters Counters;
  /// First successful report per pool entry: the outside dense check
  /// and the quality metrics run on it after the phase.
  std::vector<std::optional<RepairReport>> FirstSuccess;
  std::mutex Mutex;

  void finish(const PoolEntry &E, size_t Entry, JobRecord J,
              const RepairReport *Report, const std::string &Error) {
    std::string Why = Error;
    if (Why.empty())
      Why = checkReport(E, *Report, /*Dense=*/false);
    J.Failed = !Why.empty();
    if (!Why.empty())
      std::fprintf(stderr, "perfbench: job %llu (%s) failed: %s\n",
                   static_cast<unsigned long long>(J.Id), E.Name.c_str(),
                   Why.c_str());
    std::lock_guard<std::mutex> Lock(Mutex);
    Failed += J.Failed ? 1 : 0;
    if (!J.Failed && Report->succeeded() && !FirstSuccess[Entry])
      FirstSuccess[Entry] = *Report;
    Jobs.push_back(std::move(J));
  }
};

/// fog-lines and acas-slices: one client, RepairEngine::run inline, over
/// \p Passes passes of the pool in seeded order. The cache is cleared
/// before every job, so each job meets a cold cache and its cost and
/// memory do not depend on the job order.
void runInline(WorkloadData &W, Runtime &RT, obs::TraceBuffer *Log, int Passes,
               std::uint64_t Seed, Phase &P) {
  RepairEngine &Engine = *RT.Engine;
  Rng Order = seededRng(Seed, 5000);
  std::vector<size_t> Indices(W.Pool.size());
  std::iota(Indices.begin(), Indices.end(), 0);
  std::uint64_t NextId = 0;
  auto Harvest = [&] {
    CacheStats S = Engine.cacheStats();
    P.Counters.CacheEvictions += S.Evictions;
    P.Counters.CacheBytes = std::max(P.Counters.CacheBytes, S.BytesHeld);
  };
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < Passes; ++I) {
    Order.shuffle(Indices);
    for (size_t Entry : Indices) {
      Harvest();
      Engine.clearCache();
      const PoolEntry &E = W.Pool[Entry];
      JobRecord J;
      J.Id = ++NextId;
      J.Sweep = E.Request.isSweep();
      J.Pass = I;
      RepairReport Report;
      int Regions = 0, KeyPoints = 0;
      Clock::time_point Start = Clock::now();
      J.StartSeconds = std::chrono::duration<double>(Start - T0).count();
      {
        ScopedSpan Job(Log, J.Id, "job");
        if (E.Slice) {
          RepairRequest Request;
          Request.Net = E.Request.Net;
          Request.LayerIndex = E.Request.LayerIndex;
          Request.Options = E.Request.Options;
          {
            ScopedSpan S(Log, J.Id, "syrenn.keyPointSpec");
            PointSpec Points =
                acasKeyPoints(*E.Request.Net, *E.Slice, nullptr, &Regions);
            KeyPoints = static_cast<int>(Points.size());
            Request.Spec = std::move(Points);
          }
          ScopedSpan S(Log, J.Id, "api.run");
          Report = Engine.run(Request);
        } else {
          ScopedSpan S(Log, J.Id, "api.run");
          Report = Engine.run(E.Request);
        }
      }
      J.LatencySeconds = secondsSince(Start);
      J.fill(Report);
      if (E.Slice) {
        J.Regions = Regions;
        J.KeyPoints = KeyPoints;
      }
      P.finish(E, Entry, std::move(J), &Report, "");
    }
  }
  P.WallSeconds = secondsSince(T0);
  Harvest();
}

/// served-repeats: one closed-loop RpcClient per core; each sends its
/// next seeded pick from the pool once the previous report is in hand,
/// \p Passes times through the pool.
void runServed(WorkloadData &W, Runtime &RT, obs::TraceBuffer *Log, int Passes,
               std::uint64_t Seed, Phase &P) {
  const int Clients = clientCount();
  std::atomic<std::uint64_t> NextId{0};
  std::atomic<std::uint64_t> Bytes{0}, Retries{0};
  const std::uint64_t RejectsBefore = RT.Service->stats().Rejected;
  Clock::time_point T0 = Clock::now();
  std::vector<std::exception_ptr> Errors(static_cast<size_t>(Clients));
  auto Client = [&](int Index) {
    try {
      rpc::RpcClientOptions Options;
      Options.Port = RT.Server->port();
      rpc::RpcClient C(Options);
      // Each client walks its own seeded permutations of the pool, so every
      // entry is drawn equally often and the mix does not vary run to run.
      Rng Pick = seededRng(Seed, 6000 + static_cast<std::uint64_t>(Index));
      std::vector<size_t> Order(W.Pool.size());
      std::iota(Order.begin(), Order.end(), 0);
      for (size_t Step = 0; Step < Passes * Order.size(); ++Step) {
        if (Step % Order.size() == 0)
          Pick.shuffle(Order);
        size_t Entry = Order[Step % Order.size()];
        const PoolEntry &E = W.Pool[Entry];
        JobRecord J;
        J.Id = ++NextId;
        J.Sweep = E.Request.isSweep();
        J.Pass = static_cast<int>(Step / Order.size());
        RepairReport Report;
        serve::ServeReject Reject = serve::ServeReject::None;
        rpc::RpcError Err = rpc::RpcError::None;
        Clock::time_point Start = Clock::now();
        J.StartSeconds = std::chrono::duration<double>(Start - T0).count();
        {
          ScopedSpan Job(Log, J.Id, "job");
          ScopedSpan S(Log, J.Id, "rpc.repair");
          Err = C.repair(RT.Requests[Entry], Report, Reject);
        }
        J.LatencySeconds = secondsSince(Start);
        std::string Error;
        if (Err != rpc::RpcError::None)
          Error = std::string("transport error ") + rpc::toString(Err);
        else if (Reject != serve::ServeReject::None)
          Error = std::string("rejected ") + serve::toString(Reject);
        else
          J.fill(Report);
        P.finish(E, Entry, std::move(J), Error.empty() ? &Report : nullptr,
                 Error);
      }
      rpc::RpcClientStats S = C.stats();
      Bytes += S.BytesSent + S.BytesReceived;
      Retries += S.Retries;
    } catch (...) {
      Errors[static_cast<size_t>(Index)] = std::current_exception();
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back(Client, I);
  for (std::thread &T : Threads)
    T.join();
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
  P.WallSeconds = secondsSince(T0);
  RT.Service->flush();
  CacheStats S = RT.Service->engine().cacheStats();
  P.Counters.CacheEvictions = S.Evictions;
  P.Counters.CacheBytes = S.BytesHeld;
  P.Counters.HasStore = S.HasStore;
  P.Counters.Store = S.Store;
  P.Counters.ServeRejects = RT.Service->stats().Rejected - RejectsBefore;
  P.Counters.RpcBytes = Bytes.load();
  P.Counters.RpcRetries = Retries.load();
}

void runPhase(WorkloadData &W, Runtime &RT, obs::TraceBuffer *Log, const Args &A,
             Phase &P) {
  P.FirstSuccess.assign(W.Pool.size(), std::nullopt);
  if (W.Kind == Workload::ServedRepeats)
    runServed(W, RT, Log, passCount(A), A.Seed, P);
  else
    runInline(W, RT, Log, passCount(A), A.Seed, P);
  // The outside dense check, once per pool entry on its first success
  // (later reports carry a Delta bit-identical to the same twin).
  for (size_t I = 0; I < W.Pool.size(); ++I) {
    if (!P.FirstSuccess[I])
      continue;
    std::string Why = checkReport(W.Pool[I], *P.FirstSuccess[I], true);
    if (!Why.empty()) {
      std::fprintf(stderr, "perfbench: %s failed the dense check: %s\n",
                   W.Pool[I].Name.c_str(), Why.c_str());
      ++P.Failed;
    }
  }
}

/// Mean repair quality over the pool entries that succeeded in a phase,
/// each counted once (so the figures do not depend on the job mix).
struct PoolQuality {
  double DeltaL1 = 0.0;
  Quality Mean;
};

PoolQuality poolQuality(const WorkloadData &W, const Phase &P) {
  PoolQuality Sum;
  int Repairs = 0;
  for (size_t I = 0; I < W.Pool.size(); ++I) {
    if (!P.FirstSuccess[I])
      continue;
    const RepairResult &R = P.FirstSuccess[I]->Result;
    Quality Q = measureQuality(*W.Pool[I].M, *R.Repaired);
    Sum.DeltaL1 += R.DeltaL1;
    Sum.Mean.DrawdownAccPct += Q.DrawdownAccPct;
    Sum.Mean.GeneralizationAccPct += Q.GeneralizationAccPct;
    Sum.Mean.DrawdownPct += Q.DrawdownPct;
    Sum.Mean.GeneralizationPct += Q.GeneralizationPct;
    ++Repairs;
  }
  const double N = std::max(Repairs, 1);
  Sum.DeltaL1 /= N;
  Sum.Mean.DrawdownAccPct /= N;
  Sum.Mean.GeneralizationAccPct /= N;
  Sum.Mean.DrawdownPct /= N;
  Sum.Mean.GeneralizationPct /= N;
  return Sum;
}

/// hostProbeSeconds() on the reference host (4 cores, AVX2, a quiet
/// spell). End-to-end times are scaled by (probe / this) to that speed.
constexpr double kReferenceProbeSeconds = 0.0096;

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Os(Path);
  Os << Text;
  Os.close();
  return static_cast<bool>(Os);
}

int run(const Args &A) {
  const Sizes S = A.Smoke ? Sizes::smoke() : Sizes();
  std::filesystem::create_directories(A.OutDir);
  const std::string Tag = std::string(toString(A.Kind)) + "-seed" +
                          std::to_string(A.Seed);
  const std::string StoreBase =
      A.OutDir + "/store-" + std::to_string(getpid()) + "-";

  // The host's speed, sampled around every set-up and timed phase.
  std::vector<double> Probes;

  // --- Set-up, several times; setup_s is the median ------------------------
  std::vector<double> SetupSeconds;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<WorkloadData> W;
  for (int K = 0; K < A.SetupRepeats; ++K) {
    RT.reset();
    W.reset();
    Probes.push_back(hostProbeSeconds());
    Clock::time_point T0 = Clock::now();
    W = std::make_unique<WorkloadData>(buildWorkload(A.Kind, S));
    RT = startRuntime(*W, nullptr, StoreBase + "u" + std::to_string(K));
    SetupSeconds.push_back(secondsSince(T0));
  }
  std::printf("# %s: set-up %d x, median %.3f s; pool %zu requests\n",
              Tag.c_str(), A.SetupRepeats, median(SetupSeconds),
              W->Pool.size());
  for (const PoolEntry &E : W->Pool)
    std::printf("#   %-16s reference %s at layer %d, %.3f s\n", E.Name.c_str(),
                toString(E.Twin.Status), E.Twin.RepairedLayer,
                E.Twin.TotalSeconds);
  if (W->AcasSliceCount > 0)
    std::printf("# acas: %d violating slices in %d scans, %d regions, %d "
                "key points\n",
                W->AcasSliceCount, W->AcasScans, W->AcasRegions,
                W->AcasKeyPoints);

  // --- Untraced phase: the end-to-end metrics ------------------------------
  Probes.push_back(hostProbeSeconds());
  Phase Plain;
  runPhase(*W, *RT, nullptr, A, Plain);
  RT.reset();
  Probes.push_back(hostProbeSeconds());
  const double Slowdown = median(Probes) / kReferenceProbeSeconds;
  std::uint64_t Attempted = Plain.Jobs.size(), Failed = Plain.Failed;

  Timing PlainTiming = summarizeTiming(Plain.Jobs, passesPerWindow(A.Kind));
  std::printf("# %s: %zu jobs in %.3f s; %d window(s) of %zu jobs; tail = "
              "p%.2f of each window\n",
              Tag.c_str(), Plain.Jobs.size(), Plain.WallSeconds,
              PlainTiming.Windows, PlainTiming.JobsPerWindow,
              PlainTiming.TailPercentile);
  std::printf("# host probe: median %.4f s over %zu samples, reference %.4f "
              "s; end-to-end times divided by %.3f (measured: setup_s %.4f, "
              "jobs_per_s %.4f, job_p50_s %.5f, job_tail_s %.5f)\n",
              median(Probes), Probes.size(), kReferenceProbeSeconds, Slowdown,
              median(SetupSeconds), PlainTiming.JobsPerSecond, PlainTiming.P50,
              PlainTiming.Tail);

  MetricSet Out;
  if (!A.Trace) {
    Out.add("setup_s", median(SetupSeconds) / Slowdown, "s");
    Out.add("jobs_per_s", PlainTiming.JobsPerSecond * Slowdown, "1/s");
    Out.add("job_p50_s", PlainTiming.P50 / Slowdown, "s");
    Out.add("job_tail_s", PlainTiming.Tail / Slowdown, "s");
    Out.add("ok_frac",
            Attempted ? 1.0 - double(Failed) / double(Attempted) : 0.0,
            "ratio");
    Out.add("peak_rss_mb", peakRssMb(), "MB");
    PoolQuality Q = poolQuality(*W, Plain);
    Out.add("delta_l1_mean", Q.DeltaL1, "norm");
    Out.add("drawdown_acc_pct", Q.Mean.DrawdownAccPct, "%");
    Out.add("generalization_acc_pct", Q.Mean.GeneralizationAccPct, "%");
  } else {
    // --- Traced phase: the per-layer metrics -------------------------------
    obs::TelemetryOptions TO;
    TO.TraceCapacity = std::size_t(1) << 18;
    auto T = std::make_shared<obs::Telemetry>(TO);
    RT = startRuntime(*W, T, StoreBase + "t");
    obs::TraceBuffer Log(TO.TraceCapacity);
    Phase Traced;
    runPhase(*W, *RT, &Log, A, Traced);
    std::string Prometheus = T->Registry.renderPrometheus();
    RT.reset();
    Attempted += Traced.Jobs.size();
    Failed += Traced.Failed;
    std::vector<obs::TraceEvent> Library = T->Trace.events();
    std::vector<obs::TraceEvent> Bench = Log.events();
    deriveLayerMetrics(Traced.Jobs, Bench, Library, Traced.Counters, Out);
    PoolQuality Q = poolQuality(*W, Traced);
    Out.add("quality.drawdown_pct", Q.Mean.DrawdownPct, "%");
    Out.add("quality.generalization_pct", Q.Mean.GeneralizationPct, "%");
    double Untraced = PlainTiming.JobsPerSecond;
    Out.add("host.probe_s", median(Probes), "s");
    Out.add("trace.overhead_frac",
            Untraced > 0
                ? 1.0 - summarizeTiming(Traced.Jobs, passesPerWindow(A.Kind))
                             .JobsPerSecond / Untraced
                : 0.0,
            "ratio");
    std::string Base = A.OutDir + "/" + Tag;
    bool Wrote =
        writeFile(Base + ".trace.json", chromeTrace(Bench, Library,
                                                    Traced.Jobs)) &&
        writeFile(Base + ".prom", Prometheus);
    std::printf("# traced: %zu jobs, %zu library spans (%llu dropped); "
                "wrote %s.trace.json and %s.prom%s\n",
                Traced.Jobs.size(), Library.size(),
                static_cast<unsigned long long>(T->Trace.dropped()),
                Base.c_str(), Base.c_str(), Wrote ? "" : " (write FAILED)");
    if (!Wrote)
      ++Failed;
  }
  std::printf("%s\n", Out.resultJson(Failed == 0 && Attempted > 0, Attempted,
                                     Failed)
                          .c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: repair_e2e --workload fog-lines|acas-slices|"
                 "served-repeats --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--out-dir DIR]\n");
    return 2;
  }
  try {
    return run(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
