//===- tests/obs_test.cpp - observability layer tests ------------------------===//
//
// Covers the obs/ subsystem and its standing invariant: telemetry is a
// pure side-channel. Histogram bucket assignment on the Prometheus
// `le` convention (edge values land in their edge's bucket); exact
// totals under 8-thread concurrent recording (the TSan target);
// snapshot coherence and monotonicity while another thread records;
// registry idempotence by name with type mismatches surfaced as null
// handles; merge over one bucket preset (including the empty
// accumulator adopting the first operand's layout); Prometheus
// exposition well-formedness (no duplicate names, cumulative buckets,
// _sum/_count); the trace ring's capacity bound and Chrome trace
// export; the inertness proof - bit-identical repair results with
// telemetry off, on, and on-while-scraped-concurrently; the RPC
// Metrics exchange agreeing with engine ground truth (and answering an
// empty snapshot for a telemetry-less service); and the uniform reset
// reaching owned instruments and hook-mirrored tier counters alike.
// Runs under the CI ThreadSanitizer job next to engine/serve/rpc.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include "api/RepairEngine.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "rpc/RpcClient.h"
#include "rpc/RpcServer.h"
#include "serve/RepairService.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;

namespace {

using namespace prdnn;

/// Unique directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path Path;

  explicit TempDir(const std::string &Tag) {
    static std::atomic<int> Counter{0};
    auto Stamp = std::chrono::steady_clock::now().time_since_epoch().count();
    Path = fs::temp_directory_path() /
           ("prdnn-" + Tag + "-" + std::to_string(Stamp) + "-" +
            std::to_string(Counter.fetch_add(1)));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

/// 6 -> 16 -> 16 -> 4 ReLU classifier; parameterized layers 0, 2, 4.
Network makeClassifier(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 6, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 16, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 4, 16, 0.9), randomVector(R, 4, 0.3)));
  return Net;
}

PointSpec makeFlipSpec(const Network &Net, Rng &R, int Count) {
  PointSpec Spec;
  for (int I = 0; I < Count; ++I) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    int Top = Y.argmax();
    int Target = Top;
    if (I % 3 == 0) {
      double Best = -1e300;
      for (int C = 0; C < Y.size(); ++C)
        if (C != Top && Y[C] > Best) {
          Best = Y[C];
          Target = C;
        }
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Net.outputSize(), Target, 1e-3),
                    std::nullopt});
  }
  return Spec;
}

/// Bit identity of everything the determinism contract names (timing
/// fields are wall-clock and excluded on purpose).
void expectBitIdentical(const RepairReport &A, const RepairReport &B) {
  ASSERT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.RepairedLayer, B.RepairedLayer);
  ASSERT_EQ(A.Result.Delta.size(), B.Result.Delta.size());
  for (size_t I = 0; I < A.Result.Delta.size(); ++I)
    EXPECT_EQ(A.Result.Delta[I], B.Result.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.Result.DeltaL1, B.Result.DeltaL1);
  EXPECT_EQ(A.Result.DeltaLInf, B.Result.DeltaLInf);
  ASSERT_EQ(A.Sweep.size(), B.Sweep.size());
  for (size_t I = 0; I < A.Sweep.size(); ++I) {
    EXPECT_EQ(A.Sweep[I].LayerIndex, B.Sweep[I].LayerIndex);
    EXPECT_EQ(A.Sweep[I].Status, B.Sweep[I].Status);
    EXPECT_EQ(A.Sweep[I].DeltaL1, B.Sweep[I].DeltaL1);
  }
}

// --- Instruments ------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketBoundariesFollowLeConvention) {
  obs::Histogram H({1.0, 2.0, 5.0});
  // A value exactly on an edge belongs to that edge's bucket.
  H.observe(0.5);  // bucket 0 (le 1)
  H.observe(1.0);  // bucket 0 (le 1): on-edge
  H.observe(1.5);  // bucket 1 (le 2)
  H.observe(2.0);  // bucket 1 (le 2): on-edge
  H.observe(5.0);  // bucket 2 (le 5): on-edge
  H.observe(5.0000001); // overflow
  H.observe(1e9);       // overflow

  obs::HistogramSnapshot S = H.snapshot();
  ASSERT_EQ(S.Edges, (std::vector<double>{1.0, 2.0, 5.0}));
  ASSERT_EQ(S.Counts.size(), 4u);
  EXPECT_EQ(S.Counts[0], 2u);
  EXPECT_EQ(S.Counts[1], 2u);
  EXPECT_EQ(S.Counts[2], 1u);
  EXPECT_EQ(S.Counts[3], 2u);
  EXPECT_EQ(S.count(), 7u);
  EXPECT_DOUBLE_EQ(S.Sum, 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 5.0000001 + 1e9);

  H.reset();
  EXPECT_EQ(H.snapshot().count(), 0u);
  EXPECT_EQ(H.snapshot().Sum, 0.0);
}

TEST(ObsMetrics, QuantileWalksBucketsAndClampsOverflow) {
  obs::Histogram H({1.0, 2.0, 4.0});
  for (int I = 0; I < 100; ++I)
    H.observe(0.5); // all in bucket 0
  obs::HistogramSnapshot S = H.snapshot();
  // All mass in [0, 1]: every quantile interpolates inside that bucket.
  EXPECT_GT(S.quantile(0.5), 0.0);
  EXPECT_LE(S.quantile(0.5), 1.0);
  EXPECT_LE(S.quantile(0.99), 1.0);

  // An overflow-bucket rank clamps to the last finite edge.
  obs::Histogram O({1.0, 2.0, 4.0});
  for (int I = 0; I < 10; ++I)
    O.observe(100.0);
  EXPECT_EQ(O.snapshot().quantile(0.99), 4.0);

  // Empty histogram quantiles are 0.
  EXPECT_EQ(obs::Histogram({1.0}).snapshot().quantile(0.5), 0.0);
}

TEST(ObsMetrics, ConcurrentRecordingIsExactAfterJoin) {
  // The TSan target: 8 threads hammer one counter and one histogram;
  // after join the totals are exact (sharded relaxed atomics lose
  // nothing, they only defer visibility).
  obs::Counter C;
  obs::Gauge G;
  obs::Histogram H(obs::defaultLatencyBuckets());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < kPerThread; ++I) {
        C.inc();
        H.observe(0.001 * (T + 1));
        G.set(double(T));
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  EXPECT_EQ(C.value(), double(kThreads * kPerThread));
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.count(), std::uint64_t(kThreads) * kPerThread);
  double WantSum = 0.0;
  for (int T = 0; T < kThreads; ++T)
    WantSum += kPerThread * 0.001 * (T + 1);
  EXPECT_NEAR(S.Sum, WantSum, 1e-6 * WantSum);
  // Gauge is last-writer-wins: some thread's ordinal survived.
  EXPECT_GE(G.value(), 0.0);
  EXPECT_LT(G.value(), double(kThreads));
}

TEST(ObsMetrics, SnapshotsAreCoherentAndMonotoneWhileRecording) {
  obs::MetricsRegistry Registry;
  obs::Counter *C = Registry.counter("prdnn_test_ops_total", "ops");
  obs::Histogram *H =
      Registry.histogram("prdnn_test_op_seconds", {0.001, 0.01, 0.1}, "lat");
  ASSERT_NE(C, nullptr);
  ASSERT_NE(H, nullptr);

  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      C->inc();
      H->observe(0.005);
    }
  });

  // Each snapshot is internally coherent (a histogram's count equals
  // the sum of its buckets by construction of the snapshot) and the
  // series is monotone: counters and bucket counts never go backwards.
  std::uint64_t LastCount = 0;
  double LastCounter = 0.0;
  for (int Round = 0; Round < 50; ++Round) {
    obs::MetricsSnapshot Snapshot = Registry.snapshot();
    const obs::MetricSample *Ops = Snapshot.find("prdnn_test_ops_total");
    const obs::MetricSample *Lat = Snapshot.find("prdnn_test_op_seconds");
    ASSERT_NE(Ops, nullptr);
    ASSERT_NE(Lat, nullptr);
    EXPECT_GE(Ops->Value, LastCounter);
    LastCounter = Ops->Value;
    std::uint64_t BucketSum = 0;
    for (std::uint64_t Count : Lat->Hist.Counts)
      BucketSum += Count;
    EXPECT_EQ(Lat->Hist.count(), BucketSum);
    EXPECT_GE(Lat->Hist.count(), LastCount);
    LastCount = Lat->Hist.count();
  }
  Stop.store(true);
  Writer.join();

  // After join the two instruments agree exactly.
  obs::MetricsSnapshot Final = Registry.snapshot();
  EXPECT_EQ(Final.value("prdnn_test_ops_total"),
            double(Final.find("prdnn_test_op_seconds")->Hist.count()));
}

TEST(ObsMetrics, RegistryIsIdempotentByNameAndNullOnTypeMismatch) {
  obs::MetricsRegistry Registry;
  obs::Counter *C1 = Registry.counter("prdnn_test_total", "help");
  obs::Counter *C2 = Registry.counter("prdnn_test_total");
  ASSERT_NE(C1, nullptr);
  EXPECT_EQ(C1, C2) << "same name + type returns the same instrument";

  // A name reused with a different type is a wiring bug surfaced as a
  // null (no-op) handle, never UB.
  EXPECT_EQ(Registry.gauge("prdnn_test_total"), nullptr);
  EXPECT_EQ(Registry.histogram("prdnn_test_total", {1.0}), nullptr);

  obs::Gauge *G = Registry.gauge("prdnn_test_depth");
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(Registry.gauge("prdnn_test_depth"), G);
  EXPECT_EQ(Registry.counter("prdnn_test_depth"), nullptr);

  // Snapshot lists each name once, in registration order.
  C1->add(3.0);
  G->set(7.0);
  obs::MetricsSnapshot Snapshot = Registry.snapshot();
  ASSERT_EQ(Snapshot.Samples.size(), 2u);
  EXPECT_EQ(Snapshot.Samples[0].Name, "prdnn_test_total");
  EXPECT_EQ(Snapshot.Samples[1].Name, "prdnn_test_depth");
  EXPECT_EQ(Snapshot.value("prdnn_test_total"), 3.0);
  EXPECT_EQ(Snapshot.value("prdnn_test_depth"), 7.0);
  EXPECT_EQ(Snapshot.value("prdnn_test_absent"), 0.0);
  EXPECT_EQ(Snapshot.find("prdnn_test_absent"), nullptr);
}

TEST(ObsMetrics, PrometheusExpositionIsWellFormed) {
  obs::MetricsRegistry Registry;
  Registry.counter("prdnn_test_jobs_total", "Jobs seen")->add(5);
  Registry.gauge("prdnn_test_depth", "Queue depth")->set(2);
  obs::Histogram *H =
      Registry.histogram("prdnn_test_seconds", {0.1, 1.0}, "Latency");
  H->observe(0.05);
  H->observe(0.5);
  H->observe(2.0);
  double External = 41.0;
  Registry.addCollector(&External, "prdnn_test_external_total",
                        obs::MetricType::Counter, "Mirrored",
                        [&External] { return External; });

  std::string Text = Registry.renderPrometheus();
  EXPECT_NE(Text.find("# HELP prdnn_test_jobs_total Jobs seen"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE prdnn_test_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_jobs_total 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE prdnn_test_depth gauge"), std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_depth 2"), std::string::npos);
  // Histogram buckets cumulate at render time and end with +Inf.
  EXPECT_NE(Text.find("prdnn_test_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_seconds_count 3"), std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_seconds_sum"), std::string::npos);
  EXPECT_NE(Text.find("prdnn_test_external_total 41"), std::string::npos);

  // No metric name is emitted twice (the duplicate-name check the CI
  // exposition-parse step runs on real output).
  std::set<std::string> Names;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::string Name = Line.substr(7, Line.find(' ', 7) - 7);
      EXPECT_TRUE(Names.insert(Name).second) << "duplicate: " << Name;
    }
  }
  EXPECT_EQ(Names.size(), 4u);

  Registry.removeOwner(&External);
  EXPECT_EQ(Registry.snapshot().find("prdnn_test_external_total"), nullptr);
}

TEST(ObsMetrics, UniformResetZeroesInstrumentsAndRunsHooks) {
  obs::MetricsRegistry Registry;
  obs::Counter *C = Registry.counter("prdnn_test_total");
  obs::Histogram *H = Registry.histogram("prdnn_test_seconds", {1.0});
  C->add(10);
  H->observe(0.5);
  std::uint64_t External = 9;
  Registry.addCollector(&External, "prdnn_test_external_total",
                        obs::MetricType::Counter, "",
                        [&External] { return double(External); });
  Registry.addResetHook(&External, [&External] { External = 0; });

  Registry.reset();
  EXPECT_EQ(C->value(), 0.0);
  EXPECT_EQ(H->snapshot().count(), 0u);
  EXPECT_EQ(External, 0u) << "reset hooks reach hook-mirrored counters";
  EXPECT_EQ(Registry.snapshot().value("prdnn_test_external_total"), 0.0);
}

// --- Trace ring -------------------------------------------------------------

TEST(ObsTrace, RingKeepsMostRecentAndCountsDrops) {
  obs::TraceBuffer Ring(/*Capacity=*/4);
  for (std::uint64_t I = 1; I <= 10; ++I) {
    obs::TraceEvent Event;
    Event.JobId = I;
    Event.Name = "Jacobian";
    Event.StartNanos = I * 1000;
    Event.DurationNanos = 500;
    Ring.record(Event);
  }
  EXPECT_EQ(Ring.recorded(), 10u);
  EXPECT_EQ(Ring.dropped(), 6u);

  // Most recent spans survive, oldest first.
  std::vector<obs::TraceEvent> Events = Ring.events();
  ASSERT_EQ(Events.size(), 4u);
  for (std::size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Events[I].JobId, 7 + I);

  Ring.clear();
  EXPECT_EQ(Ring.events().size(), 0u);
  EXPECT_EQ(Ring.recorded(), 0u);
}

TEST(ObsTrace, ChromeTraceExportCarriesSpansAndArgs) {
  obs::TraceBuffer Ring;
  obs::TraceEvent Event;
  Event.JobId = 42;
  Event.Name = "Lp";
  Event.ThreadId = 3;
  Event.StartNanos = 5000;
  Event.DurationNanos = 2000;
  Event.SweepLayer = 2;
  Event.CacheHits = 7;
  Ring.record(Event);

  std::string Json = Ring.exportChromeTrace();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"Lp\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"job\":42"), std::string::npos);
  EXPECT_NE(Json.find("\"sweep_layer\":2"), std::string::npos);
  EXPECT_NE(Json.find("\"cache_hits\":7"), std::string::npos);

  TempDir Dir("obs-trace");
  std::string Path = (Dir.Path / "trace.json").string();
  ASSERT_TRUE(Ring.writeChromeTrace(Path));
  EXPECT_GT(fs::file_size(Path), 0u);
  EXPECT_FALSE(Ring.writeChromeTrace((Dir.Path / "no" / "dir.json").string()));
}

// --- Inertness and engine ground truth --------------------------------------

TEST(ObsEngine, TelemetryIsBitInertEvenUnderConcurrentScraping) {
  Rng R(7100);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  Rng SpecR(7101);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 10);
  RepairRequest Request = RepairRequest::points(Net, kAutoLayer, Spec);

  // Leg 1: telemetry off - the reference bits.
  EngineOptions Off;
  Off.NumWorkers = 2;
  RepairReport Reference;
  {
    RepairEngine Engine(Off);
    JobHandle H = Engine.submit(Request);
    Reference = H.report();
  }
  ASSERT_EQ(Reference.Status, RepairStatus::Success);

  // Leg 2: telemetry on.
  EngineOptions On = Off;
  On.Telemetry = std::make_shared<obs::Telemetry>();
  {
    RepairEngine Engine(On);
    JobHandle H = Engine.submit(Request);
    expectBitIdentical(H.report(), Reference);
  }
  EXPECT_EQ(On.Telemetry->JobsSubmitted->value(), 1.0);
  EXPECT_EQ(On.Telemetry->JobsCompleted->value(), 1.0);
  EXPECT_GT(On.Telemetry->Trace.recorded(), 0u);
  // The verification gauges mirror the report's margin and tolerance.
  obs::MetricsSnapshot Verified = On.Telemetry->Registry.snapshot();
  EXPECT_EQ(Verified.value("prdnn_verify_violation"),
            Reference.Result.Stats.VerifiedViolation);
  EXPECT_EQ(Verified.value("prdnn_verify_tolerance"),
            Reference.Result.Stats.VerifyTolerance);
  EXPECT_GT(Verified.value("prdnn_verify_tolerance"), 0.0);

  // Leg 3: telemetry on, with a scraper thread snapshotting and
  // rendering the registry the whole time the job runs.
  EngineOptions Scraped = Off;
  Scraped.Telemetry = std::make_shared<obs::Telemetry>();
  {
    RepairEngine Engine(Scraped);
    std::atomic<bool> Stop{false};
    std::thread Scraper([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        obs::MetricsSnapshot Snapshot = Scraped.Telemetry->Registry.snapshot();
        (void)Snapshot.renderPrometheus();
        (void)Scraped.Telemetry->Trace.events();
      }
    });
    JobHandle H = Engine.submit(Request);
    expectBitIdentical(H.report(), Reference);
    Stop.store(true);
    Scraper.join();
  }
}

TEST(ObsEngine, LifecycleCountersMatchGroundTruth) {
  Rng R(7200);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  auto Telemetry = std::make_shared<obs::Telemetry>();

  EngineOptions Options;
  Options.NumWorkers = 2;
  Options.Telemetry = Telemetry;
  constexpr int kJobs = 5;
  {
    RepairEngine Engine(Options);
    std::vector<JobHandle> Handles;
    for (int J = 0; J < kJobs; ++J) {
      Rng SpecR(7300 + J);
      Handles.push_back(Engine.submit(
          RepairRequest::points(Net, 2, makeFlipSpec(*Net, SpecR, 6))));
    }
    int Succeeded = 0;
    for (JobHandle &H : Handles)
      Succeeded += H.report().Status == RepairStatus::Success;

    EXPECT_EQ(Telemetry->JobsSubmitted->value(), double(kJobs));
    EXPECT_EQ(Telemetry->JobsCompleted->value(), double(kJobs));
    EXPECT_EQ(Telemetry->JobsSucceeded->value(), double(Succeeded));
    EXPECT_EQ(Telemetry->QueueWaitSeconds->snapshot().count(),
              std::uint64_t(kJobs));
    EXPECT_EQ(Telemetry->JobSeconds->snapshot().count(),
              std::uint64_t(kJobs));
    EXPECT_GE(Telemetry->SweepAttempts->value(), double(kJobs));

    // The same numbers through the snapshot path, by name.
    obs::MetricsSnapshot Snapshot = Telemetry->Registry.snapshot();
    EXPECT_EQ(Snapshot.value("prdnn_engine_jobs_submitted_total"),
              double(kJobs));
    EXPECT_EQ(Snapshot.value("prdnn_engine_jobs_completed_total"),
              double(kJobs));

    // Uniform reset through the engine: instruments and the
    // hook-mirrored cache counters zero together; live state survives.
    Engine.resetStats();
    EXPECT_EQ(Telemetry->JobsSubmitted->value(), 0.0);
    EXPECT_EQ(Telemetry->JobSeconds->snapshot().count(), 0u);
    EXPECT_EQ(Engine.cacheStats().Hits, 0u);
    EXPECT_EQ(Engine.cacheStats().Misses, 0u);
  }
}

// --- The RPC Metrics exchange -----------------------------------------------

TEST(ObsRpc, MetricsOverTheWireMatchEngineGroundTruth) {
  TempDir Dir("obs-rpc");
  Rng R(7400);
  Network Classifier = makeClassifier(R);

  serve::ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  Options.Engine.NumWorkers = 2;
  serve::RepairService Service(Options); // Telemetry defaults on
  ASSERT_NE(Service.telemetry(), nullptr);
  NetworkFingerprint Fp = Service.registry().publish(Classifier);

  rpc::RpcServer Server(Service, rpc::RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  rpc::RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  rpc::RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), rpc::RpcError::None);

  // A second connection scrapes the registry the whole time the jobs
  // run: the acceptance bar is that wire-served reports stay
  // bit-identical to serial cache-free twins *while being scraped*.
  std::atomic<bool> StopScraper{false};
  std::thread Scraper([&] {
    rpc::RpcClient Poller(ClientOptions);
    if (Poller.connect() != rpc::RpcError::None)
      return;
    while (!StopScraper.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot Snapshot;
      if (Poller.metrics(Snapshot) != rpc::RpcError::None)
        return;
      (void)Snapshot.renderPrometheus();
    }
  });

  EngineOptions TwinOptions;
  TwinOptions.EnableCache = false;
  RepairEngine TwinEngine(TwinOptions);

  constexpr int kJobs = 3;
  for (int J = 0; J < kJobs; ++J) {
    Rng SpecR(7500 + J);
    PointSpec Spec = makeFlipSpec(Classifier, SpecR, 6);

    RepairRequest Twin;
    Twin.Net = RepairRequest::borrow(Classifier);
    Twin.Spec = Spec;
    Twin.LayerIndex = 0;
    RepairReport TwinReport = TwinEngine.run(Twin);

    serve::ServeRequest Request;
    Request.Model = Fp;
    Request.Spec = std::move(Spec);
    Request.LayerIndex = 0;
    RepairReport Report;
    serve::ServeReject Reject = serve::ServeReject::Saturated;
    ASSERT_EQ(Client.repair(Request, Report, Reject), rpc::RpcError::None);
    ASSERT_EQ(Reject, serve::ServeReject::None);
    expectBitIdentical(Report, TwinReport);
  }
  StopScraper.store(true);
  Scraper.join();

  // One scrape, one page: engine, serve, admission, registry, and rpc
  // tiers all present, and the job counters agree with ground truth.
  obs::MetricsSnapshot Snapshot;
  ASSERT_EQ(Client.metrics(Snapshot), rpc::RpcError::None);
  EXPECT_EQ(Snapshot.value("prdnn_engine_jobs_submitted_total"),
            double(kJobs));
  EXPECT_EQ(Snapshot.value("prdnn_engine_jobs_completed_total"),
            double(kJobs));
  EXPECT_EQ(Snapshot.value("prdnn_serve_accepted_total"), double(kJobs));
  EXPECT_EQ(Snapshot.value("prdnn_serve_rejected_total"), 0.0);
  EXPECT_EQ(Snapshot.value("prdnn_admission_admitted_total"), double(kJobs));
  EXPECT_EQ(Snapshot.value("prdnn_admission_inflight"), 0.0);
  EXPECT_GE(Snapshot.value("prdnn_registry_publishes_total"), 1.0);
  EXPECT_GE(Snapshot.value("prdnn_rpc_connections_accepted_total"), 1.0);
  EXPECT_GT(Snapshot.value("prdnn_rpc_frames_received_total"), 0.0);
  EXPECT_GT(Snapshot.value("prdnn_rpc_bytes_received_total"), 0.0);
  const obs::MetricSample *JobSeconds =
      Snapshot.find("prdnn_engine_job_seconds");
  ASSERT_NE(JobSeconds, nullptr);
  EXPECT_EQ(JobSeconds->Hist.count(), std::uint64_t(kJobs));

  // The wire snapshot renders like a local one.
  std::string Text = Snapshot.renderPrometheus();
  EXPECT_NE(Text.find("prdnn_engine_jobs_submitted_total 3"),
            std::string::npos);

  // Uniform reset over every tier at once, scraped back over the wire:
  // monotonic counters zero, the trace ring survives (reset() is the
  // registry path; Telemetry::reset() also clears the ring).
  Service.resetStats();
  obs::MetricsSnapshot AfterReset;
  ASSERT_EQ(Client.metrics(AfterReset), rpc::RpcError::None);
  EXPECT_EQ(AfterReset.value("prdnn_engine_jobs_submitted_total"), 0.0);
  EXPECT_EQ(AfterReset.value("prdnn_serve_accepted_total"), 0.0);
  EXPECT_EQ(AfterReset.value("prdnn_admission_admitted_total"), 0.0);
  // The scrape carrying this snapshot is itself a received frame,
  // counted before the handler snapshots the registry.
  EXPECT_EQ(AfterReset.value("prdnn_rpc_frames_received_total"), 1.0);
  EXPECT_EQ(AfterReset.find("prdnn_engine_job_seconds")->Hist.count(), 0u);

  Client.close();
  Server.stop();
}

TEST(ObsRpc, TelemetrylessServiceAnswersEmptySnapshot) {
  TempDir Dir("obs-rpc-off");
  serve::ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  Options.Telemetry = false;
  serve::RepairService Service(Options);
  ASSERT_EQ(Service.telemetry(), nullptr);

  rpc::RpcServer Server(Service, rpc::RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  rpc::RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  rpc::RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), rpc::RpcError::None);

  // Scraping stays uniform across the fleet: no telemetry is an empty
  // page, not an error, and the connection keeps serving.
  obs::MetricsSnapshot Snapshot;
  ASSERT_EQ(Client.metrics(Snapshot), rpc::RpcError::None);
  EXPECT_TRUE(Snapshot.Samples.empty());
  serve::ServiceStats Stats;
  EXPECT_EQ(Client.status(Stats), rpc::RpcError::None);
  Server.stop();
}

} // namespace
