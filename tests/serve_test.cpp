//===- tests/serve_test.cpp - fleet serving subsystem tests ------------------===//
//
// Covers the serve/ subsystem end to end: registry round-trips for
// every layer kind (fingerprint-verified load, bit-exact evaluation);
// typed degradation of the failure paths - unknown fingerprints,
// truncated/corrupt entries, and valid networks stored under foreign
// addresses are rejected and deleted, never served and never a crash;
// two registries racing publication of one model set on one shared
// directory; the registry's `.net` entries surviving the artifact
// store's LRU GC; admission control (saturation, per-class quotas,
// ticket release, snapshots); the engine's queue observability and
// completion hooks; and the RepairService front end - fingerprint-
// addressed submits whose reports are bit-for-bit identical to serial,
// cache-free runs, with typed rejects when the model is unknown or the
// process is saturated. Runs under the CI ThreadSanitizer job next to
// parallel_test, engine_test, cache_test, and persist_test.
//
// One case crosses the process boundary: it spawns two copies of this
// binary (each running the DISABLED_ child case) on one store
// directory, so the store's and registry's pid-tagged temp files are
// exercised by real concurrent processes, not threads.
//
//===----------------------------------------------------------------------===//

#include "serve/AdmissionController.h"
#include "serve/ModelRegistry.h"
#include "serve/RepairService.h"

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "core/PolytopeRepair.h"
#include "examples/DemoNetworks.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "persist/ArtifactStore.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern char **environ;
#define PRDNN_TEST_HAVE_SPAWN 1
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;

namespace {

using namespace prdnn;
using namespace prdnn::serve;
using persist::ArtifactStore;
using persist::StoreOptions;

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

/// One of every PWL layer kind the serializer knows.
Network makeEveryPwlLayerNetwork(Rng &R) {
  Network Net;
  // 2ch 4x4 input.
  Net.addLayer(std::make_unique<Conv2DLayer>(
      2, 4, 4, 3, 3, 3, 1, 1,
      [&] {
        std::vector<double> K(2 * 3 * 3 * 3);
        for (double &V : K)
          V = 0.3 * R.normal();
        return K;
      }(),
      std::vector<double>{0.1, -0.2, 0.05}));
  Net.addLayer(std::make_unique<ReLULayer>(3 * 4 * 4));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(3, 4, 4, 2, 2, 2));
  Net.addLayer(std::make_unique<AvgPool2DLayer>(3, 2, 2, 2, 2, 2));
  Net.addLayer(std::make_unique<FlattenLayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 5, 3, 0.8), randomVector(R, 5, 0.2)));
  Net.addLayer(std::make_unique<LeakyReLULayer>(5, 0.01));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 4, 5, 0.8), randomVector(R, 4, 0.2)));
  Net.addLayer(std::make_unique<HardTanhLayer>(4));
  return Net;
}

Network makeSmoothNetwork(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 2, 0.9), randomVector(R, 3, 0.1)));
  Net.addLayer(std::make_unique<TanhLayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 2, 3, 0.9), randomVector(R, 2, 0.1)));
  Net.addLayer(std::make_unique<SigmoidLayer>(2));
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

void expectBitIdentical(const RepairResult &A, const RepairResult &B) {
  ASSERT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.Delta.size(), B.Delta.size());
  for (size_t I = 0; I < A.Delta.size(); ++I)
    EXPECT_EQ(A.Delta[I], B.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.DeltaL1, B.DeltaL1);
  EXPECT_EQ(A.DeltaLInf, B.DeltaLInf);
}

// --- ModelRegistry ----------------------------------------------------------

TEST(ModelRegistry, RoundTripEveryLayerKind) {
  TempDir Dir("registry-roundtrip");
  ModelRegistry Registry(Dir.str());

  Rng R(8101);
  std::vector<Network> Nets;
  Nets.push_back(makeEveryPwlLayerNetwork(R));
  Nets.push_back(makeSmoothNetwork(R));
  Nets.push_back(makeClassifier(R));

  std::vector<NetworkFingerprint> Fps;
  for (const Network &Net : Nets) {
    RegistryError Error = RegistryError::IoError;
    Fps.push_back(Registry.publish(Net, &Error));
    EXPECT_EQ(Error, RegistryError::None);
    EXPECT_TRUE(Registry.contains(Fps.back()));
    EXPECT_TRUE(fs::exists(Registry.entryPath(Fps.back())));
  }
  EXPECT_EQ(Registry.list().size(), Nets.size());

  // Force the disk path: the cache publish seeded must not mask a
  // broken serializer.
  Registry.dropCache();
  for (size_t I = 0; I < Nets.size(); ++I) {
    RegistryError Error = RegistryError::IoError;
    std::shared_ptr<const Network> Back = Registry.resolve(Fps[I], &Error);
    ASSERT_NE(Back, nullptr) << toString(Error);
    EXPECT_EQ(Error, RegistryError::None);
    // Fingerprint equality is bit-exactness of topology + parameters.
    EXPECT_EQ(fingerprintNetwork(*Back), Fps[I]);
    Rng ProbeR(9000 + static_cast<int>(I));
    Vector X = randomVector(ProbeR, Nets[I].inputSize());
    Vector Want = Nets[I].evaluate(X);
    Vector Got = Back->evaluate(X);
    for (int O = 0; O < Want.size(); ++O)
      EXPECT_EQ(Got[O], Want[O]);
  }

  RegistryStats Stats = Registry.stats();
  EXPECT_EQ(Stats.Publishes, Nets.size());
  EXPECT_EQ(Stats.DiskLoads, Nets.size());
  EXPECT_EQ(Stats.CorruptRejects, 0u);
  EXPECT_EQ(Stats.MismatchRejects, 0u);

  // Second resolve of each: per-process cache, no disk.
  for (const NetworkFingerprint &Fp : Fps)
    EXPECT_NE(Registry.resolve(Fp), nullptr);
  EXPECT_EQ(Registry.stats().CacheHits, Nets.size());
  EXPECT_EQ(Registry.stats().DiskLoads, Nets.size());
}

TEST(ModelRegistry, PublishIsIdempotent) {
  TempDir Dir("registry-idem");
  ModelRegistry Registry(Dir.str());
  Rng R(8102);
  Network Net = makeClassifier(R);

  NetworkFingerprint First = Registry.publish(Net);
  NetworkFingerprint Second = Registry.publish(Net);
  EXPECT_EQ(First, Second);
  RegistryStats Stats = Registry.stats();
  EXPECT_EQ(Stats.Publishes, 1u);
  EXPECT_EQ(Stats.PublishSkips, 1u);
  EXPECT_EQ(Registry.list().size(), 1u);
}

TEST(ModelRegistry, UnknownFingerprintIsTypedNotFound) {
  TempDir Dir("registry-notfound");
  ModelRegistry Registry(Dir.str());
  NetworkFingerprint Fp;
  Fp.Digest.Hi = 0x1234;
  Fp.Digest.Lo = 0x5678;
  RegistryError Error = RegistryError::None;
  EXPECT_EQ(Registry.resolve(Fp, &Error), nullptr);
  EXPECT_EQ(Error, RegistryError::NotFound);
  EXPECT_FALSE(Registry.contains(Fp));
  EXPECT_EQ(Registry.stats().NotFound, 1u);
}

TEST(ModelRegistry, CorruptEntryRejectedDeletedAndHealable) {
  TempDir Dir("registry-corrupt");
  ModelRegistry Registry(Dir.str());
  Rng R(8103);
  Network Net = makeClassifier(R);
  NetworkFingerprint Fp = Registry.publish(Net);
  const std::string Path = Registry.entryPath(Fp);

  // Truncate to half: the frame check must reject it, typed.
  fs::resize_file(Path, fs::file_size(Path) / 2);
  Registry.dropCache();
  RegistryError Error = RegistryError::None;
  EXPECT_EQ(Registry.resolve(Fp, &Error), nullptr);
  EXPECT_EQ(Error, RegistryError::Corrupt);
  EXPECT_FALSE(fs::exists(Path)) << "corrupt entry must be deleted";
  EXPECT_EQ(Registry.stats().CorruptRejects, 1u);

  // Garbage bytes likewise (a fresh fake entry, not a torn frame).
  {
    std::ofstream Os(Path, std::ios::binary);
    Os << "these are not the bytes you are looking for";
  }
  EXPECT_EQ(Registry.resolve(Fp, &Error), nullptr);
  EXPECT_EQ(Error, RegistryError::Corrupt);
  EXPECT_FALSE(fs::exists(Path));

  // Republish heals: the same address serves again.
  Registry.publish(Net);
  Registry.dropCache();
  std::shared_ptr<const Network> Back = Registry.resolve(Fp, &Error);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Error, RegistryError::None);
  EXPECT_EQ(fingerprintNetwork(*Back), Fp);
}

TEST(ModelRegistry, ForeignAddressRejectedAndDeleted) {
  TempDir Dir("registry-mismatch");
  ModelRegistry Registry(Dir.str());
  Rng R(8104);
  Network Net = makeClassifier(R);
  NetworkFingerprint Fp = Registry.publish(Net);

  // A valid frame under the wrong address: decodes fine, but the
  // recomputed fingerprint cannot match - never served.
  NetworkFingerprint Bogus = Fp;
  Bogus.Digest.Lo ^= 0xff;
  fs::copy_file(Registry.entryPath(Fp), Registry.entryPath(Bogus));

  RegistryError Error = RegistryError::None;
  EXPECT_EQ(Registry.resolve(Bogus, &Error), nullptr);
  EXPECT_EQ(Error, RegistryError::FingerprintMismatch);
  EXPECT_FALSE(fs::exists(Registry.entryPath(Bogus)));
  EXPECT_EQ(Registry.stats().MismatchRejects, 1u);

  // The real entry is untouched.
  Registry.dropCache();
  EXPECT_NE(Registry.resolve(Fp), nullptr);
}

TEST(ModelRegistry, TwoRegistriesRacePublicationOnOneDirectory) {
  TempDir Dir("registry-race");
  // Two registries = two serving processes sharing one directory.
  ModelRegistry A(Dir.str());
  ModelRegistry B(Dir.str());

  std::vector<Network> Nets;
  Rng R(8105);
  for (int I = 0; I < 4; ++I)
    Nets.push_back(makeClassifier(R));

  const int ThreadsPerSide = 3;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadsPerSide; ++T) {
    for (ModelRegistry *Side : {&A, &B}) {
      Threads.emplace_back([Side, &Nets] {
        for (const Network &Net : Nets) {
          RegistryError Error = RegistryError::None;
          NetworkFingerprint Fp = Side->publish(Net, &Error);
          EXPECT_EQ(Error, RegistryError::None);
          RegistryError ResolveError = RegistryError::None;
          std::shared_ptr<const Network> Got =
              Side->resolve(Fp, &ResolveError);
          EXPECT_NE(Got, nullptr) << toString(ResolveError);
        }
      });
    }
  }
  for (std::thread &Thread : Threads)
    Thread.join();

  // Exactly one entry per distinct model, whoever won each race; no
  // temp files left behind.
  EXPECT_EQ(A.list().size(), Nets.size());
  int Files = 0;
  for (const auto &Entry : fs::directory_iterator(A.directory()))
    Files += Entry.is_regular_file();
  EXPECT_EQ(Files, static_cast<int>(Nets.size()));

  // Cross-side visibility: B resolves what A published and vice versa.
  A.dropCache();
  B.dropCache();
  for (const Network &Net : Nets) {
    NetworkFingerprint Fp = fingerprintNetwork(Net);
    EXPECT_NE(A.resolve(Fp), nullptr);
    EXPECT_NE(B.resolve(Fp), nullptr);
  }
}

TEST(ModelRegistry, ModelEntriesSurviveArtifactStoreGc) {
  TempDir Dir("registry-gc");
  ModelRegistry Registry(Dir.str());
  Rng R(8106);
  Network Net = makeClassifier(R);
  NetworkFingerprint Fp = Registry.publish(Net);
  const std::uint64_t ModelBytes = fs::file_size(Registry.entryPath(Fp));
  ASSERT_GT(ModelBytes, 0u);

  // An artifact store on the same directory whose LRU GC must run:
  // `.art` entries get evicted, `models/` must not be touched -
  // registry entries are roots, not cache lines.
  auto Artifact = std::make_shared<PatternBatchArtifact>();
  NetworkPattern Pattern;
  Pattern.Patterns.assign(1, std::vector<int>(128, 1));
  Artifact->Patterns.assign(8, Pattern);
  auto KeyOf = [](std::uint64_t K) {
    Hasher H;
    H.u64(K);
    return CacheKey{ArtifactKind::PatternBatch, H.digest()};
  };
  std::uint64_t EntryBytes = 0;
  {
    StoreOptions Roomy;
    Roomy.Directory = Dir.str();
    ArtifactStore Store(Roomy);
    for (std::uint64_t K = 0; K < 6; ++K)
      Store.storeSync(KeyOf(K), *Artifact);
    EntryBytes = Store.stats().BytesHeld / 6;
  }
  ASSERT_GT(EntryBytes, 0u);

  StoreOptions Tight;
  Tight.Directory = Dir.str();
  // Room for two-and-a-half entries: the six on disk must shrink.
  Tight.BudgetBytes = EntryBytes * 2 + EntryBytes / 2;
  ArtifactStore Store(Tight);
  Store.storeSync(KeyOf(6), *Artifact); // trigger a GC pass
  EXPECT_GT(Store.stats().Evictions, 0u);

  // The model is still there and still resolves, bit-exactly.
  EXPECT_TRUE(fs::exists(Registry.entryPath(Fp)));
  Registry.dropCache();
  std::shared_ptr<const Network> Back = Registry.resolve(Fp);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(fingerprintNetwork(*Back), Fp);
}

// --- AdmissionController ----------------------------------------------------

TEST(AdmissionController, SaturationAndQuotaAreTypedAndReleasable) {
  AdmissionOptions Options;
  Options.MaxInFlight = 3;
  Options.ClassQuota[static_cast<int>(RepairRequest::Priority::Low)] = 1;
  AdmissionController Admission(Options);

  AdmitReject Why = AdmitReject::None;
  std::uint64_t High = Admission.tryAdmit(RepairRequest::Priority::High);
  std::uint64_t Low = Admission.tryAdmit(RepairRequest::Priority::Low);
  EXPECT_NE(High, 0u);
  EXPECT_NE(Low, 0u);

  // Low is at quota while a total slot remains.
  EXPECT_EQ(Admission.tryAdmit(RepairRequest::Priority::Low, &Why), 0u);
  EXPECT_EQ(Why, AdmitReject::ClassQuota);

  std::uint64_t Neutral =
      Admission.tryAdmit(RepairRequest::Priority::Neutral);
  EXPECT_NE(Neutral, 0u);
  EXPECT_EQ(Admission.tryAdmit(RepairRequest::Priority::High, &Why), 0u);
  EXPECT_EQ(Why, AdmitReject::Saturated);

  AdmissionSnapshot Snap = Admission.queueStats();
  EXPECT_EQ(Snap.Depth, 3);
  EXPECT_EQ(Snap.ByClass[static_cast<int>(RepairRequest::Priority::High)],
            1);
  EXPECT_EQ(Snap.ByClass[static_cast<int>(RepairRequest::Priority::Low)], 1);
  EXPECT_EQ(Snap.Admitted, 3u);
  EXPECT_EQ(Snap.SaturatedRejects, 1u);
  EXPECT_EQ(Snap.QuotaRejects, 1u);
  EXPECT_GE(Snap.OldestWaitSeconds, 0.0);

  // Release reopens exactly the released capacity; double-release is
  // a no-op (tickets release once).
  Admission.release(Low);
  Admission.release(Low);
  EXPECT_EQ(Admission.queueStats().Depth, 2);
  EXPECT_NE(Admission.tryAdmit(RepairRequest::Priority::Low), 0u);
  EXPECT_EQ(Admission.tryAdmit(RepairRequest::Priority::Neutral, &Why), 0u);
  EXPECT_EQ(Why, AdmitReject::Saturated);

  // Unknown tickets are ignored.
  Admission.release(99999);
  EXPECT_EQ(Admission.queueStats().Depth, 3);
}

TEST(AdmissionController, OldestWaitTracksTheOldestTicket) {
  AdmissionController Admission(AdmissionOptions{});
  std::uint64_t First = Admission.tryAdmit(RepairRequest::Priority::Neutral);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::uint64_t Second =
      Admission.tryAdmit(RepairRequest::Priority::Neutral);
  double Both = Admission.queueStats().OldestWaitSeconds;
  EXPECT_GE(Both, 0.015);
  // Releasing the oldest moves the clock to the younger ticket.
  Admission.release(First);
  EXPECT_LT(Admission.queueStats().OldestWaitSeconds, Both);
  Admission.release(Second);
  EXPECT_EQ(Admission.queueStats().OldestWaitSeconds, 0.0);
  EXPECT_EQ(Admission.queueStats().Depth, 0);
}

// --- Engine queue observability and completion hooks ------------------------

TEST(RepairEngine, QueueStatsObserveDepthClassesAndOldestWait) {
  Rng R(8107);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  Rng SpecR(8108);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  EngineOptions Options;
  Options.NumWorkers = 1;
  Options.QueueCapacity = 8;
  RepairEngine Engine(Options);

  EngineQueueStats Idle = Engine.queueStats();
  EXPECT_EQ(Idle.Depth, 0);
  EXPECT_EQ(Idle.Running, 0);
  EXPECT_EQ(Idle.OldestWaitSeconds, 0.0);

  // Park the single worker inside a blocker job, then pile up one job
  // per priority class behind it.
  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Engine.submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  auto Queued = [&](RepairRequest::Priority Class) {
    RepairRequest Request = RepairRequest::points(Net, 2, Spec);
    Request.JobPriority = Class;
    return Engine.submit(std::move(Request));
  };
  JobHandle LowJob = Queued(RepairRequest::Priority::Low);
  JobHandle HighJob = Queued(RepairRequest::Priority::High);
  JobHandle NeutralJob = Queued(RepairRequest::Priority::Neutral);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  EngineQueueStats Stats = Engine.queueStats();
  EXPECT_EQ(Stats.Depth, 3);
  EXPECT_EQ(Stats.Running, 1);
  EXPECT_EQ(
      Stats.QueuedByClass[static_cast<int>(RepairRequest::Priority::High)],
      1);
  EXPECT_EQ(Stats.QueuedByClass[static_cast<int>(
                RepairRequest::Priority::Neutral)],
            1);
  EXPECT_EQ(
      Stats.QueuedByClass[static_cast<int>(RepairRequest::Priority::Low)],
      1);
  EXPECT_GE(Stats.OldestWaitSeconds, 0.010);

  Release.set_value();
  for (JobHandle *Handle : {&Blocker, &LowJob, &HighJob, &NeutralJob})
    EXPECT_EQ(Handle->report().Status, RepairStatus::Success);
  EngineQueueStats Drained = Engine.queueStats();
  EXPECT_EQ(Drained.Depth, 0);
  EXPECT_EQ(Drained.Running, 0);
}

TEST(RepairEngine, CompletionHookRunsExactlyOnceIncludingCancellation) {
  Rng R(8109);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  Rng SpecR(8110);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  std::atomic<int> Completions{0};
  std::atomic<int> CancelledCompletions{0};
  auto Hook = [&](const RepairReport &Report) {
    Completions.fetch_add(1, std::memory_order_relaxed);
    if (Report.Status == RepairStatus::Cancelled)
      CancelledCompletions.fetch_add(1, std::memory_order_relaxed);
  };

  {
    EngineOptions Options;
    Options.NumWorkers = 1;
    Options.QueueCapacity = 8;

    // Declared before the engine: teardown may race the worker still
    // inside ReleaseF.wait(), so these must be destroyed only after
    // ~RepairEngine joins it.
    std::promise<void> Entered, Release;
    std::shared_future<void> ReleaseF = Release.get_future().share();
    std::atomic<bool> EnteredOnce{false};

    RepairEngine Engine(Options);

    // Executed jobs: hook fires on the worker by the time report()
    // returns.
    JobHandle Done = Engine.submit(RepairRequest::points(Net, 0, Spec),
                                   {}, Hook);
    EXPECT_EQ(Done.report().Status, RepairStatus::Success);
    EXPECT_EQ(Completions.load(), 1);

    // A parked worker + queued jobs, then teardown: the queued jobs
    // resolve as Cancelled and their hooks still fire exactly once.
    Engine.submit(
        RepairRequest::points(Net, 4, Spec),
        [&](RepairPhase) {
          if (!EnteredOnce.exchange(true)) {
            Entered.set_value();
            ReleaseF.wait();
          }
        },
        Hook);
    Entered.get_future().wait();
    Engine.submit(RepairRequest::points(Net, 2, Spec), {}, Hook);
    Engine.submit(RepairRequest::points(Net, 2, Spec), {}, Hook);
    Release.set_value();
  } // ~RepairEngine cancels whatever is still queued

  EXPECT_EQ(Completions.load(), 4);
  EXPECT_EQ(Completions.load() - CancelledCompletions.load() >= 2, true)
      << "the blocker and the first job completed";
}

// --- RepairService ----------------------------------------------------------

TEST(RepairService, FingerprintAddressedServingIsBitIdentical) {
  TempDir Dir("service-e2e");
  Rng R(8111);
  Network Classifier = makeClassifier(R);

  ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  Options.Engine.NumWorkers = 2;
  Options.Admission.MaxInFlight = 8;
  RepairService Service(Options);

  NetworkFingerprint Fp = Service.registry().publish(Classifier);

  // Serial, cache-free ground truth.
  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions);

  struct Case {
    int Layer;
    int Seed;
  };
  const Case Cases[] = {{0, 1}, {2, 2}, {4, 3}, {kAutoLayer, 4}};
  std::vector<RepairReport> Twins;
  std::vector<JobHandle> Handles;
  for (const Case &C : Cases) {
    Rng SpecR(9100 + C.Seed);
    PointSpec Spec = makeFlipSpec(Classifier, SpecR, 10);

    RepairRequest Twin;
    Twin.Net = RepairRequest::borrow(Classifier);
    Twin.Spec = Spec;
    Twin.LayerIndex = C.Layer;
    Twins.push_back(SerialEngine.run(Twin));

    ServeRequest Request;
    Request.Model = Fp;
    Request.Spec = std::move(Spec);
    Request.LayerIndex = C.Layer;
    ServeSubmission Submission = Service.submit(Request);
    ASSERT_TRUE(Submission.accepted()) << toString(Submission.Reject);
    Handles.push_back(Submission.Handle);
  }

  for (size_t I = 0; I < Handles.size(); ++I) {
    const RepairReport &Report = Handles[I].report();
    EXPECT_EQ(Report.Status, Twins[I].Status);
    EXPECT_EQ(Report.RepairedLayer, Twins[I].RepairedLayer);
    expectBitIdentical(Report.Result, Twins[I].Result);
  }

  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Accepted, Handles.size());
  EXPECT_EQ(Stats.Rejected, 0u);
  // All admission tickets were released by the completion hooks.
  EXPECT_EQ(Service.queueStats().Admission.Depth, 0);
}

TEST(RepairService, TypedRejectsForUnknownAndMismatchedModels) {
  TempDir Dir("service-rejects");
  Rng R(8112);
  Network Classifier = makeClassifier(R);

  ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  RepairService Service(Options);
  NetworkFingerprint Fp = Service.registry().publish(Classifier);

  Rng SpecR(9200);
  PointSpec Spec = makeFlipSpec(Classifier, SpecR, 6);

  ServeRequest Unknown;
  Unknown.Model.Digest.Hi = 0xabc;
  Unknown.Model.Digest.Lo = 0xdef;
  Unknown.Spec = Spec;
  Unknown.LayerIndex = 0;
  ServeSubmission UnknownSub = Service.submit(Unknown);
  EXPECT_EQ(UnknownSub.Reject, ServeReject::UnknownModel);
  EXPECT_FALSE(UnknownSub.Handle.valid());

  // A valid model file under a foreign address: the service must
  // reject with the mismatch reason, not serve the wrong network.
  NetworkFingerprint Bogus = Fp;
  Bogus.Digest.Hi ^= 0x77;
  fs::copy_file(Service.registry().entryPath(Fp),
                Service.registry().entryPath(Bogus));
  ServeRequest Mismatched;
  Mismatched.Model = Bogus;
  Mismatched.Spec = Spec;
  Mismatched.LayerIndex = 0;
  ServeSubmission MismatchSub = Service.submit(Mismatched);
  EXPECT_EQ(MismatchSub.Reject, ServeReject::ModelMismatch);

  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Rejected, 2u);
  EXPECT_EQ(Stats.RejectsByReason[static_cast<int>(
                ServeReject::UnknownModel)],
            1u);
  EXPECT_EQ(Stats.RejectsByReason[static_cast<int>(
                ServeReject::ModelMismatch)],
            1u);
  // Rejected submissions must not leak admission slots.
  EXPECT_EQ(Service.queueStats().Admission.Depth, 0);
}

TEST(RepairService, SaturationShedsLoadWithTypedRejects) {
  TempDir Dir("service-saturate");
  Rng R(8113);
  Network Classifier = makeClassifier(R);

  ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  Options.Engine.NumWorkers = 1;
  Options.Admission.MaxInFlight = 1;
  RepairService Service(Options);
  NetworkFingerprint Fp = Service.registry().publish(Classifier);

  Rng SpecR(9300);
  PointSpec Spec = makeFlipSpec(Classifier, SpecR, 8);
  ServeRequest Request;
  Request.Model = Fp;
  Request.Spec = Spec;
  Request.LayerIndex = 0;

  // A tight submit loop against MaxInFlight=1 must shed load: retry
  // rejected submits (the designed client behavior) until all jobs are
  // in, and require that saturation was actually observed.
  const int Jobs = 12;
  std::vector<JobHandle> Handles;
  std::uint64_t SaturatedRejects = 0;
  while (static_cast<int>(Handles.size()) < Jobs) {
    ServeSubmission Submission = Service.submit(Request);
    if (Submission.accepted()) {
      Handles.push_back(Submission.Handle);
      continue;
    }
    ASSERT_EQ(Submission.Reject, ServeReject::Saturated);
    ++SaturatedRejects;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (JobHandle &Handle : Handles)
    EXPECT_EQ(Handle.report().Status, RepairStatus::Success);
  EXPECT_GT(SaturatedRejects, 0u);
  EXPECT_EQ(Service.stats().Accepted, static_cast<std::uint64_t>(Jobs));
  EXPECT_EQ(Service.queueStats().Admission.Depth, 0);
}

TEST(RepairService, StatsAggregateEveryTierAndCountersMove) {
  TempDir Dir("service-stats");
  Rng R(8115);
  Network Classifier = makeClassifier(R);

  ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  Options.Engine.NumWorkers = 2;
  RepairService Service(Options);

  // Idle snapshot: everything zero.
  ServiceStats Before = Service.stats();
  EXPECT_EQ(Before.Accepted, 0u);
  EXPECT_EQ(Before.Rejected, 0u);
  EXPECT_EQ(Before.Registry.Resolves, 0u);
  EXPECT_EQ(Before.Admission.Admitted, 0u);
  EXPECT_EQ(Before.Engine.Depth, 0);

  NetworkFingerprint Fp = Service.registry().publish(Classifier);
  Rng SpecR(9450);
  PointSpec Spec = makeFlipSpec(Classifier, SpecR, 6);

  // One accepted job and one typed reject move every tier's counters
  // through the single aggregated snapshot.
  ServeRequest Good;
  Good.Model = Fp;
  Good.Spec = Spec;
  Good.LayerIndex = 0;
  ServeSubmission Accepted = Service.submit(Good);
  ASSERT_TRUE(Accepted.accepted());
  EXPECT_EQ(Accepted.Handle.report().Status, RepairStatus::Success);

  ServeRequest Bad;
  Bad.Model.Digest.Hi = 0x1;
  Bad.Spec = std::move(Spec);
  Bad.LayerIndex = 0;
  ServeSubmission Rejected = Service.submit(Bad);
  EXPECT_EQ(Rejected.Reject, ServeReject::UnknownModel);

  ServiceStats After = Service.stats();
  EXPECT_EQ(After.Accepted, 1u);
  EXPECT_EQ(After.Rejected, 1u);
  EXPECT_EQ(
      After.RejectsByReason[static_cast<int>(ServeReject::UnknownModel)],
      1u);
  EXPECT_EQ(After.Registry.Publishes, 1u);
  // The accepted job resolved the model; the reject probed and missed.
  EXPECT_EQ(After.Registry.Resolves, 2u);
  EXPECT_EQ(After.Registry.NotFound, 1u);
  // Admission grants a ticket before registry resolution, so the
  // UnknownModel probe also admitted (then released) one.
  EXPECT_EQ(After.Admission.Admitted, 2u);
  EXPECT_EQ(After.Admission.Depth, 0);
  EXPECT_EQ(After.Engine.Depth, 0);
  EXPECT_EQ(After.Engine.Running, 0);
  // The engine ran with its cache on: lookups moved through the
  // aggregate too.
  EXPECT_GT(After.Cache.Hits + After.Cache.Misses, 0u);
}

TEST(RepairService, TwoServicesShareOneDirectory) {
  TempDir Dir("service-pair");
  Rng R(8114);
  Network Classifier = makeClassifier(R);

  ServiceOptions Options;
  Options.StoreDirectory = Dir.str();
  RepairService A(Options);
  RepairService B(Options);

  // A publishes; B serves by fingerprint alone, loading (and
  // re-verifying) off the shared disk.
  NetworkFingerprint Fp = A.registry().publish(Classifier);
  Rng SpecR(9400);
  PointSpec Spec = makeFlipSpec(Classifier, SpecR, 8);

  RepairRequest Twin;
  Twin.Net = RepairRequest::borrow(Classifier);
  Twin.Spec = Spec;
  Twin.LayerIndex = 2;
  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions);
  RepairReport TwinReport = SerialEngine.run(Twin);

  ServeRequest Request;
  Request.Model = Fp;
  Request.Spec = std::move(Spec);
  Request.LayerIndex = 2;
  ServeSubmission Submission = B.submit(Request);
  ASSERT_TRUE(Submission.accepted()) << toString(Submission.Reject);
  const RepairReport &Report = Submission.Handle.report();
  expectBitIdentical(Report.Result, TwinReport.Result);
  EXPECT_EQ(B.registry().stats().DiskLoads, 1u);
}

// --- Two processes on one directory -----------------------------------------

#ifdef PRDNN_TEST_HAVE_SPAWN

/// Names the shared store directory for the DISABLED_ child case; set
/// only by TwoProcessesShareOneDirectory when it spawns the children.
constexpr const char *kChildDirVar = "PRDNN_SERVE_TEST_CHILD_DIR";

/// The fixed model set and request mix both processes rebuild from
/// fixed seeds: point repairs at every layer of two classifiers, a
/// sweep, and segment repairs of a regressor. Each request keeps its
/// serial, cache-free twin's result.
struct ProcessWorkload {
  std::vector<std::shared_ptr<Network>> Models;
  std::vector<RepairRequest> Requests;
  std::vector<RepairReport> Twins;
};

ProcessWorkload makeProcessWorkload() {
  ProcessWorkload W;
  Rng R(8120);
  W.Models.push_back(std::make_shared<Network>(makeClassifier(R)));
  W.Models.push_back(std::make_shared<Network>(makeClassifier(R)));
  W.Models.push_back(std::make_shared<Network>(demo::makeRegressor(R)));
  Rng SpecR(9500);
  for (int Model : {0, 1})
    for (int Layer : {0, 2, 4})
      W.Requests.push_back(RepairRequest::points(
          W.Models[Model], Layer, makeFlipSpec(*W.Models[Model], SpecR, 8)));
  RepairRequest Sweep = RepairRequest::points(
      W.Models[0], 0, makeFlipSpec(*W.Models[0], SpecR, 8));
  Sweep.LayerIndex = kAutoLayer;
  W.Requests.push_back(std::move(Sweep));
  for (int I = 0; I < 2; ++I)
    W.Requests.push_back(RepairRequest::polytopes(
        W.Models[2], 2, demo::makeSegmentSpec(*W.Models[2], SpecR, 2)));

  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions);
  for (const RepairRequest &Request : W.Requests)
    W.Twins.push_back(SerialEngine.run(Request));
  return W;
}

void expectSameReport(const RepairReport &Got, const RepairReport &Want) {
  EXPECT_EQ(Got.Status, Want.Status);
  EXPECT_EQ(Got.RepairedLayer, Want.RepairedLayer);
  expectBitIdentical(Got.Result, Want.Result);
}

/// Holds a child until its sibling has started too, so that their
/// publications and store writes overlap. Returns the child's rank (0
/// for the lower pid), or -1 when the sibling never arrives.
int meetSibling(const fs::path &Dir) {
  fs::path Lobby = Dir / "lobby";
  fs::create_directories(Lobby);
  const long Self = static_cast<long>(::getpid());
  std::ofstream(Lobby / std::to_string(Self)).put('\n');
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    std::vector<long> Pids;
    for (const auto &Entry : fs::directory_iterator(Lobby))
      Pids.push_back(std::stol(Entry.path().filename().string()));
    if (Pids.size() >= 2)
      return Self == *std::min_element(Pids.begin(), Pids.end()) ? 0 : 1;
    if (std::chrono::steady_clock::now() > Deadline)
      return -1;
    std::this_thread::yield();
  }
}

// One serving process: publishes every model (racing its sibling) and
// serves the mix twice through a RepairService on the shared directory,
// checking each report against its twin. Runs only when spawned by
// TwoProcessesShareOneDirectory.
TEST(RepairService, DISABLED_ServeMixAsChildProcess) {
  const char *Dir = std::getenv(kChildDirVar);
  if (!Dir)
    GTEST_SKIP() << "spawned by TwoProcessesShareOneDirectory only";
  ProcessWorkload W = makeProcessWorkload();

  ServiceOptions Options;
  Options.StoreDirectory = Dir;
  Options.Engine.NumWorkers = 2;
  Options.Admission.MaxInFlight = 4;
  RepairService Service(Options);
  const int Rank = meetSibling(Dir);
  ASSERT_GE(Rank, 0) << "the sibling process never started";
  // The siblings publish in opposite orders, so at any moment their
  // writers hold different models.
  std::vector<NetworkFingerprint> Fps(W.Models.size());
  for (size_t I = 0; I < W.Models.size(); ++I) {
    size_t M = Rank == 0 ? I : W.Models.size() - 1 - I;
    RegistryError Error = RegistryError::None;
    Fps[M] = Service.registry().publish(*W.Models[M], &Error);
    ASSERT_EQ(Error, RegistryError::None) << toString(Error);
  }
  // The first resolve of each model is then a verified disk load.
  Service.registry().dropCache();

  for (int Pass = 0; Pass < 2; ++Pass) {
    std::vector<JobHandle> Handles;
    for (const RepairRequest &Twin : W.Requests) {
      ServeRequest Request;
      for (size_t M = 0; M < W.Models.size(); ++M)
        if (W.Models[M] == Twin.Net)
          Request.Model = Fps[M];
      Request.Spec = Twin.Spec;
      Request.LayerIndex = Twin.LayerIndex;
      ServeSubmission Submission;
      while (!(Submission = Service.submit(Request)).accepted()) {
        ASSERT_EQ(Submission.Reject, ServeReject::Saturated);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Handles.push_back(Submission.Handle);
    }
    for (size_t I = 0; I < Handles.size(); ++I)
      expectSameReport(Handles[I].report(), W.Twins[I]);
  }
  Service.flush();
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Registry.CorruptRejects, 0u);
  EXPECT_EQ(Stats.Registry.MismatchRejects, 0u);
  EXPECT_EQ(Stats.Cache.Store.CorruptSkips, 0u);
}

TEST(RepairService, TwoProcessesShareOneDirectory) {
  if (!fs::exists("/proc/self/exe"))
    GTEST_SKIP() << "needs /proc/self/exe";
  TempDir Dir("service-processes");

  std::vector<std::string> Env;
  for (char **E = environ; *E; ++E)
    Env.emplace_back(*E);
  Env.push_back(std::string(kChildDirVar) + "=" + Dir.str());
  std::vector<char *> Envp;
  for (std::string &E : Env)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);
  std::string Exe = "/proc/self/exe";
  std::string Filter =
      "--gtest_filter=RepairService.DISABLED_ServeMixAsChildProcess";
  std::string AlsoDisabled = "--gtest_also_run_disabled_tests";
  char *Argv[] = {Exe.data(), Filter.data(), AlsoDisabled.data(), nullptr};

  // Reap whatever did start before judging the spawns, so a failed
  // second spawn leaves no child behind.
  std::vector<pid_t> Children;
  for (int C = 0; C < 2; ++C) {
    pid_t Child = 0;
    if (posix_spawn(&Child, Exe.c_str(), nullptr, nullptr, Argv,
                    Envp.data()) == 0)
      Children.push_back(Child);
  }
  for (pid_t Child : Children) {
    int Status = 0;
    ASSERT_EQ(waitpid(Child, &Status, 0), Child);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "child " << Child << " status " << Status;
  }
  ASSERT_EQ(Children.size(), 2u) << "posix_spawn failed";

  // What the two processes left behind serves a fresh engine: every
  // report matches its twin, some of it from disk, none of it corrupt.
  ProcessWorkload W = makeProcessWorkload();
  EngineOptions WithStore;
  WithStore.StoreDirectory = Dir.str();
  RepairEngine Fresh(WithStore);
  std::int64_t StoreHits = 0;
  for (size_t I = 0; I < W.Requests.size(); ++I) {
    RepairReport Report = Fresh.run(W.Requests[I]);
    expectSameReport(Report, W.Twins[I]);
    StoreHits += Report.StoreHits;
  }
  EXPECT_GT(StoreHits, 0);
  EXPECT_EQ(Fresh.storeStats().CorruptSkips, 0u);

  ModelRegistry Registry(Dir.str());
  for (const auto &Model : W.Models) {
    RegistryError Error = RegistryError::None;
    EXPECT_NE(Registry.resolve(fingerprintNetwork(*Model), &Error), nullptr);
    EXPECT_EQ(Error, RegistryError::None) << toString(Error);
  }
}

#else

TEST(RepairService, TwoProcessesShareOneDirectory) {
  GTEST_SKIP() << "needs posix_spawn";
}

#endif

} // namespace
