//===- tests/rpc_test.cpp - network RPC subsystem tests ----------------------===//
//
// Covers the rpc/ subsystem end to end: bit-exact payload round-trips
// for every wire message; a real client/server exchange over TCP
// localhost whose decoded reports are bit-for-bit identical to serial,
// cache-free in-process twins; typed degradation of every failure path
// - malformed frames (truncated, bad magic, wrong version, corrupted
// digest, oversized declarations) answered with typed errors and the
// connection recoverable exactly when the stream stayed in sync;
// out-of-range RepairOptions values rejected at decode, before any job
// runs; Await deadlines expiring typed with the job unharmed;
// saturation and connection-limit rejects carrying the same typed
// vocabulary as admission; a client killed mid-request leaking no
// admission ticket; and toString() total over every wire-visible enum,
// so a byte from a foreign peer can never print garbage. Runs under the
// CI ThreadSanitizer job next to serve_test and engine_test.
//
//===----------------------------------------------------------------------===//

#include "rpc/RpcClient.h"
#include "rpc/RpcServer.h"

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "persist/Codec.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <netinet/in.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;

namespace {

using namespace prdnn;
using namespace prdnn::rpc;
using persist::ByteReader;
using persist::ByteWriter;
using persist::CodecError;

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

/// makeClassifier's shapes with smooth activations: as a value channel
/// next to makeClassifier's ReLUs it is ddnn_test's ReLU-vs-Smooth
/// channel mismatch.
Network makeSmoothClassifier(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 6, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<TanhLayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 16, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<SigmoidLayer>(16));
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

void expectBitIdentical(const RepairResult &A, const RepairResult &B) {
  ASSERT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.Delta.size(), B.Delta.size());
  for (size_t I = 0; I < A.Delta.size(); ++I)
    EXPECT_EQ(A.Delta[I], B.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.DeltaL1, B.DeltaL1);
  EXPECT_EQ(A.DeltaLInf, B.DeltaLInf);
}

/// A raw TCP connection for crafting hostile byte streams the typed
/// client would never send.
struct RawConn {
  int Fd = -1;

  ~RawConn() { close(); }

  bool connectTo(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      close();
      return false;
    }
    return true;
  }

  bool sendBytes(const std::vector<std::uint8_t> &Bytes) {
    std::size_t Sent = 0;
    while (Sent < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Sent += static_cast<std::size_t>(N);
    }
    return true;
  }

  RpcError recvReply(std::uint8_t &Kind, std::vector<std::uint8_t> &Payload) {
    WireLimits Limits;
    return recvFrame(Fd, Kind, Payload, Limits);
  }

  void shutdownWrite() { ::shutdown(Fd, SHUT_WR); }

  void close() {
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
};

/// Decodes an ErrorReply payload; BadKind-tags failures so EXPECT_EQ
/// prints something sensible.
RpcError decodeErrorReply(const std::vector<std::uint8_t> &Payload) {
  ByteReader R(Payload.data(), Payload.size());
  std::uint8_t Code = 0;
  std::string Detail;
  if (!R.u8(Code) || !R.str(Detail))
    return RpcError::BadKind;
  return static_cast<RpcError>(Code);
}

serve::ServeRequest makeRichRequest(const NetworkFingerprint &Fp,
                                    const Network &Net, Rng &R) {
  serve::ServeRequest Request;
  Request.Model = Fp;
  Request.Spec = makeFlipSpec(Net, R, 5);
  Request.LayerIndex = kAutoLayer;
  Request.SweepLayers = {0, 2, 4};
  Request.Class = RepairRequest::Priority::High;
  Request.Options.DeltaBound = 17.5;
  Request.Options.CgBatch = 7;
  Request.Options.ParamMask = std::vector<bool>{true, false, true};
  Request.Options.Lp.MaxIterations = 1234;
  return Request;
}

// --- Payload serializers ----------------------------------------------------

TEST(RpcWire, ServeRequestRoundTripsByteExact) {
  Rng R(8201);
  Network Net = makeClassifier(R);
  NetworkFingerprint Fp = fingerprintNetwork(Net);
  Rng SpecR(8202);
  serve::ServeRequest Request = makeRichRequest(Fp, Net, SpecR);
  // A pattern on one point exercises the optional branch.
  NetworkPattern Pattern;
  Pattern.Patterns.push_back({1, 0, 1, 1});
  std::get<PointSpec>(Request.Spec)[0].Pattern = Pattern;

  ByteWriter W;
  writeServeRequest(W, Request);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  serve::ServeRequest Back;
  ASSERT_TRUE(readServeRequest(Reader, Back)) << toString(Reader.error());
  EXPECT_EQ(Reader.remaining(), 0u);

  EXPECT_EQ(Back.Model, Fp);
  EXPECT_EQ(Back.LayerIndex, kAutoLayer);
  EXPECT_EQ(Back.SweepLayers, Request.SweepLayers);
  EXPECT_EQ(Back.Class, RepairRequest::Priority::High);
  EXPECT_EQ(Back.Options.DeltaBound, 17.5);
  EXPECT_EQ(Back.Options.CgBatch, 7);
  ASSERT_TRUE(Back.Options.ParamMask.has_value());
  EXPECT_EQ(*Back.Options.ParamMask, *Request.Options.ParamMask);
  EXPECT_EQ(Back.Options.Lp.MaxIterations, 1234);

  // Re-encoding the decoded request reproduces the bytes exactly: the
  // encoding is canonical, so fingerprints of requests are stable.
  ByteWriter Again;
  writeServeRequest(Again, Back);
  EXPECT_EQ(W.buffer(), Again.buffer());

  // Polytope specs take the other branch.
  serve::ServeRequest Poly;
  Poly.Model = Fp;
  PolytopeSpec PSpec;
  PSpec.push_back(
      {SegmentPolytope{randomVector(SpecR, Net.inputSize()),
                       randomVector(SpecR, Net.inputSize())},
       classificationConstraint(Net.outputSize(), 1, 1e-3)});
  Poly.Spec = std::move(PSpec);
  Poly.LayerIndex = 2;
  ByteWriter PW;
  writeServeRequest(PW, Poly);
  ByteReader PReader(PW.buffer().data(), PW.buffer().size());
  serve::ServeRequest PolyBack;
  ASSERT_TRUE(readServeRequest(PReader, PolyBack));
  ByteWriter PAgain;
  writeServeRequest(PAgain, PolyBack);
  EXPECT_EQ(PW.buffer(), PAgain.buffer());
}

TEST(RpcWire, RepairReportRoundTripsBitExact) {
  Rng R(8203);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  Rng SpecR(8204);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  EngineOptions Options;
  Options.EnableCache = false;
  RepairEngine Engine(Options);
  RepairRequest Request = RepairRequest::points(Net, kAutoLayer, Spec);
  RepairReport Report = Engine.run(Request);
  ASSERT_EQ(Report.Status, RepairStatus::Success);
  ASSERT_TRUE(Report.Result.Repaired.has_value());
  ASSERT_FALSE(Report.Sweep.empty());
  // The engine ran cache-free, so give every cache counter a distinct
  // value: the round trip then checks their order on the wire too.
  RepairStats &Counts = Report.Result.Stats;
  int *const SentCounters[] = {
      &Counts.LinRegionsCacheHits, &Counts.LinRegionsCacheMisses,
      &Counts.PatternCacheHits,    &Counts.PatternCacheMisses,
      &Counts.BasisHits,           &Counts.BasisMisses,
      &Counts.LinRegionsStoreHits, &Counts.PatternStoreHits,
      &Counts.BasisStoreHits};
  for (int I = 0; I < 9; ++I)
    *SentCounters[I] = I + 1;

  ByteWriter W;
  writeRepairReport(W, Report);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  RepairReport Back;
  ASSERT_TRUE(readRepairReport(Reader, Back)) << toString(Reader.error());
  EXPECT_EQ(Reader.remaining(), 0u);

  // Bit identity of everything the determinism contract names.
  EXPECT_EQ(Back.Status, Report.Status);
  EXPECT_EQ(Back.RepairedLayer, Report.RepairedLayer);
  expectBitIdentical(Back.Result, Report.Result);
  // The success margin travels next to the tolerance it was judged by.
  const RepairStats &Sent = Report.Result.Stats;
  const RepairStats &Received = Back.Result.Stats;
  EXPECT_GT(Sent.VerifyTolerance, 0.0);
  EXPECT_LE(Sent.VerifiedViolation, Sent.VerifyTolerance);
  EXPECT_EQ(Received.VerifiedViolation, Sent.VerifiedViolation);
  EXPECT_EQ(Received.VerifyTolerance, Sent.VerifyTolerance);
  EXPECT_EQ(Received.LpSeconds, Sent.LpSeconds);
  const int ReceivedCounters[] = {
      Received.LinRegionsCacheHits, Received.LinRegionsCacheMisses,
      Received.PatternCacheHits,    Received.PatternCacheMisses,
      Received.BasisHits,           Received.BasisMisses,
      Received.LinRegionsStoreHits, Received.PatternStoreHits,
      Received.BasisStoreHits};
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(ReceivedCounters[I], I + 1) << "counter " << I;
  ASSERT_EQ(Back.Sweep.size(), Report.Sweep.size());
  for (size_t I = 0; I < Report.Sweep.size(); ++I) {
    EXPECT_EQ(Back.Sweep[I].LayerIndex, Report.Sweep[I].LayerIndex);
    EXPECT_EQ(Back.Sweep[I].Status, Report.Sweep[I].Status);
    EXPECT_EQ(Back.Sweep[I].DeltaL1, Report.Sweep[I].DeltaL1);
  }
  // The repaired network decodes to bit-identical evaluations.
  ASSERT_TRUE(Back.Result.Repaired.has_value());
  Rng ProbeR(8205);
  Vector X = randomVector(ProbeR, Net->inputSize());
  Vector Want = Report.Result.Repaired->evaluate(X);
  Vector Got = Back.Result.Repaired->evaluate(X);
  for (int O = 0; O < Want.size(); ++O)
    EXPECT_EQ(Got[O], Want[O]);

  // Canonical encoding: decode-then-encode is the identity on bytes.
  ByteWriter Again;
  writeRepairReport(Again, Back);
  EXPECT_EQ(W.buffer(), Again.buffer());
}

TEST(RpcWire, ProgressAndServiceStatsRoundTripByteExact) {
  ProgressSnapshot Snapshot;
  Snapshot.Phase = RepairPhase::Lp;
  Snapshot.ItemsDone = 41;
  Snapshot.ItemsTotal = 0;
  Snapshot.SweepLayer = 2;
  Snapshot.SweepDone = 1;
  Snapshot.SweepTotal = 3;
  Snapshot.CancelRequested = true;
  Snapshot.CacheHits = 7;
  Snapshot.CacheMisses = 9;
  Snapshot.StoreHits = 3;
  ByteWriter W;
  writeProgressSnapshot(W, Snapshot);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  ProgressSnapshot Back;
  ASSERT_TRUE(readProgressSnapshot(Reader, Back));
  EXPECT_EQ(Back.Phase, RepairPhase::Lp);
  EXPECT_EQ(Back.ItemsDone, 41);
  EXPECT_TRUE(Back.CancelRequested);
  ByteWriter Again;
  writeProgressSnapshot(Again, Back);
  EXPECT_EQ(W.buffer(), Again.buffer());

  serve::ServiceStats Stats;
  Stats.Accepted = 12;
  Stats.Rejected = 3;
  Stats.RejectsByReason[1] = 2;
  Stats.RejectsByReason[3] = 1;
  Stats.Registry.Publishes = 4;
  Stats.Registry.DiskLoads = 2;
  Stats.Admission.Depth = 5;
  Stats.Admission.Admitted = 12;
  Stats.Admission.OldestWaitSeconds = 0.25;
  Stats.Engine.Depth = 4;
  Stats.Engine.Running = 1;
  Stats.Cache.Hits = 100;
  Stats.Cache.Store.Writes = 6;
  ByteWriter SW;
  writeServiceStats(SW, Stats);
  ByteReader SReader(SW.buffer().data(), SW.buffer().size());
  serve::ServiceStats SBack;
  ASSERT_TRUE(readServiceStats(SReader, SBack));
  EXPECT_EQ(SBack.Accepted, 12u);
  EXPECT_EQ(SBack.RejectsByReason[3], 1u);
  EXPECT_EQ(SBack.Registry.Publishes, 4u);
  EXPECT_EQ(SBack.Admission.OldestWaitSeconds, 0.25);
  EXPECT_EQ(SBack.Cache.Store.Writes, 6u);
  ByteWriter SAgain;
  writeServiceStats(SAgain, SBack);
  EXPECT_EQ(SW.buffer(), SAgain.buffer());
}

TEST(RpcWire, MalformedPayloadsFailTypedNeverCrash) {
  Rng R(8206);
  Network Net = makeClassifier(R);
  Rng SpecR(8207);
  serve::ServeRequest Request =
      makeRichRequest(fingerprintNetwork(Net), Net, SpecR);
  ByteWriter W;
  writeServeRequest(W, Request);
  const std::vector<std::uint8_t> &Good = W.buffer();

  // Every strict prefix is a typed failure (Truncated or Corrupt).
  for (std::size_t Cut : {std::size_t(0), std::size_t(1), Good.size() / 4,
                          Good.size() / 2, Good.size() - 1}) {
    ByteReader Reader(Good.data(), Cut);
    serve::ServeRequest Back;
    EXPECT_FALSE(readServeRequest(Reader, Back)) << "prefix " << Cut;
    EXPECT_NE(Reader.error(), CodecError::None);
  }

  // An impossible count fails Corrupt before allocating: set the spec
  // point count (right after the 16-byte fingerprint + 1 tag byte) to
  // 2^60.
  std::vector<std::uint8_t> Huge = Good;
  for (int I = 0; I < 8; ++I)
    Huge[17 + I] = I == 7 ? 0x10 : 0x00;
  ByteReader HugeReader(Huge.data(), Huge.size());
  serve::ServeRequest Back;
  EXPECT_FALSE(readServeRequest(HugeReader, Back));
  EXPECT_EQ(HugeReader.error(), CodecError::Corrupt);
}

TEST(RpcWire, MalformedReportsFailTypedNeverCrash) {
  Rng R(8208);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  Rng SpecR(8209);
  EngineOptions Options;
  Options.EnableCache = false;
  RepairEngine Engine(Options);
  RepairReport Report = Engine.run(
      RepairRequest::points(Net, kAutoLayer, makeFlipSpec(*Net, SpecR, 8)));
  ASSERT_EQ(Report.Status, RepairStatus::Success);
  ASSERT_TRUE(Report.Result.Repaired.has_value());
  ByteWriter W;
  writeRepairReport(W, Report);
  const std::vector<std::uint8_t> &Good = W.buffer();

  // Every strict prefix is a typed failure (Truncated or Corrupt).
  for (std::size_t Cut = 0; Cut < Good.size(); ++Cut) {
    ByteReader Reader(Good.data(), Cut);
    RepairReport Back;
    EXPECT_FALSE(readRepairReport(Reader, Back)) << "prefix " << Cut;
    EXPECT_NE(Reader.error(), CodecError::None) << "prefix " << Cut;
  }

  // Swap the value channel's bytes for a smooth network of the same
  // shapes: the channels disagree on layer kinds, so the report is
  // Corrupt.
  ByteWriter Ddnn;
  persist::serializeDecoupled(*Report.Result.Repaired, Ddnn);
  auto At = std::search(Good.begin(), Good.end(), Ddnn.buffer().begin(),
                        Ddnn.buffer().end());
  ASSERT_NE(At, Good.end());
  ByteWriter Mixed;
  persist::serializeNetwork(Report.Result.Repaired->activationChannel(),
                            Mixed);
  Rng SmoothR(8210);
  persist::serializeNetwork(makeSmoothClassifier(SmoothR), Mixed);
  ASSERT_EQ(Mixed.buffer().size(), Ddnn.buffer().size());
  std::vector<std::uint8_t> Bad = Good;
  std::copy(Mixed.buffer().begin(), Mixed.buffer().end(),
            Bad.begin() + (At - Good.begin()));
  ByteReader BadReader(Bad.data(), Bad.size());
  RepairReport Back;
  EXPECT_FALSE(readRepairReport(BadReader, Back));
  EXPECT_EQ(BadReader.error(), CodecError::Corrupt);

  // Channels with no layers agree, and deciding so touches no layer.
  Report.Result.Repaired.emplace(Network(), Network());
  ByteWriter EmptyW;
  writeRepairReport(EmptyW, Report);
  ByteReader EmptyReader(EmptyW.buffer().data(), EmptyW.buffer().size());
  ASSERT_TRUE(readRepairReport(EmptyReader, Back))
      << toString(EmptyReader.error());
  ASSERT_TRUE(Back.Result.Repaired.has_value());
  EXPECT_EQ(Back.Result.Repaired->numLayers(), 0);
}

// --- toString totality ------------------------------------------------------

/// Every named value prints a distinct non-"unknown" string; every
/// out-of-range byte prints "unknown" - a foreign peer's enum byte can
/// never crash or print garbage.
template <typename Enum, typename Fn>
void expectToStringTotal(Fn &&ToString, std::uint8_t NamedCount) {
  std::set<std::string> Seen;
  for (std::uint8_t V = 0; V < NamedCount; ++V) {
    const char *S = ToString(static_cast<Enum>(V));
    ASSERT_NE(S, nullptr);
    EXPECT_STRNE(S, "") << "value " << int(V);
    EXPECT_STRNE(S, "unknown") << "value " << int(V);
    EXPECT_TRUE(Seen.insert(S).second) << "duplicate name: " << S;
  }
  for (int V : {int(NamedCount), 0x7f, 0xee, 0xff})
    EXPECT_STREQ(ToString(static_cast<Enum>(V)), "unknown") << "value " << V;
}

TEST(RpcWire, ToStringIsTotalForEveryWireVisibleEnum) {
  expectToStringTotal<RpcError>([](RpcError E) { return toString(E); }, 10);
  expectToStringTotal<serve::ServeReject>(
      [](serve::ServeReject E) { return serve::toString(E); }, 6);
  expectToStringTotal<serve::RegistryError>(
      [](serve::RegistryError E) { return serve::toString(E); }, 5);
  expectToStringTotal<serve::AdmitReject>(
      [](serve::AdmitReject E) { return serve::toString(E); }, 3);
  expectToStringTotal<CodecError>(
      [](CodecError E) { return persist::toString(E); }, 6);
  expectToStringTotal<RepairStatus>(
      [](RepairStatus E) { return toString(E); }, 4);
  expectToStringTotal<RepairPhase>(
      [](RepairPhase E) { return toString(E); }, 6);
}

TEST(RpcWire, CodecErrorsMapOntoWireVocabulary) {
  EXPECT_EQ(fromCodecError(CodecError::None), RpcError::None);
  EXPECT_EQ(fromCodecError(CodecError::Truncated), RpcError::Truncated);
  EXPECT_EQ(fromCodecError(CodecError::BadMagic), RpcError::BadMagic);
  EXPECT_EQ(fromCodecError(CodecError::BadVersion), RpcError::BadVersion);
  // A foreign-endian network peer is just not speaking this protocol.
  EXPECT_EQ(fromCodecError(CodecError::ForeignEndian), RpcError::Corrupt);
  EXPECT_EQ(fromCodecError(CodecError::Corrupt), RpcError::Corrupt);
}

// --- Client/server over TCP localhost ---------------------------------------

struct ServiceFixture {
  TempDir Dir;
  Network Classifier;
  serve::RepairService Service;
  NetworkFingerprint Fp;

  explicit ServiceFixture(const std::string &Tag, int Workers = 2,
                          int MaxInFlight = 8)
      : Dir(Tag), Classifier([] {
          Rng R(8300);
          return makeClassifier(R);
        }()),
        Service([&] {
          serve::ServiceOptions Options;
          Options.StoreDirectory = Dir.str();
          Options.Engine.NumWorkers = Workers;
          Options.Admission.MaxInFlight = MaxInFlight;
          return Options;
        }()) {
    Fp = Service.registry().publish(Classifier);
  }
};

TEST(RpcEndToEnd, ReportsBitIdenticalToSerialCacheFreeTwins) {
  ServiceFixture Fx("rpc-e2e");
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  ASSERT_GT(Server.port(), 0);

  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);

  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions);

  const int Layers[] = {0, 2, 4, kAutoLayer};
  for (int I = 0; I < 4; ++I) {
    Rng SpecR(9500 + I);
    PointSpec Spec = makeFlipSpec(Fx.Classifier, SpecR, 10);

    RepairRequest Twin;
    Twin.Net = RepairRequest::borrow(Fx.Classifier);
    Twin.Spec = Spec;
    Twin.LayerIndex = Layers[I];
    RepairReport TwinReport = SerialEngine.run(Twin);

    serve::ServeRequest Request;
    Request.Model = Fx.Fp;
    Request.Spec = std::move(Spec);
    Request.LayerIndex = Layers[I];

    RepairReport Report;
    serve::ServeReject Reject = serve::ServeReject::Saturated;
    ASSERT_EQ(Client.repair(Request, Report, Reject), RpcError::None);
    ASSERT_EQ(Reject, serve::ServeReject::None);

    EXPECT_EQ(Report.Status, TwinReport.Status);
    EXPECT_EQ(Report.RepairedLayer, TwinReport.RepairedLayer);
    expectBitIdentical(Report.Result, TwinReport.Result);
    EXPECT_EQ(Report.Sweep.size(), TwinReport.Sweep.size());
  }

  // The aggregated status travels too, and the ledger balances: four
  // accepted jobs, every admission ticket released.
  serve::ServiceStats Stats;
  ASSERT_EQ(Client.status(Stats), RpcError::None);
  EXPECT_EQ(Stats.Accepted, 4u);
  EXPECT_EQ(Stats.Rejected, 0u);
  EXPECT_EQ(Stats.Admission.Depth, 0);

  RpcClientStats ClientStats = Client.stats();
  EXPECT_GT(ClientStats.BytesSent, 0u);
  EXPECT_GT(ClientStats.BytesReceived, 0u);
  // The server's counters are only final once its connection threads
  // are joined: the thread adds to BytesSent *after* send() returns,
  // so a client that already read the reply can race a pre-stop read.
  Client.close();
  Server.stop();
  RpcServerStats ServerStats = Server.stats();
  EXPECT_EQ(ServerStats.BytesReceived, ClientStats.BytesSent);
  EXPECT_EQ(ServerStats.BytesSent, ClientStats.BytesReceived);
}

TEST(RpcEndToEnd, TypedServeRejectsTravelTheWire) {
  ServiceFixture Fx("rpc-rejects");
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);

  Rng SpecR(9600);
  serve::ServeRequest Unknown;
  Unknown.Model.Digest.Hi = 0xdead;
  Unknown.Model.Digest.Lo = 0xbeef;
  Unknown.Spec = makeFlipSpec(Fx.Classifier, SpecR, 4);
  Unknown.LayerIndex = 0;

  // submit() carries the typed reject; repair() fails fast on it.
  SubmitReply Reply;
  ASSERT_EQ(Client.connect(), RpcError::None);
  ASSERT_EQ(Client.submit(Unknown, Reply), RpcError::None);
  EXPECT_EQ(Reply.Reject, serve::ServeReject::UnknownModel);
  EXPECT_EQ(Reply.JobId, 0u);

  RepairReport Report;
  serve::ServeReject Reject = serve::ServeReject::None;
  ASSERT_EQ(Client.repair(Unknown, Report, Reject), RpcError::None);
  EXPECT_EQ(Reject, serve::ServeReject::UnknownModel);
  EXPECT_EQ(Client.stats().Retries, 0u) << "non-shed rejects never retry";
  Server.stop();
}

TEST(RpcEndToEnd, SaturationRejectsTypedAndDeadlineExpiryLeavesJobAlive) {
  ServiceFixture Fx("rpc-saturate", /*Workers=*/1, /*MaxInFlight=*/1);
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);

  auto Net = std::make_shared<Network>([&] {
    Rng R(8301);
    return makeClassifier(R);
  }());
  Rng SpecR(9700);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  // Park the single engine worker inside a blocker job (submitted
  // straight to the engine: it holds no admission ticket).
  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Fx.Service.engine().submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  // First wire submit takes the only admission slot and queues behind
  // the blocker.
  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = Spec;
  Request.LayerIndex = 0;
  SubmitReply First;
  ASSERT_EQ(Client.submit(Request, First), RpcError::None);
  ASSERT_TRUE(First.accepted());

  // Second submit is shed with the same typed reason admission gives.
  SubmitReply Second;
  ASSERT_EQ(Client.submit(Request, Second), RpcError::None);
  EXPECT_EQ(Second.Reject, serve::ServeReject::Saturated);
  EXPECT_EQ(Second.JobId, 0u);

  // Progress polls see the queued job without blocking it.
  bool Found = false;
  ProgressSnapshot Snapshot;
  ASSERT_EQ(Client.progress(First.JobId, Found, Snapshot), RpcError::None);
  EXPECT_TRUE(Found);
  EXPECT_EQ(Snapshot.Phase, RepairPhase::Queued);

  // An Await deadline expires typed; the job survives, still held.
  RepairReport Report;
  ASSERT_EQ(Client.await(First.JobId, 60, Found, Report),
            RpcError::Timeout);
  EXPECT_EQ(Fx.Service.queueStats().Admission.Depth, 1);
  EXPECT_GE(Server.stats().AwaitTimeouts, 1u);

  // Release the worker; the same connection re-awaits the same job.
  Release.set_value();
  ASSERT_EQ(Blocker.report().Status, RepairStatus::Success);
  ASSERT_EQ(Client.await(First.JobId, 0, Found, Report), RpcError::None);
  ASSERT_TRUE(Found);
  EXPECT_EQ(Report.Status, RepairStatus::Success);

  // Ticket released through the completion hook: nothing leaked.
  EXPECT_EQ(Fx.Service.queueStats().Admission.Depth, 0);
  Server.stop();
}

TEST(RpcEndToEnd, CancelOverTheWireResolvesTyped) {
  ServiceFixture Fx("rpc-cancel", /*Workers=*/1);
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);

  auto Net = std::make_shared<Network>([&] {
    Rng R(8302);
    return makeClassifier(R);
  }());
  Rng SpecR(9800);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Fx.Service.engine().submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = Spec;
  Request.LayerIndex = 0;
  SubmitReply Submitted;
  ASSERT_EQ(Client.submit(Request, Submitted), RpcError::None);
  ASSERT_TRUE(Submitted.accepted());

  bool Found = false;
  ASSERT_EQ(Client.cancel(Submitted.JobId, Found), RpcError::None);
  EXPECT_TRUE(Found);

  // Cancellation is cooperative: the flag is raised while the job is
  // queued, and it resolves as Cancelled (without running) once the
  // parked worker frees up to dequeue it.
  Release.set_value();
  (void)Blocker.report();

  // The cancelled report is still collectable, and typed.
  RepairReport Report;
  ASSERT_EQ(Client.await(Submitted.JobId, 0, Found, Report), RpcError::None);
  ASSERT_TRUE(Found);
  EXPECT_EQ(Report.Status, RepairStatus::Cancelled);

  // Unknown ids answer Found=false on every exchange, never an error.
  ASSERT_EQ(Client.cancel(99999, Found), RpcError::None);
  EXPECT_FALSE(Found);
  ASSERT_EQ(Client.await(99999, 50, Found, Report), RpcError::None);
  EXPECT_FALSE(Found);

  EXPECT_EQ(Fx.Service.queueStats().Admission.Depth, 0);
  Server.stop();
}

TEST(RpcEndToEnd, ConnectionBoundRejectsWithAdmissionVocabulary) {
  ServiceFixture Fx("rpc-connlimit");
  RpcServerOptions ServerOptions;
  ServerOptions.MaxConnections = 1;
  RpcServer Server(Fx.Service, ServerOptions);
  ASSERT_TRUE(Server.start());

  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient First(ClientOptions);
  ASSERT_EQ(First.connect(), RpcError::None);
  serve::ServiceStats Stats;
  ASSERT_EQ(First.status(Stats), RpcError::None);

  // The second connection is shed, typed, at the connection level.
  RpcClient Second(ClientOptions);
  ASSERT_EQ(Second.connect(), RpcError::None);
  EXPECT_EQ(Second.status(Stats), RpcError::Closed);
  EXPECT_EQ(Second.lastConnectionReject(), serve::ServeReject::Saturated);
  EXPECT_GE(Server.stats().ConnectionsRejected, 1u);

  // Capacity freed by the first client leaving is reusable (the
  // acceptor reaps on the following accept).
  First.close();
  RpcError Err = RpcError::Closed;
  for (int Try = 0; Try < 100 && Err != RpcError::None; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    RpcClient Retry(ClientOptions);
    if (Retry.connect() != RpcError::None)
      continue;
    Err = Retry.status(Stats);
  }
  EXPECT_EQ(Err, RpcError::None);
  Server.stop();
}

TEST(RpcEndToEnd, MalformedFramesAreTypedAndConnectionsRecoverInSync) {
  ServiceFixture Fx("rpc-malformed");
  RpcServerOptions ServerOptions;
  ServerOptions.Limits.MaxFrameBytes = 1 << 16;
  RpcServer Server(Fx.Service, ServerOptions);
  ASSERT_TRUE(Server.start());

  const std::vector<std::uint8_t> StatusFrame =
      persist::frame(static_cast<std::uint8_t>(MessageKind::Status), {});

  auto ExpectErrorReply = [&](RawConn &Conn, RpcError Want) {
    std::uint8_t Kind = 0;
    std::vector<std::uint8_t> Payload;
    ASSERT_EQ(Conn.recvReply(Kind, Payload), RpcError::None);
    ASSERT_EQ(static_cast<MessageKind>(Kind), MessageKind::ErrorReply);
    EXPECT_EQ(decodeErrorReply(Payload), Want);
  };
  auto ExpectStatusWorks = [&](RawConn &Conn) {
    ASSERT_TRUE(Conn.sendBytes(StatusFrame));
    std::uint8_t Kind = 0;
    std::vector<std::uint8_t> Payload;
    ASSERT_EQ(Conn.recvReply(Kind, Payload), RpcError::None);
    ASSERT_EQ(static_cast<MessageKind>(Kind), MessageKind::StatusReply);
    ByteReader R(Payload.data(), Payload.size());
    serve::ServiceStats Stats;
    EXPECT_TRUE(readServiceStats(R, Stats));
  };
  auto ExpectClosed = [&](RawConn &Conn) {
    std::uint8_t Kind = 0;
    std::vector<std::uint8_t> Payload;
    RpcError Err = Conn.recvReply(Kind, Payload);
    EXPECT_TRUE(Err == RpcError::Closed || Err == RpcError::Truncated)
        << toString(Err);
  };

  // In-sync failures keep the connection: digest corruption...
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    std::vector<std::uint8_t> Corrupted = StatusFrame;
    Corrupted[persist::kFrameHeaderSize] ^= 0xff; // digest trailer bit
    ASSERT_TRUE(Conn.sendBytes(Corrupted));
    ExpectErrorReply(Conn, RpcError::Corrupt);
    ExpectStatusWorks(Conn); // same socket still serves
  }
  // ...an unknown kind byte...
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    ASSERT_TRUE(Conn.sendBytes(persist::frame(0x7f, {})));
    ExpectErrorReply(Conn, RpcError::BadKind);
    ExpectStatusWorks(Conn);
  }
  // ...and a digest-valid frame whose payload does not decode.
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    ASSERT_TRUE(Conn.sendBytes(persist::frame(
        static_cast<std::uint8_t>(MessageKind::Submit), {0x01, 0x02})));
    ExpectErrorReply(Conn, RpcError::Corrupt);
    ExpectStatusWorks(Conn);
  }

  // Desynchronizing failures answer typed, then close: bad magic...
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    std::vector<std::uint8_t> BadMagic = StatusFrame;
    BadMagic[0] = 'X';
    ASSERT_TRUE(Conn.sendBytes(BadMagic));
    ExpectErrorReply(Conn, RpcError::BadMagic);
    ExpectClosed(Conn);
  }
  // ...a version this build does not speak...
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    std::vector<std::uint8_t> BadVersion = StatusFrame;
    BadVersion[4] = 99;
    ASSERT_TRUE(Conn.sendBytes(BadVersion));
    ExpectErrorReply(Conn, RpcError::BadVersion);
    ExpectClosed(Conn);
  }
  // ...a declared payload over the negotiated bound (rejected before
  // any allocation)...
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    std::vector<std::uint8_t> Oversized = StatusFrame;
    std::uint64_t Declared = std::uint64_t(1) << 30;
    for (int I = 0; I < 8; ++I)
      Oversized[13 + I] = static_cast<std::uint8_t>(Declared >> (8 * I));
    ASSERT_TRUE(Conn.sendBytes(Oversized));
    ExpectErrorReply(Conn, RpcError::Oversized);
    ExpectClosed(Conn);
  }
  // ...and a frame cut off mid-stream.
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    std::vector<std::uint8_t> Partial(StatusFrame.begin(),
                                      StatusFrame.begin() + 25);
    ASSERT_TRUE(Conn.sendBytes(Partial));
    Conn.shutdownWrite();
    ExpectErrorReply(Conn, RpcError::Truncated);
    ExpectClosed(Conn);
  }

  // Through all of it: no crash, no wedge, no partially admitted job.
  EXPECT_TRUE(Server.running());
  EXPECT_GE(Server.stats().MalformedFrames, 7u);
  serve::ServiceStats Stats = Fx.Service.stats();
  EXPECT_EQ(Stats.Accepted, 0u);
  EXPECT_EQ(Stats.Admission.Depth, 0);
  {
    RawConn Conn;
    ASSERT_TRUE(Conn.connectTo(Server.port()));
    ExpectStatusWorks(Conn);
  }
  Server.stop();
}

// --- RepairOptions validation at the trust boundary -------------------------

/// One out-of-range RepairOptions field a client could put on the wire.
struct BadOptionsCase {
  const char *Name;
  std::function<void(RepairOptions &)> Break;
};

const double NaN = std::numeric_limits<double>::quiet_NaN();
const double Inf = std::numeric_limits<double>::infinity();

const BadOptionsCase BadOptionsCases[] = {
    {"CgBatchNegative", [](RepairOptions &O) { O.CgBatch = -1; }},
    {"CgBatchZero", [](RepairOptions &O) { O.CgBatch = 0; }},
    {"MaxCgRoundsNegative", [](RepairOptions &O) { O.MaxCgRounds = -1; }},
    {"MaxIterationsZero", [](RepairOptions &O) { O.Lp.MaxIterations = 0; }},
    {"RefactorIntervalZero",
     [](RepairOptions &O) { O.Lp.RefactorInterval = 0; }},
    {"StallLimitZero", [](RepairOptions &O) { O.Lp.StallLimit = 0; }},
    {"DeltaBoundNaN", [](RepairOptions &O) { O.DeltaBound = NaN; }},
    {"DeltaBoundZero", [](RepairOptions &O) { O.DeltaBound = 0.0; }},
    {"DeltaBoundNegative", [](RepairOptions &O) { O.DeltaBound = -1.0; }},
    {"RowMarginInfinite", [](RepairOptions &O) { O.RowMargin = Inf; }},
    {"RowMarginNaN", [](RepairOptions &O) { O.RowMargin = NaN; }},
    {"FeasTolZero", [](RepairOptions &O) { O.Lp.FeasTol = 0.0; }},
    {"FeasTolInfinite", [](RepairOptions &O) { O.Lp.FeasTol = Inf; }},
    {"OptTolNegative", [](RepairOptions &O) { O.Lp.OptTol = -1e-7; }},
    {"OptTolNaN", [](RepairOptions &O) { O.Lp.OptTol = NaN; }},
    {"PivotTolZero", [](RepairOptions &O) { O.Lp.PivotTol = 0.0; }},
    {"PivotTolInfinite", [](RepairOptions &O) { O.Lp.PivotTol = Inf; }},
};

/// The encoded ServeRequest of a small fixed-layer repair with \p Options.
std::vector<std::uint8_t> encodeRequestWith(const NetworkFingerprint &Fp,
                                            const Network &Net,
                                            const RepairOptions &Options) {
  Rng SpecR(8400);
  serve::ServeRequest Request;
  Request.Model = Fp;
  Request.Spec = makeFlipSpec(Net, SpecR, 6);
  Request.LayerIndex = 4;
  Request.Options = Options;
  ByteWriter W;
  writeServeRequest(W, Request);
  return W.buffer();
}

TEST(RpcWire, DefaultAndBoundaryRepairOptionsDecode) {
  Rng R(8401);
  Network Net = makeClassifier(R);
  RepairOptions Edge;
  Edge.CgBatch = 1;
  Edge.MaxCgRounds = 0;
  Edge.DeltaBound = Inf;
  Edge.RowMargin = 0.0;
  Edge.Lp.MaxIterations = 1;
  Edge.Lp.RefactorInterval = 1;
  Edge.Lp.StallLimit = 1;
  for (const RepairOptions &Options : {RepairOptions(), Edge}) {
    std::vector<std::uint8_t> Bytes =
        encodeRequestWith(fingerprintNetwork(Net), Net, Options);
    ByteReader Reader(Bytes.data(), Bytes.size());
    serve::ServeRequest Back;
    EXPECT_TRUE(readServeRequest(Reader, Back));
    EXPECT_EQ(Reader.error(), CodecError::None);
  }
}

class RpcBadOptionsTest : public ::testing::TestWithParam<BadOptionsCase> {};

TEST_P(RpcBadOptionsTest, FrameFailsToDecodeAndServerRunsNoJob) {
  const BadOptionsCase &Case = GetParam();
  ServiceFixture Fx(std::string("rpc-badopts-") + Case.Name);
  RepairOptions Options;
  Case.Break(Options);
  std::vector<std::uint8_t> Bytes =
      encodeRequestWith(Fx.Fp, Fx.Classifier, Options);

  // The payload is well-formed bytes; the values fail validation.
  ByteReader Reader(Bytes.data(), Bytes.size());
  serve::ServeRequest Back;
  EXPECT_FALSE(readServeRequest(Reader, Back));
  EXPECT_EQ(Reader.error(), CodecError::Corrupt);

  // Over the wire: a typed error, and the service never admitted a job.
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RawConn Conn;
  ASSERT_TRUE(Conn.connectTo(Server.port()));
  ASSERT_TRUE(Conn.sendBytes(persist::frame(
      static_cast<std::uint8_t>(MessageKind::Submit), Bytes)));
  std::uint8_t Kind = 0;
  std::vector<std::uint8_t> Payload;
  ASSERT_EQ(Conn.recvReply(Kind, Payload), RpcError::None);
  ASSERT_EQ(static_cast<MessageKind>(Kind), MessageKind::ErrorReply);
  EXPECT_EQ(decodeErrorReply(Payload), RpcError::Corrupt);
  Conn.close();
  Server.stop();
  EXPECT_EQ(Server.stats().MalformedFrames, 1u);
  serve::ServiceStats Stats = Fx.Service.stats();
  EXPECT_EQ(Stats.Accepted, 0u);
  EXPECT_EQ(Stats.Admission.Depth, 0);
}

INSTANTIATE_TEST_SUITE_P(
    EveryRejectedField, RpcBadOptionsTest,
    ::testing::ValuesIn(BadOptionsCases),
    [](const ::testing::TestParamInfo<BadOptionsCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(RpcEndToEnd, RequestThatDoesNotFitTheModelFailsAndServerServesOn) {
  // Layer 99 does not exist in the served model. The request decodes
  // (the wire cannot know the model) and the engine fails it as
  // SolverFailure before any phase; the same server then serves a
  // valid request.
  ServiceFixture Fx("rpc-misfit");
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);

  Rng SpecR(9950);
  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = makeFlipSpec(Fx.Classifier, SpecR, 6);
  Request.LayerIndex = 99;
  RepairReport Report;
  serve::ServeReject Reject = serve::ServeReject::Saturated;
  ASSERT_EQ(Client.repair(Request, Report, Reject), RpcError::None);
  ASSERT_EQ(Reject, serve::ServeReject::None);
  EXPECT_EQ(Report.Status, RepairStatus::SolverFailure);
  EXPECT_TRUE(Report.Sweep.empty());
  EXPECT_EQ(Report.Result.Stats.LpIterations, 0);

  Request.LayerIndex = 4;
  ASSERT_EQ(Client.repair(Request, Report, Reject), RpcError::None);
  ASSERT_EQ(Reject, serve::ServeReject::None);
  EXPECT_EQ(Report.Status, RepairStatus::Success);
  Client.close();
  Server.stop();
}

TEST(RpcEndToEnd, CollinearPlaneFailsAndServerServesOn) {
  // A plane whose vertices lie on one line has no plane frame; it used
  // to crash the server's transform. The engine fails it as
  // SolverFailure before any phase, and the same server then serves a
  // valid request.
  ServiceFixture Fx("rpc-collinear");
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);

  Rng SpecR(9951);
  Vector P0 = randomVector(SpecR, 6), Step = randomVector(SpecR, 6);
  PolytopeSpec Collinear;
  Collinear.push_back(SpecPolytope{
      PlanePolytope{{P0, P0 + Step, P0 + Step * 2.0}},
      classificationConstraint(4, 0)});
  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = Collinear;
  Request.LayerIndex = 4;
  RepairReport Report;
  serve::ServeReject Reject = serve::ServeReject::Saturated;
  ASSERT_EQ(Client.repair(Request, Report, Reject), RpcError::None);
  ASSERT_EQ(Reject, serve::ServeReject::None);
  EXPECT_EQ(Report.Status, RepairStatus::SolverFailure);
  EXPECT_TRUE(Report.Sweep.empty());
  EXPECT_EQ(Report.Result.Stats.LpIterations, 0);

  Request.Spec = makeFlipSpec(Fx.Classifier, SpecR, 6);
  ASSERT_EQ(Client.repair(Request, Report, Reject), RpcError::None);
  ASSERT_EQ(Reject, serve::ServeReject::None);
  EXPECT_EQ(Report.Status, RepairStatus::Success);
  Client.close();
  Server.stop();
}

TEST(RpcEndToEnd, ClientKilledMidRequestLeaksNoTicketAndServerSurvives) {
  ServiceFixture Fx("rpc-kill", /*Workers=*/1);
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());

  auto Net = std::make_shared<Network>([&] {
    Rng R(8303);
    return makeClassifier(R);
  }());
  Rng SpecR(9900);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  // Park the worker so the wire job is still unresolved when the
  // client dies.
  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Fx.Service.engine().submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  {
    RpcClientOptions ClientOptions;
    ClientOptions.Port = Server.port();
    RpcClient Doomed(ClientOptions);
    ASSERT_EQ(Doomed.connect(), RpcError::None);
    serve::ServeRequest Request;
    Request.Model = Fx.Fp;
    Request.Spec = Spec;
    Request.LayerIndex = 0;
    SubmitReply Submitted;
    ASSERT_EQ(Doomed.submit(Request, Submitted), RpcError::None);
    ASSERT_TRUE(Submitted.accepted());
    EXPECT_EQ(Fx.Service.queueStats().Admission.Depth, 1);
  } // ~RpcClient: the socket dies with the job in flight

  // The server orphans the connection's job (raising its cancel flag);
  // once the worker frees up it resolves as Cancelled, the completion
  // hook releases the ticket, and nothing is leaked.
  Release.set_value();
  ASSERT_EQ(Blocker.report().Status, RepairStatus::Success);
  bool Drained = false;
  for (int Try = 0; Try < 500 && !Drained; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Drained = Fx.Service.queueStats().Admission.Depth == 0;
  }
  EXPECT_TRUE(Drained) << "orphaned job leaked its admission ticket";
  EXPECT_GE(Server.stats().OrphanedJobs, 1u);
  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Fresh(ClientOptions);
  ASSERT_EQ(Fresh.connect(), RpcError::None);
  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = std::move(Spec);
  Request.LayerIndex = 0;
  RepairReport Report;
  serve::ServeReject Reject = serve::ServeReject::Saturated;
  ASSERT_EQ(Fresh.repair(Request, Report, Reject), RpcError::None);
  EXPECT_EQ(Reject, serve::ServeReject::None);
  EXPECT_EQ(Report.Status, RepairStatus::Success);
  Server.stop();
}

TEST(RpcEndToEnd, StopDrainsInFlightJobsLikeEngineTeardown) {
  ServiceFixture Fx("rpc-stop", /*Workers=*/1);
  RpcServer Server(Fx.Service, RpcServerOptions{});
  ASSERT_TRUE(Server.start());

  auto Net = std::make_shared<Network>([&] {
    Rng R(8304);
    return makeClassifier(R);
  }());
  Rng SpecR(9950);
  PointSpec Spec = makeFlipSpec(*Net, SpecR, 8);

  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Fx.Service.engine().submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  RpcClientOptions ClientOptions;
  ClientOptions.Port = Server.port();
  RpcClient Client(ClientOptions);
  ASSERT_EQ(Client.connect(), RpcError::None);
  serve::ServeRequest Request;
  Request.Model = Fx.Fp;
  Request.Spec = std::move(Spec);
  Request.LayerIndex = 0;
  SubmitReply Submitted;
  ASSERT_EQ(Client.submit(Request, Submitted), RpcError::None);
  ASSERT_TRUE(Submitted.accepted());

  // Graceful shutdown with a job queued and a client connected: stop()
  // must resolve the job and release its ticket before returning.
  Release.set_value();
  Server.stop();
  EXPECT_FALSE(Server.running());
  EXPECT_EQ(Fx.Service.queueStats().Admission.Depth, 0);
  (void)Blocker.report();
}

} // namespace
