//===- tests/persist_test.cpp - persistent artifact store tests --------------===//
//
// Covers the persist/ subsystem end to end: codec round-trips for every
// artifact kind and every layer type (bit-exact doubles, NaN payloads
// and -0.0 included); typed rejection of truncated / corrupt /
// version-mismatched frames; the network decoder's rejection of every
// malformed dimension, geometry and layer chain; atomic store
// publication under concurrent writers; LRU-by-mtime GC at the byte
// budget; and the L2 determinism contract - cold,
// L1-warm, L2-warm-after-an-engine-restart, and store-off runs are
// bit-for-bit identical at 1/4/8 threads, with a corrupted store entry
// degrading to a recompute. Runs under the CI ThreadSanitizer job next
// to parallel_test, engine_test, and cache_test.
//
//===----------------------------------------------------------------------===//

#include "persist/ArtifactStore.h"
#include "persist/Codec.h"
#include "persist/Serialize.h"

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "core/PolytopeRepair.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace fs = std::filesystem;

namespace {

using namespace prdnn;
using persist::ArtifactStore;
using persist::ByteReader;
using persist::ByteWriter;
using persist::CodecError;
using persist::FrameView;
using persist::StoreOptions;
using persist::StoreStats;

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

Network makeFigure3Network() {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0}, {1.0}, {1.0}}), Vector{0.0, 0.0, -1.0}));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0, -1.0, 1.0}}), Vector{0.0}));
  return Net;
}

void expectBitIdentical(const RepairResult &A, const RepairResult &B) {
  ASSERT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.Delta.size(), B.Delta.size());
  for (size_t I = 0; I < A.Delta.size(); ++I)
    EXPECT_EQ(A.Delta[I], B.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.DeltaL1, B.DeltaL1);
  EXPECT_EQ(A.DeltaLInf, B.DeltaLInf);
  EXPECT_EQ(A.Stats.SpecRows, B.Stats.SpecRows);
  EXPECT_EQ(A.Stats.LpRowsUsed, B.Stats.LpRowsUsed);
}

CacheKey keyOf(std::uint64_t Tag, ArtifactKind Kind =
                                      ArtifactKind::PatternBatch) {
  Hasher H;
  H.u64(Tag);
  return CacheKey{Kind, H.digest()};
}

/// A pattern batch of \p Points one-layer patterns of \p Units entries
/// each, filled from \p Seed: a store payload of a chosen size.
std::shared_ptr<PatternBatchArtifact> makePatternArtifact(int Points,
                                                          int Units,
                                                          int Seed) {
  auto A = std::make_shared<PatternBatchArtifact>();
  A->Patterns.resize(static_cast<size_t>(Points));
  int V = Seed;
  for (NetworkPattern &P : A->Patterns) {
    P.Patterns.assign(1, std::vector<int>(static_cast<size_t>(Units)));
    for (int &Unit : P.Patterns[0]) {
      Unit = V;
      V = (V * 7 + 3) % 1009;
    }
  }
  return A;
}

// --- Codec ------------------------------------------------------------------

TEST(Codec, PrimitiveRoundTrip) {
  ByteWriter W;
  W.u8(0xab);
  W.u32(0xdeadbeefu);
  W.u64(0x0123456789abcdefull);
  W.i32(-7);
  W.i64(-1234567890123ll);
  W.f64(-0.0);
  W.f64(std::numeric_limits<double>::quiet_NaN());
  W.str("prdnn");
  const double Doubles[3] = {1.5, -2.25, 1e-300};
  W.doubles(Doubles, 3);

  ByteReader R(W.buffer().data(), W.buffer().size());
  std::uint8_t U8;
  std::uint32_t U32;
  std::uint64_t U64;
  int I32;
  std::int64_t I64;
  double NegZero, Nan;
  std::string S;
  double Out[3];
  EXPECT_TRUE(R.u8(U8));
  EXPECT_TRUE(R.u32(U32));
  EXPECT_TRUE(R.u64(U64));
  EXPECT_TRUE(R.i32(I32));
  EXPECT_TRUE(R.i64(I64));
  EXPECT_TRUE(R.f64(NegZero));
  EXPECT_TRUE(R.f64(Nan));
  EXPECT_TRUE(R.str(S));
  EXPECT_TRUE(R.doubles(Out, 3));
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_TRUE(R.ok());

  EXPECT_EQ(U8, 0xab);
  EXPECT_EQ(U32, 0xdeadbeefu);
  EXPECT_EQ(U64, 0x0123456789abcdefull);
  EXPECT_EQ(I32, -7);
  EXPECT_EQ(I64, -1234567890123ll);
  EXPECT_TRUE(std::signbit(NegZero) && NegZero == 0.0);
  EXPECT_TRUE(std::isnan(Nan));
  EXPECT_EQ(S, "prdnn");
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Out[I], Doubles[I]);

  // Over-reading fails sticky with Truncated.
  EXPECT_FALSE(R.u8(U8));
  EXPECT_EQ(R.error(), CodecError::Truncated);
  EXPECT_FALSE(R.u64(U64));
}

TEST(Codec, FrameRoundTripAndTypedRejection) {
  ByteWriter W;
  W.str("payload bytes of some artifact");
  W.f64(-0.0);
  std::vector<std::uint8_t> Blob = persist::frame(7, W.buffer());

  FrameView View;
  ASSERT_EQ(persist::unframe(Blob.data(), Blob.size(), View),
            CodecError::None);
  EXPECT_EQ(View.BlobKind, 7);
  EXPECT_EQ(View.PayloadSize, W.buffer().size());
  EXPECT_EQ(std::memcmp(View.Payload, W.buffer().data(), View.PayloadSize),
            0);

  // Truncation anywhere - header, payload, trailer - is typed.
  for (std::size_t Cut : {std::size_t(0), std::size_t(3), std::size_t(12),
                          Blob.size() - 17, Blob.size() - 1})
    EXPECT_EQ(persist::unframe(Blob.data(), Cut, View),
              CodecError::Truncated)
        << "cut at " << Cut;

  // Foreign magic.
  std::vector<std::uint8_t> Foreign = Blob;
  Foreign[0] = 'X';
  EXPECT_EQ(persist::unframe(Foreign.data(), Foreign.size(), View),
            CodecError::BadMagic);

  // Future format version.
  std::vector<std::uint8_t> Versioned = Blob;
  Versioned[4] = static_cast<std::uint8_t>(persist::kFormatVersion + 1);
  EXPECT_EQ(persist::unframe(Versioned.data(), Versioned.size(), View),
            CodecError::BadVersion);

  // Byte-swapped endian tag reads as a foreign-endian producer.
  std::vector<std::uint8_t> Swapped = Blob;
  std::swap(Swapped[8], Swapped[11]);
  std::swap(Swapped[9], Swapped[10]);
  EXPECT_EQ(persist::unframe(Swapped.data(), Swapped.size(), View),
            CodecError::ForeignEndian);

  // A flipped payload bit fails the digest trailer.
  std::vector<std::uint8_t> Flipped = Blob;
  Flipped[21] ^= 0x40;
  EXPECT_EQ(persist::unframe(Flipped.data(), Flipped.size(), View),
            CodecError::Corrupt);

  // Trailing garbage after the trailer is rejected, not ignored.
  std::vector<std::uint8_t> Padded = Blob;
  Padded.push_back(0);
  EXPECT_EQ(persist::unframe(Padded.data(), Padded.size(), View),
            CodecError::Corrupt);
}

// --- Artifact serializers ---------------------------------------------------

TEST(Serialize, SyrennTransformRoundTrip) {
  auto A = std::make_shared<SyrennTransformArtifact>();
  LinePartition Line;
  Line.A = Vector{0.25, -1.5};
  Line.B = Vector{2.0, 3.5};
  Line.Ts = {0.0, 0.125, 0.875, 1.0};
  A->Partitions.push_back(Line);
  PlaneRegion Region;
  Region.InputVertices = {Vector{0.0, 0.0, 1.0}, Vector{1.0, 0.0, -0.0},
                          Vector{0.0, 1.0, 2.5}};
  Region.PlaneVertices = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  A->Partitions.push_back(std::vector<PlaneRegion>{Region});

  ByteWriter W;
  persist::serializeArtifact(*A, ArtifactKind::SyrennTransform, W);
  ByteReader R(W.buffer().data(), W.buffer().size());
  auto Back = std::static_pointer_cast<const SyrennTransformArtifact>(
      persist::deserializeArtifact(ArtifactKind::SyrennTransform, R));
  ASSERT_NE(Back, nullptr);
  ASSERT_EQ(Back->Partitions.size(), 2u);

  const auto &BackLine = std::get<LinePartition>(Back->Partitions[0]);
  EXPECT_EQ(BackLine.Ts, Line.Ts);
  for (int I = 0; I < Line.A.size(); ++I) {
    EXPECT_EQ(BackLine.A[I], Line.A[I]);
    EXPECT_EQ(BackLine.B[I], Line.B[I]);
  }
  const auto &BackRegions =
      std::get<std::vector<PlaneRegion>>(Back->Partitions[1]);
  ASSERT_EQ(BackRegions.size(), 1u);
  ASSERT_EQ(BackRegions[0].InputVertices.size(), 3u);
  for (size_t V = 0; V < 3; ++V) {
    for (int I = 0; I < 3; ++I)
      EXPECT_EQ(BackRegions[0].InputVertices[V][I],
                Region.InputVertices[V][I]);
    EXPECT_EQ(BackRegions[0].PlaneVertices[V], Region.PlaneVertices[V]);
  }

  // An unknown partition tag is Corrupt, not UB.
  std::vector<std::uint8_t> Bad(W.buffer());
  Bad[8] = 9; // the first partition's tag byte (after the u64 count)
  ByteReader BadR(Bad.data(), Bad.size());
  EXPECT_EQ(persist::deserializeArtifact(ArtifactKind::SyrennTransform, BadR),
            nullptr);
}

TEST(Serialize, PatternBatchRoundTrip) {
  auto A = std::make_shared<PatternBatchArtifact>();
  NetworkPattern P1;
  P1.Patterns = {{}, {1, 0, 1}, {}, {-1, 0, 1, 2}};
  NetworkPattern P2;
  P2.Patterns = {{0}, {}};
  A->Patterns = {P1, P2};

  ByteWriter W;
  persist::serializeArtifact(*A, ArtifactKind::PatternBatch, W);
  ByteReader R(W.buffer().data(), W.buffer().size());
  auto Back = std::static_pointer_cast<const PatternBatchArtifact>(
      persist::deserializeArtifact(ArtifactKind::PatternBatch, R));
  ASSERT_NE(Back, nullptr);
  ASSERT_EQ(Back->Patterns.size(), 2u);
  EXPECT_TRUE(Back->Patterns[0] == P1);
  EXPECT_TRUE(Back->Patterns[1] == P2);

  // Truncated payload: typed failure, no partial artifact. (The exact
  // code depends on where the cut lands - a count whose data is gone
  // reads as Corrupt via the plausibility guard, a cut mid-field as
  // Truncated - but it is never None.)
  ByteReader Short(W.buffer().data(), W.buffer().size() - 3);
  EXPECT_EQ(persist::deserializeArtifact(ArtifactKind::PatternBatch, Short),
            nullptr);
  EXPECT_NE(Short.error(), CodecError::None);
}

TEST(Serialize, LpSolutionRoundTripAndCorruptRejection) {
  auto A = std::make_shared<LpSolutionArtifact>();
  A->Delta = {0.25, -1.0 / 3.0, 0.0, -0.0, 1e-300};
  A->LpRowsUsed = 217;
  A->CgRounds = 3;

  ByteWriter W;
  persist::serializeArtifact(*A, ArtifactKind::LpSolution, W);
  ByteReader R(W.buffer().data(), W.buffer().size());
  auto Back = std::static_pointer_cast<const LpSolutionArtifact>(
      persist::deserializeArtifact(ArtifactKind::LpSolution, R));
  ASSERT_NE(Back, nullptr);
  ASSERT_EQ(Back->Delta.size(), A->Delta.size());
  EXPECT_EQ(std::memcmp(Back->Delta.data(), A->Delta.data(),
                        A->Delta.size() * sizeof(double)),
            0);
  EXPECT_EQ(Back->LpRowsUsed, A->LpRowsUsed);
  EXPECT_EQ(Back->CgRounds, A->CgRounds);

  // The Delta count sits after the two i32 counts. A count past the
  // doubles that follow - bumped, cut short, or near 2^62 - is Corrupt
  // before any allocation; so are counts no solve produces: an empty
  // Delta, or a negative row count.
  std::vector<std::vector<std::uint8_t>> Bad(3, W.buffer());
  Bad[0][8] += 1;
  Bad[1].resize(Bad[1].size() - 4);
  Bad[2][15] = 0x40;
  for (int Case = 0; Case < 2; ++Case) {
    LpSolutionArtifact Odd = *A;
    if (Case == 0)
      Odd.Delta.clear();
    else
      Odd.LpRowsUsed = -1;
    ByteWriter BW;
    persist::serializeArtifact(Odd, ArtifactKind::LpSolution, BW);
    Bad.push_back(BW.buffer());
  }
  for (size_t I = 0; I < Bad.size(); ++I) {
    ByteReader BR(Bad[I].data(), Bad[I].size());
    EXPECT_EQ(persist::deserializeArtifact(ArtifactKind::LpSolution, BR),
              nullptr)
        << I;
    EXPECT_EQ(BR.error(), CodecError::Corrupt) << I;
  }
}

// --- Network serialization --------------------------------------------------

/// A network exercising every PWL layer kind the library has.
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

TEST(Serialize, NetworkRoundTripEveryLayerKind) {
  Rng R(5501);
  Network Net = makeEveryPwlLayerNetwork(R);

  ByteWriter W;
  persist::serializeNetwork(Net, W);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  std::optional<Network> Back = persist::deserializeNetwork(Reader);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Reader.remaining(), 0u);
  // The fingerprint hashes topology, geometry, and every parameter's
  // bit pattern: equality is bit-exactness of the whole network.
  EXPECT_EQ(fingerprintNetwork(*Back), fingerprintNetwork(Net));
  Vector X = randomVector(R, Net.inputSize());
  Vector Want = Net.evaluate(X);
  Vector Got = Back->evaluate(X);
  for (int I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]);

  // Smooth activations round-trip too.
  Network Smooth;
  Smooth.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 2, 0.9), randomVector(R, 3, 0.1)));
  Smooth.addLayer(std::make_unique<TanhLayer>(3));
  Smooth.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 2, 3, 0.9), randomVector(R, 2, 0.1)));
  Smooth.addLayer(std::make_unique<SigmoidLayer>(2));
  ByteWriter W2;
  persist::serializeNetwork(Smooth, W2);
  ByteReader Reader2(W2.buffer().data(), W2.buffer().size());
  std::optional<Network> Back2 = persist::deserializeNetwork(Reader2);
  ASSERT_TRUE(Back2.has_value());
  EXPECT_EQ(fingerprintNetwork(*Back2), fingerprintNetwork(Smooth));
}

TEST(Serialize, NetworkBinaryFileRoundTripAndTypedErrors) {
  TempDir Dir("netbin");
  Rng R(5502);
  Network Net = makeEveryPwlLayerNetwork(R);
  const std::string Path = (Dir.Path / "net.bin").string();
  ASSERT_TRUE(persist::saveNetworkBinary(Net, Path));

  CodecError Error = CodecError::Corrupt;
  std::optional<Network> Back = persist::loadNetworkBinary(Path, &Error);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Error, CodecError::None);
  EXPECT_EQ(fingerprintNetwork(*Back), fingerprintNetwork(Net));

  // Truncated file: typed error, no partial network.
  std::vector<char> Bytes;
  {
    std::ifstream Is(Path, std::ios::binary);
    Bytes.assign((std::istreambuf_iterator<char>(Is)),
                 std::istreambuf_iterator<char>());
  }
  const std::string Cut = (Dir.Path / "cut.bin").string();
  {
    std::ofstream Os(Cut, std::ios::binary);
    Os.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
  }
  EXPECT_FALSE(persist::loadNetworkBinary(Cut, &Error).has_value());
  EXPECT_EQ(Error, CodecError::Truncated);

  // A flipped parameter byte fails the digest: Corrupt.
  const std::string Rot = (Dir.Path / "rot.bin").string();
  {
    std::vector<char> Bad = Bytes;
    Bad[Bad.size() / 2] ^= 0x10;
    std::ofstream Os(Rot, std::ios::binary);
    Os.write(Bad.data(), static_cast<std::streamsize>(Bad.size()));
  }
  EXPECT_FALSE(persist::loadNetworkBinary(Rot, &Error).has_value());
  EXPECT_EQ(Error, CodecError::Corrupt);

  // Not a frame at all.
  const std::string Text = (Dir.Path / "text.bin").string();
  {
    std::ofstream Os(Text);
    Os << "not a network frame\n";
  }
  EXPECT_FALSE(persist::loadNetworkBinary(Text, &Error).has_value());
  EXPECT_EQ(Error, CodecError::BadMagic);
}

/// Decodes \p Bytes as one network: the typed error, or None when a
/// network came back.
CodecError decodeNetworkError(const std::vector<std::uint8_t> &Bytes) {
  ByteReader R(Bytes.data(), Bytes.size());
  if (persist::deserializeNetwork(R))
    return CodecError::None;
  EXPECT_NE(R.error(), CodecError::None) << "untyped decode failure";
  return R.error();
}

/// The encoding of \p Net with the i32 fields after the first layer's
/// tag (sizes, then geometry) overwritten by \p Fields.
std::vector<std::uint8_t> patchedEncoding(const Network &Net,
                                          std::vector<int> Fields) {
  ByteWriter W;
  persist::serializeNetwork(Net, W);
  std::vector<std::uint8_t> Bytes = W.buffer();
  // u32 layer count + u8 tag precede the first layer's fields.
  std::size_t Offset = 5;
  for (int Field : Fields) {
    const auto U = static_cast<std::uint32_t>(Field);
    for (int B = 0; B < 4; ++B)
      Bytes[Offset++] = static_cast<std::uint8_t>(U >> (8 * B));
  }
  return Bytes;
}

Network oneLayer(std::unique_ptr<Layer> L) {
  Network Net;
  Net.addLayer(std::move(L));
  return Net;
}

TEST(Serialize, NetworkDecoderRejectsMalformedInput) {
  Rng R(5503);
  const Network Fc = oneLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 2, 3), randomVector(R, 2)));
  const Network Relu = oneLayer(std::make_unique<ReLULayer>(4));
  const Network Flatten = oneLayer(std::make_unique<FlattenLayer>(4));
  const Network Leaky = oneLayer(std::make_unique<LeakyReLULayer>(4, 0.1));
  // 38 parameters: enough bytes that a patched layer with fewer is
  // decoded in full, so only the checks under test can reject it.
  const Network Conv = oneLayer(std::make_unique<Conv2DLayer>(
      2, 4, 4, 2, 3, 3, 1, 1, std::vector<double>(36, 0.5),
      std::vector<double>{0.1, -0.1}));
  const Network MaxPool =
      oneLayer(std::make_unique<MaxPool2DLayer>(1, 4, 4, 2, 2, 2));
  const Network AvgPool =
      oneLayer(std::make_unique<AvgPool2DLayer>(1, 4, 4, 2, 2, 2));

  // Each patched encoding must fail typed: Corrupt when a check rejects
  // the fields, Truncated when the declared sizes outrun the bytes.
  // Fields: fc Out In | conv InC InH InW OutC KH KW Stride Pad |
  // pool C H W WindowH WindowW Stride | activation N.
  struct Case {
    const char *What;
    const Network &Net;
    std::vector<int> Fields;
  };
  const Case Cases[] = {
      // Zero and negative dimensions.
      {"fc out -2", Fc, {-2, 3}},
      {"fc out 0", Fc, {0, 3}},
      {"fc in 0", Fc, {2, 0}},
      {"relu 0", Relu, {0}},
      {"flatten -5", Flatten, {-5}},
      {"leakyrelu 0", Leaky, {0}},
      {"conv channels 0", Conv, {0, 4, 4, 1, 2, 2, 1, 0}},
      {"conv rows 0", Conv, {1, 0, 4, 1, 2, 2, 1, 1}},
      {"conv cols 0", Conv, {1, 4, 0, 1, 2, 2, 1, 1}},
      {"conv out channels 0", Conv, {1, 4, 4, 0, 2, 2, 1, 0}},
      {"conv kernel rows 0", Conv, {1, 4, 4, 1, 0, 2, 1, 0}},
      {"conv kernel cols 0", Conv, {1, 4, 4, 1, 2, 0, 1, 0}},
      {"conv pad -1", Conv, {1, 4, 4, 1, 2, 2, 1, -1}},
      {"maxpool channels -1", MaxPool, {-1, 4, 4, 2, 2, 2}},
      {"maxpool rows 0", MaxPool, {1, 0, 4, 2, 2, 2}},
      {"avgpool window rows 0", AvgPool, {1, 4, 4, 0, 2, 2}},
      {"avgpool window cols 0", AvgPool, {1, 4, 4, 2, 0, 2}},
      // Absurd dimensions must fail validation, not allocate.
      {"fc 2e9 x 2e9", Fc, {2000000000, 2000000000}},
      {"fc params over bound", Fc, {1 << 14, 1 << 14}},
      {"conv pad over bound", Conv, {1, 4, 4, 1, 2, 2, 1 << 24, (1 << 22) + 1}},
      {"conv pad 2^30 (2 * pad overflows int)", Conv,
       {1, 4, 4, 1, 2, 2, 1, 1 << 30}},
      // Dimensions that each pass the per-axis bound but whose product
      // would overflow 64 bits (65536^4 = 2^64) or explode the
      // activation size.
      {"conv 65536^4", Conv, {65536, 65536, 65536, 65536, 65536, 65536, 1, 0}},
      {"conv input over bound", Conv, {1, 4096, 4096, 1, 1, 1, 4096, 0}},
      {"conv output over bound", Conv, {1, 1, 1, 1, 1, 1, 1, 2048}},
      {"conv kernels over bound", Conv, {64, 64, 1, 1 << 16, 64, 1, 64, 0}},
      {"avgpool 4194304^3", AvgPool,
       {4194304, 4194304, 4194304, 4194304, 4194304, 1}},
      // Conv geometry: kernel larger than the padded input; stride.
      {"conv kernel taller than input", Conv, {1, 2, 2, 1, 5, 1, 1, 0}},
      {"conv kernel wider than input", Conv, {1, 2, 2, 1, 1, 5, 1, 0}},
      {"conv stride -1", Conv, {1, 4, 4, 1, 2, 2, -1, 0}},
      {"conv stride 0", Conv, {1, 4, 4, 1, 2, 2, 0, 0}},
      // Pool windows must fit and tile the input exactly (the
      // constructors only assert this).
      {"maxpool rows untiled", MaxPool, {1, 5, 4, 2, 2, 2}},
      {"maxpool cols untiled", MaxPool, {1, 4, 5, 2, 2, 2}},
      {"avgpool window taller than input", AvgPool, {1, 4, 4, 8, 2, 2}},
      {"avgpool window wider than input", AvgPool, {1, 4, 4, 2, 8, 2}},
      {"maxpool stride 0", MaxPool, {1, 4, 4, 2, 2, 0}},
      {"avgpool stride -1", AvgPool, {1, 4, 4, 2, 2, -1}},
  };
  for (const Case &C : Cases) {
    CodecError Error = decodeNetworkError(patchedEncoding(C.Net, C.Fields));
    EXPECT_TRUE(Error == CodecError::Corrupt || Error == CodecError::Truncated)
        << C.What << ": " << toString(Error);
  }

  // Adjacent layer sizes must chain: relu 4 then relu 5.
  Network Chain;
  Chain.addLayer(std::make_unique<ReLULayer>(4));
  Chain.addLayer(std::make_unique<ReLULayer>(4));
  ByteWriter ChainW;
  persist::serializeNetwork(Chain, ChainW);
  std::vector<std::uint8_t> Broken = ChainW.buffer();
  Broken[5 + 4 + 1] = 5; // the second layer's size, after its tag
  EXPECT_EQ(decodeNetworkError(Broken), CodecError::Corrupt);

  // Unknown layer tags.
  ByteWriter FcW;
  persist::serializeNetwork(Fc, FcW);
  for (std::uint8_t Tag : {std::uint8_t(10), std::uint8_t(0xee)}) {
    std::vector<std::uint8_t> Bad = FcW.buffer();
    Bad[4] = Tag;
    EXPECT_EQ(decodeNetworkError(Bad), CodecError::Corrupt) << int(Tag);
  }

  // A parameter list cut short, and every other strict prefix: a count
  // the remaining bytes cannot hold is Corrupt, a cut field Truncated.
  const std::vector<std::uint8_t> &Good = FcW.buffer();
  for (std::size_t Cut = 0; Cut < Good.size(); ++Cut) {
    CodecError Error = decodeNetworkError(std::vector<std::uint8_t>(
        Good.begin(), Good.begin() + static_cast<long>(Cut)));
    EXPECT_TRUE(Error == CodecError::Corrupt || Error == CodecError::Truncated)
        << "prefix " << Cut << ": " << toString(Error);
  }
  // The unpatched encodings decode, every byte consumed.
  for (const Network *Net : std::vector<const Network *>{
           &Fc, &Relu, &Flatten, &Leaky, &Conv, &MaxPool, &AvgPool, &Chain}) {
    ByteWriter W;
    persist::serializeNetwork(*Net, W);
    ByteReader Reader(W.buffer().data(), W.buffer().size());
    EXPECT_TRUE(persist::deserializeNetwork(Reader).has_value());
    EXPECT_EQ(Reader.remaining(), 0u);
  }
}

TEST(Serialize, EmptyAndNonFiniteNetworksRoundTrip) {
  // Zero layers.
  ByteWriter W;
  persist::serializeNetwork(Network(), W);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  std::optional<Network> Empty = persist::deserializeNetwork(Reader);
  ASSERT_TRUE(Empty.has_value());
  EXPECT_EQ(Empty->numLayers(), 0);
  EXPECT_EQ(Reader.remaining(), 0u);

  // inf and NaN parameters keep their bit patterns.
  Matrix Weights(1, 2);
  Weights(0, 0) = std::numeric_limits<double>::infinity();
  Weights(0, 1) = std::numeric_limits<double>::quiet_NaN();
  Vector Bias(1);
  Bias[0] = -std::numeric_limits<double>::infinity();
  Network Net = oneLayer(
      std::make_unique<FullyConnectedLayer>(std::move(Weights), Bias));
  ByteWriter NW;
  persist::serializeNetwork(Net, NW);
  ByteReader NReader(NW.buffer().data(), NW.buffer().size());
  std::optional<Network> Back = persist::deserializeNetwork(NReader);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(fingerprintNetwork(*Back), fingerprintNetwork(Net));
}

// --- ArtifactStore ----------------------------------------------------------

TEST(ArtifactStore, StoreLoadRoundTripAndMiss) {
  TempDir Dir("store");
  StoreOptions Options;
  Options.Directory = Dir.str();
  ArtifactStore Store(Options);

  auto A = makePatternArtifact(4, 6, 15);
  Store.storeSync(keyOf(1), *A);
  EXPECT_EQ(Store.stats().Writes, 1u);
  EXPECT_EQ(Store.stats().Entries, 1u);
  EXPECT_GT(Store.stats().BytesHeld, 0u);

  auto Loaded = std::static_pointer_cast<const PatternBatchArtifact>(
      Store.load(keyOf(1)));
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->Patterns, A->Patterns);
  EXPECT_EQ(Store.stats().Hits, 1u);

  EXPECT_EQ(Store.load(keyOf(2)), nullptr);
  EXPECT_EQ(Store.stats().Misses, 1u);

  // Re-storing an existing key is a dedupe skip, not a second write.
  Store.storeSync(keyOf(1), *A);
  EXPECT_EQ(Store.stats().Writes, 1u);
  EXPECT_EQ(Store.stats().WriteSkips, 1u);

  // A second store on the same directory sees the entry (restart /
  // cross-process sharing).
  ArtifactStore Second(Options);
  EXPECT_EQ(Second.stats().Entries, 1u);
  EXPECT_NE(Second.load(keyOf(1)), nullptr);
}

TEST(ArtifactStore, WriteBehindFlushAndKindMismatch) {
  TempDir Dir("async");
  StoreOptions Options;
  Options.Directory = Dir.str();
  ArtifactStore Store(Options);

  auto A = makePatternArtifact(3, 3, -2);
  Store.storeAsync(keyOf(7), A);
  Store.flush();
  EXPECT_EQ(Store.stats().Writes, 1u);
  EXPECT_EQ(Store.stats().PendingWrites, 0u);
  EXPECT_NE(Store.load(keyOf(7)), nullptr);

  // The same digest under a different kind is a different entry.
  EXPECT_EQ(Store.load(keyOf(7, ArtifactKind::SyrennTransform)), nullptr);
}

TEST(ArtifactStore, CorruptEntryIsSkippedAndDeleted) {
  TempDir Dir("corrupt");
  StoreOptions Options;
  Options.Directory = Dir.str();
  ArtifactStore Store(Options);

  auto A = makePatternArtifact(4, 4, 3);
  Store.storeSync(keyOf(3), *A);
  const std::string Path = Store.entryPath(keyOf(3));
  ASSERT_TRUE(fs::exists(Path));

  // Flip one payload byte: the digest trailer must catch it.
  {
    std::fstream F(Path,
                   std::ios::binary | std::ios::in | std::ios::out);
    F.seekp(30);
    char C;
    F.seekg(30);
    F.get(C);
    F.seekp(30);
    F.put(static_cast<char>(C ^ 0x20));
  }
  EXPECT_EQ(Store.load(keyOf(3)), nullptr);
  EXPECT_EQ(Store.stats().CorruptSkips, 1u);
  EXPECT_FALSE(fs::exists(Path)) << "corrupt entry not deleted";

  // Truncated entry likewise.
  Store.storeSync(keyOf(4), *A);
  const std::string Path4 = Store.entryPath(keyOf(4));
  fs::resize_file(Path4, fs::file_size(Path4) / 2);
  EXPECT_EQ(Store.load(keyOf(4)), nullptr);
  EXPECT_EQ(Store.stats().CorruptSkips, 2u);
}

TEST(ArtifactStore, GcEvictsOldestAtBudget) {
  TempDir Dir("gc");
  auto A = makePatternArtifact(8, 64, 1); // ~2.2 KiB serialized
  std::uint64_t EntryBytes;
  {
    StoreOptions Options;
    Options.Directory = Dir.str();
    ArtifactStore Store(Options);
    for (std::uint64_t K = 0; K < 5; ++K)
      Store.storeSync(keyOf(100 + K), *A);
    EXPECT_EQ(Store.stats().Entries, 5u);
    EntryBytes = Store.stats().BytesHeld / 5;

    // Backdate entries 100..102 so mtime order is deterministic.
    for (std::uint64_t K = 0; K < 3; ++K)
      fs::last_write_time(Store.entryPath(keyOf(100 + K)),
                          fs::file_time_type::clock::now() -
                              std::chrono::hours(1 + (2 - K)));
  }

  // A store with room for ~2 entries GCs the stale ones on startup.
  StoreOptions Tight;
  Tight.Directory = Dir.str();
  Tight.BudgetBytes = EntryBytes * 2 + EntryBytes / 2;
  ArtifactStore Store(Tight);
  EXPECT_EQ(Store.stats().Evictions, 3u);
  EXPECT_EQ(Store.stats().Entries, 2u);
  EXPECT_LE(Store.stats().BytesHeld, Tight.BudgetBytes);
  // The backdated (oldest) entries went; the fresh ones survived.
  EXPECT_EQ(Store.load(keyOf(100)), nullptr);
  EXPECT_EQ(Store.load(keyOf(101)), nullptr);
  EXPECT_EQ(Store.load(keyOf(102)), nullptr);
  EXPECT_NE(Store.load(keyOf(103)), nullptr);
  EXPECT_NE(Store.load(keyOf(104)), nullptr);
}

TEST(ArtifactStore, LpSolutionStoreRoundTrip) {
  TempDir Dir("lpsolution");
  StoreOptions Options;
  Options.Directory = Dir.str();
  ArtifactStore Store(Options);

  auto A = std::make_shared<LpSolutionArtifact>();
  A->Delta = {0.5, -0.125, 3.0};
  A->LpRowsUsed = 42;
  A->CgRounds = 2;
  Store.storeSync(keyOf(9, ArtifactKind::LpSolution), *A);

  auto Back = std::static_pointer_cast<const LpSolutionArtifact>(
      Store.load(keyOf(9, ArtifactKind::LpSolution)));
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Delta, A->Delta);
  EXPECT_EQ(Back->LpRowsUsed, A->LpRowsUsed);
  EXPECT_EQ(Back->CgRounds, A->CgRounds);
  // The same digest under another kind is a different entry.
  EXPECT_EQ(Store.load(keyOf(9)), nullptr);
}

TEST(ArtifactStore, ReadHitsAndRepublishesRefreshMtimeForGc) {
  // The store's GC is LRU-by-mtime, so both load() hits and
  // skip-as-duplicate republishes must touch the entry's mtime - an
  // artifact a warm engine keeps *reading* (or keeps re-publishing)
  // is hot, and GC must not treat it as stale just because it was
  // written long ago.
  TempDir Dir("gc-touch");
  auto A = makePatternArtifact(8, 64, 1);
  std::uint64_t EntryBytes;
  {
    StoreOptions Options;
    Options.Directory = Dir.str();
    ArtifactStore Store(Options);
    for (std::uint64_t K = 0; K < 5; ++K)
      Store.storeSync(keyOf(200 + K), *A);
    EntryBytes = Store.stats().BytesHeld / 5;
    // Age everything, then touch three entries the "hot" ways: two by
    // read-hit, one by a republish that dedupe-skips the write.
    for (std::uint64_t K = 0; K < 5; ++K)
      fs::last_write_time(Store.entryPath(keyOf(200 + K)),
                          fs::file_time_type::clock::now() -
                              std::chrono::hours(2));
    EXPECT_NE(Store.load(keyOf(203)), nullptr);
    EXPECT_NE(Store.load(keyOf(204)), nullptr);
    Store.storeSync(keyOf(202), *A);
    EXPECT_EQ(Store.stats().WriteSkips, 1u);
  }

  // Budget for ~3 entries: the two never-touched entries are the
  // oldest and must be the ones evicted.
  StoreOptions Tight;
  Tight.Directory = Dir.str();
  Tight.BudgetBytes = EntryBytes * 3 + EntryBytes / 2;
  ArtifactStore Store(Tight);
  EXPECT_EQ(Store.stats().Evictions, 2u);
  EXPECT_EQ(Store.stats().Entries, 3u);
  EXPECT_EQ(Store.load(keyOf(200)), nullptr);
  EXPECT_EQ(Store.load(keyOf(201)), nullptr);
  EXPECT_NE(Store.load(keyOf(202)), nullptr);
  EXPECT_NE(Store.load(keyOf(203)), nullptr);
  EXPECT_NE(Store.load(keyOf(204)), nullptr);
}

TEST(ArtifactStore, AtomicPublicationUnderConcurrentWriters) {
  TempDir Dir("race");
  StoreOptions Options;
  Options.Directory = Dir.str();
  ArtifactStore Store(Options);

  // 8 writers race on one key while 8 more spray distinct keys; every
  // concurrent load must see either nothing or a fully valid entry -
  // never a torn write (CorruptSkips == 0).
  auto Shared = makePatternArtifact(6, 48, 5);
  std::vector<std::thread> Threads;
  std::atomic<int> LoadedOk{0};
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      ArtifactStore Mine(Options); // own store handle: cross-"process"
      auto Private = makePatternArtifact(3 + T, 16, T);
      for (int Round = 0; Round < 8; ++Round) {
        Mine.storeSync(keyOf(4242), *Shared);
        Mine.storeSync(keyOf(5000 + static_cast<std::uint64_t>(T)),
                       *Private);
        if (auto Loaded = std::static_pointer_cast<const PatternBatchArtifact>(
                Mine.load(keyOf(4242)))) {
          ++LoadedOk;
          EXPECT_EQ(Loaded->Patterns, Shared->Patterns);
        }
      }
      EXPECT_EQ(Mine.stats().CorruptSkips, 0u);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_GT(LoadedOk.load(), 0);
  EXPECT_EQ(Store.stats().CorruptSkips, 0u);

  auto Final = std::static_pointer_cast<const PatternBatchArtifact>(
      Store.load(keyOf(4242)));
  ASSERT_NE(Final, nullptr);
  EXPECT_EQ(Final->Patterns, Shared->Patterns);
  for (int T = 0; T < 8; ++T)
    EXPECT_NE(Store.load(keyOf(5000 + static_cast<std::uint64_t>(T))),
              nullptr);
}

// --- Engine integration: the L2 determinism contract ------------------------

TEST(EngineStore, L2WarmRestartBitIdenticalAtAnyThreadCount) {
  TempDir Dir("engine-l2");
  Rng R(6601);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 30);
  RepairRequest Request = RepairRequest::points(Net, 2, Spec);

  // Store-off reference.
  EngineOptions Off;
  Off.EnableCache = false;
  RepairEngine OffEngine(Off);
  RepairReport OffReport = OffEngine.run(Request);

  for (int Threads : {1, 4, 8}) {
    setGlobalThreadCount(Threads);
    // One store directory per thread count, so each iteration's first
    // engine is genuinely cold (content addresses don't depend on the
    // thread count, so a shared directory would already be warm).
    EngineOptions WithStore;
    WithStore.StoreDirectory =
        (Dir.Path / std::to_string(Threads)).string();
    RepairRequest ThreadRequest = Request;
    {
      RepairEngine Cold(WithStore);
      ASSERT_TRUE(Cold.hasStore());
      RepairReport ColdReport = Cold.run(ThreadRequest);
      RepairReport L1Warm = Cold.run(ThreadRequest);
      expectBitIdentical(ColdReport.Result, OffReport.Result);
      expectBitIdentical(L1Warm.Result, OffReport.Result);
      EXPECT_EQ(ColdReport.StoreHits, 0);
      EXPECT_GT(L1Warm.CacheHits, 0);
      EXPECT_EQ(L1Warm.StoreHits, 0); // served from memory, not disk
      Cold.flushStore();
      EXPECT_GT(Cold.storeStats().Writes, 0u);
    } // engine dies; the store directory survives

    // A *fresh* engine on the same directory starts L2-warm: all
    // lookups hit the store, results stay bit-identical.
    RepairEngine Warm(WithStore);
    RepairReport L2Warm = Warm.run(ThreadRequest);
    expectBitIdentical(L2Warm.Result, OffReport.Result);
    EXPECT_GT(L2Warm.StoreHits, 0);
    EXPECT_EQ(L2Warm.CacheHits, L2Warm.StoreHits);
    EXPECT_EQ(L2Warm.CacheMisses, 0);
    EXPECT_GT(L2Warm.Result.Stats.BasisStoreHits, 0);
    EXPECT_GT(Warm.storeStats().Hits, 0u);

    // And the promoted artifacts serve the next run from L1.
    RepairReport Promoted = Warm.run(ThreadRequest);
    expectBitIdentical(Promoted.Result, OffReport.Result);
    EXPECT_EQ(Promoted.StoreHits, 0);
    EXPECT_GT(Promoted.CacheHits, 0);
  }
  setGlobalThreadCount(defaultThreadCount());
}

TEST(EngineStore, CorruptedEntryDegradesToRecompute) {
  Rng R(6602);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  RepairRequest Request = RepairRequest::points(Net, 4, Spec);
  RepairResult Serial = repairPoints(*Net, 4, Spec);

  // Two ways a stored entry goes bad: a torn write (truncated to a
  // prefix), and a frame of the previous format version - what every
  // entry of a store written before a kFormatVersion bump looks like.
  struct Vandal {
    const char *Name;
    void (*Apply)(const fs::path &);
  };
  const Vandal Vandals[] = {
      {"truncated",
       [](const fs::path &P) {
         fs::resize_file(P, fs::file_size(P) * 2 / 3);
       }},
      {"previous-version",
       [](const fs::path &P) {
         std::uint32_t Old = persist::kFormatVersion - 1;
         const char Le[4] = {static_cast<char>(Old & 0xff),
                             static_cast<char>((Old >> 8) & 0xff),
                             static_cast<char>((Old >> 16) & 0xff),
                             static_cast<char>((Old >> 24) & 0xff)};
         std::fstream F(P, std::ios::in | std::ios::out | std::ios::binary);
         F.seekp(4); // the version field follows the 4-byte magic
         F.write(Le, sizeof(Le));
       }},
  };
  for (const Vandal &V : Vandals) {
    SCOPED_TRACE(V.Name);
    TempDir Dir(std::string("engine-") + V.Name);
    EngineOptions WithStore;
    WithStore.StoreDirectory = Dir.str();
    {
      RepairEngine Cold(WithStore);
      expectBitIdentical(Cold.run(Request).Result, Serial);
      Cold.flushStore();
    }

    int Vandalized = 0;
    for (const auto &Entry : fs::recursive_directory_iterator(Dir.Path))
      if (Entry.is_regular_file() && Entry.path().extension() == ".art") {
        V.Apply(Entry.path());
        ++Vandalized;
      }
    ASSERT_GT(Vandalized, 0);

    RepairEngine Warm(WithStore);
    RepairReport Report = Warm.run(Request);
    expectBitIdentical(Report.Result, Serial); // recomputed, not wrong
    EXPECT_EQ(Report.StoreHits, 0);
    EXPECT_GE(Warm.storeStats().CorruptSkips, 1u);

    // The recompute re-published good bytes: a third engine is warm.
    Warm.flushStore();
    RepairEngine Healed(WithStore);
    RepairReport HealedReport = Healed.run(Request);
    expectBitIdentical(HealedReport.Result, Serial);
    EXPECT_GT(HealedReport.StoreHits, 0);
  }
}

TEST(EngineStore, UntrustedLpSolutionIsSolvedAgain) {
  // Store bytes are untrusted past the frame check: a well-framed
  // LpSolution entry whose Delta has the wrong length, or fails the
  // re-verification scan, is discarded - the repair solves its LP as on
  // a miss and counts a miss, and the result is the cache-off one.
  Rng R(6604);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  const int Layer = 4;
  RepairRequest Request = RepairRequest::points(Net, Layer, Spec);
  RepairResult Serial = repairPoints(*Net, Layer, Spec);
  ASSERT_EQ(Serial.Status, RepairStatus::Success);
  size_t NumParams = Serial.Delta.size();

  const std::pair<const char *, std::vector<double>> Planted[] = {
      {"wrong-length", std::vector<double>(NumParams + 1, 0.0)},
      // Delta = 0 leaves the flipped points unrepaired.
      {"fails-verification", std::vector<double>(NumParams, 0.0)},
  };
  for (const auto &[Name, Delta] : Planted) {
    SCOPED_TRACE(Name);
    TempDir Dir(std::string("engine-untrusted-") + Name);
    EngineOptions WithStore;
    WithStore.StoreDirectory = Dir.str();
    {
      RepairEngine Cold(WithStore);
      expectBitIdentical(Cold.run(Request).Result, Serial);
      Cold.flushStore();
    }

    // Replace the one LpSolution entry (<Kind>-<hex digest>.art) with
    // a well-formed bad one.
    std::vector<Digest128> Digests;
    for (const auto &Entry : fs::recursive_directory_iterator(Dir.Path)) {
      std::string File = Entry.path().filename().string();
      if (File.rfind("LpSolution-", 0) == 0) {
        Digests.push_back(digestFromHex(File.substr(11, 32)).value());
        fs::remove(Entry.path());
      }
    }
    ASSERT_EQ(Digests.size(), 1u);
    LpSolutionArtifact Bad;
    Bad.Delta = Delta;
    StoreOptions Options;
    Options.Directory = Dir.str();
    ArtifactStore(Options).storeSync({ArtifactKind::LpSolution, Digests[0]},
                                     Bad);

    RepairEngine Warm(WithStore);
    RepairReport Report = Warm.run(Request);
    expectBitIdentical(Report.Result, Serial);
    EXPECT_EQ(Report.Result.Stats.CgRounds, Serial.Stats.CgRounds);
    EXPECT_EQ(Report.Result.Stats.BasisHits, 0);
    EXPECT_EQ(Report.Result.Stats.BasisMisses, 1);
    EXPECT_EQ(Report.Result.Stats.BasisStoreHits, 0);
  }
}

TEST(EngineStore, PolytopeTransformsWarmAcrossRestart) {
  TempDir Dir("engine-poly");
  Network Net = makeFigure3Network();
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{SegmentPolytope{Vector{0.5}, Vector{1.5}},
                              boxConstraint(Vector{-0.8}, Vector{-0.4})});
  RepairOptions Options;
  Options.RowMargin = 0.0;
  RepairRequest Request = RepairRequest::polytopes(
      RepairRequest::borrow(Net), 0, Spec, Options);
  RepairResult Serial = repairPolytopes(Net, 0, Spec, Options);

  EngineOptions WithStore;
  WithStore.StoreDirectory = Dir.str();
  {
    RepairEngine Cold(WithStore);
    expectBitIdentical(Cold.run(Request).Result, Serial);
    Cold.flushStore();
  }
  RepairEngine Warm(WithStore);
  RepairReport Report = Warm.run(Request);
  expectBitIdentical(Report.Result, Serial);
  EXPECT_EQ(Report.Result.Stats.LinRegionsStoreHits, 1);
  EXPECT_EQ(Report.Result.Stats.PatternStoreHits, 1);
  EXPECT_GT(Report.Result.Stats.BasisStoreHits, 0);
}

TEST(EngineStore, EightConcurrentJobsShareOneL2Load) {
  TempDir Dir("engine-race");
  Rng R(6603);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  RepairResult Serial = repairPoints(*Net, 4, Spec);

  EngineOptions WithStore;
  WithStore.StoreDirectory = Dir.str();
  {
    RepairEngine Cold(WithStore);
    Cold.run(RepairRequest::points(Net, 4, Spec));
    Cold.flushStore();
  }

  EngineOptions Concurrent = WithStore;
  Concurrent.NumWorkers = 8;
  RepairEngine Engine(Concurrent);
  std::vector<JobHandle> Handles;
  for (int J = 0; J < 8; ++J)
    Handles.push_back(Engine.submit(RepairRequest::points(Net, 4, Spec)));
  std::int64_t StoreHits = 0;
  for (JobHandle &Handle : Handles) {
    expectBitIdentical(Handle.report().Result, Serial);
    StoreHits += Handle.report().StoreHits;
  }
  // Per distinct key (one LP solution per repair), one job deserialized
  // from disk inside the single-flight claim; the other seven shared
  // the promoted L1 entry.
  const RepairStats &WarmStats = Handles[0].report().Result.Stats;
  EXPECT_EQ(WarmStats.BasisHits + WarmStats.BasisMisses, 1);
  EXPECT_EQ(StoreHits, 1);
  EXPECT_EQ(Engine.storeStats().Hits, 1u);
  EXPECT_EQ(Engine.cacheStats().Hits, 7u);
}

} // namespace
