//===- persist/Serialize.cpp ----------------------------------------------===//

#include "persist/Serialize.h"

#include "core/DecoupledNetwork.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "nn/Network.h"
#include "nn/PoolLayers.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <cassert>
#include <fstream>

using namespace prdnn;
using namespace prdnn::persist;

namespace {

// Sanity bounds for deserialized dimensions: generous for any network
// this library runs, small enough that garbage input cannot trigger
// multi-gigabyte allocations before validation catches it.
constexpr int kMaxDim = 1 << 22;
constexpr std::int64_t kMaxParams = std::int64_t(1) << 28;

bool validDim(int V) { return V > 0 && V <= kMaxDim; }

/// A*B*C as a flat activation size: every partial product is checked
/// before multiplying, so dimensions that each pass validDim cannot
/// overflow (or merely explode) the product.
bool validSize3(int A, int B, int C) {
  std::int64_t AB = static_cast<std::int64_t>(A) * B;
  return AB <= kMaxDim && AB * C <= kMaxDim;
}

/// OutC*InC*KH*KW + OutC without intermediate overflow; -1 when over
/// the kMaxParams bound.
std::int64_t convParamCount(int OutC, int InC, int KH, int KW) {
  std::int64_t A = static_cast<std::int64_t>(OutC) * InC; // <= 2^44
  std::int64_t B = static_cast<std::int64_t>(KH) * KW;    // <= 2^44
  if (A > kMaxParams || B > kMaxParams || A > kMaxParams / B)
    return -1;
  std::int64_t Total = A * B + OutC;
  return Total > kMaxParams ? -1 : Total;
}

// --- Artifact payloads ------------------------------------------------------

void writeLinePartition(ByteWriter &W, const LinePartition &Line) {
  writeVector(W, Line.A);
  writeVector(W, Line.B);
  writeDoubleSeq(W, Line.Ts);
}

bool readLinePartition(ByteReader &R, LinePartition &Line) {
  if (!readVector(R, Line.A) || !readVector(R, Line.B) ||
      !readDoubleSeq(R, Line.Ts))
    return false;
  if (Line.Ts.size() < 2 || Line.A.size() != Line.B.size()) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  return true;
}

void writePlaneRegion(ByteWriter &W, const PlaneRegion &Region) {
  W.u64(Region.InputVertices.size());
  for (const Vector &V : Region.InputVertices)
    writeVector(W, V);
  assert(Region.PlaneVertices.size() == Region.InputVertices.size() &&
         "plane region vertex lists disagree");
  for (const auto &[X, Y] : Region.PlaneVertices) {
    W.f64(X);
    W.f64(Y);
  }
}

bool readPlaneRegion(ByteReader &R, PlaneRegion &Region) {
  std::uint64_t Verts = 0;
  if (!R.u64(Verts) || !plausibleCount(R, Verts, 8))
    return false;
  Region.InputVertices.resize(static_cast<std::size_t>(Verts));
  for (Vector &V : Region.InputVertices)
    if (!readVector(R, V))
      return false;
  Region.PlaneVertices.resize(static_cast<std::size_t>(Verts));
  for (auto &[X, Y] : Region.PlaneVertices)
    if (!R.f64(X) || !R.f64(Y))
      return false;
  return true;
}

void writeSyrennTransform(ByteWriter &W, const SyrennTransformArtifact &A) {
  W.u64(A.Partitions.size());
  for (const SyrennTransformArtifact::Partition &P : A.Partitions) {
    if (const auto *Line = std::get_if<LinePartition>(&P)) {
      W.u8(0);
      writeLinePartition(W, *Line);
    } else {
      const auto &Regions = std::get<std::vector<PlaneRegion>>(P);
      W.u8(1);
      W.u64(Regions.size());
      for (const PlaneRegion &Region : Regions)
        writePlaneRegion(W, Region);
    }
  }
}

std::shared_ptr<const CacheArtifact> readSyrennTransform(ByteReader &R) {
  auto A = std::make_shared<SyrennTransformArtifact>();
  std::uint64_t Count = 0;
  if (!R.u64(Count) || !plausibleCount(R, Count, 1))
    return nullptr;
  A->Partitions.resize(static_cast<std::size_t>(Count));
  for (SyrennTransformArtifact::Partition &P : A->Partitions) {
    std::uint8_t Tag = 0;
    if (!R.u8(Tag))
      return nullptr;
    if (Tag == 0) {
      LinePartition Line;
      if (!readLinePartition(R, Line))
        return nullptr;
      P = std::move(Line);
    } else if (Tag == 1) {
      std::uint64_t Regions = 0;
      if (!R.u64(Regions) || !plausibleCount(R, Regions, 8))
        return nullptr;
      std::vector<PlaneRegion> Parsed(static_cast<std::size_t>(Regions));
      for (PlaneRegion &Region : Parsed)
        if (!readPlaneRegion(R, Region))
          return nullptr;
      P = std::move(Parsed);
    } else {
      R.fail(CodecError::Corrupt);
      return nullptr;
    }
  }
  return A;
}

void writePatternBatch(ByteWriter &W, const PatternBatchArtifact &A) {
  W.u64(A.Patterns.size());
  for (const NetworkPattern &Pattern : A.Patterns)
    writePattern(W, Pattern);
}

std::shared_ptr<const CacheArtifact> readPatternBatch(ByteReader &R) {
  auto A = std::make_shared<PatternBatchArtifact>();
  std::uint64_t Count = 0;
  if (!R.u64(Count) || !plausibleCount(R, Count, 4))
    return nullptr;
  A->Patterns.resize(static_cast<std::size_t>(Count));
  for (NetworkPattern &Pattern : A->Patterns)
    if (!readPattern(R, Pattern))
      return nullptr;
  return A;
}

void writeLpSolution(ByteWriter &W, const LpSolutionArtifact &A) {
  W.i32(A.LpRowsUsed);
  W.i32(A.CgRounds);
  writeDoubleSeq(W, A.Delta);
}

std::shared_ptr<const CacheArtifact> readLpSolution(ByteReader &R) {
  auto A = std::make_shared<LpSolutionArtifact>();
  if (!R.i32(A->LpRowsUsed) || !R.i32(A->CgRounds) ||
      !readDoubleSeq(R, A->Delta))
    return nullptr;
  // The consumer re-verifies Delta against the spec before use; the
  // codec rejects what no solve could have produced.
  if (A->LpRowsUsed < 0 || A->CgRounds < 0 || A->Delta.empty()) {
    R.fail(CodecError::Corrupt);
    return nullptr;
  }
  return A;
}

} // namespace

void prdnn::persist::writeVector(ByteWriter &W, const Vector &V) {
  W.u32(static_cast<std::uint32_t>(V.size()));
  W.doubles(V.data(), static_cast<std::size_t>(V.size()));
}

bool prdnn::persist::readVector(ByteReader &R, Vector &V) {
  std::uint32_t Size = 0;
  if (!R.u32(Size) || !plausibleCount(R, Size, 8))
    return false;
  V = Vector(static_cast<int>(Size));
  return R.doubles(V.data(), Size);
}

void prdnn::persist::writeMatrix(ByteWriter &W, const Matrix &M) {
  W.u32(static_cast<std::uint32_t>(M.rows()));
  W.u32(static_cast<std::uint32_t>(M.cols()));
  for (int Row = 0; Row < M.rows(); ++Row)
    W.doubles(M.rowData(Row), static_cast<std::size_t>(M.cols()));
}

bool prdnn::persist::readMatrix(ByteReader &R, Matrix &M) {
  int Rows = 0, Cols = 0;
  if (!R.i32(Rows) || !R.i32(Cols))
    return false;
  if (Rows < 0 || Cols < 0 || Rows > kMaxDim || Cols > kMaxDim ||
      (Cols > 0 && static_cast<std::int64_t>(Rows) > kMaxParams / Cols)) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  if (!plausibleCount(R, static_cast<std::size_t>(Rows) * Cols, 8))
    return false;
  M = Matrix(Rows, Cols);
  for (int Row = 0; Row < Rows; ++Row)
    if (!R.doubles(M.rowData(Row), static_cast<std::size_t>(Cols)))
      return false;
  return true;
}

void prdnn::persist::writePattern(ByteWriter &W,
                                  const NetworkPattern &Pattern) {
  W.u32(static_cast<std::uint32_t>(Pattern.Patterns.size()));
  for (const std::vector<int> &LayerPattern : Pattern.Patterns) {
    W.u32(static_cast<std::uint32_t>(LayerPattern.size()));
    for (int V : LayerPattern)
      W.i32(V);
  }
}

bool prdnn::persist::readPattern(ByteReader &R, NetworkPattern &Pattern) {
  std::uint32_t Layers = 0;
  if (!R.u32(Layers) || !plausibleCount(R, Layers, 4))
    return false;
  Pattern.Patterns.resize(Layers);
  for (std::vector<int> &LayerPattern : Pattern.Patterns) {
    std::uint32_t Units = 0;
    if (!R.u32(Units) || !plausibleCount(R, Units, 4))
      return false;
    LayerPattern.resize(Units);
    for (int &V : LayerPattern)
      if (!R.i32(V))
        return false;
  }
  return true;
}

void prdnn::persist::serializeArtifact(const CacheArtifact &Artifact,
                                       ArtifactKind Kind, ByteWriter &W) {
  switch (Kind) {
  case ArtifactKind::SyrennTransform:
    writeSyrennTransform(
        W, static_cast<const SyrennTransformArtifact &>(Artifact));
    return;
  case ArtifactKind::PatternBatch:
    writePatternBatch(W, static_cast<const PatternBatchArtifact &>(Artifact));
    return;
  case ArtifactKind::LpSolution:
    writeLpSolution(W, static_cast<const LpSolutionArtifact &>(Artifact));
    return;
  }
  PRDNN_UNREACHABLE("bad ArtifactKind");
}

std::shared_ptr<const CacheArtifact>
prdnn::persist::deserializeArtifact(ArtifactKind Kind, ByteReader &R) {
  std::shared_ptr<const CacheArtifact> Artifact;
  switch (Kind) {
  case ArtifactKind::SyrennTransform:
    Artifact = readSyrennTransform(R);
    break;
  case ArtifactKind::PatternBatch:
    Artifact = readPatternBatch(R);
    break;
  case ArtifactKind::LpSolution:
    Artifact = readLpSolution(R);
    break;
  }
  if (!Artifact)
    return nullptr;
  if (R.remaining() != 0) {
    // Unconsumed payload bytes: a different (longer) encoding than
    // this build writes, so don't trust the prefix.
    R.fail(CodecError::Corrupt);
    return nullptr;
  }
  return Artifact;
}

// --- Networks ---------------------------------------------------------------

void prdnn::persist::serializeNetwork(const Network &Net, ByteWriter &W) {
  W.u32(static_cast<std::uint32_t>(Net.numLayers()));
  std::vector<double> Params;
  for (int I = 0; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    W.u8(static_cast<std::uint8_t>(L.getKind()));
    switch (L.getKind()) {
    case LayerKind::FullyConnected: {
      const auto &Fc = cast<FullyConnectedLayer>(L);
      W.u32(static_cast<std::uint32_t>(Fc.outputSize()));
      W.u32(static_cast<std::uint32_t>(Fc.inputSize()));
      Fc.getParams(Params);
      W.doubles(Params.data(), Params.size());
      break;
    }
    case LayerKind::Conv2D: {
      const auto &Conv = cast<Conv2DLayer>(L);
      W.u32(static_cast<std::uint32_t>(Conv.inChannels()));
      W.u32(static_cast<std::uint32_t>(Conv.inHeight()));
      W.u32(static_cast<std::uint32_t>(Conv.inWidth()));
      W.u32(static_cast<std::uint32_t>(Conv.outChannels()));
      W.u32(static_cast<std::uint32_t>(Conv.kernelHeight()));
      W.u32(static_cast<std::uint32_t>(Conv.kernelWidth()));
      W.u32(static_cast<std::uint32_t>(Conv.stride()));
      W.u32(static_cast<std::uint32_t>(Conv.padding()));
      Conv.getParams(Params);
      W.doubles(Params.data(), Params.size());
      break;
    }
    case LayerKind::AvgPool2D:
    case LayerKind::MaxPool2D: {
      const PoolGeometry &G = L.getKind() == LayerKind::AvgPool2D
                                  ? cast<AvgPool2DLayer>(L).geometry()
                                  : cast<MaxPool2DLayer>(L).geometry();
      W.u32(static_cast<std::uint32_t>(G.Channels));
      W.u32(static_cast<std::uint32_t>(G.InH));
      W.u32(static_cast<std::uint32_t>(G.InW));
      W.u32(static_cast<std::uint32_t>(G.WindowH));
      W.u32(static_cast<std::uint32_t>(G.WindowW));
      W.u32(static_cast<std::uint32_t>(G.Stride));
      break;
    }
    case LayerKind::LeakyReLU:
      W.u32(static_cast<std::uint32_t>(L.inputSize()));
      W.f64(cast<LeakyReLULayer>(L).alpha());
      break;
    case LayerKind::Flatten:
    case LayerKind::ReLU:
    case LayerKind::HardTanh:
    case LayerKind::Tanh:
    case LayerKind::Sigmoid:
      W.u32(static_cast<std::uint32_t>(L.inputSize()));
      break;
    }
  }
}

std::optional<Network> prdnn::persist::deserializeNetwork(ByteReader &R) {
  std::uint32_t NumLayers = 0;
  if (!R.u32(NumLayers) || !plausibleCount(R, NumLayers, 5))
    return std::nullopt;

  Network Net;
  auto Corrupt = [&]() -> std::optional<Network> {
    R.fail(CodecError::Corrupt);
    return std::nullopt;
  };
  /// Appends \p L after validating the size chain that Network::
  /// addLayer only asserts (asserts are off in Release; a garbage
  /// stream must not fabricate an inconsistent network).
  auto Append = [&](std::unique_ptr<Layer> L) {
    if (Net.numLayers() > 0 &&
        Net.layer(Net.numLayers() - 1).outputSize() != L->inputSize())
      return false;
    Net.addLayer(std::move(L));
    return true;
  };

  for (std::uint32_t I = 0; I < NumLayers; ++I) {
    std::uint8_t Tag = 0;
    if (!R.u8(Tag))
      return std::nullopt;
    switch (static_cast<LayerKind>(Tag)) {
    case LayerKind::FullyConnected: {
      int Out = 0, In = 0;
      if (!R.i32(Out) || !R.i32(In))
        return std::nullopt;
      if (!validDim(Out) || !validDim(In) ||
          static_cast<std::int64_t>(Out) * In + Out > kMaxParams)
        return Corrupt();
      std::size_t Count = static_cast<std::size_t>(Out) * In + Out;
      if (!plausibleCount(R, Count, 8))
        return std::nullopt;
      std::vector<double> Params(Count);
      if (!R.doubles(Params.data(), Count))
        return std::nullopt;
      Matrix W(Out, In);
      std::size_t P = 0;
      for (int Row = 0; Row < Out; ++Row)
        for (int Col = 0; Col < In; ++Col)
          W(Row, Col) = Params[P++];
      Vector B(Out);
      for (int Row = 0; Row < Out; ++Row)
        B[Row] = Params[P++];
      if (!Append(std::make_unique<FullyConnectedLayer>(std::move(W),
                                                        std::move(B))))
        return Corrupt();
      break;
    }
    case LayerKind::Conv2D: {
      int InC = 0, InH = 0, InW = 0, OutC = 0, KH = 0, KW = 0, Stride = 0,
          Pad = 0;
      if (!R.i32(InC) || !R.i32(InH) || !R.i32(InW) || !R.i32(OutC) ||
          !R.i32(KH) || !R.i32(KW) || !R.i32(Stride) || !R.i32(Pad))
        return std::nullopt;
      if (!validDim(InC) || !validDim(InH) || !validDim(InW) ||
          !validDim(OutC) || !validDim(KH) || !validDim(KW) || Stride < 1 ||
          Pad < 0 || Pad > kMaxDim || InH + 2 * Pad < KH ||
          InW + 2 * Pad < KW || !validSize3(InC, InH, InW))
        return Corrupt();
      int OutH = (InH + 2 * Pad - KH) / Stride + 1;
      int OutW = (InW + 2 * Pad - KW) / Stride + 1;
      if (!validSize3(OutC, OutH, OutW))
        return Corrupt();
      std::int64_t TotalParams = convParamCount(OutC, InC, KH, KW);
      if (TotalParams < 0)
        return Corrupt();
      std::int64_t KernelCount = TotalParams - OutC;
      std::size_t Count = static_cast<std::size_t>(TotalParams);
      if (!plausibleCount(R, Count, 8))
        return std::nullopt;
      std::vector<double> Params(Count);
      if (!R.doubles(Params.data(), Count))
        return std::nullopt;
      std::vector<double> Kernels(
          Params.begin(), Params.begin() + static_cast<std::size_t>(
                                               KernelCount));
      std::vector<double> Bias(
          Params.begin() + static_cast<std::size_t>(KernelCount),
          Params.end());
      if (!Append(std::make_unique<Conv2DLayer>(
              InC, InH, InW, OutC, KH, KW, Stride, Pad, std::move(Kernels),
              std::move(Bias))))
        return Corrupt();
      break;
    }
    case LayerKind::AvgPool2D:
    case LayerKind::MaxPool2D: {
      int C = 0, H = 0, W = 0, WH = 0, WW = 0, S = 0;
      if (!R.i32(C) || !R.i32(H) || !R.i32(W) || !R.i32(WH) || !R.i32(WW) ||
          !R.i32(S))
        return std::nullopt;
      if (!validDim(C) || !validDim(H) || !validDim(W) || !validDim(WH) ||
          !validDim(WW) || S < 1 || WH > H || WW > W ||
          (H - WH) % S != 0 || (W - WW) % S != 0 || !validSize3(C, H, W))
        return Corrupt();
      std::unique_ptr<Layer> L;
      if (static_cast<LayerKind>(Tag) == LayerKind::AvgPool2D)
        L = std::make_unique<AvgPool2DLayer>(C, H, W, WH, WW, S);
      else
        L = std::make_unique<MaxPool2DLayer>(C, H, W, WH, WW, S);
      if (!Append(std::move(L)))
        return Corrupt();
      break;
    }
    case LayerKind::LeakyReLU: {
      int N = 0;
      double Alpha = 0.0;
      if (!R.i32(N) || !R.f64(Alpha))
        return std::nullopt;
      if (!validDim(N))
        return Corrupt();
      if (!Append(std::make_unique<LeakyReLULayer>(N, Alpha)))
        return Corrupt();
      break;
    }
    case LayerKind::Flatten:
    case LayerKind::ReLU:
    case LayerKind::HardTanh:
    case LayerKind::Tanh:
    case LayerKind::Sigmoid: {
      int N = 0;
      if (!R.i32(N))
        return std::nullopt;
      if (!validDim(N))
        return Corrupt();
      std::unique_ptr<Layer> L;
      switch (static_cast<LayerKind>(Tag)) {
      case LayerKind::Flatten:
        L = std::make_unique<FlattenLayer>(N);
        break;
      case LayerKind::ReLU:
        L = std::make_unique<ReLULayer>(N);
        break;
      case LayerKind::HardTanh:
        L = std::make_unique<HardTanhLayer>(N);
        break;
      case LayerKind::Tanh:
        L = std::make_unique<TanhLayer>(N);
        break;
      case LayerKind::Sigmoid:
        L = std::make_unique<SigmoidLayer>(N);
        break;
      default:
        PRDNN_UNREACHABLE("unexpected layer tag");
      }
      if (!Append(std::move(L)))
        return Corrupt();
      break;
    }
    default:
      return Corrupt();
    }
  }
  return Net;
}

void prdnn::persist::serializeDecoupled(const DecoupledNetwork &Net,
                                        ByteWriter &W) {
  serializeNetwork(Net.activationChannel(), W);
  serializeNetwork(Net.valueChannel(), W);
}

std::optional<DecoupledNetwork>
prdnn::persist::deserializeDecoupled(ByteReader &R) {
  std::optional<Network> Activation = deserializeNetwork(R);
  if (!Activation)
    return std::nullopt;
  std::optional<Network> Value = deserializeNetwork(R);
  if (!Value)
    return std::nullopt;
  // The DecoupledNetwork constructor only asserts channel agreement;
  // decoded bytes must be validated, not trusted.
  bool Agree = Activation->numLayers() == Value->numLayers();
  for (int I = 0; Agree && I < Activation->numLayers(); ++I) {
    const Layer &A = Activation->layer(I);
    const Layer &V = Value->layer(I);
    Agree = A.getKind() == V.getKind() && A.inputSize() == V.inputSize() &&
            A.outputSize() == V.outputSize();
  }
  if (!Agree) {
    R.fail(CodecError::Corrupt);
    return std::nullopt;
  }
  return DecoupledNetwork(std::move(*Activation), std::move(*Value));
}

bool prdnn::persist::saveNetworkBinary(const Network &Net,
                                       const std::string &Path) {
  ByteWriter W;
  serializeNetwork(Net, W);
  std::vector<std::uint8_t> Blob = frame(kNetworkBlobKind, W.buffer());
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os.write(reinterpret_cast<const char *>(Blob.data()),
           static_cast<std::streamsize>(Blob.size()));
  return static_cast<bool>(Os);
}

std::optional<Network>
prdnn::persist::loadNetworkBinary(const std::string &Path,
                                  CodecError *Error) {
  auto Fail = [&](CodecError E) -> std::optional<Network> {
    if (Error)
      *Error = E;
    return std::nullopt;
  };
  std::ifstream Is(Path, std::ios::binary);
  if (!Is)
    return Fail(CodecError::Truncated);
  std::vector<std::uint8_t> Blob((std::istreambuf_iterator<char>(Is)),
                                 std::istreambuf_iterator<char>());
  FrameView View;
  CodecError FrameError = unframe(Blob.data(), Blob.size(), View);
  if (FrameError != CodecError::None)
    return Fail(FrameError);
  if (View.BlobKind != kNetworkBlobKind)
    return Fail(CodecError::Corrupt);
  ByteReader R(View.Payload, View.PayloadSize);
  std::optional<Network> Net = deserializeNetwork(R);
  if (!Net || R.remaining() != 0)
    return Fail(R.error() == CodecError::None ? CodecError::Corrupt
                                              : R.error());
  if (Error)
    *Error = CodecError::None;
  return Net;
}
