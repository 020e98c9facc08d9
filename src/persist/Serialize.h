//===- persist/Serialize.h - artifact & network serializers ----*- C++ -*-===//
///
/// \file
/// Binary (de)serializers over persist/Codec.h, and the library's one
/// network codec:
///
///   - the three cache artifact kinds (SyReNN transform sets,
///     activation-pattern batches, LP solutions), bit-exact so an L2
///     hit returns exactly the bytes a recomputation would produce;
///   - whole Networks (every layer kind) and Decoupled DNNs (the two
///     channel networks back to back). Doubles travel as IEEE-754 bit
///     patterns, so parameters - inf and NaN included - round-trip
///     bit-exactly.
///
/// Deserializers validate structure (dimensions positive and bounded,
/// layer sizes chained, element counts consistent with the remaining
/// byte budget) before allocating, so truncated or garbage input fails
/// with a typed CodecError instead of aborting or fabricating a
/// partial object.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_PERSIST_SERIALIZE_H
#define PRDNN_PERSIST_SERIALIZE_H

#include "cache/ArtifactCache.h"
#include "linalg/Matrix.h"
#include "persist/Codec.h"

#include <memory>
#include <optional>
#include <string>

namespace prdnn {

class DecoupledNetwork;
class Network;

namespace persist {

/// Frame kind byte for serialized whole networks (artifact blobs use
/// their ArtifactKind value; keep this outside that enum's range).
inline constexpr std::uint8_t kNetworkBlobKind = 0x40;

/// Frame kind byte of an artifact blob.
inline std::uint8_t blobKindOf(ArtifactKind Kind) {
  return static_cast<std::uint8_t>(Kind);
}

/// u32 length prefix + IEEE-754 bit patterns: the vector encoding the
/// artifact payloads use, exposed for other framed formats (rpc/Wire)
/// so every layer spells doubles the same bit-exact way.
void writeVector(ByteWriter &W, const Vector &V);
bool readVector(ByteReader &R, Vector &V);

/// Row-major: u32 rows + u32 cols + rows*cols doubles.
void writeMatrix(ByteWriter &W, const Matrix &M);
bool readMatrix(ByteReader &R, Matrix &M);

/// One activation pattern: u32 layer count, then per layer u32 units +
/// i32 values (the pattern-batch artifact encoding for a single item).
void writePattern(ByteWriter &W, const NetworkPattern &Pattern);
bool readPattern(ByteReader &R, NetworkPattern &Pattern);

/// Appends \p Artifact's payload encoding to \p W. \p Kind must match
/// the artifact's dynamic type.
void serializeArtifact(const CacheArtifact &Artifact, ArtifactKind Kind,
                       ByteWriter &W);

/// Decodes one \p Kind artifact from \p R; null on malformed input
/// (R.error() says why). The whole remaining payload must be consumed.
std::shared_ptr<const CacheArtifact> deserializeArtifact(ArtifactKind Kind,
                                                         ByteReader &R);

/// Appends \p Net's payload encoding to \p W (bit-exact parameters).
void serializeNetwork(const Network &Net, ByteWriter &W);

/// Decodes a network from \p R; nullopt on malformed input.
std::optional<Network> deserializeNetwork(ByteReader &R);

/// Appends \p Net's two channels to \p W: the activation channel's
/// network encoding, then the value channel's.
void serializeDecoupled(const DecoupledNetwork &Net, ByteWriter &W);

/// Decodes both channels from \p R; nullopt on malformed input, and
/// CodecError::Corrupt when the channels disagree on a layer's kind or
/// sizes (the DecoupledNetwork constructor only asserts that).
std::optional<DecoupledNetwork> deserializeDecoupled(ByteReader &R);

/// Writes \p Net to \p Path as a framed binary blob (kNetworkBlobKind);
/// false on I/O error.
bool saveNetworkBinary(const Network &Net, const std::string &Path);

/// Loads a framed binary network. On failure returns nullopt and (when
/// \p Error is non-null) the typed reason - including Truncated /
/// Corrupt for cut-short or bit-rotted files and BadMagic for files
/// that are not binary networks at all.
std::optional<Network> loadNetworkBinary(const std::string &Path,
                                         CodecError *Error = nullptr);

} // namespace persist
} // namespace prdnn

#endif // PRDNN_PERSIST_SERIALIZE_H
