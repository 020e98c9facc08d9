//===- cache/Fingerprint.h - content addresses for cache keys --*- C++ -*-===//
///
/// \file
/// Content addressing for the repair-artifact cache: a stable
/// NetworkFingerprint over a network's full topology *and* parameter
/// bits, plus a hashing helper for the vectors that appear in cache
/// keys.
///
/// Two networks share a fingerprint iff they have the same layer
/// sequence (kinds and geometry, via each layer's describe() string and
/// sizes) and bit-for-bit equal parameters - so any parameter edit,
/// however small, changes the address and can never alias a cached
/// artifact computed from the old network. This is what makes it safe
/// for one engine-wide cache to serve jobs on *different* networks.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_CACHE_FINGERPRINT_H
#define PRDNN_CACHE_FINGERPRINT_H

#include "support/Hash.h"

#include <optional>
#include <string>

namespace prdnn {

class Network;
class Vector;

/// Content address of one immutable network; see the file comment.
struct NetworkFingerprint {
  Digest128 Digest;

  bool operator==(const NetworkFingerprint &Other) const = default;
};

/// Hashes topology (layer count, kinds, geometry) and every parameter's
/// bit pattern. Cost is one linear pass over the parameters - trivial
/// next to a single forward pass over a spec - so engines recompute it
/// per job rather than trusting object identity.
NetworkFingerprint fingerprintNetwork(const Network &Net);

/// Key-building helper: absorbs a vector's dimension and exact bits.
void hashVector(Hasher &H, const Vector &V);

/// 32 lowercase hex chars (Hi then Lo): the digest's canonical text
/// form, used wherever a content address becomes a file name or wire
/// token (persist/ArtifactStore entry names, serve/ModelRegistry).
std::string toHex(const Digest128 &Digest);
inline std::string toHex(const NetworkFingerprint &Fp) {
  return toHex(Fp.Digest);
}

/// Parses the canonical 32-hex-char form back (case-insensitive);
/// nullopt on any other length or a non-hex character.
std::optional<Digest128> digestFromHex(const std::string &Hex);

} // namespace prdnn

#endif // PRDNN_CACHE_FINGERPRINT_H
