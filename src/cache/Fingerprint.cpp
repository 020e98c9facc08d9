//===- cache/Fingerprint.cpp ----------------------------------------------===//

#include "cache/Fingerprint.h"

#include "nn/Layer.h"
#include "nn/Network.h"
#include "support/Casting.h"

using namespace prdnn;

NetworkFingerprint prdnn::fingerprintNetwork(const Network &Net) {
  Hasher H;
  H.i32(Net.numLayers());
  std::vector<double> Params;
  for (int I = 0; I < Net.numLayers(); ++I) {
    const Layer &L = Net.layer(I);
    // describe() encodes kind and geometry ("fc 16x6", "conv ...",
    // "relu 16", ...); sizes guard against describe collisions.
    H.i32(static_cast<int>(L.getKind()));
    H.str(L.describe());
    H.i32(L.inputSize());
    H.i32(L.outputSize());
    if (const auto *Lin = dyn_cast<LinearLayer>(&L)) {
      H.i32(Lin->numParams());
      if (Lin->numParams() > 0) {
        Lin->getParams(Params);
        H.doubles(Params.data(), Params.size());
      }
    }
  }
  return NetworkFingerprint{H.digest()};
}

void prdnn::hashVector(Hasher &H, const Vector &V) {
  H.i32(V.size());
  H.doubles(V.data(), static_cast<std::size_t>(V.size()));
}

std::string prdnn::toHex(const Digest128 &Digest) {
  static const char *Alphabet = "0123456789abcdef";
  std::string Out;
  Out.reserve(32);
  for (std::uint64_t Word : {Digest.Hi, Digest.Lo})
    for (int Shift = 60; Shift >= 0; Shift -= 4)
      Out.push_back(Alphabet[(Word >> Shift) & 0xf]);
  return Out;
}

std::optional<Digest128> prdnn::digestFromHex(const std::string &Hex) {
  if (Hex.size() != 32)
    return std::nullopt;
  std::uint64_t Words[2] = {0, 0};
  for (int W = 0; W < 2; ++W)
    for (int I = 0; I < 16; ++I) {
      char C = Hex[static_cast<std::size_t>(16 * W + I)];
      unsigned Nibble;
      if (C >= '0' && C <= '9')
        Nibble = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Nibble = static_cast<unsigned>(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        Nibble = static_cast<unsigned>(C - 'A') + 10;
      else
        return std::nullopt;
      Words[W] = (Words[W] << 4) | Nibble;
    }
  return Digest128{Words[0], Words[1]};
}
