//===- persist/Codec.cpp --------------------------------------------------===//

#include "persist/Codec.h"

#include "support/Hash.h"

using namespace prdnn;
using namespace prdnn::persist;

const char *prdnn::persist::toString(CodecError Error) {
  switch (Error) {
  case CodecError::None:
    return "None";
  case CodecError::Truncated:
    return "Truncated";
  case CodecError::BadMagic:
    return "BadMagic";
  case CodecError::BadVersion:
    return "BadVersion";
  case CodecError::ForeignEndian:
    return "ForeignEndian";
  case CodecError::Corrupt:
    return "Corrupt";
  }
  // A CodecError can arrive over the wire (rpc/Wire.h), so an
  // out-of-range value must print, not abort.
  return "unknown";
}

namespace {

constexpr std::uint8_t kMagic[4] = {'P', 'R', 'D', 'A'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderSize = kFrameHeaderSize;
constexpr std::size_t kTrailerSize = kFrameTrailerSize;

Digest128 payloadDigest(const std::uint8_t *Data, std::size_t Size) {
  Hasher H;
  H.bytes(Data, Size);
  return H.digest();
}

} // namespace

bool prdnn::persist::plausibleCount(ByteReader &R, std::uint64_t Count,
                                    std::size_t ElementBytes) {
  if (Count > R.remaining() / ElementBytes) {
    R.fail(CodecError::Corrupt);
    return false;
  }
  return true;
}

void prdnn::persist::writeDoubleSeq(ByteWriter &W,
                                    const std::vector<double> &Values) {
  W.u64(Values.size());
  W.doubles(Values.data(), Values.size());
}

bool prdnn::persist::readDoubleSeq(ByteReader &R,
                                   std::vector<double> &Values) {
  std::uint64_t Count = 0;
  if (!R.u64(Count) || !plausibleCount(R, Count, 8))
    return false;
  Values.resize(static_cast<std::size_t>(Count));
  return R.doubles(Values.data(), Values.size());
}

std::vector<std::uint8_t>
prdnn::persist::frame(std::uint8_t BlobKind,
                      const std::vector<std::uint8_t> &Payload) {
  ByteWriter W;
  W.bytes(kMagic, sizeof(kMagic));
  W.u32(kFormatVersion);
  // Native byte order on purpose: a foreign-endian producer's tag reads
  // back byte-swapped, which unframe() rejects as ForeignEndian.
  W.bytes(&kEndianTag, sizeof(kEndianTag));
  W.u8(BlobKind);
  W.u64(Payload.size());
  W.bytes(Payload.data(), Payload.size());
  Digest128 Digest = payloadDigest(Payload.data(), Payload.size());
  W.u64(Digest.Hi);
  W.u64(Digest.Lo);
  return W.take();
}

CodecError prdnn::persist::unframe(const std::uint8_t *Data,
                                   std::size_t Size, FrameView &Out) {
  // Magic first (whenever enough bytes exist to judge it), so a file
  // that is not a frame at all reads as BadMagic, not Truncated.
  if (Size >= sizeof(kMagic) &&
      std::memcmp(Data, kMagic, sizeof(kMagic)) != 0)
    return CodecError::BadMagic;
  if (Size < kHeaderSize + kTrailerSize)
    return CodecError::Truncated;

  ByteReader R(Data + 4, Size - 4);
  std::uint32_t Version = 0;
  R.u32(Version);
  std::uint32_t Endian = 0;
  R.bytes(&Endian, sizeof(Endian)); // native order, mirroring frame()
  if (Endian != kEndianTag) {
    std::uint32_t Swapped = ((Endian & 0x000000ffu) << 24) |
                            ((Endian & 0x0000ff00u) << 8) |
                            ((Endian & 0x00ff0000u) >> 8) |
                            ((Endian & 0xff000000u) >> 24);
    return Swapped == kEndianTag ? CodecError::ForeignEndian
                                 : CodecError::Corrupt;
  }
  if (Version != kFormatVersion)
    return CodecError::BadVersion;

  std::uint8_t Kind = 0;
  std::uint64_t PayloadSize = 0;
  R.u8(Kind);
  R.u64(PayloadSize);
  if (!R.ok())
    return R.error();
  if (PayloadSize > R.remaining())
    return CodecError::Truncated;
  if (R.remaining() != PayloadSize + kTrailerSize)
    // Trailing garbage (or a short trailer): not a well-formed frame.
    return R.remaining() < PayloadSize + kTrailerSize ? CodecError::Truncated
                                                      : CodecError::Corrupt;

  const std::uint8_t *Payload = Data + kHeaderSize;
  Digest128 Expected = payloadDigest(Payload,
                                     static_cast<std::size_t>(PayloadSize));
  ByteReader Trailer(Payload + PayloadSize, kTrailerSize);
  Digest128 Stored;
  Trailer.u64(Stored.Hi);
  Trailer.u64(Stored.Lo);
  if (!(Stored == Expected))
    return CodecError::Corrupt;

  Out.BlobKind = Kind;
  Out.Payload = Payload;
  Out.PayloadSize = static_cast<std::size_t>(PayloadSize);
  return CodecError::None;
}

CodecError prdnn::persist::peekFrame(const std::uint8_t *Header,
                                     std::size_t Size,
                                     std::uint8_t &BlobKind,
                                     std::uint64_t &PayloadSize) {
  // Same judgment order as unframe(): magic first so garbage input
  // reads as BadMagic rather than Truncated.
  if (Size >= sizeof(kMagic) &&
      std::memcmp(Header, kMagic, sizeof(kMagic)) != 0)
    return CodecError::BadMagic;
  if (Size < kHeaderSize)
    return CodecError::Truncated;

  ByteReader R(Header + 4, Size - 4);
  std::uint32_t Version = 0;
  R.u32(Version);
  std::uint32_t Endian = 0;
  R.bytes(&Endian, sizeof(Endian));
  if (Endian != kEndianTag) {
    std::uint32_t Swapped = ((Endian & 0x000000ffu) << 24) |
                            ((Endian & 0x0000ff00u) << 8) |
                            ((Endian & 0x00ff0000u) >> 8) |
                            ((Endian & 0xff000000u) >> 24);
    return Swapped == kEndianTag ? CodecError::ForeignEndian
                                 : CodecError::Corrupt;
  }
  if (Version != kFormatVersion)
    return CodecError::BadVersion;

  std::uint8_t Kind = 0;
  std::uint64_t Declared = 0;
  R.u8(Kind);
  R.u64(Declared);
  if (!R.ok())
    return R.error();
  BlobKind = Kind;
  PayloadSize = Declared;
  return CodecError::None;
}
