//===- persist/Codec.h - versioned binary artifact codec -------*- C++ -*-===//
///
/// \file
/// The byte-level codec of the persistent artifact store
/// (persist/ArtifactStore.h): a little-endian binary format with a
/// bounds-checked reader and a self-describing frame around every blob.
///
/// Frame layout (all multi-byte integers little-endian):
///
///   offset  size  field
///   0       4     magic "PRDA"
///   4       4     format version (kFormatVersion)
///   8       4     endian tag: 0x01020304 written with *native* byte
///                 order, so a file produced on a foreign-endian host is
///                 detected instead of silently misread
///   12      1     blob kind (ArtifactKind value, or kNetworkBlobKind)
///   13      8     payload size P
///   21      P     payload
///   21+P    16    payload digest (support/Hash.h Digest128, Hi then Lo)
///
/// The digest trailer makes torn or bit-rotted files detectable: a
/// store entry whose payload does not re-hash to its trailer is
/// *corrupt*, and every consumer degrades to recomputation - never a
/// wrong answer. Reads are fully bounds-checked (ByteReader), so
/// truncated or garbage input yields a typed CodecError, not UB.
///
/// The payload encoding is fixed-width little-endian regardless of
/// host order; doubles travel as their IEEE-754 bit patterns, so every
/// value (NaN payloads and -0.0 included) round-trips bit-exactly -
/// the determinism contract of the artifact cache extends to disk.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_PERSIST_CODEC_H
#define PRDNN_PERSIST_CODEC_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace prdnn {
namespace persist {

/// Why a decode failed; None means success.
enum class CodecError : std::uint8_t {
  None,
  /// Fewer bytes than the format requires (cut-short file or field).
  Truncated,
  /// The magic bytes are not "PRDA" (not a store blob at all).
  BadMagic,
  /// A format version this build does not speak.
  BadVersion,
  /// Written on a host of the opposite endianness.
  ForeignEndian,
  /// Structurally present but invalid: digest mismatch, impossible
  /// sizes, unknown tags, or trailing garbage.
  Corrupt,
};

const char *toString(CodecError Error);

/// Current frame format version. Bump on any layout change, and on any
/// change to the kernel arithmetic (linalg/Kernels.h) - stored LP solutions
/// and repaired networks carry its bits. Readers reject other versions
/// with BadVersion (no silent migrations), so old store entries and old
/// peers degrade to recomputes.
inline constexpr std::uint32_t kFormatVersion = 11;

/// Fixed frame prologue: magic + version + endian tag + kind + payload
/// size. A stream consumer (rpc/Wire.h) reads exactly this many bytes,
/// peeks the declared payload size with peekFrame(), then reads the
/// payload + trailer - so a frame's length is known before any large
/// buffer is committed.
inline constexpr std::size_t kFrameHeaderSize = 4 + 4 + 4 + 1 + 8;
/// Digest128 trailer (Hi then Lo).
inline constexpr std::size_t kFrameTrailerSize = 16;

/// Appends little-endian primitives to a growing byte buffer.
class ByteWriter {
public:
  void u8(std::uint8_t V) { Buffer.push_back(V); }

  void u32(std::uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buffer.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }

  void u64(std::uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buffer.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }

  void i32(int V) { u32(static_cast<std::uint32_t>(V)); }
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }

  /// IEEE-754 bit pattern; -0.0 and NaN payloads round-trip exactly.
  void f64(double V) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  void doubles(const double *Data, std::size_t Count) {
    for (std::size_t I = 0; I < Count; ++I)
      f64(Data[I]);
  }

  /// u32 length prefix + raw bytes.
  void str(const std::string &S) {
    u32(static_cast<std::uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }

  void bytes(const void *Data, std::size_t Size) {
    const auto *P = static_cast<const std::uint8_t *>(Data);
    Buffer.insert(Buffer.end(), P, P + Size);
  }

  const std::vector<std::uint8_t> &buffer() const { return Buffer; }
  std::vector<std::uint8_t> take() { return std::move(Buffer); }

private:
  std::vector<std::uint8_t> Buffer;
};

/// Bounds-checked little-endian reader over a byte span. Every read
/// reports success; the first failure sticks (error()), subsequent
/// reads fail fast, so decode loops can check once at the end.
class ByteReader {
public:
  ByteReader(const std::uint8_t *Data, std::size_t Size)
      : Data(Data), Size(Size) {}

  bool ok() const { return Err == CodecError::None; }
  CodecError error() const { return Err; }
  std::size_t remaining() const { return Size - Pos; }

  /// Marks the stream failed with \p Error (for semantic validation
  /// failures the byte-level reads cannot see, e.g. impossible sizes).
  void fail(CodecError Error) {
    if (Err == CodecError::None)
      Err = Error;
  }

  bool u8(std::uint8_t &V) {
    if (!need(1))
      return false;
    V = Data[Pos++];
    return true;
  }

  bool u32(std::uint32_t &V) {
    if (!need(4))
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<std::uint32_t>(Data[Pos++]) << (8 * I);
    return true;
  }

  bool u64(std::uint64_t &V) {
    if (!need(8))
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<std::uint64_t>(Data[Pos++]) << (8 * I);
    return true;
  }

  bool i32(int &V) {
    std::uint32_t U;
    if (!u32(U))
      return false;
    V = static_cast<int>(U);
    return true;
  }

  bool i64(std::int64_t &V) {
    std::uint64_t U;
    if (!u64(U))
      return false;
    V = static_cast<std::int64_t>(U);
    return true;
  }

  bool f64(double &V) {
    std::uint64_t Bits;
    if (!u64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }

  bool doubles(double *Out, std::size_t Count) {
    if (!need(Count * 8))
      return false;
    for (std::size_t I = 0; I < Count; ++I)
      f64(Out[I]);
    return true;
  }

  bool str(std::string &S) {
    std::uint32_t Len;
    if (!u32(Len))
      return false;
    if (!need(Len))
      return false;
    S.assign(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return true;
  }

  bool bytes(void *Out, std::size_t Count) {
    if (!need(Count))
      return false;
    std::memcpy(Out, Data + Pos, Count);
    Pos += Count;
    return true;
  }

private:
  bool need(std::size_t Count) {
    if (Err != CodecError::None)
      return false;
    if (Count > Size - Pos) {
      Err = CodecError::Truncated;
      return false;
    }
    return true;
  }

  const std::uint8_t *Data;
  std::size_t Size;
  std::size_t Pos = 0;
  CodecError Err = CodecError::None;
};

/// Guards an element count against the bytes actually left in the
/// stream (every element is at least \p ElementBytes wide), so a
/// corrupted count fails with Corrupt before allocation instead of
/// after.
bool plausibleCount(ByteReader &R, std::uint64_t Count,
                    std::size_t ElementBytes);

/// u64 count + the doubles' bit patterns.
void writeDoubleSeq(ByteWriter &W, const std::vector<double> &Values);
bool readDoubleSeq(ByteReader &R, std::vector<double> &Values);

/// Wraps \p Payload in the header + digest-trailer frame described in
/// the file comment.
std::vector<std::uint8_t> frame(std::uint8_t BlobKind,
                                const std::vector<std::uint8_t> &Payload);

/// Validates the frame around \p Data and exposes its payload in place
/// (no copy). Checks magic, version, endianness, declared payload size
/// against the actual byte count, and the digest trailer.
struct FrameView {
  std::uint8_t BlobKind = 0;
  const std::uint8_t *Payload = nullptr;
  std::size_t PayloadSize = 0;
};

CodecError unframe(const std::uint8_t *Data, std::size_t Size,
                   FrameView &Out);

/// Decodes just the fixed prologue of a frame (exactly kFrameHeaderSize
/// bytes) without touching the payload: validates magic, version, and
/// endian tag, and reports the blob kind and declared payload size so a
/// stream reader knows how many more bytes to expect. The digest is NOT
/// checked here - run the full unframe() once payload + trailer arrive.
CodecError peekFrame(const std::uint8_t *Header, std::size_t Size,
                     std::uint8_t &BlobKind, std::uint64_t &PayloadSize);

} // namespace persist
} // namespace prdnn

#endif // PRDNN_PERSIST_CODEC_H
