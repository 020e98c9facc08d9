//===- rpc/Wire.h - network wire protocol of the repair fleet --*- C++ -*-===//
///
/// \file
/// The byte-level protocol rpc/RpcServer.h and rpc/RpcClient.h speak
/// over TCP: every message is one persist/Codec.h frame (magic "PRDA" +
/// format version + endian tag + kind byte + length-prefixed payload +
/// Digest128 trailer), so the network path inherits the artifact
/// store's framing discipline verbatim - a torn, bit-rotted, or
/// foreign message is a typed RpcError, never UB and never a partially
/// admitted job. Message kinds live at 0x50+ to stay disjoint from the
/// store's ArtifactKind bytes and kNetworkBlobKind (0x40), so a frame
/// can never be mistaken for the wrong consumer's payload.
///
/// The exchanges (client sends the request kind, server answers with
/// the reply kind; one outstanding exchange per connection):
///
///   Submit(ServeRequest)     -> SubmitReply{ServeReject, JobId}
///   Await{JobId, Deadline}   -> ReportReply{Found, RepairReport}
///                               or ErrorReply{Timeout} (job unharmed;
///                               re-await later)
///   Progress{JobId}          -> ProgressReply{Found, ProgressSnapshot}
///   Status{}                 -> StatusReply{ServiceStats}
///   Cancel{JobId}            -> CancelReply{Found}
///   Metrics{}                -> MetricsReply{obs::MetricsSnapshot}
///                               (empty snapshot when the service runs
///                               without telemetry)
///
/// plus two server-initiated frames: ConnectionReject{ServeReject},
/// sent (then the socket closed) when the accepted-connection bound is
/// hit - the same typed-reject vocabulary as admission - and
/// ErrorReply{RpcError}, answering any malformed or unserviceable
/// request.
///
/// Determinism contract: the payload serializers are bit-exact -
/// doubles travel as IEEE-754 bit patterns via persist::ByteWriter, so
/// a RepairReport decoded from the wire compares bit-for-bit equal
/// (Delta bits, norms, repaired-network parameters) to the in-process
/// report it was encoded from. Enforced by tests/rpc_test.cpp and by
/// perfbench's served-repeats workload. See src/rpc/README.md for the
/// exact byte layout of every message.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_RPC_WIRE_H
#define PRDNN_RPC_WIRE_H

#include "persist/Serialize.h"
#include "serve/RepairService.h"

#include <cstdint>
#include <vector>

namespace prdnn {
namespace rpc {

/// Why a wire operation failed; None means success. The frame-level
/// values mirror persist::CodecError; the transport-level values cover
/// what a socket adds on top of a file.
enum class RpcError : std::uint8_t {
  None,
  /// The peer's frame ended early (cut connection mid-frame, or a
  /// declared payload longer than what arrived).
  Truncated,
  /// The first bytes are not "PRDA": the peer is not speaking this
  /// protocol (stream desynchronized; the connection is closed).
  BadMagic,
  /// A frame format version this build does not speak.
  BadVersion,
  /// Structurally present but invalid: digest mismatch, malformed
  /// payload, out-of-range enum, foreign endianness.
  Corrupt,
  /// The frame declares a payload larger than the negotiated bound
  /// (WireLimits::MaxFrameBytes) - rejected before buffering it.
  Oversized,
  /// A well-formed frame whose kind byte names no known message.
  BadKind,
  /// The request's deadline expired (Await past DeadlineMillis, or a
  /// socket receive timeout).
  Timeout,
  /// The peer closed the connection (orderly EOF between frames).
  Closed,
  /// An OS-level socket failure (send/recv/connect errno).
  IoError,
};

const char *toString(RpcError Error);

/// Maps a persist codec failure onto the wire vocabulary
/// (ForeignEndian folds into Corrupt: a foreign-endian *network* peer
/// is simply not speaking this build's protocol).
RpcError fromCodecError(persist::CodecError Error);

/// Frame kind bytes; disjoint from ArtifactKind and kNetworkBlobKind.
enum class MessageKind : std::uint8_t {
  Submit = 0x50,
  SubmitReply = 0x51,
  Await = 0x52,
  ReportReply = 0x53,
  Progress = 0x54,
  ProgressReply = 0x55,
  Status = 0x56,
  StatusReply = 0x57,
  Cancel = 0x58,
  CancelReply = 0x59,
  ErrorReply = 0x5A,
  ConnectionReject = 0x5B,
  Metrics = 0x5C,
  MetricsReply = 0x5D,
};

/// Bounds a receiver enforces before buffering a frame.
struct WireLimits {
  /// Largest payload a peer may declare; a frame above it is rejected
  /// as Oversized without allocating. Generous enough for a repaired
  /// network plus its full sweep log.
  std::size_t MaxFrameBytes = std::size_t(256) << 20;
};

// --- Message payload structs (the non-obvious ones) -------------------------

/// SubmitReply payload: the service's typed admission decision plus
/// the engine job id to Await/Progress/Cancel by (0 when rejected).
struct SubmitReply {
  serve::ServeReject Reject = serve::ServeReject::None;
  std::uint64_t JobId = 0;

  bool accepted() const { return Reject == serve::ServeReject::None; }
};

/// Await payload: which job, and how long the server may block before
/// answering ErrorReply{Timeout}. 0 millis = the server's default
/// deadline (RpcServerOptions::DefaultAwaitSeconds).
struct AwaitRequest {
  std::uint64_t JobId = 0;
  std::uint64_t DeadlineMillis = 0;
};

/// ErrorReply payload: the typed failure plus a human-readable detail
/// line (diagnostic only - programs branch on Error).
struct ErrorReply {
  RpcError Error = RpcError::None;
  std::string Detail;
};

// --- Payload serializers ----------------------------------------------------
//
// Each writeX appends X's payload encoding to a ByteWriter; each readX
// decodes one X, returning false on malformed input with the reader
// failed (R.error() says why - out-of-range enums and impossible
// counts fail as Corrupt). All multi-byte integers little-endian; all
// doubles IEEE-754 bit patterns (persist::ByteWriter), so every value
// round-trips bit-exactly.

void writeServeRequest(persist::ByteWriter &W,
                       const serve::ServeRequest &Request);
bool readServeRequest(persist::ByteReader &R, serve::ServeRequest &Request);

void writeRepairReport(persist::ByteWriter &W, const RepairReport &Report);
bool readRepairReport(persist::ByteReader &R, RepairReport &Report);

void writeProgressSnapshot(persist::ByteWriter &W,
                           const ProgressSnapshot &Snapshot);
bool readProgressSnapshot(persist::ByteReader &R,
                          ProgressSnapshot &Snapshot);

void writeServiceStats(persist::ByteWriter &W,
                       const serve::ServiceStats &Stats);
bool readServiceStats(persist::ByteReader &R, serve::ServiceStats &Stats);

void writeMetricsSnapshot(persist::ByteWriter &W,
                          const obs::MetricsSnapshot &Snapshot);
bool readMetricsSnapshot(persist::ByteReader &R,
                         obs::MetricsSnapshot &Snapshot);

// --- Frame transport over a connected socket --------------------------------

/// Wraps \p Payload in a persist::frame of \p Kind and writes it to
/// \p Fd with SIGPIPE suppressed (MSG_NOSIGNAL): a peer that vanished
/// mid-write surfaces as Closed/IoError, never a process signal.
/// \p BytesSent, when non-null, is incremented by the framed size on
/// success (the benches' bytes-on-the-wire counter).
RpcError sendFrame(int Fd, MessageKind Kind,
                   const std::vector<std::uint8_t> &Payload,
                   std::uint64_t *BytesSent = nullptr);

/// Reads exactly one frame from \p Fd: the fixed header first
/// (persist::peekFrame validates magic/version/endianness and yields
/// the declared payload size), then - after the Oversized check
/// against \p Limits - the payload and digest trailer, re-validated
/// end-to-end with persist::unframe. Orderly EOF *between* frames is
/// Closed; EOF *inside* a frame is Truncated; a socket receive
/// timeout (SO_RCVTIMEO) is Timeout. On success \p Kind and \p Payload
/// hold the message; \p BytesReceived, when non-null, is incremented
/// by the framed size.
RpcError recvFrame(int Fd, std::uint8_t &Kind,
                   std::vector<std::uint8_t> &Payload,
                   const WireLimits &Limits,
                   std::uint64_t *BytesReceived = nullptr);

} // namespace rpc
} // namespace prdnn

#endif // PRDNN_RPC_WIRE_H
