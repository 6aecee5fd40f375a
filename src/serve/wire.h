#ifndef HIGNN_SERVE_WIRE_H_
#define HIGNN_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief The scoring server's wire protocol: little-endian,
/// length-prefixed frames over TCP.
///
///   frame    := u32 payload_length, payload bytes
///   request  := u8 verb, verb-specific body
///   response := u8 status, body (scores / recommendations / JSON) on
///               kOk, else u32-prefixed error message
///
/// Verb bodies:
///   kScore  request  u32 n, then n x (i32 user, i32 item)
///           response u32 n, then n x f32 probability (request order)
///   kTopK   request  i32 user, i32 k [, i32 beam]
///           response u32 n, then n x (i32 item, f32 score), ranked
///
///           `beam` is an optional trailing field (the only versioned
///           spot in the protocol): 8-byte bodies from older clients
///           parse as beam 0. 0 = use the server's configured beam
///           (--topk-beam); < 0 = exact linear scan (bitwise identical
///           to the pre-index protocol); > 0 = beam-search descent of
///           the store's cluster-tree index with that width.
///   kHealth request  empty; response u8 1, u32 store generation
///   kStats  request  empty; response u32-prefixed JSON string
///   kReload request  u32-prefixed store path ("" = re-open the path the
///                    current generation was loaded from)
///           response u32 new store generation. A reload that fails
///                    validation answers kInternal and the previous
///                    generation keeps serving untouched.
///   kMetrics   request  empty
///              response u32-prefixed Prometheus text exposition of the
///                       daemon's MetricsRegistry (DESIGN.md §17)
///   kTraceDump request  empty
///              response u32-prefixed JSONL dump of the daemon's
///                       structured event log (obs::EventLog)
///
/// Request-ID tag (DESIGN.md §17): any request body may carry an optional
/// trailing `u8 kRequestIdTag, u64 id` (9 bytes). Servers that predate
/// the tag ignore trailing bytes, so new clients interop with old
/// daemons; old clients simply omit it and parse as "untraced"
/// (request_id 0) — the same compat scheme as kTopK's trailing beam.
/// When a kScore/kTopK request carried a tag, the kOk response appends a
/// trailing trace: `u8 kRequestIdTag, u64 id, 8 x i64 phase stamps`
/// (73 bytes; stamps in obs::kStamps order, obs/request_phases.h; -1 =
/// phase not reached; reply_flushed is -1 on the wire because the reply
/// is not yet flushed while being built). Old clients stop after the
/// scores and never see the trailer.
///
/// Floats travel as their IEEE-754 bit pattern in a u32, so a score is
/// bit-exact across the wire — the parity tests compare for equality,
/// not approximate closeness.
enum class WireVerb : uint8_t {
  kScore = 1,
  kTopK = 2,
  kHealth = 3,
  kStats = 4,
  kReload = 5,
  kMetrics = 6,
  kTraceDump = 7,
};

/// \brief Tag byte introducing the optional request-ID trailer. Chosen
/// printable ('R') so a hex dump of a tagged frame reads naturally.
inline constexpr uint8_t kRequestIdTag = 0x52;

/// \brief Response status on the wire.
enum class WireStatus : uint8_t {
  kOk = 0,
  kBadRequest = 1,   ///< malformed frame or invalid ids — caller's fault
  kOverloaded = 2,   ///< shed by the micro-batcher; retry with backoff
  kInternal = 3,     ///< server-side failure
};

/// \brief Upper bound on a frame payload; a length prefix above this is
/// treated as a protocol violation, not an allocation request.
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB

/// \brief Append-only payload builder (all little-endian).
class WireWriter {
 public:
  void PutU8(uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutF32(float value);
  /// \brief u32 length prefix + raw bytes.
  void PutString(const std::string& value);

  const std::vector<char>& bytes() const { return bytes_; }

 private:
  std::vector<char> bytes_;
};

/// \brief Bounds-checked payload parser; every read fails with
/// InvalidArgument on truncation instead of reading past the frame.
class WireReader {
 public:
  WireReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<char>& payload)
      : WireReader(payload.data(), payload.size()) {}

  Result<uint8_t> TakeU8();
  Result<uint32_t> TakeU32();
  Result<uint64_t> TakeU64();
  Result<int32_t> TakeI32();
  Result<int64_t> TakeI64();
  Result<float> TakeF32();
  Result<std::string> TakeString();

  bool AtEnd() const { return pos_ == size_; }
  /// \brief Unconsumed bytes — how parsers discriminate the optional
  /// trailing fields (kTopK beam, request-ID tag) by length.
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Consumes the optional trailing request-ID tag: returns 0 when
/// the reader is at end (an untraced legacy frame), the tagged ID when
/// exactly `u8 kRequestIdTag, u64 id` remains, and InvalidArgument for
/// anything else (wrong tag byte or a malformed trailer length).
Result<uint64_t> TakeOptionalRequestId(WireReader& reader);

/// \brief Writes one length-prefixed frame to a connected socket,
/// looping over partial sends. Peer resets (ECONNRESET / EPIPE / a send
/// that stops making progress after the peer closed) are Unavailable —
/// transient transport failures a retry policy may reconnect through;
/// every other socket failure is IOError.
Status SendFrame(int fd, const std::vector<char>& payload);

/// \brief Reads one length-prefixed frame. Distinguishes the interesting
/// failures: clean EOF before any byte (NotFound — the peer closed),
/// receive timeout (FailedPrecondition), peer reset / mid-frame EOF
/// (Unavailable — the transport died under the frame, retryable on a
/// fresh connection), and everything else (IOError). A length prefix
/// above `max_bytes` is an IOError — a protocol violation, never
/// retryable.
Result<std::vector<char>> RecvFrame(int fd,
                                    uint32_t max_bytes = kMaxFrameBytes);

/// \brief True when the status came from RecvFrame hitting the socket
/// receive timeout (SO_RCVTIMEO) rather than a real error.
bool IsRecvTimeout(const Status& status);

/// \brief True when RecvFrame saw a clean close before any frame byte.
bool IsRecvClosed(const Status& status);

/// \brief Retry taxonomy: true for failures a client may safely retry on
/// a fresh connection — peer resets (Unavailable), clean closes between
/// frames (NotFound), and receive timeouts. Protocol violations
/// (IOError) and server-reported request errors are excluded: retrying
/// those repeats a bug, not a transient.
bool IsRetryableTransport(const Status& status);

}  // namespace hignn

#endif  // HIGNN_SERVE_WIRE_H_
