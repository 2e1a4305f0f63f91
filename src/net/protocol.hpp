// Wire protocol of the network front door: a compact length-prefixed binary
// framing over TCP, designed so a hostile or broken peer can never crash the
// server — every frame is bounded, every parse is total (no assumption about
// the peer survives past a validation), and every malformed input has a
// deterministic answer (a kErrProtocol reply, never an aborted process).
//
// FRAME LAYOUT (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "OSA1"
//   4       1     type (FrameType)
//   5       1     flags (must be 0 in v1)
//   6       2     reserved (must be 0)
//   8       8     request id (client-chosen, echoed verbatim in the reply)
//   16      4     payload length N (bounded by the decoder's max_frame_bytes)
//   20      N     payload
//
// REQUEST TYPES              REPLY TYPES
//   kPing     (empty)          kPong        (empty)
//   kInfer    (InferRequest)   kInferOk     (InferReply)
//   kMetrics  (empty)          kMetricsText (Prometheus text)
//
// ERROR REPLIES. Every error frame carries the same structured payload
// (WireError) mapping serve::ErrorContext onto the wire: queue depth and
// backlog cost at the moment of rejection (the "429 with depth"), the
// shard/worker that failed, the model+version, and a human-readable message.
// The frame TYPE is the error code:
//
//   0xE0 kErrProtocol — malformed frame or payload (the peer's fault)
//   0xE1 kErrOverload — admission control shed (serve::OverloadError)
//   0xE2 kErrModel    — unknown model or worker-side model failure (ModelError)
//   0xE3              — reserved: older peers read it as a fleet timeout
//   0xE4              — reserved: older peers read it as an injected fault
//   0xE5 kErrDraining — server is draining; request not accepted
//   0xE6 kErrInternal — anything else (still structured, never a hangup)
//
// A reserved code is an unknown frame type: the decoder rejects it as a
// framing violation, like any other value outside the enum.
//
// The FrameDecoder is the robustness kernel: it consumes an arbitrary byte
// stream incrementally (partial frames across any number of reads), yields
// complete frames, and flags a framing violation (bad magic, nonzero
// flags/reserved, oversized payload) as a terminal protocol error — after
// which the connection's stream position is unknowable and the server must
// reply-and-close. Payload-level validation (decode_* helpers) is separate:
// a bad payload inside a well-framed message leaves the stream in sync, so
// the server replies kErrProtocol and keeps the connection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "tensor/matrix.hpp"

namespace onesa::net {

inline constexpr unsigned char kMagic[4] = {'O', 'S', 'A', '1'};
inline constexpr std::size_t kHeaderBytes = 20;
/// Default bound on one frame's payload. A peer claiming more is a protocol
/// error before any allocation happens — length is validated, then trusted.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

enum class FrameType : std::uint8_t {
  // requests
  kPing = 0x01,
  kInfer = 0x02,
  kMetrics = 0x03,
  // replies
  kPong = 0x81,
  kInferOk = 0x82,
  kMetricsText = 0x83,
  // structured error replies (payload: WireError)
  kErrProtocol = 0xE0,
  kErrOverload = 0xE1,
  kErrModel = 0xE2,
  // 0xE3 and 0xE4 are reserved (see the table above).
  kErrDraining = 0xE5,
  kErrInternal = 0xE6,
};

std::string_view frame_type_name(FrameType type);
bool is_error_type(FrameType type);

/// One complete, validated-at-the-framing-level message.
struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t request_id = 0;
  std::vector<unsigned char> payload;
};

/// Append a complete frame (header + payload) to `out`.
void encode_frame(std::vector<unsigned char>& out, FrameType type,
                  std::uint64_t request_id, const unsigned char* payload,
                  std::size_t payload_len);

// --------------------------------------------------------------- payloads

/// kInfer payload: u8 priority, u8 reserved, u16 model-name length,
/// f64 deadline_ms, u32 rows, u32 cols, name bytes, rows*cols f64 (row-major).
struct InferRequest {
  std::string model;
  serve::Priority priority = serve::Priority::kNormal;
  double deadline_ms = 0.0;
  tensor::Matrix input;
};

void encode_infer(std::vector<unsigned char>& out, std::uint64_t request_id,
                  const InferRequest& req);
/// Total validation: every length is checked against `len` before any read;
/// returns false (with a reason in `error`) instead of ever trusting the peer.
bool decode_infer(const unsigned char* payload, std::size_t len,
                  InferRequest& out, std::string& error);

/// kInferOk payload: u32 rows, u32 cols, f64 queue_ms, f64 service_ms,
/// u32 shard, u32 batch_requests, u8 deadline_missed, u8[3] pad, data f64s.
struct InferReply {
  tensor::Matrix logits;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::uint32_t shard = 0;
  std::uint32_t batch_requests = 1;
  bool deadline_missed = false;
};

void encode_infer_reply(std::vector<unsigned char>& out, std::uint64_t request_id,
                        const InferReply& reply);
bool decode_infer_reply(const unsigned char* payload, std::size_t len,
                        InferReply& out, std::string& error);

/// Error payload shared by every kErr* frame: serve::ErrorContext on the
/// wire. kNoIndex mirrors ErrorContext::kNone for shard/worker.
struct WireError {
  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

  std::uint64_t queue_depth = 0;
  std::uint64_t backlog_cost = 0;
  std::uint64_t shard = kNoIndex;
  std::uint64_t worker = kNoIndex;
  std::uint64_t model_version = 0;
  std::string model;
  std::string message;
};

void encode_error(std::vector<unsigned char>& out, FrameType code,
                  std::uint64_t request_id, const WireError& err);
bool decode_error(const unsigned char* payload, std::size_t len, WireError& out,
                  std::string& error);

// ---------------------------------------------------------------- decoder

/// Incremental frame extractor over an untrusted byte stream. feed() accepts
/// any number of bytes (a single byte at a time is fine) and appends every
/// complete frame to `out`. A framing violation is terminal: failed() stays
/// true, further bytes are ignored, and error() says why — the caller
/// replies kErrProtocol and closes, because a desynced stream cannot be
/// re-synced safely.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Returns false when the stream is (or already was) in protocol error.
  bool feed(const unsigned char* data, std::size_t len, std::vector<Frame>& out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Bytes buffered towards the next (incomplete) frame — nonzero means the
  /// peer is mid-frame, which the server's slow-client watchdog times.
  std::size_t buffered() const { return buffer_.size(); }
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  bool fail(std::string reason);

  std::size_t max_frame_bytes_;
  std::vector<unsigned char> buffer_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace onesa::net
