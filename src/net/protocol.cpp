#include "net/protocol.hpp"

#include <bit>
#include <cstring>

namespace onesa::net {

namespace {

// Little-endian scalar stores/loads. Byte-by-byte so the wire format is
// identical on any host; the compiler folds these to single moves on
// little-endian machines anyway. Each store writes into a buffer the
// encoder sized once and returns the position after the field.

unsigned char* store_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v & 0xFF);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xFF);
  return p + 2;
}

unsigned char* store_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  return p + 4;
}

unsigned char* store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  return p + 8;
}

unsigned char* store_f64(unsigned char* p, double v) {
  return store_u64(p, std::bit_cast<std::uint64_t>(v));
}

unsigned char* store_bytes(unsigned char* p, const void* src, std::size_t len) {
  if (len > 0) std::memcpy(p, src, len);
  return p + len;
}

/// Row-major doubles; on a little-endian host the wire bytes are the
/// matrix's own bytes.
unsigned char* store_matrix(unsigned char* p, const tensor::Matrix& m) {
  if constexpr (std::endian::native == std::endian::little)
    return store_bytes(p, m.data().data(), m.size() * sizeof(double));
  for (std::size_t i = 0; i < m.size(); ++i) p = store_f64(p, m.at_flat(i));
  return p;
}

/// Grow `out` once by a whole frame, write the header and return where the
/// `payload_len`-byte payload goes.
unsigned char* begin_frame(std::vector<unsigned char>& out, FrameType type,
                           std::uint64_t request_id, std::size_t payload_len) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + payload_len);
  unsigned char* p = store_bytes(out.data() + at, kMagic, 4);
  *p++ = static_cast<unsigned char>(type);
  *p++ = 0;              // flags
  p = store_u16(p, 0);   // reserved
  p = store_u64(p, request_id);
  return store_u32(p, static_cast<std::uint32_t>(payload_len));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

double get_f64(const unsigned char* p) { return std::bit_cast<double>(get_u64(p)); }

/// Matrix dimensions a peer may claim. Far above anything the serving tier
/// accepts per request, far below anything that could overflow or OOM when
/// multiplied — the product is validated against the actual payload length
/// before any allocation.
constexpr std::uint32_t kMaxWireDim = 1u << 20;

bool valid_dims(std::uint32_t rows, std::uint32_t cols, std::string& error) {
  if (rows == 0 || cols == 0) {
    error = "zero-sized matrix";
    return false;
  }
  if (rows > kMaxWireDim || cols > kMaxWireDim) {
    error = "matrix dimension exceeds wire limit";
    return false;
  }
  return true;
}

}  // namespace

std::string_view frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kPing: return "ping";
    case FrameType::kInfer: return "infer";
    case FrameType::kMetrics: return "metrics";
    case FrameType::kPong: return "pong";
    case FrameType::kInferOk: return "infer_ok";
    case FrameType::kMetricsText: return "metrics_text";
    case FrameType::kErrProtocol: return "err_protocol";
    case FrameType::kErrOverload: return "err_overload";
    case FrameType::kErrModel: return "err_model";
    case FrameType::kErrDraining: return "err_draining";
    case FrameType::kErrInternal: return "err_internal";
  }
  return "unknown";
}

bool is_error_type(FrameType type) {
  return static_cast<std::uint8_t>(type) >= 0xE0;
}

namespace {

bool known_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kPing:
    case FrameType::kInfer:
    case FrameType::kMetrics:
    case FrameType::kPong:
    case FrameType::kInferOk:
    case FrameType::kMetricsText:
    case FrameType::kErrProtocol:
    case FrameType::kErrOverload:
    case FrameType::kErrModel:
    case FrameType::kErrDraining:
    case FrameType::kErrInternal:
      return true;
  }
  return false;
}

}  // namespace

void encode_frame(std::vector<unsigned char>& out, FrameType type,
                  std::uint64_t request_id, const unsigned char* payload,
                  std::size_t payload_len) {
  store_bytes(begin_frame(out, type, request_id, payload_len), payload, payload_len);
}

// ----------------------------------------------------------------- infer

void encode_infer(std::vector<unsigned char>& out, std::uint64_t request_id,
                  const InferRequest& req) {
  unsigned char* p = begin_frame(out, FrameType::kInfer, request_id,
                                 20 + req.model.size() + req.input.size() * 8);
  *p++ = static_cast<unsigned char>(req.priority);
  *p++ = 0;
  p = store_u16(p, static_cast<std::uint16_t>(req.model.size()));
  p = store_f64(p, req.deadline_ms);
  p = store_u32(p, static_cast<std::uint32_t>(req.input.rows()));
  p = store_u32(p, static_cast<std::uint32_t>(req.input.cols()));
  p = store_bytes(p, req.model.data(), req.model.size());
  store_matrix(p, req.input);
}

bool decode_infer(const unsigned char* payload, std::size_t len, InferRequest& out,
                  std::string& error) {
  constexpr std::size_t kPrelude = 1 + 1 + 2 + 8 + 4 + 4;
  if (len < kPrelude) {
    error = "infer payload shorter than its fixed prelude";
    return false;
  }
  const std::uint8_t priority = payload[0];
  if (priority > static_cast<std::uint8_t>(serve::Priority::kBulk)) {
    error = "unknown priority class";
    return false;
  }
  const std::uint16_t name_len = get_u16(payload + 2);
  const double deadline_ms = get_f64(payload + 4);
  const std::uint32_t rows = get_u32(payload + 12);
  const std::uint32_t cols = get_u32(payload + 16);
  if (!valid_dims(rows, cols, error)) return false;
  if (name_len == 0) {
    error = "empty model name";
    return false;
  }
  const std::uint64_t want = kPrelude + name_len +
                             static_cast<std::uint64_t>(rows) * cols * 8;
  if (want != len) {
    error = "infer payload length does not match its declared shape";
    return false;
  }
  if (!(deadline_ms >= 0.0) || deadline_ms > 1e9) {  // NaN fails the >= too
    error = "deadline_ms out of range";
    return false;
  }
  out.priority = static_cast<serve::Priority>(priority);
  out.deadline_ms = deadline_ms;
  out.model.assign(reinterpret_cast<const char*>(payload + kPrelude), name_len);
  const unsigned char* data = payload + kPrelude + name_len;
  out.input = tensor::Matrix(rows, cols, tensor::kUninitialized);
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows) * cols; ++i)
    out.input.at_flat(i) = get_f64(data + i * 8);
  return true;
}

void encode_infer_reply(std::vector<unsigned char>& out, std::uint64_t request_id,
                        const InferReply& reply) {
  unsigned char* p = begin_frame(out, FrameType::kInferOk, request_id,
                                 36 + reply.logits.size() * 8);
  p = store_u32(p, static_cast<std::uint32_t>(reply.logits.rows()));
  p = store_u32(p, static_cast<std::uint32_t>(reply.logits.cols()));
  p = store_f64(p, reply.queue_ms);
  p = store_f64(p, reply.service_ms);
  p = store_u32(p, reply.shard);
  p = store_u32(p, reply.batch_requests);
  *p++ = reply.deadline_missed ? 1 : 0;
  *p++ = 0;
  p = store_u16(p, 0);
  store_matrix(p, reply.logits);
}

bool decode_infer_reply(const unsigned char* payload, std::size_t len,
                        InferReply& out, std::string& error) {
  constexpr std::size_t kPrelude = 4 + 4 + 8 + 8 + 4 + 4 + 4;
  if (len < kPrelude) {
    error = "infer reply shorter than its fixed prelude";
    return false;
  }
  const std::uint32_t rows = get_u32(payload);
  const std::uint32_t cols = get_u32(payload + 4);
  if (!valid_dims(rows, cols, error)) return false;
  if (kPrelude + static_cast<std::uint64_t>(rows) * cols * 8 != len) {
    error = "infer reply length does not match its declared shape";
    return false;
  }
  out.queue_ms = get_f64(payload + 8);
  out.service_ms = get_f64(payload + 16);
  out.shard = get_u32(payload + 24);
  out.batch_requests = get_u32(payload + 28);
  out.deadline_missed = payload[32] != 0;
  const unsigned char* data = payload + kPrelude;
  out.logits = tensor::Matrix(rows, cols, tensor::kUninitialized);
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows) * cols; ++i)
    out.logits.at_flat(i) = get_f64(data + i * 8);
  return true;
}

// ----------------------------------------------------------------- errors

void encode_error(std::vector<unsigned char>& out, FrameType code,
                  std::uint64_t request_id, const WireError& err) {
  unsigned char* p = begin_frame(out, code, request_id,
                                 44 + err.model.size() + err.message.size());
  p = store_u64(p, err.queue_depth);
  p = store_u64(p, err.backlog_cost);
  p = store_u64(p, err.shard);
  p = store_u64(p, err.worker);
  p = store_u64(p, err.model_version);
  p = store_u16(p, static_cast<std::uint16_t>(err.model.size()));
  p = store_u16(p, static_cast<std::uint16_t>(err.message.size()));
  p = store_bytes(p, err.model.data(), err.model.size());
  store_bytes(p, err.message.data(), err.message.size());
}

bool decode_error(const unsigned char* payload, std::size_t len, WireError& out,
                  std::string& error) {
  constexpr std::size_t kPrelude = 5 * 8 + 2 + 2;
  if (len < kPrelude) {
    error = "error payload shorter than its fixed prelude";
    return false;
  }
  const std::uint16_t model_len = get_u16(payload + 40);
  const std::uint16_t message_len = get_u16(payload + 42);
  if (kPrelude + model_len + static_cast<std::size_t>(message_len) != len) {
    error = "error payload length does not match its declared strings";
    return false;
  }
  out.queue_depth = get_u64(payload);
  out.backlog_cost = get_u64(payload + 8);
  out.shard = get_u64(payload + 16);
  out.worker = get_u64(payload + 24);
  out.model_version = get_u64(payload + 32);
  out.model.assign(reinterpret_cast<const char*>(payload + kPrelude), model_len);
  out.message.assign(reinterpret_cast<const char*>(payload + kPrelude + model_len),
                     message_len);
  return true;
}

// ---------------------------------------------------------------- decoder

bool FrameDecoder::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  buffer_.clear();
  buffer_.shrink_to_fit();
  return false;
}

bool FrameDecoder::feed(const unsigned char* data, std::size_t len,
                        std::vector<Frame>& out) {
  if (failed_) return false;
  buffer_.insert(buffer_.end(), data, data + len);

  std::size_t pos = 0;
  while (buffer_.size() - pos >= kHeaderBytes) {
    const unsigned char* h = buffer_.data() + pos;
    if (std::memcmp(h, kMagic, 4) != 0) return fail("bad frame magic");
    const std::uint8_t type = h[4];
    if (!known_type(type)) return fail("unknown frame type");
    if (h[5] != 0 || h[6] != 0 || h[7] != 0)
      return fail("nonzero flags/reserved bits (unsupported protocol revision)");
    const std::uint64_t request_id = get_u64(h + 8);
    const std::uint32_t payload_len = get_u32(h + 16);
    // Validate the CLAIMED length before buffering towards it: an attacker
    // announcing a 4 GiB payload is rejected here, with zero bytes allocated
    // on their behalf.
    if (payload_len > max_frame_bytes_) return fail("frame payload exceeds limit");
    if (buffer_.size() - pos - kHeaderBytes < payload_len) break;  // incomplete
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.request_id = request_id;
    frame.payload.assign(h + kHeaderBytes, h + kHeaderBytes + payload_len);
    out.push_back(std::move(frame));
    pos += kHeaderBytes + payload_len;
  }
  if (pos > 0) buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(pos));
  return true;
}

}  // namespace onesa::net
