// Tests of the network front door (net/): the frame decoder survives
// truncated, oversized, zero-length, and byte-fuzzed input (seeded and
// deterministic — the ASan CI job runs this suite to prove no malformed
// stream leaks or crashes); payload codecs are total; the poll(2) fallback
// behaves like epoll; and the server end-to-end honours its robustness
// contracts — malformed payloads answer without dropping the connection,
// framing violations reply-then-close, mid-flight disconnects orphan the
// reply exactly once, SIGTERM drains gracefully, the connection cap
// backpressures instead of churns, and slowloris/idle peers are evicted.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread.hpp"
#include "net/client.hpp"
#include "net/poller.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "serve/fleet.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace onesa::net {
namespace {

using tensor::Matrix;

// ------------------------------------------------------------ frame decoder

std::vector<unsigned char> ping_frame(std::uint64_t id) {
  std::vector<unsigned char> out;
  encode_frame(out, FrameType::kPing, id, nullptr, 0);
  return out;
}

TEST(FrameDecoder, RoundTripsFramesSplitAtEveryByteBoundary) {
  std::vector<unsigned char> stream;
  encode_frame(stream, FrameType::kPing, 1, nullptr, 0);
  const unsigned char payload[] = {0xde, 0xad, 0xbe, 0xef};
  encode_frame(stream, FrameType::kMetrics, 2, payload, sizeof(payload));
  encode_frame(stream, FrameType::kPong, 3, payload, 1);

  // Feed one byte at a time: every partial prefix must stay buffered, never
  // fail, and the exact same three frames must come out.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(decoder.feed(&stream[i], 1, frames)) << "byte " << i;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kPing);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].type, FrameType::kMetrics);
  EXPECT_EQ(frames[1].payload.size(), 4u);
  EXPECT_EQ(frames[2].request_id, 3u);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.failed());
}

TEST(FrameDecoder, TruncatedFrameStaysBufferedNotFailed) {
  const std::vector<unsigned char> frame = ping_frame(42);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.feed(frame.data(), frame.size() - 1, frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_GT(decoder.buffered(), 0u);  // mid-frame: the slowloris watchdog's cue
  ASSERT_TRUE(decoder.feed(frame.data() + frame.size() - 1, 1, frames));
  EXPECT_EQ(frames.size(), 1u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, FramingViolationsAreTerminal) {
  struct Case {
    const char* name;
    std::vector<unsigned char> bytes;
  };
  std::vector<Case> cases;
  {
    std::vector<unsigned char> bad = ping_frame(1);
    bad[0] = 'X';  // bad magic
    cases.push_back({"bad magic", bad});
  }
  {
    std::vector<unsigned char> bad = ping_frame(1);
    bad[5] = 0x01;  // nonzero flags
    cases.push_back({"nonzero flags", bad});
  }
  {
    std::vector<unsigned char> bad = ping_frame(1);
    bad[6] = 0x01;  // nonzero reserved
    cases.push_back({"nonzero reserved", bad});
  }
  {
    std::vector<unsigned char> bad = ping_frame(1);
    bad[4] = 0xE3;  // a reserved error code is an unknown frame type
    cases.push_back({"unknown frame type", bad});
  }
  {
    // Oversized claimed payload: must fail on the HEADER, before any
    // allocation of the claimed size.
    std::vector<unsigned char> bad = ping_frame(1);
    bad[16] = 0xff;
    bad[17] = 0xff;
    bad[18] = 0xff;
    bad[19] = 0x7f;
    cases.push_back({"oversized payload", bad});
  }

  for (const Case& c : cases) {
    FrameDecoder decoder;
    std::vector<Frame> frames;
    EXPECT_FALSE(decoder.feed(c.bytes.data(), c.bytes.size(), frames)) << c.name;
    EXPECT_TRUE(decoder.failed()) << c.name;
    EXPECT_FALSE(decoder.error().empty()) << c.name;
    // Terminal: a subsequent VALID frame is still rejected.
    const std::vector<unsigned char> good = ping_frame(2);
    EXPECT_FALSE(decoder.feed(good.data(), good.size(), frames)) << c.name;
    EXPECT_TRUE(frames.empty()) << c.name;
  }
}

TEST(FrameDecoder, ZeroLengthChunksAndEmptyPayloadsAreFine) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_TRUE(decoder.feed(nullptr, 0, frames));
  const std::vector<unsigned char> frame = ping_frame(7);
  EXPECT_TRUE(decoder.feed(frame.data(), frame.size(), frames));
  EXPECT_TRUE(decoder.feed(nullptr, 0, frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].payload.empty());
}

TEST(FrameDecoder, ByteFuzzedStreamsNeverCrashDeterministic) {
  // Seeded fuzz in three flavours, fed in random-sized chunks. The decoder
  // must never crash/overflow (ASan job) and must either keep parsing or
  // fail terminally — this asserts invariants, not specific outcomes.
  Rng rng(0xF422);
  for (int round = 0; round < 200; ++round) {
    std::vector<unsigned char> stream;
    const int flavour = round % 3;
    if (flavour == 0) {
      // Pure garbage.
      const std::size_t len = static_cast<std::size_t>(rng.integer(0, 512));
      for (std::size_t i = 0; i < len; ++i)
        stream.push_back(static_cast<unsigned char>(rng.integer(0, 255)));
    } else if (flavour == 1) {
      // Valid frames with a few flipped bytes.
      for (int f = 0; f < 4; ++f) {
        std::vector<unsigned char> payload(
            static_cast<std::size_t>(rng.integer(0, 64)));
        for (auto& b : payload) b = static_cast<unsigned char>(rng.integer(0, 255));
        encode_frame(stream, FrameType::kPing,
                     static_cast<std::uint64_t>(rng.integer(0, 1 << 30)),
                     payload.data(), payload.size());
      }
      const int flips = static_cast<int>(rng.integer(1, 4));
      for (int i = 0; i < flips && !stream.empty(); ++i) {
        stream[static_cast<std::size_t>(
            rng.integer(0, static_cast<std::int64_t>(stream.size()) - 1))] ^=
            static_cast<unsigned char>(1 << rng.integer(0, 7));
      }
    } else {
      // Valid frames truncated mid-frame.
      encode_frame(stream, FrameType::kInfer, 9, nullptr, 0);
      std::vector<unsigned char> payload(
          static_cast<std::size_t>(rng.integer(1, 256)));
      encode_frame(stream, FrameType::kInfer, 10, payload.data(), payload.size());
      stream.resize(static_cast<std::size_t>(
          rng.integer(1, static_cast<std::int64_t>(stream.size()))));
    }

    FrameDecoder decoder;
    std::vector<Frame> frames;
    std::size_t off = 0;
    bool ok = true;
    while (off < stream.size() && ok) {
      const std::size_t chunk = std::min<std::size_t>(
          static_cast<std::size_t>(rng.integer(1, 64)), stream.size() - off);
      ok = decoder.feed(stream.data() + off, chunk, frames);
      off += chunk;
    }
    // Invariants: a failed decoder reports why and stays failed; a live one
    // never yields a frame larger than the bound.
    if (!ok) {
      EXPECT_TRUE(decoder.failed());
      EXPECT_FALSE(decoder.error().empty());
    }
    for (const Frame& f : frames) {
      EXPECT_LE(f.payload.size(), decoder.max_frame_bytes());
    }
  }
}

// ---------------------------------------------------------------- payloads

TEST(Protocol, InferPayloadRoundTripsAndValidatesTotally) {
  Rng rng(11);
  InferRequest req;
  req.model = "mlp";
  req.priority = serve::Priority::kInteractive;
  req.deadline_ms = 12.5;
  req.input = tensor::random_uniform(3, 5, rng);

  std::vector<unsigned char> frame_bytes;
  encode_infer(frame_bytes, 77, req);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.feed(frame_bytes.data(), frame_bytes.size(), frames));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kInfer);

  InferRequest got;
  std::string why;
  ASSERT_TRUE(
      decode_infer(frames[0].payload.data(), frames[0].payload.size(), got, why))
      << why;
  EXPECT_EQ(got.model, "mlp");
  EXPECT_EQ(got.priority, serve::Priority::kInteractive);
  EXPECT_DOUBLE_EQ(got.deadline_ms, 12.5);
  EXPECT_EQ(got.input, req.input);

  // Total validation: every truncation of the payload is rejected with a
  // reason, never a crash or an over-read.
  const std::vector<unsigned char>& payload = frames[0].payload;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    InferRequest trunc;
    std::string reason;
    EXPECT_FALSE(decode_infer(payload.data(), len, trunc, reason)) << "len " << len;
    EXPECT_FALSE(reason.empty()) << "len " << len;
  }
  // Corrupt dimension claims are caught before any allocation.
  std::vector<unsigned char> huge = payload;
  huge[12] = 0xff;  // rows LE byte 0 (offset: 1+1+2+8 = 12)
  huge[13] = 0xff;
  huge[14] = 0xff;
  huge[15] = 0xff;
  InferRequest bad;
  std::string reason;
  EXPECT_FALSE(decode_infer(huge.data(), huge.size(), bad, reason));
}

TEST(Protocol, ErrorPayloadRoundTripsContext) {
  WireError err;
  err.queue_depth = 42;
  err.backlog_cost = 9000;
  err.shard = 3;
  err.worker = WireError::kNoIndex;
  err.model = "mlp";
  err.model_version = 7;
  err.message = "shed by admission control";

  std::vector<unsigned char> frame_bytes;
  encode_error(frame_bytes, FrameType::kErrOverload, 5, err);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.feed(frame_bytes.data(), frame_bytes.size(), frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(is_error_type(frames[0].type));

  WireError got;
  std::string why;
  ASSERT_TRUE(
      decode_error(frames[0].payload.data(), frames[0].payload.size(), got, why))
      << why;
  EXPECT_EQ(got.queue_depth, 42u);
  EXPECT_EQ(got.backlog_cost, 9000u);
  EXPECT_EQ(got.shard, 3u);
  EXPECT_EQ(got.worker, WireError::kNoIndex);
  EXPECT_EQ(got.model, "mlp");
  EXPECT_EQ(got.model_version, 7u);
  EXPECT_EQ(got.message, "shed by admission control");
}

TEST(Protocol, EncodersEmitTheGoldenWireBytes) {
  // The wire format byte for byte, field by field (all integers and doubles
  // little-endian). Each encoder appends to whatever `out` already holds.
  using Bytes = std::vector<unsigned char>;
  const auto cat = [](std::initializer_list<Bytes> parts) {
    Bytes all;
    for (const Bytes& p : parts) all.insert(all.end(), p.begin(), p.end());
    return all;
  };

  InferRequest req;
  req.model = "ffn";
  req.priority = serve::Priority::kBulk;
  req.deadline_ms = 2.5;
  req.input = tensor::Matrix(2, 2);
  req.input.at_flat(0) = 1.0;
  req.input.at_flat(1) = -0.5;
  req.input.at_flat(2) = 3.0e-300;
  req.input.at_flat(3) = -0.0;
  Bytes out = {0xAA};
  encode_infer(out, 0x0102030405060708ull, req);
  EXPECT_EQ(out, cat({{0xAA},                                            // already there
                      {'O', 'S', 'A', '1', 0x02, 0x00, 0x00, 0x00},     // magic, kInfer
                      {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01},  // request id
                      {0x37, 0x00, 0x00, 0x00},                          // payload: 55 B
                      {0x02, 0x00, 0x03, 0x00},                  // kBulk, pad, name len 3
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40},  // deadline 2.5
                      {0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00},  // 2 x 2
                      {'f', 'f', 'n'},
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F},  // 1.0
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0xBF},  // -0.5
                      {0x83, 0xB6, 0x3A, 0xD2, 0x97, 0x12, 0xC0, 0x01},  // 3e-300
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}}));  // -0.0

  InferReply reply;
  reply.logits = tensor::Matrix(1, 3);
  reply.logits.at_flat(0) = 0.25;
  reply.logits.at_flat(1) = -1e10;
  reply.logits.at_flat(2) = 7.0;
  reply.queue_ms = 1.5;
  reply.service_ms = 0.125;
  reply.shard = 3;
  reply.batch_requests = 258;
  reply.deadline_missed = true;
  out = {0xBB};
  encode_infer_reply(out, 42, reply);
  EXPECT_EQ(out, cat({{0xBB},
                      {'O', 'S', 'A', '1', 0x82, 0x00, 0x00, 0x00},     // magic, kInferOk
                      {0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // request id 42
                      {0x3C, 0x00, 0x00, 0x00},                          // payload: 60 B
                      {0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00},  // 1 x 3
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F},  // queue 1.5
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F},  // service 0.125
                      {0x03, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00},  // shard 3, batch 258
                      {0x01, 0x00, 0x00, 0x00},                          // missed, pad
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F},  // 0.25
                      {0x00, 0x00, 0x00, 0x20, 0x5F, 0xA0, 0x02, 0xC2},  // -1e10
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1C, 0x40}}));  // 7.0

  WireError err;
  err.queue_depth = 7;
  err.backlog_cost = std::uint64_t{1} << 40;
  err.shard = 1;
  err.model_version = 9;
  err.model = "m";
  err.message = "no";
  out.clear();
  encode_error(out, FrameType::kErrOverload, 5, err);
  EXPECT_EQ(out, cat({{'O', 'S', 'A', '1', 0xE1, 0x00, 0x00, 0x00},     // magic, kErrOverload
                      {0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // request id 5
                      {0x2F, 0x00, 0x00, 0x00},                          // payload: 47 B
                      {0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // queue depth
                      {0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00},  // backlog 2^40
                      {0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // shard 1
                      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},  // worker: none
                      {0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // version 9
                      {0x01, 0x00, 0x02, 0x00, 'm', 'n', 'o'}}));  // name/message lens, bytes
}

// ------------------------------------------------------------------ poller

TEST(Poller, PollFallbackReportsReadinessLikeEpoll) {
  for (const auto backend : {Poller::Backend::kDefault, Poller::Backend::kPoll}) {
    Poller poller(backend);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    poller.add(fds[0], /*want_read=*/true, /*want_write=*/false);

    std::vector<Poller::Event> events;
    EXPECT_EQ(poller.wait(events, 0), 0u);  // nothing ready yet

    const char byte = 1;
    ASSERT_EQ(::write(fds[1], &byte, 1), 1);
    ASSERT_EQ(poller.wait(events, 1000), 1u);
    EXPECT_EQ(events[0].fd, fds[0]);
    EXPECT_TRUE(events[0].readable);

    // Peer close surfaces as readable and/or hangup (read returns EOF).
    char sink;
    ASSERT_EQ(::read(fds[0], &sink, 1), 1);
    ::close(fds[1]);
    ASSERT_GE(poller.wait(events, 1000), 1u);
    EXPECT_TRUE(events[0].readable || events[0].hangup);

    poller.remove(fds[0]);
    ::close(fds[0]);
  }
}

// ---------------------------------------------------------- server fixture

std::unique_ptr<nn::Sequential> tiny_mlp(Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(4, 8, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::Linear>(8, 3, rng));
  return model;
}

struct TestStack {
  serve::Fleet fleet;
  NetServer server;
  serve::ModelHandle handle;

  explicit TestStack(NetServerConfig net_cfg, serve::FleetConfig fleet_cfg,
                     serve::ModelOptions model_opts = {})
      : fleet(std::move(fleet_cfg)), server(fleet, std::move(net_cfg)) {
    Rng rng(4242);
    handle = fleet.register_model("mlp", tiny_mlp(rng), model_opts);
    server.start();
  }
};

serve::FleetConfig tiny_fleet(std::size_t shards = 1, std::size_t workers = 1) {
  serve::FleetConfig cfg;
  cfg.shards = shards;
  cfg.workers_per_shard = workers;
  return cfg;
}

InferRequest make_infer(Rng& rng, std::size_t rows = 2,
                        serve::Priority priority = serve::Priority::kNormal) {
  InferRequest req;
  req.model = "mlp";
  req.priority = priority;
  req.input = tensor::random_uniform(rows, 4, rng);
  return req;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ------------------------------------------------------------ server tests

TEST(NetServer, PingInferMetricsRoundTripOnBothBackends) {
  for (const bool force_poll : {false, true}) {
    NetServerConfig net_cfg;
    net_cfg.force_poll_backend = force_poll;
    TestStack stack(net_cfg, tiny_fleet(2, 2));
    Rng rng(19);

    BlockingClient client;
    client.connect("127.0.0.1", stack.server.port());

    auto pong = client.ping(101);
    ASSERT_TRUE(pong.has_value()) << "poll=" << force_poll;
    EXPECT_EQ(pong->type, FrameType::kPong);
    EXPECT_EQ(pong->request_id, 101u);

    // Infer round trip: the wire reply's logits are bit-exact against a
    // direct in-process infer on the same registered version.
    const InferRequest req = make_infer(rng, 3);
    auto reply = client.infer(102, req);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kInferOk) << frame_type_name(reply->type);
    InferReply decoded;
    std::string why;
    ASSERT_TRUE(decode_infer_reply(reply->payload.data(), reply->payload.size(),
                                   decoded, why))
        << why;
    EXPECT_EQ(decoded.logits, stack.handle->infer(req.input));
    EXPECT_LT(decoded.shard, stack.fleet.shards());

    // Metrics over the binary dialect.
    auto metrics = client.metrics(103);
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->type, FrameType::kMetricsText);
    const std::string text(metrics->payload.begin(), metrics->payload.end());
    EXPECT_NE(text.find("net_frames_total"), std::string::npos);

    client.close();
    stack.server.stop();
    const NetServerCounters counters = stack.server.counters();
    EXPECT_EQ(counters.connections_accepted, 1u);
    EXPECT_EQ(counters.frames_received, 3u);
    EXPECT_EQ(counters.infers_accepted, 1u);
    EXPECT_EQ(counters.protocol_errors, 0u);
    EXPECT_EQ(counters.double_settles, 0u);
  }
}

TEST(NetServer, MalformedPayloadAnswersAndKeepsConnection) {
  TestStack stack({}, tiny_fleet());

  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());

  // Well-framed kInfer whose payload is garbage: the stream stays in sync,
  // so the server answers kErrProtocol and keeps the connection.
  const unsigned char junk[] = {0x01, 0x02, 0x03};
  std::vector<unsigned char> out;
  encode_frame(out, FrameType::kInfer, 201, junk, sizeof(junk));
  client.send_raw(out);
  auto reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kErrProtocol);
  EXPECT_EQ(reply->request_id, 201u);
  WireError err;
  std::string why;
  ASSERT_TRUE(decode_error(reply->payload.data(), reply->payload.size(), err, why));
  EXPECT_FALSE(err.message.empty());

  // The SAME connection still serves.
  auto pong = client.ping(202);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, FrameType::kPong);

  // A client sending a server-side frame type is a payload-level offence
  // too: answered, connection kept.
  out.clear();
  encode_frame(out, FrameType::kInferOk, 203, nullptr, 0);
  client.send_raw(out);
  reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kErrProtocol);
  pong = client.ping(204);
  ASSERT_TRUE(pong.has_value());

  stack.server.stop();
  EXPECT_EQ(stack.server.counters().protocol_errors, 2u);
  EXPECT_EQ(stack.server.counters().connections_accepted, 1u);
}

TEST(NetServer, FramingViolationRepliesThenCloses) {
  TestStack stack({}, tiny_fleet());

  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  const unsigned char garbage[] = "this is not a frame at all.............";
  client.send_raw(garbage, sizeof(garbage));

  auto reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kErrProtocol);
  WireError err;
  std::string why;
  ASSERT_TRUE(decode_error(reply->payload.data(), reply->payload.size(), err, why));
  EXPECT_FALSE(err.message.empty());
  // ...then EOF: a desynced stream cannot be resumed.
  EXPECT_FALSE(client.recv_frame().has_value());

  stack.server.stop();
  EXPECT_GE(stack.server.counters().protocol_errors, 1u);
}

TEST(NetServer, UnknownModelAnswersModelError) {
  TestStack stack({}, tiny_fleet());
  Rng rng(5);

  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  InferRequest req = make_infer(rng);
  req.model = "no-such-model";
  auto reply = client.infer(301, req);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kErrModel);
  WireError err;
  std::string why;
  ASSERT_TRUE(decode_error(reply->payload.data(), reply->payload.size(), err, why));
  EXPECT_EQ(err.model, "no-such-model");
  stack.server.stop();
}

TEST(NetServer, OverloadReplyCarriesQueueDepthContext) {
  // One slow shard (bulk batches wait out a 100 ms window) + a tiny
  // admission cap: a pipelined burst MUST shed, and every shed reply is a
  // structured kErrOverload, not a dropped connection.
  serve::FleetConfig fleet_cfg = tiny_fleet(1, 1);
  fleet_cfg.admission.max_pending_requests = 2;
  serve::ModelOptions opts;
  opts.batchable = true;
  opts.batch_window_ms = 100.0;
  TestStack stack({}, fleet_cfg, opts);
  Rng rng(23);

  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/10000.0);
  constexpr int kBurst = 48;
  for (int i = 0; i < kBurst; ++i) {
    client.send_infer(400 + static_cast<std::uint64_t>(i),
                      make_infer(rng, 1, serve::Priority::kBulk));
  }
  int ok = 0, overloaded = 0;
  WireError sample;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = client.recv_frame();
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    if (reply->type == FrameType::kInferOk) {
      ++ok;
    } else {
      ASSERT_EQ(reply->type, FrameType::kErrOverload) << frame_type_name(reply->type);
      std::string why;
      ASSERT_TRUE(
          decode_error(reply->payload.data(), reply->payload.size(), sample, why));
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(overloaded, 0);
  // The "429 with depth": the shed carries the admission-time queue state.
  EXPECT_FALSE(sample.message.empty());
  EXPECT_LE(sample.queue_depth, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(sample.model, "mlp");

  stack.server.stop();
  const NetServerCounters counters = stack.server.counters();
  EXPECT_EQ(counters.overload_replies, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(counters.double_settles, 0u);
}

TEST(NetServer, MidFlightDisconnectOrphansReplyExactlyOnce) {
  // Park a request in a 150 ms batching window, then vanish. The fleet
  // future must settle exactly once and the reply must be dropped cleanly.
  serve::ModelOptions opts;
  opts.batchable = true;
  opts.batch_window_ms = 150.0;
  TestStack stack({}, tiny_fleet(), opts);
  Rng rng(29);

  {
    BlockingClient client;
    client.connect("127.0.0.1", stack.server.port());
    client.send_infer(500, make_infer(rng, 1, serve::Priority::kBulk));
    ASSERT_TRUE(wait_until([&] { return stack.server.inflight() == 1; }));
  }  // destructor closes the socket with the request still in flight

  ASSERT_TRUE(wait_until([&] {
    return stack.server.counters().orphaned_replies >= 1;
  })) << "orphaned=" << stack.server.counters().orphaned_replies;
  EXPECT_EQ(stack.server.inflight(), 0u);
  stack.server.stop();
  const NetServerCounters counters = stack.server.counters();
  EXPECT_EQ(counters.orphaned_replies, 1u);
  EXPECT_EQ(counters.replies_sent, 0u);
  EXPECT_EQ(counters.double_settles, 0u);
}

TEST(NetServer, GracefulDrainFinishesInFlightAndRejectsNew) {
  serve::ModelOptions opts;
  opts.batchable = true;
  opts.batch_window_ms = 200.0;
  TestStack stack({}, tiny_fleet(), opts);
  Rng rng(31);

  BlockingClient parked;
  parked.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/10000.0);
  BlockingClient late;
  late.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/10000.0);

  const InferRequest req = make_infer(rng, 1, serve::Priority::kBulk);
  parked.send_infer(600, req);
  ASSERT_TRUE(wait_until([&] { return stack.server.inflight() == 1; }));

  stack.server.initiate_drain();
  // A new infer on an ALREADY-OPEN connection during the drain is answered
  // kErrDraining — not silently dropped, not accepted.
  late.send_infer(601, make_infer(rng));
  auto rejected = late.recv_frame();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->type, FrameType::kErrDraining);

  // The parked request still completes and its reply is flushed before the
  // drain finishes.
  auto reply = parked.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kInferOk);

  ASSERT_TRUE(stack.server.wait_drained(10000.0));
  EXPECT_FALSE(stack.server.running());
  EXPECT_GT(stack.server.drain_ms(), 0.0);
  const NetServerCounters counters = stack.server.counters();
  EXPECT_EQ(counters.draining_rejects, 1u);
  EXPECT_EQ(counters.orphaned_replies, 0u);
  EXPECT_EQ(counters.double_settles, 0u);
  stack.server.stop();
}

TEST(NetServer, SigtermDrainsWithKernelPoolStartedBeforeTheMask) {
  // Kernel pool workers started while the caller still takes SIGTERM must
  // not take the process-directed signal either: library threads block the
  // drain signals from birth. Four lanes (three live workers) on any core
  // count, and the caller's mask is opened first so test order cannot hide
  // a worker that inherited it.
  const sigset_t drain = drain_signals();
  ASSERT_EQ(pthread_sigmask(SIG_UNBLOCK, &drain, nullptr), 0);
  tensor::kernels::ThreadPool pool(4);
  std::atomic<int> parts{0};
  pool.run(4, [&](std::size_t) { parts.fetch_add(1); });
  ASSERT_EQ(parts.load(), 4);

  NetServer::block_drain_signals();
  TestStack stack({}, tiny_fleet());
  stack.server.install_signal_drain();
  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  ASSERT_TRUE(client.ping(710).has_value());

  ASSERT_EQ(kill(getpid(), SIGTERM), 0);
  ASSERT_TRUE(stack.server.wait_drained(10000.0));
  EXPECT_FALSE(stack.server.running());
  stack.server.stop();
}

TEST(NetServer, SigtermTriggersGracefulDrain) {
  // Process-directed SIGTERM (what an orchestrator sends) lands on the
  // sigtimedwait watcher — every other thread keeps it blocked.
  NetServer::block_drain_signals();
  TestStack stack({}, tiny_fleet());
  stack.server.install_signal_drain();

  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  ASSERT_TRUE(client.ping(700).has_value());

  ASSERT_EQ(kill(getpid(), SIGTERM), 0);
  ASSERT_TRUE(stack.server.wait_drained(10000.0));
  EXPECT_FALSE(stack.server.running());
  stack.server.stop();
}

TEST(NetServer, ConnectionCapBackpressuresInsteadOfChurning) {
  NetServerConfig net_cfg;
  net_cfg.max_connections = 2;
  TestStack stack(net_cfg, tiny_fleet());

  BlockingClient a, b;
  a.connect("127.0.0.1", stack.server.port());
  b.connect("127.0.0.1", stack.server.port());
  ASSERT_TRUE(a.ping(801).has_value());
  ASSERT_TRUE(b.ping(802).has_value());

  // Third connection: connect() succeeds (kernel backlog) but the server
  // does not accept it — a short-timeout ping gets no reply...
  BlockingClient c;
  c.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/300.0);
  std::vector<unsigned char> ping_bytes;
  encode_frame(ping_bytes, FrameType::kPing, 803, nullptr, 0);
  c.send_raw(ping_bytes);
  EXPECT_FALSE(c.recv_frame().has_value());

  // ...until a slot frees, at which point the queued connection is accepted
  // and its already-sent bytes are served. Nothing was dropped.
  a.close();
  auto pong = c.recv_frame();
  if (!pong.has_value()) pong = c.recv_frame();  // one extra timeout of slack
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, FrameType::kPong);
  EXPECT_EQ(pong->request_id, 803u);

  stack.server.stop();
  const NetServerCounters counters = stack.server.counters();
  EXPECT_GE(counters.accept_pauses, 1u);
  EXPECT_EQ(counters.connections_accepted, 3u);
}

TEST(NetServer, SlowlorisAndIdleClientsAreEvicted) {
  NetServerConfig net_cfg;
  net_cfg.frame_timeout_ms = 100.0;
  net_cfg.idle_timeout_ms = 400.0;
  TestStack stack(net_cfg, tiny_fleet());

  // Slowloris: hold a partial frame open past frame_timeout_ms.
  BlockingClient slow;
  slow.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/3000.0);
  const std::vector<unsigned char> frame = ping_frame(901);
  slow.send_raw(frame.data(), 8);  // header fragment, never completed
  EXPECT_FALSE(slow.recv_frame().has_value());  // EOF: evicted
  ASSERT_TRUE(wait_until(
      [&] { return stack.server.counters().slow_client_evictions >= 1; }));

  // Idle: a connection with no traffic and nothing in flight closes after
  // idle_timeout_ms.
  BlockingClient idle;
  idle.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/3000.0);
  ASSERT_TRUE(idle.ping(902).has_value());
  EXPECT_FALSE(idle.recv_frame().has_value());  // EOF after the idle timeout
  ASSERT_TRUE(
      wait_until([&] { return stack.server.counters().idle_evictions >= 1; }));

  stack.server.stop();
}

TEST(NetServer, HttpGetMetricsOnTheSamePort) {
  TestStack stack({}, tiny_fleet());

  // Prime one counter so the scrape has content.
  BlockingClient binary;
  binary.connect("127.0.0.1", stack.server.port());
  ASSERT_TRUE(binary.ping(1001).has_value());

  BlockingClient http;
  http.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/3000.0);
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  http.send_raw(reinterpret_cast<const unsigned char*>(get.data()), get.size());
  const std::string response = http.read_until_eof();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("net_connections_accepted_total"), std::string::npos);

  BlockingClient bad;
  bad.connect("127.0.0.1", stack.server.port(), /*recv_timeout_ms=*/3000.0);
  const std::string nope = "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n";
  bad.send_raw(reinterpret_cast<const unsigned char*>(nope.data()), nope.size());
  EXPECT_NE(bad.read_until_eof().find("404"), std::string::npos);

  stack.server.stop();
}

TEST(NetServer, WarmCompletionPostFromTheWorkerAllocatesNothing) {
  // Every reply reaches the event loop through the completion bus, posted
  // on the fleet worker's thread. drain_bus swaps the bus's vector against
  // one it keeps and clears, so once both have held an item a post reuses
  // their capacity. Requests go one at a time, so each batch posts once.
  // The worker's ServeStats still append one latency per request
  // (unbounded, an open item of their own): 40 warm-up requests leave those
  // vectors at capacity 64, and the 16 measured ones stay below it.
  TestStack stack({}, tiny_fleet());
  Rng rng(37);
  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  const InferRequest req = make_infer(rng, 2);
  std::uint64_t id = 1200;
  const auto serve = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto reply = client.infer(++id, req);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, FrameType::kInferOk) << frame_type_name(reply->type);
    }
  };
  // The worker publishes its count after each batch, just after the post:
  // read it once it has stopped moving.
  const auto settled_allocs = [&] {
    std::uint64_t prev = stack.fleet.shard(0).worker_heap_allocations();
    for (int i = 0; i < 100; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::uint64_t cur = stack.fleet.shard(0).worker_heap_allocations();
      if (cur == prev) break;
      prev = cur;
    }
    return prev;
  };
  serve(40);
  const std::uint64_t warm = settled_allocs();
  serve(16);
  EXPECT_EQ(settled_allocs() - warm, 0u) << "worker allocations across 16 warm requests";
  client.close();
  stack.server.stop();
}

TEST(NetServer, StopIsIdempotentAndRestartUnsupportedCleanly) {
  TestStack stack({}, tiny_fleet());
  BlockingClient client;
  client.connect("127.0.0.1", stack.server.port());
  ASSERT_TRUE(client.ping(1101).has_value());
  stack.server.stop();
  EXPECT_NO_THROW(stack.server.stop());
  EXPECT_FALSE(stack.server.running());
  // The fleet was shut down by the drain contract; its shutdown is
  // idempotent too.
  EXPECT_NO_THROW(stack.fleet.shutdown());
}

}  // namespace
}  // namespace onesa::net
