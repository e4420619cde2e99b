// Cluster wire protocol: frame header validation, payload round-trips,
// truncation sweeps over every decoder (PR-8 hardening style), hostile
// declared lengths, and rendezvous-placement properties.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/wire.h"
#include "tests/test_util.h"

namespace sssj {
namespace cluster {
namespace {

using sssj::testing::UnitVec;

ResultPair MakePair(VectorId a, VectorId b) {
  ResultPair pair;
  pair.a = a;
  pair.b = b;
  pair.ta = 1.25;
  pair.tb = 2.5;
  pair.dot = 0.875;
  pair.sim = 0.8125;
  return pair;
}

// ---- frame header ----

TEST(FrameHeaderTest, RoundTrips) {
  std::string frame;
  EncodeFrame(FrameType::kPush, "abc", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 3);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()),
                                kFrameHeaderSize, &header, &error))
      << error;
  EXPECT_EQ(header.type, FrameType::kPush);
  EXPECT_EQ(header.payload_len, 3u);
}

TEST(FrameHeaderTest, RefusesTruncationAtEveryByte) {
  std::string frame;
  EncodeFrame(FrameType::kFlush, "payload", &frame);
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    FrameHeader header;
    std::string error;
    EXPECT_FALSE(DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), len, &header, &error))
        << "accepted a " << len << "-byte header";
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrameHeaderTest, RefusesUnknownTypeAndOversizedLength) {
  uint8_t bytes[kFrameHeaderSize] = {0, 0, 0, 0, 0};
  FrameHeader header;
  std::string error;
  // Type 0 and type 200 are outside the enum.
  EXPECT_FALSE(DecodeFrameHeader(bytes, sizeof(bytes), &header, &error));
  bytes[4] = 200;
  EXPECT_FALSE(DecodeFrameHeader(bytes, sizeof(bytes), &header, &error));
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);
  // A declared length past the cap must be refused before any allocation.
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(bytes, &huge, sizeof(huge));
  bytes[4] = static_cast<uint8_t>(FrameType::kPush);
  EXPECT_FALSE(DecodeFrameHeader(bytes, sizeof(bytes), &header, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

// ---- payload round-trips ----

TEST(WirePayloadTest, HelloRoundTrips) {
  HelloPayload in;
  std::string payload = EncodeHello(in);
  HelloPayload out;
  out.magic = 0;
  out.version = 0;
  ASSERT_TRUE(DecodeHello(payload, &out).ok());
  EXPECT_EQ(out.magic, kWireMagic);
  EXPECT_EQ(out.version, kWireVersion);
}

TEST(WirePayloadTest, CreateSessionRoundTrips) {
  CreateSessionRequest in;
  in.name = "news-feed";
  in.config.framework = Framework::kMiniBatch;
  in.config.index = IndexScheme::kL2ap;
  in.config.theta = 0.65;
  in.config.lambda = 0.125;
  in.config.normalize_inputs = false;
  CreateSessionRequest out;
  ASSERT_TRUE(DecodeCreateSession(EncodeCreateSession(in), &out).ok());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.config.framework, in.config.framework);
  EXPECT_EQ(out.config.index, in.config.index);
  EXPECT_EQ(out.config.theta, in.config.theta);
  EXPECT_EQ(out.config.lambda, in.config.lambda);
  EXPECT_EQ(out.config.normalize_inputs, in.config.normalize_inputs);
}

// The framework and scheme bytes are a wire contract: MB/STR are 0/1 and
// INV, AP, L2AP, L2 are 0..3, so peers of different builds agree.
TEST(WirePayloadTest, EveryCombinationRoundTripsWithItsPinnedBytes) {
  const struct {
    Framework framework;
    uint8_t byte;
  } kFrameworks[] = {{Framework::kMiniBatch, 0}, {Framework::kStreaming, 1}};
  const struct {
    IndexScheme scheme;
    uint8_t byte;
  } kSchemes[] = {{IndexScheme::kInv, 0},
                  {IndexScheme::kAp, 1},
                  {IndexScheme::kL2ap, 2},
                  {IndexScheme::kL2, 3}};
  for (const auto& fw : kFrameworks) {
    for (const auto& ix : kSchemes) {
      CreateSessionRequest in;
      in.name = "s";
      in.config.framework = fw.framework;
      in.config.index = ix.scheme;
      const std::string payload = EncodeCreateSession(in);
      // framework and scheme sit after name(4+1).
      ASSERT_GT(payload.size(), 6u);
      EXPECT_EQ(static_cast<uint8_t>(payload[5]), fw.byte);
      EXPECT_EQ(static_cast<uint8_t>(payload[6]), ix.byte);
      CreateSessionRequest out;
      ASSERT_TRUE(DecodeCreateSession(payload, &out).ok());
      EXPECT_EQ(out.config.framework, fw.framework);
      EXPECT_EQ(out.config.index, ix.scheme);
    }
  }
}

TEST(WirePayloadTest, PushRoundTripsBitExactly) {
  PushRequest in;
  in.name = "s";
  in.ts = 3.141592653589793;
  in.vec = UnitVec({{2, 0.3}, {7, 1.1}, {9, 0.25}});
  PushRequest out;
  ASSERT_TRUE(DecodePush(EncodePush(in), &out).ok());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(std::memcmp(&out.ts, &in.ts, sizeof(double)), 0);
  ASSERT_EQ(out.vec.nnz(), in.vec.nnz());
  for (size_t i = 0; i < in.vec.nnz(); ++i) {
    EXPECT_EQ(out.vec.coords()[i].dim, in.vec.coords()[i].dim);
    // Bitwise, not approximate: the cluster equivalence pins hang on it.
    EXPECT_EQ(std::memcmp(&out.vec.coords()[i].value,
                          &in.vec.coords()[i].value, sizeof(double)),
              0);
  }
}

TEST(WirePayloadTest, PushBatchRoundTrips) {
  PushBatchRequest in;
  in.name = "batchy";
  in.items.push_back({0, 0.5, UnitVec({{1, 1.0}})});
  in.items.push_back({0, 1.5, UnitVec({{1, 1.0}, {4, 2.0}})});
  PushBatchRequest out;
  ASSERT_TRUE(DecodePushBatch(EncodePushBatch(in), &out).ok());
  ASSERT_EQ(out.items.size(), 2u);
  EXPECT_EQ(out.items[0].ts, 0.5);
  EXPECT_EQ(out.items[1].vec.nnz(), 2u);
}

TEST(WirePayloadTest, RestoreCarriesOpaqueBlobVerbatim) {
  RestoreRequest in;
  in.name = "migrated";
  // Arbitrary bytes, including NUL and high bits — the protocol must not
  // look inside checkpoint blobs.
  in.checkpoint = std::string("SSSJENG3\x00\xff\x80 raw bytes", 21);
  RestoreRequest out;
  ASSERT_TRUE(DecodeRestore(EncodeRestore(in), &out).ok());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.checkpoint, in.checkpoint);
}

TEST(WirePayloadTest, ReplyRoundTrips) {
  Reply in;
  in.status = Status::ResourceExhausted("over budget");
  in.accepted = 41;
  in.rejects.push_back({3, Status::InvalidArgument("empty vector")});
  in.rejects.push_back({17, Status::OutOfRange("time went backwards")});
  in.pairs.push_back(MakePair(1, 2));
  in.pairs.push_back(MakePair(9, 4));
  in.blob = std::string("\x01\x02\x00\x03", 4);
  Reply out;
  ASSERT_TRUE(DecodeReply(EncodeReply(in), &out).ok());
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.status.message(), "over budget");
  EXPECT_EQ(out.accepted, 41u);
  ASSERT_EQ(out.rejects.size(), 2u);
  EXPECT_EQ(out.rejects[0].index, 3u);
  EXPECT_EQ(out.rejects[1].status.code(), StatusCode::kOutOfRange);
  ASSERT_EQ(out.pairs.size(), 2u);
  EXPECT_EQ(out.pairs[1].a, 9u);
  EXPECT_EQ(out.pairs[0].sim, 0.8125);
  EXPECT_EQ(out.blob, in.blob);
}

TEST(WirePayloadTest, SessionStatsRoundTrips) {
  SessionWireStats in;
  in.vectors_processed = 123;
  in.pairs_emitted = 456;
  in.memory_bytes = 789;
  SessionWireStats out;
  ASSERT_TRUE(DecodeSessionStats(EncodeSessionStats(in), &out).ok());
  EXPECT_EQ(out.vectors_processed, 123u);
  EXPECT_EQ(out.pairs_emitted, 456u);
  EXPECT_EQ(out.memory_bytes, 789u);
}

// ---- truncation sweeps: every proper prefix of every valid payload
// must be refused with kDataLoss, never crash or mis-accept ----

void ExpectEveryPrefixRefused(const std::string& payload, const char* what) {
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    CreateSessionRequest create;
    PushRequest push;
    PushBatchRequest batch;
    NameRequest name;
    RestoreRequest restore;
    Reply reply;
    HelloPayload hello;
    SessionWireStats stats;
    // Run the prefix through every decoder — the right one must refuse
    // it, and no other may crash on it.
    (void)DecodeHello(prefix, &hello);
    (void)DecodeCreateSession(prefix, &create);
    (void)DecodePush(prefix, &push);
    (void)DecodePushBatch(prefix, &batch);
    (void)DecodeName(prefix, &name);
    (void)DecodeRestore(prefix, &restore);
    (void)DecodeReply(prefix, &reply);
    (void)DecodeSessionStats(prefix, &stats);
    SCOPED_TRACE(std::string(what) + " truncated to " + std::to_string(len));
  }
}

TEST(WireTruncationTest, EveryDecoderRefusesEveryTruncation) {
  CreateSessionRequest create;
  create.name = "session-name";
  const std::string create_payload = EncodeCreateSession(create);
  for (size_t len = 0; len < create_payload.size(); ++len) {
    CreateSessionRequest out;
    EXPECT_FALSE(DecodeCreateSession(create_payload.substr(0, len), &out).ok())
        << "accepted a " << len << "-byte kCreateSession prefix";
  }

  PushRequest push;
  push.name = "s";
  push.ts = 1.0;
  push.vec = UnitVec({{1, 1.0}, {5, 0.5}});
  const std::string push_payload = EncodePush(push);
  for (size_t len = 0; len < push_payload.size(); ++len) {
    PushRequest out;
    EXPECT_FALSE(DecodePush(push_payload.substr(0, len), &out).ok())
        << "accepted a " << len << "-byte kPush prefix";
  }

  Reply reply;
  reply.accepted = 1;
  reply.pairs.push_back(MakePair(1, 2));
  reply.blob = "blob";
  const std::string reply_payload = EncodeReply(reply);
  for (size_t len = 0; len < reply_payload.size(); ++len) {
    Reply out;
    EXPECT_FALSE(DecodeReply(reply_payload.substr(0, len), &out).ok())
        << "accepted a " << len << "-byte kReply prefix";
  }

  RestoreRequest restore;
  restore.name = "n";
  restore.checkpoint = "SSSJENG3 fake bytes";
  const std::string restore_payload = EncodeRestore(restore);
  for (size_t len = 0; len < restore_payload.size(); ++len) {
    RestoreRequest out;
    EXPECT_FALSE(DecodeRestore(restore_payload.substr(0, len), &out).ok())
        << "accepted a " << len << "-byte kRestore prefix";
  }

  // And the cross-decoder sweep for crash-freedom.
  ExpectEveryPrefixRefused(push_payload, "kPush");
  ExpectEveryPrefixRefused(reply_payload, "kReply");
}

TEST(WireTruncationTest, TrailingGarbageIsRefused) {
  NameRequest name;
  name.name = "tail";
  std::string payload = EncodeName(name);
  payload.push_back('\x00');
  NameRequest out;
  EXPECT_EQ(DecodeName(payload, &out).code(), StatusCode::kDataLoss);
}

// ---- hostile declared lengths ----

TEST(WireHostileTest, OversizedDeclaredStringIsRefusedBeforeAllocation) {
  WireWriter w;
  w.PutU32(kMaxWireString + 1);  // declared length, no bytes behind it
  NameRequest out;
  EXPECT_FALSE(DecodeName(w.Take(), &out).ok());
}

TEST(WireHostileTest, OversizedDeclaredNnzIsRefusedBeforeAllocation) {
  WireWriter w;
  w.PutString("s");
  w.PutF64(1.0);
  w.PutU32(kMaxWireNnz + 1);
  PushRequest out;
  EXPECT_FALSE(DecodePush(w.Take(), &out).ok());
}

TEST(WireHostileTest, VectorDomainViolationsAreRefused) {
  // Unsorted dims.
  {
    WireWriter w;
    w.PutString("s");
    w.PutF64(1.0);
    w.PutU32(2);
    w.PutU32(7);
    w.PutF64(0.5);
    w.PutU32(3);  // 3 < 7: out of order
    w.PutF64(0.5);
    PushRequest out;
    EXPECT_FALSE(DecodePush(w.Take(), &out).ok());
  }
  // Non-finite value.
  {
    WireWriter w;
    w.PutString("s");
    w.PutF64(1.0);
    w.PutU32(1);
    w.PutU32(1);
    w.PutF64(std::numeric_limits<double>::infinity());
    PushRequest out;
    EXPECT_FALSE(DecodePush(w.Take(), &out).ok());
  }
  // Non-positive value.
  {
    WireWriter w;
    w.PutString("s");
    w.PutF64(1.0);
    w.PutU32(1);
    w.PutU32(1);
    w.PutF64(-0.25);
    PushRequest out;
    EXPECT_FALSE(DecodePush(w.Take(), &out).ok());
  }
}

TEST(WireHostileTest, AutoSchemeIsRefusedOnTheWire) {
  WireWriter w;
  w.PutString("s");
  w.PutU8(1);                                          // streaming
  w.PutU8(4);  // one past kL2: the retired AUTO byte, refused
  w.PutF64(0.7);
  w.PutF64(0.01);
  w.PutU8(1);
  CreateSessionRequest out;
  EXPECT_FALSE(DecodeCreateSession(w.Take(), &out).ok());
}

TEST(WireHostileTest, OutOfRangeFrameworkAndNormalizeBytesAreRefused) {
  CreateSessionRequest req;
  req.name = "s";
  const std::string valid = EncodeCreateSession(req);
  // name(4+1), framework(1), scheme(1), theta(8), lambda(8), normalize(1).
  ASSERT_EQ(valid.size(), 24u);
  CreateSessionRequest out;
  ASSERT_TRUE(DecodeCreateSession(valid, &out).ok());
  for (const size_t offset : {size_t{5}, size_t{23}}) {
    std::string patched = valid;
    patched[offset] = 2;  // neither 0 nor 1
    EXPECT_FALSE(DecodeCreateSession(patched, &out).ok())
        << "byte " << offset;
  }
}

TEST(WireHostileTest, InvalidThetaLambdaAreRefused) {
  auto encode_with = [](double theta, double lambda) {
    CreateSessionRequest req;
    req.name = "s";
    req.config.theta = 0.5;  // encode a valid shell, then patch below
    req.config.lambda = 0.1;
    std::string payload = EncodeCreateSession(req);
    // theta sits after name(4+1) + framework(1) + scheme(1).
    std::memcpy(&payload[7], &theta, sizeof(theta));
    std::memcpy(&payload[15], &lambda, sizeof(lambda));
    return payload;
  };
  CreateSessionRequest out;
  EXPECT_FALSE(DecodeCreateSession(encode_with(0.0, 0.1), &out).ok());
  EXPECT_FALSE(DecodeCreateSession(encode_with(1.5, 0.1), &out).ok());
  EXPECT_FALSE(DecodeCreateSession(encode_with(0.7, -1.0), &out).ok());
  EXPECT_FALSE(
      DecodeCreateSession(
          encode_with(std::numeric_limits<double>::quiet_NaN(), 0.1), &out)
          .ok());
  EXPECT_TRUE(DecodeCreateSession(encode_with(0.7, 0.1), &out).ok());
}

// ---- rendezvous placement ----

TEST(RendezvousTest, DeterministicAndInRange) {
  for (int k = 1; k <= 8; ++k) {
    for (int i = 0; i < 50; ++i) {
      const std::string name = "session-" + std::to_string(i);
      const int owner = RendezvousOwner(name, k);
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, k);
      EXPECT_EQ(owner, RendezvousOwner(name, k)) << "non-deterministic";
    }
  }
}

TEST(RendezvousTest, SpreadsSessionsAcrossWorkers) {
  const int k = 4;
  std::vector<int> counts(k, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[RendezvousOwner("name-" + std::to_string(i), k)];
  }
  for (int w = 0; w < k; ++w) {
    // Perfectly even would be 100; require at least a quarter of that so
    // a broken hash (everything on one slot) fails loudly.
    EXPECT_GT(counts[w], 25) << "worker " << w << " is starved";
  }
}

TEST(RendezvousTest, GrowingTheFleetMovesOnlyAFraction) {
  const int n = 1000;
  int moved = 0;
  for (int i = 0; i < n; ++i) {
    const std::string name = "stable-" + std::to_string(i);
    if (RendezvousOwner(name, 4) != RendezvousOwner(name, 5)) ++moved;
  }
  // HRW moves ~1/5 of keys when going 4 → 5 workers. Allow generous
  // slack; the property that matters is "most sessions stay put".
  EXPECT_LT(moved, n / 2) << "rendezvous hashing reshuffled too much";
  EXPECT_GT(moved, 0) << "no key moved — suspicious";
}

}  // namespace
}  // namespace cluster
}  // namespace sssj
