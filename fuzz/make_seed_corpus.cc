// Regenerates the format-valid seed inputs under fuzz/corpus/ — the
// ones that must be produced by the real writers (binary streams,
// engine/index checkpoints) so the fuzzers start from deep inside the
// parsers instead of spending their budget rediscovering magic numbers.
// Purely byte-level seeds (truncations, corrupt text) are committed
// directly; this tool also emits truncated/corrupted variants of the
// valid files so the replay suite exercises the rejection paths even
// where no fuzzing engine runs.
//
//   make_seed_corpus <repo>/fuzz/corpus
//
// Idempotent: output depends only on the library, so re-running after a
// format change refreshes the corpus in place (commit the diff).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/wire.h"
#include "core/engine.h"
#include "data/io.h"

namespace {

bool WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

sssj::Stream SampleStream() {
  sssj::Stream s;
  for (int i = 0; i < 8; ++i) {
    sssj::StreamItem item;
    item.id = static_cast<sssj::VectorId>(i);
    item.ts = 10.0 * i;
    item.vec = sssj::SparseVector::UnitFromCoords(
        {{static_cast<sssj::DimId>(i % 3), 0.6},
         {static_cast<sssj::DimId>(i % 3 + 1), 0.8}});
    s.push_back(std::move(item));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 64;
  }
  const std::string root = argv[1];

  // Binary stream: a valid file, a truncated one (mid-record), and one
  // whose declared item count far exceeds the bytes present.
  {
    const std::string path = root + "/fuzz_binary_stream/valid.bin";
    const sssj::Status st = sssj::WriteBinaryStream(SampleStream(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "WriteBinaryStream: %s\n", st.message().c_str());
      return 1;
    }
    std::ifstream f(path, std::ios::binary);
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string bytes = buf.str();
    if (!WriteBytes(root + "/fuzz_binary_stream/truncated.bin",
                    bytes.substr(0, bytes.size() - 7)))
      return 1;
    std::string hostile = bytes;
    hostile[8] = '\xff';  // item count low byte: declare ~2^64 items
    hostile[15] = '\x7f';
    if (!WriteBytes(root + "/fuzz_binary_stream/hostile_count.bin", hostile))
      return 1;
  }

  // Engine checkpoint (SSSJENG3, from an engine that rebuilds its live
  // items from the index): valid, truncated at an interior boundary,
  // magic-corrupted, and one seed per validation the loader makes — a
  // corrupt item header, items out of order, a non-unit vector, a
  // parameter mismatch and the retired SSSJENG2 magic.
  {
    sssj::EngineConfig cfg;
    cfg.framework = sssj::Framework::kStreaming;
    cfg.index = sssj::IndexScheme::kL2;
    cfg.theta = 0.7;
    cfg.lambda = 0.01;
    auto engine = sssj::SssjEngine::Make(cfg);
    if (!engine.ok()) {
      std::fprintf(stderr, "Make: %s\n", engine.status().message().c_str());
      return 1;
    }
    for (const sssj::StreamItem& item : SampleStream()) {
      const sssj::Status st = (*engine)->Push(item.ts, item.vec);
      if (!st.ok()) {
        std::fprintf(stderr, "Push: %s\n", st.message().c_str());
        return 1;
      }
    }
    std::ostringstream os;
    const sssj::Status st = (*engine)->SaveCheckpoint(os);
    if (!st.ok()) {
      std::fprintf(stderr, "SaveCheckpoint: %s\n", st.message().c_str());
      return 1;
    }
    const std::string bytes = os.str();
    if (!WriteBytes(root + "/fuzz_checkpoint/engine_valid.bin", bytes))
      return 1;
    if (!WriteBytes(root + "/fuzz_checkpoint/engine_truncated.bin",
                    bytes.substr(0, bytes.size() / 2)))
      return 1;
    std::string corrupt = bytes;
    corrupt[0] ^= 0x20;
    if (!WriteBytes(root + "/fuzz_checkpoint/engine_badmagic.bin", corrupt))
      return 1;
    // A deep-truncated tail lands inside the last item's coordinates.
    if (!WriteBytes(root + "/fuzz_checkpoint/engine_tail_cut.bin",
                    bytes.substr(0, bytes.size() - 5)))
      return 1;
    // Layout (SssjEngine::SaveCheckpoint): theta at byte 14, then the
    // items from byte 63, each { u64 id, f64 ts, u32 nnz, nnz × (u32 dim,
    // f64 value) }.
    constexpr size_t kThetaOffset = 14;
    constexpr size_t kFirstItem = 63;
    uint32_t nnz = 0;
    std::memcpy(&nnz, &bytes[kFirstItem + 16], sizeof(nnz));
    const size_t first_value = kFirstItem + 20 + sizeof(uint32_t);
    const size_t second_item = kFirstItem + 20 + nnz * 12;
    if (bytes.size() < second_item + 8) {
      std::fprintf(stderr, "engine checkpoint holds fewer than 2 items\n");
      return 1;
    }
    auto put_double = [](std::string* s, size_t at, double v) {
      std::memcpy(&(*s)[at], &v, sizeof(v));
    };
    std::string bad_header = bytes;
    std::memset(&bad_header[kFirstItem], 0xFF, 8);  // id past next_id
    std::string out_of_order = bytes;
    std::memcpy(&out_of_order[second_item], &bytes[kFirstItem], 8);
    std::string non_unit = bytes;
    double value = 0.0;
    std::memcpy(&value, &bytes[first_value], sizeof(value));
    put_double(&non_unit, first_value, 2.0 * value);
    std::string mismatch = bytes;
    put_double(&mismatch, kThetaOffset, 0.8);
    std::string retired = bytes;
    retired.replace(0, 8, "SSSJENG2");
    for (const auto& [name, seed] :
         {std::pair<const char*, const std::string&>{"bad_item_header",
                                                     bad_header},
          {"items_out_of_order", out_of_order},
          {"non_unit", non_unit},
          {"param_mismatch", mismatch},
          {"retired_eng2", retired}}) {
      if (!WriteBytes(root + "/fuzz_checkpoint/engine_" + name + ".bin",
                      seed))
        return 1;
    }
  }

  // Cluster wire payloads: one valid seed per decoder, prefixed with the
  // selector byte fuzz_wire.cc dispatches on, plus truncated/corrupted
  // variants so the replay suite hits rejection paths.
  {
    namespace cl = sssj::cluster;
    auto seed = [&root](const std::string& name, uint8_t selector,
                        const std::string& payload) {
      return WriteBytes(root + "/fuzz_wire/" + name,
                        std::string(1, static_cast<char>(selector)) + payload);
    };
    if (!seed("hello.bin", 0, cl::EncodeHello(cl::HelloPayload{}))) return 1;

    cl::CreateSessionRequest create;
    create.name = "session-a";
    create.config.framework = sssj::Framework::kStreaming;
    create.config.index = sssj::IndexScheme::kL2;
    create.config.theta = 0.7;
    create.config.lambda = 0.01;
    const std::string create_bytes = cl::EncodeCreateSession(create);
    if (!seed("create.bin", 1, create_bytes)) return 1;
    if (!seed("create_truncated.bin", 1,
              create_bytes.substr(0, create_bytes.size() / 2)))
      return 1;

    cl::PushRequest push;
    push.name = "session-a";
    push.ts = 12.5;
    push.vec = sssj::SparseVector::UnitFromCoords({{0, 0.6}, {3, 0.8}});
    const std::string push_bytes = cl::EncodePush(push);
    if (!seed("push.bin", 2, push_bytes)) return 1;
    std::string push_hostile = push_bytes;
    // Blow up the declared nnz (its u32 sits just before the two 12-byte
    // coords): the decoder must refuse, not allocate.
    push_hostile[push_bytes.size() - 2 * (sizeof(uint32_t) + sizeof(double)) -
                 1] = '\x7f';
    if (!seed("push_hostile_nnz.bin", 2, push_hostile)) return 1;

    cl::PushBatchRequest batch;
    batch.name = "session-a";
    batch.items = SampleStream();
    if (!seed("push_batch.bin", 3, cl::EncodePushBatch(batch))) return 1;

    cl::NameRequest name_req;
    name_req.name = "session-a";
    if (!seed("name.bin", 4, cl::EncodeName(name_req))) return 1;

    cl::RestoreRequest restore;
    restore.name = "session-a";
    restore.config = create.config;
    restore.checkpoint = "SSSJENG3 opaque checkpoint bytes";
    if (!seed("restore.bin", 5, cl::EncodeRestore(restore))) return 1;

    cl::Reply reply;
    reply.status = sssj::Status::InvalidArgument("example rejection");
    reply.accepted = 7;
    reply.rejects.push_back({3, sssj::Status::OutOfRange("bad theta")});
    sssj::ResultPair pair;
    pair.a = 1;
    pair.b = 2;
    pair.ta = 0.5;
    pair.tb = 1.5;
    pair.dot = 0.9;
    pair.sim = 0.9;
    reply.pairs.push_back(pair);
    reply.blob = "opaque";
    if (!seed("reply.bin", 6, cl::EncodeReply(reply))) return 1;

    cl::SessionWireStats stats;
    stats.vectors_processed = 100;
    stats.pairs_emitted = 42;
    stats.memory_bytes = 1 << 20;
    if (!seed("stats.bin", 7, cl::EncodeSessionStats(stats))) return 1;

    // A full frame (header + payload) for the DecodeFrameHeader walk.
    std::string frame;
    cl::EncodeFrame(cl::FrameType::kPush, push_bytes, &frame);
    if (!seed("frame.bin", 2, frame)) return 1;

    // Selector 8: a frame stream cut into chunks, each a length byte and
    // that many bytes, written into a socketpair one send each.
    auto chunked = [](const std::string& stream,
                      std::initializer_list<size_t> sizes) {
      std::string out;
      size_t pos = 0;
      for (auto size = sizes.begin(); pos < stream.size();) {
        const size_t len = std::min(stream.size() - pos, *size);
        out.push_back(static_cast<char>(len));
        out += stream.substr(pos, len);
        pos += len;
        if (std::next(size) != sizes.end()) ++size;
      }
      return out;
    };
    std::string hello_frame;
    cl::EncodeFrame(cl::FrameType::kHello, cl::EncodeHello(cl::HelloPayload{}),
                    &hello_frame);
    std::string reply_frame;
    cl::EncodeFrame(cl::FrameType::kReply, cl::EncodeReply(reply),
                    &reply_frame);
    std::string shutdown_frame;
    cl::EncodeFrame(cl::FrameType::kShutdown, "", &shutdown_frame);
    std::string bad_type = shutdown_frame;
    bad_type[4] = '\x63';  // frame type 99
    const std::string two = frame + reply_frame;
    for (const auto& [name, bytes] :
         {std::pair<const char*, std::string>{
              "channel_bytewise.bin", chunked(hello_frame + frame, {1})},
          {"channel_coalesced.bin", chunked(two + shutdown_frame, {255})},
          {"channel_split_header.bin", chunked(two, {3, 2, 7})},
          {"channel_empty_payload.bin",
           chunked(shutdown_frame + shutdown_frame + hello_frame, {4, 9})},
          {"channel_bad_type.bin", chunked(frame + bad_type, {50})},
          {"channel_truncated.bin",
           chunked(reply_frame.substr(0, reply_frame.size() - 5), {16})}}) {
      if (!seed(name, 8, bytes)) return 1;
    }
  }

  std::printf("seed corpus refreshed under %s\n", root.c_str());
  return 0;
}
