// Fuzz target for the cluster wire protocol — every byte a worker or
// supervisor reads off a socket goes through these decoders, and a
// hostile peer controls all of them.
//
// The first input byte selects a decoder (so the fuzzer can dig into
// each payload grammar independently); the rest is the payload. The
// whole input is also fed to DecodeFrameHeader at several offsets.
//
// Invariants: arbitrary bytes never crash, hang, or over-read (ASan);
// declared lengths are validated before allocation (a 4-byte prefix
// must not reserve gigabytes); every rejection carries a message; a
// successful decode re-encodes to a canonical form that decodes to the
// same value (encode∘decode is a fixed point — exact byte identity is
// too strong: e.g. an Ok status legally sheds its message).
//
// Selector 8 drives the buffered reader instead: the rest of the input
// is a list of chunks, each a length byte and that many bytes. A second
// thread writes the chunks into a socketpair one send each, and
// FrameChannel::Recv reads frames back until it fails. The frames it
// returns, and the code it fails with, must equal a one-shot parse of
// the concatenated bytes: wherever the chunk boundaries fall, the reader
// returns the same frames.
#undef NDEBUG
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/channel.h"
#include "cluster/wire.h"

namespace {

namespace cl = sssj::cluster;

template <typename T, typename DecodeFn, typename EncodeFn>
void CheckDecoder(const std::string& payload, DecodeFn decode,
                  EncodeFn encode) {
  T out;
  const sssj::Status st = decode(payload, &out);
  if (!st.ok()) {
    assert(!st.message().empty());  // every rejection names its reason
    return;
  }
  const std::string canonical = encode(out);
  T again;
  const sssj::Status st2 = decode(canonical, &again);
  assert(st2.ok());                     // what we emit, we accept
  assert(encode(again) == canonical);   // and it is a fixed point
}

struct Frames {
  std::vector<std::pair<cl::FrameType, std::string>> frames;
  sssj::StatusCode end = sssj::StatusCode::kOk;  // why reading stopped
};

// The frames of `stream` parsed in one pass, as a reader that sees EOF
// after its last byte must return them.
Frames ParseAtOnce(const std::string& stream) {
  Frames out;
  size_t pos = 0;
  for (;;) {
    if (stream.size() - pos < cl::kFrameHeaderSize) {
      out.end = sssj::StatusCode::kIoError;  // EOF at or inside a header
      return out;
    }
    cl::FrameHeader header;
    std::string error;
    if (!cl::DecodeFrameHeader(
            reinterpret_cast<const uint8_t*>(stream.data()) + pos,
            cl::kFrameHeaderSize, &header, &error)) {
      out.end = sssj::StatusCode::kDataLoss;
      return out;
    }
    pos += cl::kFrameHeaderSize;
    if (stream.size() - pos < header.payload_len) {
      out.end = sssj::StatusCode::kIoError;  // EOF inside the payload
      return out;
    }
    out.frames.emplace_back(header.type,
                            stream.substr(pos, header.payload_len));
    pos += header.payload_len;
  }
}

void CheckChannel(const uint8_t* data, size_t size) {
  std::vector<std::string> chunks;
  std::string stream;
  for (size_t pos = 0; pos < size;) {
    const size_t len = std::min<size_t>(data[pos], size - pos - 1);
    chunks.emplace_back(reinterpret_cast<const char*>(data + pos + 1), len);
    stream += chunks.back();
    pos += 1 + len;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  std::thread writer([&chunks, fd = fds[0]] {
    for (const std::string& chunk : chunks) {
      for (size_t sent = 0; sent < chunk.size();) {
        const ssize_t n = ::send(fd, chunk.data() + sent, chunk.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          ::close(fd);  // the reader stopped early
          return;
        }
        sent += static_cast<size_t>(n);
      }
    }
    ::close(fd);  // EOF after the last chunk
  });
  Frames got;
  {
    cl::FrameChannel channel(fds[1]);
    cl::FrameType type;
    std::string payload;
    sssj::Status status;
    while ((status = channel.Recv(&type, &payload)).ok()) {
      got.frames.emplace_back(type, payload);
    }
    assert(!status.message().empty());
    got.end = status.code();
  }  // closing the reader unblocks a writer it stopped reading from
  writer.join();
  const Frames want = ParseAtOnce(stream);
  assert(got.end == want.end);
  assert(got.frames == want.frames);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);

  switch (data[0] % 9) {
    case 0:
      CheckDecoder<cl::HelloPayload>(payload, cl::DecodeHello,
                                     cl::EncodeHello);
      break;
    case 1:
      CheckDecoder<cl::CreateSessionRequest>(payload, cl::DecodeCreateSession,
                                             cl::EncodeCreateSession);
      break;
    case 2:
      CheckDecoder<cl::PushRequest>(
          payload, cl::DecodePush,
          [](const cl::PushRequest& req) { return cl::EncodePush(req); });
      break;
    case 3:
      CheckDecoder<cl::PushBatchRequest>(
          payload, cl::DecodePushBatch,
          [](const cl::PushBatchRequest& req) {
            return cl::EncodePushBatch(req);
          });
      break;
    case 4:
      CheckDecoder<cl::NameRequest>(payload, cl::DecodeName, cl::EncodeName);
      break;
    case 5:
      CheckDecoder<cl::RestoreRequest>(payload, cl::DecodeRestore,
                                       cl::EncodeRestore);
      break;
    case 6:
      CheckDecoder<cl::Reply>(
          payload, cl::DecodeReply,
          [](const cl::Reply& reply) { return cl::EncodeReply(reply); });
      break;
    case 7:
      CheckDecoder<cl::SessionWireStats>(payload, cl::DecodeSessionStats,
                                         cl::EncodeSessionStats);
      break;
    case 8:
      CheckChannel(data + 1, size - 1);
      break;
  }

  // The raw frame header parser sees whatever 5 bytes arrive first; walk
  // the input so corpus entries exercise it at several alignments.
  for (size_t off = 0; off + cl::kFrameHeaderSize <= size && off < 8; ++off) {
    cl::FrameHeader header;
    std::string error;
    if (!cl::DecodeFrameHeader(data + off, size - off, &header, &error)) {
      assert(!error.empty());
    }
  }
  return 0;
}
