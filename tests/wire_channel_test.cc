// FrameChannel's buffered reader and gathered writer over a socketpair:
// however the bytes of a frame sequence arrive (one at a time, several
// frames in one write, a payload larger than the receive buffer), Recv
// returns the frames a one-shot parse of the bytes finds; EOF and bad
// headers fail with their named codes; and a moved channel keeps the
// bytes it has buffered.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/channel.h"
#include "cluster/wire.h"

namespace sssj {
namespace cluster {
namespace {

// A connected pair: `writer` is a raw fd the test writes bytes into,
// `reader` a channel over the other end.
struct Pipe {
  int writer = -1;
  FrameChannel reader;
};

Pipe MakePipe() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0)
      << std::strerror(errno);
  Pipe pipe;
  pipe.writer = fds[0];
  pipe.reader = FrameChannel(fds[1]);
  return pipe;
}

std::string Frame(FrameType type, const std::string& payload) {
  std::string out;
  EncodeFrame(type, payload, &out);
  return out;
}

// One send per call, looping only on a short write.
void WriteBytes(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

std::string Payload(size_t size, uint8_t salt) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>((i * 131 + salt) & 0xff);
  }
  return out;
}

void ExpectFrame(FrameChannel* channel, FrameType want_type,
                 const std::string& want_payload) {
  FrameType type = FrameType::kHello;
  std::string payload;
  const Status status = channel->Recv(&type, &payload);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(type, want_type);
  EXPECT_EQ(payload, want_payload);
}

StatusCode RecvCode(FrameChannel* channel, std::string* payload) {
  FrameType type = FrameType::kHello;
  return channel->Recv(&type, payload).code();
}

TEST(WireChannelTest, FrameWrittenOneByteAtATime) {
  Pipe pipe = MakePipe();
  const std::string payload = Payload(40, 3);
  const std::string frame = Frame(FrameType::kPush, payload);
  std::thread writer([&pipe, &frame] {
    for (const char byte : frame) {
      WriteBytes(pipe.writer, std::string(1, byte));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ExpectFrame(&pipe.reader, FrameType::kPush, payload);
  writer.join();
  ::close(pipe.writer);
}

TEST(WireChannelTest, TwoFramesInOneWrite) {
  Pipe pipe = MakePipe();
  WriteBytes(pipe.writer, Frame(FrameType::kFlush, "first") +
                              Frame(FrameType::kReply, Payload(300, 9)));
  ExpectFrame(&pipe.reader, FrameType::kFlush, "first");
  ExpectFrame(&pipe.reader, FrameType::kReply, Payload(300, 9));
  ::close(pipe.writer);
}

TEST(WireChannelTest, ZeroLengthPayload) {
  Pipe pipe = MakePipe();
  WriteBytes(pipe.writer, Frame(FrameType::kShutdown, "") +
                              Frame(FrameType::kShutdown, "") +
                              Frame(FrameType::kStats, "x"));
  std::string payload = "stale";
  FrameType type = FrameType::kHello;
  ASSERT_TRUE(pipe.reader.Recv(&type, &payload).ok());
  EXPECT_EQ(type, FrameType::kShutdown);
  EXPECT_TRUE(payload.empty());
  ExpectFrame(&pipe.reader, FrameType::kShutdown, "");
  ExpectFrame(&pipe.reader, FrameType::kStats, "x");
  ::close(pipe.writer);
}

TEST(WireChannelTest, PayloadLargerThanTheReceiveBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel sender(fds[0]);
  FrameChannel reader(fds[1]);
  const std::string big = Payload(3 * FrameChannel::kRecvBufferSize + 17, 5);
  // More than the socket holds: the writer blocks until the reader
  // drains, so it runs on its own thread. Send gathers both frames'
  // headers with their payloads.
  std::thread writer([&sender, &big] {
    EXPECT_TRUE(sender.Send(FrameType::kRestore, big).ok());
    EXPECT_TRUE(sender.Send(FrameType::kFlush, "after").ok());
  });
  ExpectFrame(&reader, FrameType::kRestore, big);
  ExpectFrame(&reader, FrameType::kFlush, "after");
  reader.Close();  // an early stop must not hang the writer
  writer.join();
}

TEST(WireChannelTest, HeaderSplitAtTheEndOfTheBuffer) {
  // One write of a frame that ends 2 bytes short of the receive buffer,
  // then a second frame: the second header starts in the buffer's last
  // 2 bytes, and the reader must move them to the front to finish it.
  Pipe pipe = MakePipe();
  const std::string first = Payload(
      FrameChannel::kRecvBufferSize - kFrameHeaderSize - 2, 1);
  WriteBytes(pipe.writer, Frame(FrameType::kPushBatch, first) +
                              Frame(FrameType::kReply, "tail"));
  ExpectFrame(&pipe.reader, FrameType::kPushBatch, first);
  ExpectFrame(&pipe.reader, FrameType::kReply, "tail");
  ::close(pipe.writer);
}

TEST(WireChannelTest, EofMidHeaderIsIoError) {
  Pipe pipe = MakePipe();
  WriteBytes(pipe.writer, Frame(FrameType::kFlush, "abc").substr(0, 3));
  ::close(pipe.writer);
  std::string payload;
  EXPECT_EQ(RecvCode(&pipe.reader, &payload), StatusCode::kIoError);
}

TEST(WireChannelTest, EofMidPayloadIsIoError) {
  Pipe pipe = MakePipe();
  const std::string frame = Frame(FrameType::kPush, Payload(100, 2));
  WriteBytes(pipe.writer, frame.substr(0, frame.size() - 1));
  ::close(pipe.writer);
  std::string payload;
  EXPECT_EQ(RecvCode(&pipe.reader, &payload), StatusCode::kIoError);
}

TEST(WireChannelTest, BadHeadersAreDataLossBeforeAnyPayloadAllocation) {
  uint8_t unknown_type[kFrameHeaderSize];
  EncodeFrameHeader(FrameType::kReply, 4, unknown_type);
  unknown_type[4] = 99;
  uint8_t oversized[kFrameHeaderSize];
  EncodeFrameHeader(FrameType::kPush, kMaxFramePayload + 1, oversized);
  for (const uint8_t* header : {unknown_type, oversized}) {
    Pipe pipe = MakePipe();
    WriteBytes(pipe.writer,
               std::string(reinterpret_cast<const char*>(header),
                           kFrameHeaderSize) +
                   "abcd");
    std::string payload;
    const size_t capacity = payload.capacity();
    EXPECT_EQ(RecvCode(&pipe.reader, &payload), StatusCode::kDataLoss);
    EXPECT_TRUE(payload.empty());
    EXPECT_EQ(payload.capacity(), capacity) << "the payload was allocated";
    ::close(pipe.writer);
  }
}

TEST(WireChannelTest, MovedChannelKeepsItsBufferedBytes) {
  Pipe pipe = MakePipe();
  // Three frames in one write: the first Recv buffers all three.
  WriteBytes(pipe.writer, Frame(FrameType::kPush, "one") +
                              Frame(FrameType::kFlush, "two") +
                              Frame(FrameType::kStats, "three"));
  ExpectFrame(&pipe.reader, FrameType::kPush, "one");
  FrameChannel constructed(std::move(pipe.reader));
  EXPECT_FALSE(pipe.reader.open());
  ExpectFrame(&constructed, FrameType::kFlush, "two");
  // Move-assignment over a channel with an fd of its own, as the
  // supervisor replaces a worker's channel.
  int spare[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, spare), 0);
  ::close(spare[0]);
  FrameChannel assigned(spare[1]);
  assigned = std::move(constructed);
  EXPECT_FALSE(constructed.open());
  ExpectFrame(&assigned, FrameType::kStats, "three");
  ::close(pipe.writer);
}

TEST(WireChannelTest, SeededRandomChunksReturnTheFramesWritten) {
  // A random frame sequence, encoded back to back (so the frames written
  // are what a one-shot parse of the stream finds), sent in random
  // chunks: the reader must return exactly those frames, then kIoError.
  const FrameType kTypes[] = {FrameType::kPush, FrameType::kPushBatch,
                              FrameType::kReply, FrameType::kFlush,
                              FrameType::kShutdown};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<std::pair<FrameType, std::string>> want;
    std::string stream;
    const size_t frames = 1 + rng() % 40;
    for (size_t f = 0; f < frames; ++f) {
      const FrameType type = kTypes[rng() % std::size(kTypes)];
      // Mostly push-sized payloads, now and then one past the buffer.
      const size_t size = rng() % 10 == 0
                              ? FrameChannel::kRecvBufferSize + rng() % 5000
                              : rng() % 400;
      want.emplace_back(type, Payload(size, static_cast<uint8_t>(rng())));
      stream += Frame(type, want.back().second);
    }
    std::vector<std::string> chunks;
    for (size_t pos = 0; pos < stream.size();) {
      const size_t len = std::min<size_t>(stream.size() - pos,
                                          1 + rng() % (rng() % 2 ? 7 : 3000));
      chunks.push_back(stream.substr(pos, len));
      pos += len;
    }

    Pipe pipe = MakePipe();
    std::thread writer([&pipe, &chunks] {
      for (const std::string& chunk : chunks) WriteBytes(pipe.writer, chunk);
      ::close(pipe.writer);
    });
    std::vector<std::pair<FrameType, std::string>> got;
    FrameType type = FrameType::kHello;
    std::string payload;
    Status status;
    while ((status = pipe.reader.Recv(&type, &payload)).ok()) {
      got.emplace_back(type, payload);
    }
    pipe.reader.Close();  // an early stop must not hang the writer
    writer.join();
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "frame " << i;
      EXPECT_EQ(got[i].second, want[i].second) << "frame " << i;
    }
  }
}

}  // namespace
}  // namespace cluster
}  // namespace sssj
