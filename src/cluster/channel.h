// Blocking frame transport over Unix-domain stream sockets.
//
// The wire layer (cluster/wire.h) is pure byte parsing; this is the thin
// OS boundary under it: connect/listen/accept on AF_UNIX paths (or an
// already-connected fd from socketpair(2) — how the supervisor talks to
// the workers it forks), and Send/Recv of whole frames with EINTR-safe
// full reads/writes. Every transport failure — peer gone (EOF, EPIPE,
// ECONNRESET), short socket, OS error — comes back as kIoError; the
// supervisor treats any kIoError from a worker channel as worker death
// and runs the restart/restore path. Writes use MSG_NOSIGNAL so a dead
// peer is an error return, never a SIGPIPE kill.
//
// One syscall per frame each way in steady state:
//   * Send gathers the 5 header bytes and the caller's payload into one
//     sendmsg(2); a short write loops on the rest. Nothing is copied.
//   * Recv reads into a receive buffer of kRecvBufferSize bytes,
//     allocated on the first Recv and never zero-filled, so one recv(2)
//     takes a whole small frame. Bytes past the frame (the next frame, or
//     part of it) stay buffered for the next Recv. Payload bytes beyond
//     what the buffer holds are read straight into the caller's string.
//   * Call reuses one reply buffer across calls.
// A moved channel carries its buffered bytes with it.
//
// What a failed Recv leaves behind: EOF or a transport error mid-header
// or mid-payload returns kIoError; a header with an unknown type or a
// length over kMaxFramePayload returns kDataLoss before any payload
// allocation. Either way the stream position is lost, so the channel is
// good only for Close (on kIoError the supervisor kills and replaces the
// worker).
//
// A channel is used by one thread at a time (the worker's serve loop,
// the supervisor's request path); it does no locking of its own.
#ifndef SSSJ_CLUSTER_CHANNEL_H_
#define SSSJ_CLUSTER_CHANNEL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "cluster/wire.h"
#include "core/status.h"

namespace sssj {
namespace cluster {

class FrameChannel {
 public:
  // Big enough for every push round trip the benches drive in one recv.
  static constexpr size_t kRecvBufferSize = 64u << 10;

  FrameChannel() = default;
  // Takes ownership of a connected stream-socket fd.
  explicit FrameChannel(int fd) : fd_(fd) {}
  ~FrameChannel() { Close(); }

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  FrameChannel(FrameChannel&& other) noexcept { *this = std::move(other); }
  FrameChannel& operator=(FrameChannel&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      buf_ = std::move(other.buf_);
      begin_ = std::exchange(other.begin_, 0);
      end_ = std::exchange(other.end_, 0);
      reply_payload_ = std::move(other.reply_payload_);
    }
    return *this;
  }

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  // Writes one complete frame. kIoError when the peer is gone,
  // kInvalidArgument when the payload exceeds the frame cap.
  Status Send(FrameType type, const std::string& payload);

  // Reads one complete frame into *payload (whose capacity is reused),
  // enforcing the header's caps before the payload allocation. kIoError
  // on EOF/transport failure, kDataLoss on a malformed header (the peer
  // speaks a different protocol).
  Status Recv(FrameType* type, std::string* payload);

  // Send + Recv, refusing anything but a kReply in response.
  Status Call(FrameType type, const std::string& payload, Reply* reply);

 private:
  size_t buffered() const { return end_ - begin_; }
  // One recv into the buffer's free tail, after moving a partial header
  // to the front when the tail is full. kIoError on EOF or an OS error.
  Status Fill();

  int fd_ = -1;
  // Received bytes not yet handed out are buf_[begin_, end_).
  std::unique_ptr<char[]> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
  std::string reply_payload_;  // Call's reply frame, reused
};

// For a frame buffer reused across calls: frees its storage once a
// large frame (a migration's checkpoint, a restore) has grown it past
// the receive buffer's size, so one big transfer does not stay
// allocated for the life of the loop.
inline void ReleaseIfLarge(std::string* buffer) {
  if (buffer->capacity() > FrameChannel::kRecvBufferSize) {
    std::string().swap(*buffer);
  }
}

// Binds and listens on `path` (unlinking a stale socket first).
Status ListenUnix(const std::string& path, int* listen_fd);

// Blocks for one connection; the caller owns *conn_fd.
Status AcceptOne(int listen_fd, int* conn_fd);

// Closes a ListenUnix socket and unlinks its path.
void CloseListener(int listen_fd, const std::string& path);

// Connects to `path`, retrying for up to `timeout_ms` while the server
// is still binding (ECONNREFUSED / ENOENT).
Status ConnectUnix(const std::string& path, int* fd, int timeout_ms = 2000);

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_CHANNEL_H_
