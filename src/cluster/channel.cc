#include "cluster/channel.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace sssj {
namespace cluster {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

// Full read; EOF mid-message (or at a frame boundary) is kIoError — the
// caller distinguishes "peer closed" by the message text if it cares.
Status ReadAll(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("socket read");
    }
    if (n == 0) return Status::IoError("peer closed the connection");
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FillSockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        "unix socket path must be 1.." +
        std::to_string(sizeof(addr->sun_path) - 1) + " bytes; got \"" + path +
        "\"");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

}  // namespace

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// Full gathered write of the header and the payload in one sendmsg; a
// short write resumes where it stopped. EINTR-safe, SIGPIPE-free.
Status FrameChannel::Send(FrameType type, const std::string& payload) {
  if (fd_ < 0) return Status::IoError("channel is closed");
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte cap");
  }
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()), header);
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("socket write");
    }
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return Status::Ok();
    msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
    msg.msg_iov->iov_len -= sent;
  }
}

Status FrameChannel::Fill() {
  // new char[]: default-initialized, so a channel that never receives
  // much never touches most of the buffer's pages.
  if (buf_ == nullptr) buf_.reset(new char[kRecvBufferSize]);
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (end_ == kRecvBufferSize) {
    std::memmove(buf_.get(), buf_.get() + begin_, buffered());
    end_ -= begin_;
    begin_ = 0;
  }
  for (;;) {
    const ssize_t n =
        ::recv(fd_, buf_.get() + end_, kRecvBufferSize - end_, 0);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      return Status::Ok();
    }
    if (n == 0) return Status::IoError("peer closed the connection");
    if (errno != EINTR) return Errno("socket read");
  }
}

Status FrameChannel::Recv(FrameType* type, std::string* payload) {
  if (fd_ < 0) return Status::IoError("channel is closed");
  while (buffered() < kFrameHeaderSize) {
    Status status = Fill();
    if (!status.ok()) return status;
  }
  FrameHeader header;
  std::string error;
  if (!DecodeFrameHeader(reinterpret_cast<const uint8_t*>(buf_.get()) + begin_,
                         kFrameHeaderSize, &header, &error)) {
    return Status::DataLoss("bad frame header: " + error);
  }
  begin_ += kFrameHeaderSize;
  const size_t from_buffer =
      std::min<size_t>(buffered(), header.payload_len);
  payload->resize(header.payload_len);
  std::memcpy(payload->data(), buf_.get() + begin_, from_buffer);
  begin_ += from_buffer;
  if (from_buffer < header.payload_len) {
    // The buffer is drained; the rest of the payload goes straight into
    // the caller's string, and nothing past the frame is read.
    Status status = ReadAll(fd_, payload->data() + from_buffer,
                            header.payload_len - from_buffer);
    if (!status.ok()) return status;
  }
  *type = header.type;
  return Status::Ok();
}

Status FrameChannel::Call(FrameType type, const std::string& payload,
                          Reply* reply) {
  Status status = Send(type, payload);
  if (!status.ok()) return status;
  FrameType reply_type;
  status = Recv(&reply_type, &reply_payload_);
  if (!status.ok()) return status;
  if (reply_type != FrameType::kReply) {
    return Status::DataLoss(std::string("expected a kReply frame, got ") +
                            cluster::ToString(reply_type));
  }
  status = DecodeReply(reply_payload_, reply);
  ReleaseIfLarge(&reply_payload_);
  return status;
}

Status ListenUnix(const std::string& path, int* listen_fd) {
  sockaddr_un addr;
  Status status = FillSockaddr(path, &addr);
  if (!status.ok()) return status;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  ::unlink(path.c_str());  // a stale socket file would fail the bind
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status err = Errno("bind " + path);
    ::close(fd);
    return err;
  }
  if (::listen(fd, 8) < 0) {
    const Status err = Errno("listen " + path);
    ::close(fd);
    return err;
  }
  *listen_fd = fd;
  return Status::Ok();
}

Status AcceptOne(int listen_fd, int* conn_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      *conn_fd = fd;
      return Status::Ok();
    }
    if (errno != EINTR) return Errno("accept");
  }
}

void CloseListener(int listen_fd, const std::string& path) {
  ::close(listen_fd);
  ::unlink(path.c_str());
}

Status ConnectUnix(const std::string& path, int* fd, int timeout_ms) {
  sockaddr_un addr;
  Status status = FillSockaddr(path, &addr);
  if (!status.ok()) return status;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (sock < 0) return Errno("socket");
    if (::connect(sock, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      *fd = sock;
      return Status::Ok();
    }
    const int saved_errno = errno;
    ::close(sock);
    // The server may still be binding; retry until the deadline for the
    // not-there-yet errnos, fail fast for everything else.
    if (saved_errno != ECONNREFUSED && saved_errno != ENOENT) {
      errno = saved_errno;
      return Errno("connect " + path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      errno = saved_errno;
      return Errno("connect " + path + " (timed out)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace cluster
}  // namespace sssj
