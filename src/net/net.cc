#include "src/net/net.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#if defined(SB7_HAVE_SOCKETS)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace sb7::net {

namespace {

#if defined(SB7_HAVE_SOCKETS)

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Remaining budget for a deadline-bounded loop: negative `timeout_ms`
/// means "no deadline" (poll forever), otherwise the clamped-to-zero
/// remainder so poll() returns immediately once the budget is spent.
int RemainingMillis(int timeout_ms, int64_t start_ms) {
  if (timeout_ms < 0) {
    return -1;
  }
  const int64_t elapsed = NowMillis() - start_ms;
  if (elapsed >= timeout_ms) {
    return 0;
  }
  return static_cast<int>(timeout_ms - elapsed);
}

/// Waits until `fd` is ready for `events` (POLLIN/POLLOUT) or the budget
/// runs out. Returns false on timeout or poll error.
bool WaitReady(int fd, short events, int timeout_ms, int64_t start_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int remaining = RemainingMillis(timeout_ms, start_ms);
  if (remaining == 0 && timeout_ms >= 0) {
    return false;
  }
  const int ready = PollRetry(&pfd, 1, remaining);
  // POLLERR/POLLHUP also count as "ready": the subsequent read/write will
  // surface the actual error instead of this loop spinning to timeout.
  return ready > 0;
}

#endif  // SB7_HAVE_SOCKETS

}  // namespace

void CloseFd(int fd) {
#if defined(SB7_HAVE_SOCKETS)
  if (fd >= 0) {
    ::close(fd);
  }
#else
  (void)fd;
#endif
}

void UniqueFd::reset(int fd) {
  if (fd_ >= 0 && fd_ != fd) {
    CloseFd(fd_);
  }
  fd_ = fd;
}

bool SetNonBlocking(int fd) {
#if defined(SB7_HAVE_SOCKETS)
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return false;
  }
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
#else
  (void)fd;
  return false;
#endif
}

bool SetNoDelay(int fd) {
#if defined(SB7_HAVE_SOCKETS)
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
#else
  (void)fd;
  return false;
#endif
}

#if defined(SB7_HAVE_SOCKETS)

int PollRetry(pollfd* fds, int nfds, int timeout_ms) {
  const int64_t start_ms = NowMillis();
  for (;;) {
    const int remaining = RemainingMillis(timeout_ms, start_ms);
    const int ready = ::poll(fds, static_cast<nfds_t>(nfds), remaining);
    if (ready >= 0 || errno != EINTR) {
      return ready;
    }
    // EINTR: re-arm with the *remaining* budget, not the original one.
  }
}

ssize_t ReadSome(int fd, void* buffer, size_t length) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, length, 0);
    if (n >= 0 || errno != EINTR) {
      return n;
    }
  }
}

ssize_t WriteSome(int fd, const void* buffer, size_t length) {
#if defined(MSG_NOSIGNAL)
  constexpr int kFlags = MSG_NOSIGNAL;
#else
  // macOS has no MSG_NOSIGNAL; SIGPIPE suppression there would need
  // SO_NOSIGPIPE per socket. ListenTcp/ConnectTcp set it below.
  constexpr int kFlags = 0;
#endif
  for (;;) {
    const ssize_t n = ::send(fd, buffer, length, kFlags);
    if (n >= 0 || errno != EINTR) {
      return n;
    }
  }
}

int AcceptRetry(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) {
      return fd;
    }
  }
}

bool ReadFull(int fd, void* buffer, size_t length, int timeout_ms) {
  const int64_t start_ms = NowMillis();
  char* out = static_cast<char*>(buffer);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ReadSome(fd, out + done, length - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return false;  // orderly EOF mid-message
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!WaitReady(fd, POLLIN, timeout_ms, start_ms)) {
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

bool WriteAll(int fd, const void* data, size_t length, int timeout_ms) {
  const int64_t start_ms = NowMillis();
  const char* in = static_cast<const char*>(data);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = WriteSome(fd, in + done, length - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!WaitReady(fd, POLLOUT, timeout_ms, start_ms)) {
        return false;
      }
      continue;
    }
    return false;  // EPIPE (peer gone), ECONNRESET, or a zero-byte send
  }
  return true;
}

bool WriteAll(int fd, const std::string& data, int timeout_ms) {
  return WriteAll(fd, data.data(), data.size(), timeout_ms);
}

namespace {

/// Best-effort per-socket SIGPIPE suppression for platforms without
/// MSG_NOSIGNAL (macOS). No-op elsewhere.
void SuppressSigpipe(int fd) {
#if defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

}  // namespace

#endif  // SB7_HAVE_SOCKETS

ListenResult ListenTcp(int port, int backlog) {
  ListenResult result;
#if defined(SB7_HAVE_SOCKETS)
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    result.error = std::string("socket: ") + std::strerror(errno);
    return result;
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  SuppressSigpipe(fd.get());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    result.error = std::string("bind: ") + std::strerror(errno);
    return result;
  }
  if (::listen(fd.get(), backlog) < 0) {
    result.error = std::string("listen: ") + std::strerror(errno);
    return result;
  }
  if (!SetNonBlocking(fd.get())) {
    result.error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
    return result;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    result.error = std::string("getsockname: ") + std::strerror(errno);
    return result;
  }
  result.port = ntohs(bound.sin_port);
  result.fd = std::move(fd);
#else
  (void)port;
  (void)backlog;
  result.error = "sockets unavailable on this platform";
#endif
  return result;
}

ConnectResult ConnectTcp(const std::string& host, int port) {
  ConnectResult result;
#if defined(SB7_HAVE_SOCKETS)
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    result.error = std::string("socket: ") + std::strerror(errno);
    return result;
  }
  SuppressSigpipe(fd.get());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string target =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    result.error = "unsupported host (IPv4 dotted quad or localhost): " + host;
    return result;
  }
  int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINTR) {
    // An interrupted connect keeps completing asynchronously; retrying the
    // call yields EALREADY. Wait for writability and read SO_ERROR instead.
    pollfd pfd{};
    pfd.fd = fd.get();
    pfd.events = POLLOUT;
    if (PollRetry(&pfd, 1, -1) <= 0) {
      result.error = "connect: interrupted and poll failed";
      return result;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      result.error =
          std::string("connect: ") + std::strerror(so_error ? so_error : errno);
      return result;
    }
    rc = 0;
  }
  if (rc < 0) {
    result.error = std::string("connect: ") + std::strerror(errno);
    return result;
  }
  SetNoDelay(fd.get());
  result.fd = std::move(fd);
#else
  (void)host;
  (void)port;
  result.error = "sockets unavailable on this platform";
#endif
  return result;
}

}  // namespace sb7::net
