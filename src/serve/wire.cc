#include "serve/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/failpoint.h"
#include "core/strings.h"

namespace rangesyn::serve {
namespace {

/// Bound on consecutive EINTR retries per syscall — a signal storm (the
/// daemon handles SIGTERM routinely) must degrade to a clean error, not
/// an unbounded spin. Mirrors the atomic-write bound in core/fs.cc.
constexpr int kMaxEintrRetries = 64;

std::string ErrnoText() { return std::strerror(errno); }

/// Poll slice while a deadline is set: bounds how late an expired
/// deadline is noticed.
constexpr int kDeadlineSliceMs = 10;

/// Waits up to timeout_ms (-1: no limit) for `events` on `fd`. Returns
/// true when the fd is ready (or hung up — the caller's syscall then
/// reports which), false on a timeout slice. The distinction matters
/// because the sockets are blocking: issuing accept/read after a bare
/// timeout would block indefinitely and never re-check the caller's stop
/// flag or deadline.
Result<bool> PollFor(int fd, short events, int timeout_ms,
                     std::string_view what) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  int eintr = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR && ++eintr <= kMaxEintrRetries) continue;
    return InternalError(StrCat(what, ": poll failed: ", ErrnoText()));
  }
}

/// Waits until `fd` is ready for `events`. Without a deadline this is one
/// untimed poll (shutdown(2) on the socket ends it); with one, it polls in
/// kDeadlineSliceMs slices and returns DeadlineExceeded once it expires.
Status WaitReady(int fd, short events, const Deadline& deadline,
                 std::string_view what) {
  const int slice_ms = deadline.unlimited() ? -1 : kDeadlineSliceMs;
  for (;;) {
    RANGESYN_RETURN_IF_ERROR(deadline.Check(what));
    RANGESYN_ASSIGN_OR_RETURN(const bool ready,
                              PollFor(fd, events, slice_ms, what));
    if (ready) return OkStatus();
  }
}

Result<struct sockaddr_in> ResolveIpv4(const std::string& host,
                                       uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // The daemon serves loopback / explicit-address deployments; hostname
  // resolution is the operator's concern (pass an IP).
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError(
        StrCat("not an IPv4 address: '", host, "'"));
  }
  return addr;
}

void SetNoDelay(int fd) {
  const int one = 1;
  // Best-effort: Nagle only costs latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Fd::Close() {
  if (fd_ < 0) return;
  // EINTR from close is treated as closed: on Linux the descriptor is
  // released before close can be interrupted, so retrying could close a
  // descriptor someone else just received.
  (void)::close(fd_);
  fd_ = -1;
}

void Fd::ShutdownBoth() const {
  if (fd_ < 0) return;
  (void)::shutdown(fd_, SHUT_RDWR);
}

WireSites::WireSites(std::string_view prefix)
    : read(StrCat(prefix, ".read")),
      read_reset(StrCat(prefix, ".read.reset")),
      read_short(StrCat(prefix, ".read.short")),
      write(StrCat(prefix, ".write")),
      write_reset(StrCat(prefix, ".write.reset")),
      write_short(StrCat(prefix, ".write.short")) {}

Result<Fd> ListenTcp(const std::string& host, uint16_t port) {
  RANGESYN_ASSIGN_OR_RETURN(struct sockaddr_in addr,
                            ResolveIpv4(host, port));
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return InternalError(StrCat("socket failed: ", ErrnoText()));
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return InternalError(StrCat("bind to ", host, ":", port,
                                " failed: ", ErrnoText()));
  }
  if (::listen(fd.get(), 128) != 0) {
    return InternalError(StrCat("listen failed: ", ErrnoText()));
  }
  return fd;
}

Result<uint16_t> BoundPort(int listen_fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return InternalError(StrCat("getsockname failed: ", ErrnoText()));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Fd> AcceptConn(int listen_fd, const std::atomic<bool>* stop,
                      int poll_ms) {
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return FailedPreconditionError("stopped");
    }
    RANGESYN_ASSIGN_OR_RETURN(
        bool ready, PollFor(listen_fd, POLLIN, poll_ms, "accept"));
    if (!ready) continue;  // timeout slice: re-check the stop flag
    if (failpoint::ShouldFail("serve.accept")) {
      return InternalError("failpoint 'serve.accept' fired");
    }
    const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn >= 0) {
      SetNoDelay(conn);
      return Fd(conn);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // poll timeout slice, interrupted, or peer gave up
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      // The stopper shut the listening socket down to wake this poll.
      return FailedPreconditionError("stopped");
    }
    return InternalError(StrCat("accept failed: ", ErrnoText()));
  }
}

Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      double timeout_s) {
  if (failpoint::ShouldFail("serve.connect")) {
    return InternalError("failpoint 'serve.connect' fired");
  }
  RANGESYN_ASSIGN_OR_RETURN(struct sockaddr_in addr,
                            ResolveIpv4(host, port));
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return InternalError(StrCat("socket failed: ", ErrnoText()));
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  (void)::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return InternalError(StrCat("connect to ", host, ":", port,
                                " failed: ", ErrnoText()));
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd.get();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int timeout_ms = static_cast<int>(timeout_s * 1000.0);
    const int ready = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
    if (ready <= 0) {
      return InternalError(StrCat("connect to ", host, ":", port,
                                  ": timed out after ", timeout_s, "s"));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return InternalError(StrCat("connect to ", host, ":", port,
                                  " failed: ", std::strerror(err)));
    }
  }
  (void)::fcntl(fd.get(), F_SETFL, flags);
  SetNoDelay(fd.get());
  return fd;
}

Status ReadFull(int fd, char* data, size_t size, const WireSites& sites,
                const Deadline& deadline) {
  size_t done = 0;
  int eintr = 0;
  while (done < size) {
    RANGESYN_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline, "read"));
    if (failpoint::ShouldFail(sites.read)) {
      return InternalError(StrCat("failpoint '", sites.read, "' fired"));
    }
    if (failpoint::ShouldFail(sites.read_reset)) {
      return InternalError(
          StrCat("failpoint '", sites.read_reset,
                 "' fired: injected ECONNRESET"));
    }
    const size_t want =
        failpoint::ShouldFail(sites.read_short) ? 1 : size - done;
    const ssize_t rc = ::read(fd, data + done, want);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      eintr = 0;
      continue;
    }
    if (rc == 0) {
      if (done == 0) return OutOfRangeError("eof");
      return InternalError(StrCat("connection closed mid-frame after ",
                                  done, " of ", size, " bytes"));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // wait again
    if (errno == EINTR) {
      if (++eintr > kMaxEintrRetries) {
        return InternalError("read: EINTR retry budget exhausted");
      }
      continue;
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return InternalError(StrCat("connection reset: ", ErrnoText()));
    }
    return InternalError(StrCat("read failed: ", ErrnoText()));
  }
  return OkStatus();
}

Status WriteFull(int fd, std::string_view data, const WireSites& sites,
                 const Deadline& deadline) {
  // With a deadline, send never blocks: a blocking send into a full
  // socket buffer would outlast any deadline.
  const int flags = MSG_NOSIGNAL | (deadline.unlimited() ? 0 : MSG_DONTWAIT);
  size_t done = 0;
  int eintr = 0;
  while (done < data.size()) {
    if (failpoint::ShouldFail(sites.write)) {
      return InternalError(StrCat("failpoint '", sites.write, "' fired"));
    }
    if (failpoint::ShouldFail(sites.write_reset)) {
      return InternalError(
          StrCat("failpoint '", sites.write_reset,
                 "' fired: injected ECONNRESET"));
    }
    const size_t want =
        failpoint::ShouldFail(sites.write_short) ? 1 : data.size() - done;
    const ssize_t rc = ::send(fd, data.data() + done, want, flags);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      eintr = 0;
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Full send buffer: resolves when the peer drains it, the
      // connection dies (reported by send), or the deadline expires.
      RANGESYN_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline, "write"));
      continue;
    }
    if (rc < 0 && errno == EINTR) {
      if (++eintr > kMaxEintrRetries) {
        return InternalError("write: EINTR retry budget exhausted");
      }
      continue;
    }
    if (rc < 0 && (errno == ECONNRESET || errno == EPIPE)) {
      return InternalError(StrCat("connection reset: ", ErrnoText()));
    }
    return InternalError(StrCat("write failed: ", ErrnoText()));
  }
  return OkStatus();
}

}  // namespace rangesyn::serve
