#ifndef RANGESYN_SERVE_WIRE_H_
#define RANGESYN_SERVE_WIRE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/deadline.h"
#include "core/result.h"

namespace rangesyn::serve {

/// Thin POSIX socket layer under the RSP1 framing: owning fds, exact-size
/// reads/writes with EINTR retries and optional deadlines, and the
/// failpoint sites that make the whole connection lifecycle
/// deterministically chaos-testable (DESIGN.md §12.5).
///
/// Failpoint site families — both ends of a connection carry the same
/// suffixes under their own prefix, so one spec can chaos the server
/// ("serve.conn.*"), the client ("serve.client.*"), or both ("serve.*"):
///
///   serve.accept              accept() returns an injected error
///   serve.connect             client connect() fails
///   <prefix>.read             read() returns an injected hard error
///   <prefix>.read.reset       read() observes an injected ECONNRESET
///   <prefix>.read.short       this read iteration returns at most 1 byte
///   <prefix>.write            write() returns an injected hard error
///   <prefix>.write.reset      write() observes an injected ECONNRESET
///   <prefix>.write.short      this write iteration sends at most 1 byte
///
/// Every site also supports `sleep:MS` latency injection (failpoint.h),
/// which is how the soak and the CI smoke job exercise deadline expiry
/// and slow-peer handling without real network jitter.

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Closes now (idempotent). EINTR from close is treated as closed —
  /// on Linux the descriptor is released regardless.
  void Close();

  /// shutdown(SHUT_RDWR): wakes any thread blocked reading this fd (its
  /// read returns 0) without racing the close. The drain path uses this
  /// to unblock connection threads before joining them.
  void ShutdownBoth() const;

 private:
  int fd_ = -1;
};

/// Pre-rendered failpoint site names for one connection direction, so the
/// per-iteration ShouldFail checks never concatenate strings.
struct WireSites {
  explicit WireSites(std::string_view prefix);

  std::string read;
  std::string read_reset;
  std::string read_short;
  std::string write;
  std::string write_reset;
  std::string write_short;
};

/// Binds and listens on `host:port` (SO_REUSEADDR; port 0 picks an
/// ephemeral port — read it back with BoundPort).
Result<Fd> ListenTcp(const std::string& host, uint16_t port);

/// The locally bound port of a listening socket.
Result<uint16_t> BoundPort(int listen_fd);

/// Accepts one connection. Polls in `poll_ms` slices and returns
/// FailedPrecondition("stopped") once `stop` is set, so the listener
/// thread can exit promptly on drain. A stopper that also shuts the
/// listening socket down (Fd::ShutdownBoth) wakes the poll at once: the
/// accept that follows fails, and with `stop` set that failure reads as
/// "stopped", not as an accept error. Carries the "serve.accept"
/// failpoint. TCP_NODELAY is set on the accepted socket (request/response
/// traffic, no batching wanted from the kernel).
Result<Fd> AcceptConn(int listen_fd, const std::atomic<bool>* stop,
                      int poll_ms = 100);

/// Connects to `host:port` with a bounded wait. Carries the
/// "serve.connect" failpoint.
Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      double timeout_s);

/// Reads exactly `size` bytes into `data`. EINTR retries are bounded.
/// Without a deadline the read blocks until the bytes arrive or the
/// socket is shut down (drain's shutdown(2) wakes the server's readers);
/// with one it gives up once the deadline expires, even mid-buffer.
///
/// Returns OkStatus on success; OutOfRange("eof") on a clean EOF before
/// the first byte (the peer closed between frames); DeadlineExceeded once
/// `deadline` expired; Internal on resets, hard errors, injected faults,
/// and mid-buffer EOF.
Status ReadFull(int fd, char* data, size_t size, const WireSites& sites,
                const Deadline& deadline = Deadline());

/// Writes all of `data` (MSG_NOSIGNAL — a dead peer surfaces as a Status,
/// never SIGPIPE). EINTR retries are bounded. With a deadline, a peer
/// that stops reading (full socket buffer) ends the write with
/// DeadlineExceeded once the deadline expires; without one the write
/// blocks until the peer reads or the socket is shut down. Internal on
/// resets, hard errors, and injected faults.
Status WriteFull(int fd, std::string_view data, const WireSites& sites,
                 const Deadline& deadline = Deadline());

}  // namespace rangesyn::serve

#endif  // RANGESYN_SERVE_WIRE_H_
