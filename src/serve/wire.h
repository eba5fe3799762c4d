#ifndef RANGESYN_SERVE_WIRE_H_
#define RANGESYN_SERVE_WIRE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/analysis_annotations.h"
#include "core/deadline.h"
#include "core/result.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

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

/// Reads what the socket has, at least one byte and at most `size`, into
/// `data`: one read(2). Without a deadline the read blocks until bytes
/// arrive or the socket is shut down; with one it waits at most until
/// the deadline. Carries the same failpoint sites as ReadFull.
///
/// Returns the byte count; OutOfRange("eof") on a clean EOF;
/// DeadlineExceeded once `deadline` expired; Internal on resets, hard
/// errors and injected faults.
Result<size_t> ReadSome(int fd, char* data, size_t size,
                        const WireSites& sites,
                        const Deadline& deadline = Deadline());

/// One connection's receive buffer, reused across frames. Each read takes
/// whatever the socket has, so a read may end mid-frame or carry the
/// start of the next frame; those bytes stay buffered for the next call.
/// The buffer grows only as bytes arrive, never to a size a header
/// merely declares, and Consume releases capacity above kCeilingBytes.
/// When given a gauge, it adds every change of its capacity to it.
class RANGESYN_OWNER_TYPE FrameBuffer {
 public:
  /// Capacity allocated for the first read.
  static constexpr size_t kInitialBytes = 16 << 10;
  /// Capacity a connection keeps between frames; any above it is
  /// released once the frame that needed it is consumed.
  static constexpr size_t kCeilingBytes = 1 << 20;

  explicit FrameBuffer(obs::Gauge* gauge = nullptr) : gauge_(gauge) {}
  ~FrameBuffer() { Release(); }

  FrameBuffer(const FrameBuffer&) = delete;
  FrameBuffer& operator=(const FrameBuffer&) = delete;

  /// True when no unconsumed byte is buffered.
  [[nodiscard]] bool empty() const { return begin_ == end_; }

  /// Appends the bytes of one ReadSome: on an empty buffer, waits for the
  /// first bytes of the next frame.
  Status ReadMore(int fd, const WireSites& sites,
                  const Deadline& deadline = Deadline());

  /// Reads until one whole frame is buffered and returns its header; the
  /// frame's bytes are then frame(). InvalidArgument when the header
  /// fails DecodeFrameHeader (the stream can no longer be framed);
  /// otherwise ReadSome's errors, with an EOF after the first byte of a
  /// frame reported as Internal.
  Result<FrameHeader> ReadFrame(int fd, const WireSites& sites,
                                const Deadline& deadline = Deadline());

  /// The frame the last ReadFrame returned: header, payload and trailer.
  /// Valid until the next call that reads or consumes.
  RANGESYN_LENDS_VIEW std::string_view frame() const {
    return std::string_view(bytes_.get() + begin_, frame_size_);
  }

  /// Drops the frame returned by the last ReadFrame (no-op when there is
  /// none), keeping any bytes after it.
  void Consume();

  /// Drops every buffered byte and frees the storage.
  void Release();

 private:
  /// One ReadSome into the free space after end_, made first: a full
  /// buffer slides its unconsumed bytes to the front, or, when they fill
  /// it, grows toward the `frame_size` bytes the current frame needs, by
  /// at most doubling.
  Status Fill(int fd, const WireSites& sites, const Deadline& deadline,
              size_t frame_size);
  /// Moves the unconsumed bytes into new storage of `capacity` bytes
  /// (none when 0) and adds the change of capacity to the gauge.
  void Reallocate(size_t capacity);

  obs::Gauge* gauge_;
  /// Uninitialised storage of capacity_ bytes; [begin_, end_) is
  /// unconsumed.
  std::unique_ptr<char[]> bytes_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  size_t frame_size_ = 0;
};

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
