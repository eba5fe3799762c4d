#ifndef RANGESYN_SERVE_SERVER_H_
#define RANGESYN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/result.h"
#include "core/thread_annotations.h"
#include "engine/catalog.h"
#include "obs/metrics.h"
#include "qpath/flat_synopsis.h"
#include "serve/protocol.h"
#include "serve/wire.h"

namespace rangesyn::serve {

/// The `rangesyn serve` daemon core (DESIGN.md §12): a thread-per-
/// connection TCP server speaking RSP1 that answers range-aggregate
/// queries lock-free from pre-resolved catalog FlatViews.
///
/// Robustness model, in order of the request lifecycle:
///   * admission control — at most `queue_limit` requests evaluate at
///     once; excess requests receive a typed OVERLOADED error
///     immediately, and connections beyond `max_connections` receive
///     OVERLOADED and are closed. Nothing is ever dropped silently.
///   * per-request deadlines — a request's deadline_ms starts counting at
///     admission and is propagated as a core Deadline into the evaluation
///     loop (polled every `eval_chunk` queries); expiry produces a typed
///     DEADLINE_EXCEEDED error.
///   * graceful drain — RequestDrain()/DrainAndWait() stop the listener,
///     answer every already-admitted request, reject newly arriving
///     requests with typed SHUTTING_DOWN, then close connections, flush a
///     flight-recorder dump (reason "drain"), and join every thread.
///   * chaos testability — every accept/read/write carries failpoint
///     sites (serve/wire.h) and evaluation carries "serve.eval", so the
///     soak harness can replay thousands of deterministic fault schedules
///     over the full connection lifecycle.
///
/// Each connection's thread reads a request, evaluates it inline and
/// writes the reply before reading the next, so a connection's replies
/// leave in request order and a slow evaluation stalls only its own
/// connection. Requests a client pipelines wait in the socket or in the
/// connection's receive buffer. Each connection owns its buffers (the
/// received bytes, the parsed request, the estimates and the reply) and
/// reuses them across requests, so a warm connection answers a query
/// without a heap allocation.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read the bound port back with port().
  uint16_t port = 0;
  /// Connections beyond this receive a typed OVERLOADED error and are
  /// closed without being served.
  int max_connections = 64;
  /// Admission cap: maximum requests evaluating at once; excess requests
  /// are shed with a typed OVERLOADED error. Each connection thread
  /// evaluates one request at a time, so at most `max_connections`
  /// evaluate at once and this cap sheds only when set below that.
  int queue_limit = 256;
  /// Queries evaluated between deadline polls inside one batch.
  int eval_chunk = 256;
  /// Shed/deadline-exceeded incidents within one second that trigger a
  /// rate-limited flight-recorder dump (reason "overload"); <= 0
  /// disables the trigger.
  int overload_dump_threshold = 32;
  /// Minimum spacing between two overload dumps.
  double overload_dump_min_gap_s = 5.0;
};

/// Per-server counters for the drain summary and tests. The same events
/// also feed the process-global obs metrics (serve.* — see
/// RegisterServingMetrics), which aggregate across servers.
struct ServerSummary {
  uint64_t conns_accepted = 0;
  uint64_t conns_closed = 0;
  uint64_t conns_rejected = 0;  // over max_connections, answered OVERLOADED
  uint64_t conns_open = 0;
  uint64_t requests = 0;  // parsed query requests (admitted or shed)
  uint64_t ok = 0;
  uint64_t shed = 0;  // OVERLOADED responses (admission control)
  uint64_t malformed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t not_found = 0;
  uint64_t internal = 0;
  uint64_t shutting_down = 0;
  uint64_t pings = 0;
  /// Responses that could not be written back (peer reset mid-reply).
  /// These requests were answered — the transport discarded the answer.
  uint64_t transport_errors = 0;
};

/// Process-global serving metrics, registered eagerly so `rangesyn stats
/// --format=prometheus` exposes them (with zero values) even before the
/// first request. Returns pointers owned by the obs Registry.
struct ServingMetrics {
  obs::Counter* requests;           // serve.request.count
  obs::Counter* ok;                 // serve.request.ok
  obs::Counter* malformed;          // serve.request.malformed
  obs::Counter* overloaded;         // serve.request.overloaded
  obs::Counter* deadline_exceeded;  // serve.request.deadline_exceeded
  obs::Counter* not_found;          // serve.request.not_found
  obs::Counter* internal;           // serve.request.internal
  obs::Counter* shutting_down;      // serve.request.shutting_down
  obs::Counter* shed;               // serve.shed.count
  obs::Counter* conns_accepted;     // serve.conn.accepted
  obs::Counter* conns_closed;       // serve.conn.closed
  obs::Counter* conns_rejected;     // serve.conn.rejected
  obs::Counter* transport_errors;   // serve.conn.write_error
  obs::Counter* drains;             // serve.drain.count
  obs::Gauge* queue_depth;          // serve.queue.depth
  obs::Gauge* open_conns;           // serve.conn.open
  /// Summed capacity of every connection's owned buffers, updated when a
  /// capacity changes.
  obs::Gauge* buffer_bytes;         // serve.conn.buffer_bytes
  obs::LatencyHistogram* latency;   // serve.request.latency (ns)

  /// The counter a given typed error feeds.
  obs::Counter* ForError(WireError code) const;
};

/// Registers (on first call) and returns the serving metrics.
const ServingMetrics& GetServingMetrics();

class Server {
 public:
  /// Pre-resolves a FlatView for every catalog entry — the per-request
  /// lookup is a const hash-map probe with no lock. The views own their
  /// buffers, so the catalog is dropped once they are resolved. Fails if
  /// any entry cannot compile to a flat view.
  static Result<std::unique_ptr<Server>> Create(SynopsisCatalog catalog,
                                                const ServerOptions& options);

  /// Binds the listener and starts accepting. port() is valid after.
  Status Start();

  /// The bound TCP port (after Start).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Number of synopsis keys served.
  [[nodiscard]] size_t num_keys() const { return views_.size(); }

  /// Marks the server draining: the listener stops accepting and newly
  /// arriving requests are answered with typed SHUTTING_DOWN. Safe to
  /// call from any thread, idempotent, returns immediately.
  void RequestDrain();

  /// True once RequestDrain was called (or drain completed).
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Completes a graceful drain: RequestDrain, wait (bounded by
  /// `grace_s`) for every admitted request to be answered and every
  /// connection thread to go idle, close all connections, join all
  /// threads, flush a flight-recorder "drain" dump and a structured
  /// drain log event. Returns DeadlineExceeded if in-flight work did not
  /// settle within the grace window (threads are still joined — the
  /// connections are shut down first, which unblocks them). Idempotent.
  Status DrainAndWait(double grace_s = 30.0);

  /// Point-in-time copy of the per-server counters.
  [[nodiscard]] ServerSummary summary() const;

  /// One-line text rendering of summary() for the daemon's exit message
  /// (the CI smoke job greps conns_open=0 from it).
  [[nodiscard]] std::string SummaryLine() const;

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct Conn;

  explicit Server(const ServerOptions& options);

  void ListenerLoop();
  void ConnLoop(Conn& conn);
  /// Reads, checks and dispatches the frame whose first bytes are in the
  /// connection's buffer. Returns false when the connection must close
  /// (transport end or protocol violation).
  bool HandleFrame(Conn& conn);
  /// Parses and dispatches one already-CRC-checked frame. Returns false
  /// when the connection must close (protocol violation).
  bool DispatchFrame(Conn& conn, const FrameView& frame);
  /// Parses, admits and evaluates one query payload, then counts, writes
  /// and releases its one outcome.
  void HandleQuery(Conn& conn, std::string_view payload);
  /// Evaluates the connection's parsed request into its estimates, or
  /// returns the typed error that ends it.
  std::optional<ErrorResponse> Evaluate(Conn& conn,
                                        const Deadline& deadline) const;
  /// Writes one reply frame; on transport failure marks the connection
  /// dead (typed accounting, never a hang).
  void WriteReply(Conn& conn, std::string_view frame_bytes);
  /// Frees each of the connection's request, estimate and reply buffers
  /// whose capacity exceeds `keep_bytes`, and adds any change of their
  /// summed capacity to serve.conn.buffer_bytes.
  void SettleBuffers(Conn& conn, size_t keep_bytes);
  /// Counts one request refused before evaluation (malformed, draining,
  /// shed) with its typed outcome, and writes the error frame.
  void Refuse(Conn& conn, const ErrorResponse& error);
  void CountRequest();
  /// Records one typed outcome: per-server counter, global metric,
  /// latency histogram (when admitted_ns != 0), overload-burst tracking.
  void CountOutcome(WireError code, uint64_t admitted_ns);
  void CountOk(uint64_t admitted_ns);
  /// Rate-limited flight dump on shed / deadline-exceeded bursts.
  void NoteOverloadIncident();
  /// Joins finished connection threads (called from the listener loop).
  void ReapConnections(bool all);
  /// Admission release: decrements inflight_ and refreshes the depth
  /// gauge.
  void ReleaseInflight();
  /// True while any connection thread is processing a frame.
  [[nodiscard]] bool AnyConnBusy() const;
  /// Registered, not-yet-finished connections.
  [[nodiscard]] int64_t OpenConnCount() const;

  const ServerOptions options_;
  /// Immutable after Create: key -> flat view. Lookups are lock-free.
  std::unordered_map<std::string, std::shared_ptr<const FlatSynopsis>>
      views_;

  Fd listen_fd_;
  uint16_t port_ = 0;
  // lint: waive(LINT-004) blocking accept loop, joined on drain
  std::thread listener_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};

  /// Admitted (evaluating) requests; bounded by queue_limit.
  std::atomic<int64_t> inflight_{0};

  mutable Mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_ RANGESYN_GUARDED_BY(conns_mu_);

  /// Per-server counters (see ServerSummary).
  struct Counters {
    std::atomic<uint64_t> conns_accepted{0};
    std::atomic<uint64_t> conns_closed{0};
    std::atomic<uint64_t> conns_rejected{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> malformed{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> not_found{0};
    std::atomic<uint64_t> internal{0};
    std::atomic<uint64_t> shutting_down{0};
    std::atomic<uint64_t> pings{0};
    std::atomic<uint64_t> transport_errors{0};
  };
  Counters counters_;

  /// Overload-burst dump state (satellite: flight dumps beyond crashes).
  std::atomic<int64_t> burst_window_start_ns_{0};
  std::atomic<int32_t> burst_in_window_{0};
  std::atomic<int64_t> last_overload_dump_ns_{0};
};

}  // namespace rangesyn::serve

#endif  // RANGESYN_SERVE_SERVER_H_
