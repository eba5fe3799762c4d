#ifndef RANGESYN_SERVE_CLIENT_H_
#define RANGESYN_SERVE_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/deadline.h"
#include "core/random.h"
#include "core/result.h"
#include "serve/protocol.h"
#include "serve/wire.h"

namespace rangesyn::serve {

/// RSP1 client with timeouts, bounded retries, and exponential backoff
/// (DESIGN.md §12.4). The retry policy is deliberately narrow:
///
///   * retried: transport failures (connect/read/write errors, resets,
///     injected faults, protocol desync — the connection is torn down and
///     re-dialed first) and typed OVERLOADED responses, both only for
///     idempotent requests. Every request this client sends (ping, query)
///     is an idempotent read, so a duplicate delivery after an ambiguous
///     failure is harmless.
///   * never retried: MALFORMED (retrying a bad request cannot fix it),
///     NOT_FOUND, DEADLINE_EXCEEDED (the budget is spent), INTERNAL
///     (not known to be transient), SHUTTING_DOWN (the server asked us to
///     go away).
///
/// Backoff between attempts is exponential with deterministic jitter:
/// attempt k sleeps `min(max_backoff, initial_backoff * 2^k) * (0.5 +
/// 0.5 * u)` where `u` comes from a seeded Rng — reproducible run over
/// run, and capped by the remaining deadline budget.
///
/// The request's `deadline_ms` is simultaneously the server-side
/// evaluation deadline and the client-side *retry budget*: once it
/// expires locally, the client stops retrying and surfaces
/// DeadlineExceeded instead of sleeping past the caller's patience.
/// Socket reads and writes wait at most the budget plus a one-second
/// grace (room for the server's own typed DEADLINE_EXCEEDED answer), so
/// a server that accepts and then goes silent, or stops reading, cannot
/// hold the client past it.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_s = 5.0;
  /// Total tries per request (first attempt + retries), >= 1.
  int max_attempts = 3;
  double initial_backoff_s = 0.01;
  double max_backoff_s = 0.5;
  /// Seed for the jitter stream (deterministic backoff schedules).
  uint64_t backoff_seed = 0;
};

/// Attempt accounting, exposed for tests and the loadgen report.
struct ClientStats {
  uint64_t requests = 0;    // round-trips requested by the caller
  uint64_t attempts = 0;    // wire attempts, >= requests
  uint64_t reconnects = 0;  // re-dials after a transport failure
  uint64_t retries = 0;     // backoff-then-retry transitions
};

/// One connection worth of client state. Not thread-safe: a loadgen
/// worker owns one Client; concurrent callers each hold their own. The
/// client owns its send and receive buffers and reuses them across
/// requests: a query is encoded straight from the caller's ranges, and
/// its reply is parsed straight into the returned estimates.
class RANGESYN_OWNER_TYPE Client {
 public:
  explicit Client(const ClientOptions& options);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Liveness probe: one kPing round-trip under the retry policy.
  /// `deadline_ms` bounds the whole attempt sequence (0 = attempts only).
  Status Ping(uint32_t deadline_ms);

  /// Batched estimate query. On success returns one estimate per range,
  /// in range order. Typed server errors surface as the matching Status
  /// code (WireErrorStatusCode); transport failures that outlive the
  /// retry budget surface as Internal (or DeadlineExceeded once the
  /// budget is spent). A batch whose frame would exceed
  /// kMaxPayloadBytes is InvalidArgument, and nothing is sent.
  Result<std::vector<double>> Query(const std::string& key,
                                    std::span<const FlatQuery> ranges,
                                    uint32_t deadline_ms);

  /// Drops the connection (the next request re-dials).
  void Disconnect();

  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  /// Sends `frame_bytes` and reads one response frame, applying the full
  /// retry policy. `what` labels errors. The returned payload is a view
  /// into rx_, valid until the next round trip.
  RANGESYN_LENDS_VIEW Result<FrameView> RoundTrip(std::string_view frame_bytes,
                                                  uint32_t deadline_ms,
                                                  std::string_view what);
  Status EnsureConnected();
  /// Reads one complete frame (header, payload, CRC) off the wire into
  /// rx_, giving up with DeadlineExceeded once `deadline` expires.
  RANGESYN_LENDS_VIEW Result<FrameView> ReadFrame(const Deadline& deadline);

  const ClientOptions options_;
  Fd fd_;
  WireSites sites_{"serve.client"};
  /// The encoded query frame, and the bytes read off the connection.
  std::string tx_;
  FrameBuffer rx_;
  Rng jitter_;
  ClientStats stats_;
  uint64_t next_request_id_ = 1;
};

}  // namespace rangesyn::serve

#endif  // RANGESYN_SERVE_CLIENT_H_
