#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/failpoint.h"
#include "core/status.h"
#include "core/strings.h"
#include "obs/obs.h"

namespace rangesyn::serve {
namespace {

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int64_t kBurstWindowNs = 1'000'000'000;  // 1s incident window

}  // namespace

const ServingMetrics& GetServingMetrics() {
  static const ServingMetrics metrics = [] {
    obs::Registry& reg = obs::Registry::Get();
    ServingMetrics m;
    m.requests = reg.GetCounter("serve.request.count");
    m.ok = reg.GetCounter("serve.request.ok");
    m.malformed = reg.GetCounter("serve.request.malformed");
    m.overloaded = reg.GetCounter("serve.request.overloaded");
    m.deadline_exceeded = reg.GetCounter("serve.request.deadline_exceeded");
    m.not_found = reg.GetCounter("serve.request.not_found");
    m.internal = reg.GetCounter("serve.request.internal");
    m.shutting_down = reg.GetCounter("serve.request.shutting_down");
    m.shed = reg.GetCounter("serve.shed.count");
    m.conns_accepted = reg.GetCounter("serve.conn.accepted");
    m.conns_closed = reg.GetCounter("serve.conn.closed");
    m.conns_rejected = reg.GetCounter("serve.conn.rejected");
    m.transport_errors = reg.GetCounter("serve.conn.write_error");
    m.drains = reg.GetCounter("serve.drain.count");
    m.queue_depth = reg.GetGauge("serve.queue.depth");
    m.open_conns = reg.GetGauge("serve.conn.open");
    m.buffer_bytes = reg.GetGauge("serve.conn.buffer_bytes");
    m.latency = reg.GetHistogram("serve.request.latency");
    return m;
  }();
  return metrics;
}

obs::Counter* ServingMetrics::ForError(WireError code) const {
  switch (code) {
    case WireError::kMalformed:
      return malformed;
    case WireError::kOverloaded:
      return overloaded;
    case WireError::kDeadlineExceeded:
      return deadline_exceeded;
    case WireError::kNotFound:
      return not_found;
    case WireError::kInternal:
      return internal;
    case WireError::kShuttingDown:
      return shutting_down;
  }
  return internal;
}

/// One live connection, owned by conns_. Its thread is the only one that
/// reads or writes the socket: every reply is written by the thread that
/// read the request, so replies leave in request order and need no lock.
/// It also owns the buffers its requests are parsed, evaluated and
/// encoded in; views into them live no longer than one frame.
struct RANGESYN_OWNER_TYPE Server::Conn {
  explicit Conn(Fd fd_in) : fd(std::move(fd_in)) {}

  Fd fd;
  // lint: waive(LINT-004) blocking-read thread, joined at reap/drain
  std::thread thread;
  /// A reply write failed (reset / injected fault): the loop stops after
  /// the current frame.
  bool dead = false;
  /// 1 from the first byte of a frame until its reply is written; the
  /// drain settle-wait uses it so a reply in progress is not cut off by
  /// the fd shutdown.
  std::atomic<int32_t> busy{0};
  /// ConnLoop returned; the thread is joinable and the conn reapable.
  std::atomic<bool> finished{false};
  WireSites sites{"serve.conn"};
  /// Bytes read off the socket, the frame being handled first.
  FrameBuffer rx{GetServingMetrics().buffer_bytes};
  /// The frame's parsed query, its estimates and the encoded reply.
  QueryRequest request;
  std::vector<double> estimates;
  std::string reply;
  /// The capacity of request, estimates and reply last added to
  /// serve.conn.buffer_bytes (rx adds its own).
  int64_t published_bytes = 0;
};

Server::Server(const ServerOptions& options) : options_(options) {}

Result<std::unique_ptr<Server>> Server::Create(SynopsisCatalog catalog,
                                               const ServerOptions& options) {
  if (options.max_connections < 1) {
    return InvalidArgumentError("serve: max_connections must be >= 1");
  }
  if (options.queue_limit < 1) {
    return InvalidArgumentError("serve: queue_limit must be >= 1");
  }
  if (options.eval_chunk < 1) {
    return InvalidArgumentError("serve: eval_chunk must be >= 1");
  }
  std::unique_ptr<Server> server(
      new Server(options));  // lint: waive(LINT-004)
  for (const SynopsisCatalog::EntryInfo& info : catalog.ListEntries()) {
    RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                              catalog.FlatView(info.key));
    server->views_.emplace(info.key, std::move(view));
  }
  return server;
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return FailedPreconditionError("serve: already started");
  }
  RANGESYN_ASSIGN_OR_RETURN(listen_fd_,
                            ListenTcp(options_.host, options_.port));
  RANGESYN_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_.get()));
  // lint: waive(LINT-004) dedicated blocking listener thread
  listener_ = std::thread([this] { ListenerLoop(); });
  RANGESYN_LOG_EVENT(Info, "serve.start")
      .Arg("host", options_.host)
      .Arg("port", static_cast<int64_t>(port_))
      .Arg("keys", static_cast<int64_t>(views_.size()))
      .Arg("queue_limit", options_.queue_limit)
      .Arg("max_connections", options_.max_connections);
  return OkStatus();
}

void Server::RequestDrain() { draining_.store(true, std::memory_order_release); }

void Server::ListenerLoop() {
  for (;;) {
    Result<Fd> accepted = AcceptConn(listen_fd_.get(), &draining_);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kFailedPrecondition) {
        break;  // drain: stop accepting
      }
      RANGESYN_LOG_EVENT(Warning, "serve.accept.error")
          .Arg("error", accepted.status().message());
      continue;
    }
    counters_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
    GetServingMetrics().conns_accepted->Increment();
    ReapConnections(/*all=*/false);
    if (OpenConnCount() >= options_.max_connections) {
      // Over the connection cap: a typed refusal, then close — the peer
      // learns why instead of seeing a silent RST or an unbounded queue.
      // Not a request, so no serve.request.* outcome either.
      counters_.conns_rejected.fetch_add(1, std::memory_order_relaxed);
      GetServingMetrics().conns_rejected->Increment();
      NoteOverloadIncident();
      WireSites sites("serve.conn");
      (void)WriteFull(accepted->get(),
                      EncodeError({0, WireError::kOverloaded,
                                   "connection limit reached"}),
                      sites);
      continue;  // accepted's destructor closes the fd
    }
    auto owned = std::make_unique<Conn>(std::move(*accepted));
    Conn& conn = *owned;
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(std::move(owned));
    }
    GetServingMetrics().open_conns->Set(OpenConnCount());
    // One blocking thread per connection reads, evaluates and replies.
    // Only this (listener) thread and drain, after joining it, reap
    // connections, so `conn` outlives the thread started here.
    // lint: waive(LINT-004) dedicated blocking per-connection thread
    conn.thread = std::thread([this, &conn] { ConnLoop(conn); });
  }
}

void Server::ConnLoop(Conn& conn) {
  for (;;) {
    // Between frames, wait for the next frame's first bytes, unless a
    // pipelined frame already began in the buffer. A clean EOF, the drain
    // shutdown or a transport fault ends the connection; faults already
    // surfaced as a typed client-side error (reset), so nothing is silent.
    if (conn.rx.empty() && !conn.rx.ReadMore(conn.fd.get(), conn.sites).ok()) {
      break;
    }
    conn.busy.store(1, std::memory_order_release);
    const bool keep = HandleFrame(conn);
    conn.busy.store(conn.rx.empty() ? 0 : 1, std::memory_order_release);
    if (!keep || conn.dead) break;
  }
  conn.busy.store(0, std::memory_order_release);
  // Send FIN now: the fd object itself is reclaimed later (ReapConnections
  // or drain), but the peer must observe the close immediately — a client
  // waiting for the next frame after a protocol-violation reply would
  // otherwise hang until its own timeout.
  conn.fd.ShutdownBoth();
  // Free the owned buffers now rather than at reap, and take what is left
  // (an empty string's inline capacity) off the gauge.
  conn.rx.Release();
  SettleBuffers(conn, /*keep_bytes=*/0);
  GetServingMetrics().buffer_bytes->Add(-conn.published_bytes);
  conn.published_bytes = 0;
  counters_.conns_closed.fetch_add(1, std::memory_order_relaxed);
  GetServingMetrics().conns_closed->Increment();
  conn.finished.store(true, std::memory_order_release);
  GetServingMetrics().open_conns->Set(OpenConnCount());
}

bool Server::HandleFrame(Conn& conn) {
  Result<FrameHeader> header = conn.rx.ReadFrame(conn.fd.get(), conn.sites);
  if (!header.ok()) {
    if (header.status().code() == StatusCode::kInvalidArgument) {
      // Bad magic/version/size: the stream position is unknowable, so
      // answer typed MALFORMED and close rather than resynchronize.
      Refuse(conn, {0, WireError::kMalformed,
                    std::string(header.status().message())});
    }
    return false;  // otherwise the transport ended mid-frame
  }
  bool keep = false;
  Result<std::string_view> payload =
      CheckFrameCrcInPlace(conn.rx.frame(), *header);
  if (!payload.ok()) {
    // Checksum mismatch: the transport corrupted bytes in flight; typed
    // MALFORMED, then close (framing can no longer be trusted).
    Refuse(conn, {0, WireError::kMalformed,
                  std::string(payload.status().message())});
  } else {
    keep = DispatchFrame(conn, {header->type, *payload});
  }
  conn.rx.Consume();
  SettleBuffers(conn, FrameBuffer::kCeilingBytes);
  return keep;
}

bool Server::DispatchFrame(Conn& conn, const FrameView& frame) {
  switch (frame.type) {
    case MsgType::kPing: {
      Result<PingMessage> ping = ParsePing(frame.payload);
      if (!ping.ok()) {
        Refuse(conn, {0, WireError::kMalformed,
                      std::string(ping.status().message())});
        return true;
      }
      // Pings answer even during drain: they are the liveness probe the
      // orchestrator uses to watch the drain make progress.
      counters_.pings.fetch_add(1, std::memory_order_relaxed);
      WriteReply(conn, EncodePong(ping->request_id));
      return true;
    }
    case MsgType::kQuery:
      HandleQuery(conn, frame.payload);
      return true;  // framing is intact; keep serving this connection
    case MsgType::kPong:
    case MsgType::kQueryOk:
    case MsgType::kError:
      // Response frames flowing client->server are a protocol violation.
      Refuse(conn, {0, WireError::kMalformed,
                    StrCat("unexpected frame type ",
                           static_cast<int>(frame.type), " from client")});
      return false;
  }
  return false;
}

void Server::HandleQuery(Conn& conn, std::string_view payload) {
  const Status parsed = ParseQueryInto(payload, &conn.request);
  if (!parsed.ok()) {
    Refuse(conn, {0, WireError::kMalformed, std::string(parsed.message())});
    return;
  }
  const uint64_t id = conn.request.request_id;
  if (draining()) {
    Refuse(conn, {id, WireError::kShuttingDown, "server draining"});
    return;
  }
  // Admission control: reserve an evaluation slot; over the cap, shed
  // with a typed error instead of evaluating.
  const int64_t depth = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.queue_limit) {
    ReleaseInflight();
    Refuse(conn, {id, WireError::kOverloaded,
                  StrCat("queue limit ", options_.queue_limit, " reached")});
    return;
  }
  CountRequest();
  GetServingMetrics().queue_depth->Set(depth);
  // The deadline clock starts at admission, on this connection thread.
  Deadline deadline;
  if (conn.request.deadline_ms > 0) {
    deadline = Deadline::After(conn.request.deadline_ms / 1000.0);
  }
  const uint64_t admitted_ns = static_cast<uint64_t>(MonoNs());
  const std::optional<ErrorResponse> error = Evaluate(conn, deadline);
  if (error.has_value()) {
    CountOutcome(error->code, admitted_ns);
    WriteReply(conn, EncodeError(*error));
  } else {
    CountOk(admitted_ns);
    EncodeQueryOkInto(id, conn.estimates, &conn.reply);
    WriteReply(conn, conn.reply);
  }
  ReleaseInflight();
}

std::optional<ErrorResponse> Server::Evaluate(Conn& conn,
                                              const Deadline& deadline) const {
  const QueryRequest& request = conn.request;
  const uint64_t id = request.request_id;
  // Evaluation-stage fault/latency injection (the drain test parks
  // requests here with sleep:MS; the soak injects hard failures).
  if (failpoint::ShouldFail("serve.eval")) {
    return ErrorResponse{id, WireError::kInternal,
                         "failpoint 'serve.eval' fired"};
  }
  if (deadline.Expired()) {
    return ErrorResponse{id, WireError::kDeadlineExceeded,
                         "deadline expired before evaluation"};
  }
  const auto it = views_.find(request.key);
  if (it == views_.end()) {
    return ErrorResponse{id, WireError::kNotFound,
                         StrCat("unknown synopsis key '", request.key, "'")};
  }
  const FlatSynopsis& view = *it->second;
  for (const FlatQuery& q : request.ranges) {
    if (q.a < 1 || q.a > q.b || q.b > view.n()) {
      return ErrorResponse{id, WireError::kMalformed,
                           StrCat("range [", q.a, ", ", q.b,
                                  "] outside domain [1, ", view.n(), "]")};
    }
  }
  conn.estimates.resize(request.ranges.size());
  const size_t chunk = static_cast<size_t>(options_.eval_chunk);
  const std::span<const FlatQuery> queries(request.ranges);
  const std::span<double> out(conn.estimates);
  for (size_t off = 0; off < queries.size(); off += chunk) {
    if (deadline.Expired()) {
      return ErrorResponse{id, WireError::kDeadlineExceeded,
                           StrCat("deadline expired after ", off, " of ",
                                  queries.size(), " ranges")};
    }
    const size_t len = std::min(chunk, queries.size() - off);
    // Chunked batches answer bit-identically to one big batch: every
    // element equals the matching EstimateOne regardless of grouping.
    Status eval =
        view.EstimateMany(queries.subspan(off, len), out.subspan(off, len));
    if (!eval.ok()) {
      return ErrorResponse{id, WireError::kInternal,
                           std::string(eval.message())};
    }
  }
  return std::nullopt;
}

void Server::WriteReply(Conn& conn, std::string_view frame_bytes) {
  const Status written = WriteFull(conn.fd.get(), frame_bytes, conn.sites);
  if (written.ok()) return;
  // The peer observes a connection error (typed client-side); account for
  // the undeliverable answer and end the connection after this frame.
  conn.dead = true;
  counters_.transport_errors.fetch_add(1, std::memory_order_relaxed);
  GetServingMetrics().transport_errors->Increment();
  RANGESYN_LOG_EVENT(Warning, "serve.conn.write_error")
      .Arg("error", written.message());
}

void Server::SettleBuffers(Conn& conn, size_t keep_bytes) {
  const auto bytes = [](const auto& buffer) {
    return buffer.capacity() * sizeof(*buffer.data());
  };
  const auto trim = [&bytes, keep_bytes](auto& buffer) {
    // Swap, not assign: a string move-assigned from an empty one keeps
    // its storage.
    if (bytes(buffer) > keep_bytes) {
      std::remove_reference_t<decltype(buffer)>().swap(buffer);
    }
  };
  trim(conn.request.key);
  trim(conn.request.ranges);
  trim(conn.estimates);
  trim(conn.reply);
  const auto total = static_cast<int64_t>(
      bytes(conn.request.key) + bytes(conn.request.ranges) +
      bytes(conn.estimates) + bytes(conn.reply));
  if (total != conn.published_bytes) {
    GetServingMetrics().buffer_bytes->Add(total - conn.published_bytes);
    conn.published_bytes = total;
  }
}

void Server::Refuse(Conn& conn, const ErrorResponse& error) {
  CountRequest();
  CountOutcome(error.code, 0);
  WriteReply(conn, EncodeError(error));
}

void Server::CountRequest() {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  GetServingMetrics().requests->Increment();
}

void Server::CountOutcome(WireError code, uint64_t admitted_ns) {
  switch (code) {
    case WireError::kMalformed:
      counters_.malformed.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireError::kOverloaded:  // only admission control sheds
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      GetServingMetrics().shed->Increment();
      break;
    case WireError::kDeadlineExceeded:
      counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireError::kNotFound:
      counters_.not_found.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireError::kInternal:
      counters_.internal.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireError::kShuttingDown:
      counters_.shutting_down.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  GetServingMetrics().ForError(code)->Increment();
  if (admitted_ns != 0) {
    GetServingMetrics().latency->RecordSigned(
        MonoNs() - static_cast<int64_t>(admitted_ns));
  }
  if (code == WireError::kOverloaded ||
      code == WireError::kDeadlineExceeded) {
    NoteOverloadIncident();
  }
}

void Server::CountOk(uint64_t admitted_ns) {
  counters_.ok.fetch_add(1, std::memory_order_relaxed);
  GetServingMetrics().ok->Increment();
  GetServingMetrics().latency->RecordSigned(
      MonoNs() - static_cast<int64_t>(admitted_ns));
}

void Server::NoteOverloadIncident() {
  if (options_.overload_dump_threshold <= 0) return;
  const int64_t now = MonoNs();
  int64_t window = burst_window_start_ns_.load(std::memory_order_relaxed);
  if (now - window > kBurstWindowNs) {
    // Stale window: whoever wins the CAS resets the incident count; the
    // loser just counts into the fresh window.
    if (burst_window_start_ns_.compare_exchange_strong(
            window, now, std::memory_order_relaxed)) {
      burst_in_window_.store(0, std::memory_order_relaxed);
    }
  }
  const int32_t incidents =
      burst_in_window_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (incidents < options_.overload_dump_threshold) return;
  const int64_t min_gap_ns =
      static_cast<int64_t>(options_.overload_dump_min_gap_s * 1e9);
  int64_t last = last_overload_dump_ns_.load(std::memory_order_relaxed);
  if (now - last < min_gap_ns) return;
  // The CAS makes exactly one thread per burst the dumper.
  if (!last_overload_dump_ns_.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;
  }
  burst_in_window_.store(0, std::memory_order_relaxed);
  RANGESYN_LOG_EVENT(Warning, "serve.overload.dump")
      .Arg("incidents", incidents)
      .Arg("window_ms", kBurstWindowNs / 1'000'000);
  obs::FlightRecorder::Get().AutoDump("overload");
}

void Server::ReleaseInflight() {
  const int64_t depth =
      inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  GetServingMetrics().queue_depth->Set(depth);
}

bool Server::AnyConnBusy() const {
  MutexLock lock(conns_mu_);
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->busy.load(std::memory_order_acquire) > 0) return true;
  }
  return false;
}

int64_t Server::OpenConnCount() const {
  MutexLock lock(conns_mu_);
  int64_t open = 0;
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (!conn->finished.load(std::memory_order_acquire)) ++open;
  }
  return open;
}

void Server::ReapConnections(bool all) {
  std::vector<std::unique_ptr<Conn>> reaped;
  {
    MutexLock lock(conns_mu_);
    auto keep = conns_.begin();
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (all || (*it)->finished.load(std::memory_order_acquire)) {
        reaped.push_back(std::move(*it));
      } else {
        *keep++ = std::move(*it);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  // Join outside the lock: a connection thread being joined must never
  // need conns_mu_ (and does not), but keeping joins lock-free makes the
  // settle-wait's OpenConnCount calls unblockable.
  for (const std::unique_ptr<Conn>& conn : reaped) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

Status Server::DrainAndWait(double grace_s) {
  if (!started_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("serve: not started");
  }
  if (drained_.exchange(true)) return OkStatus();  // first caller drains
  RequestDrain();
  // Wake the listener's poll at once rather than at its next stop-flag
  // slice; its accept then fails and AcceptConn reports "stopped".
  listen_fd_.ShutdownBoth();
  if (listener_.joinable()) listener_.join();
  // Settle: every admitted request answered, every connection thread
  // between frames. Polling (1ms) keeps the wait simple and the bound
  // explicit.
  const auto settle_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(grace_s));
  bool settled = false;
  for (;;) {
    if (inflight_.load(std::memory_order_acquire) == 0 && !AnyConnBusy()) {
      settled = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= settle_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Wake blocked readers (their read returns 0) and collect the threads.
  {
    MutexLock lock(conns_mu_);
    for (const std::unique_ptr<Conn>& conn : conns_) {
      conn->fd.ShutdownBoth();
    }
  }
  ReapConnections(/*all=*/true);
  listen_fd_.Close();
  GetServingMetrics().open_conns->Set(0);
  GetServingMetrics().drains->Increment();
  const ServerSummary s = summary();
  RANGESYN_LOG_EVENT(Info, "serve.drain")
      .Arg("settled", settled)
      .Arg("accepted", s.conns_accepted)
      .Arg("requests", s.requests)
      .Arg("ok", s.ok)
      .Arg("shed", s.shed)
      .Arg("deadline_exceeded", s.deadline_exceeded)
      .Arg("shutting_down", s.shutting_down)
      .Arg("transport_errors", s.transport_errors);
  // The drain postmortem artifact: what the server was doing on the way
  // down, plus a metrics snapshot (satellite: dumps beyond fatal
  // signals).
  obs::FlightRecorder::Get().AutoDump("drain");
  if (!settled) {
    return DeadlineExceededError(
        StrCat("serve: drain did not settle within ", grace_s, "s (",
               inflight_.load(std::memory_order_relaxed),
               " requests in flight)"));
  }
  return OkStatus();
}

ServerSummary Server::summary() const {
  ServerSummary s;
  s.conns_accepted = counters_.conns_accepted.load(std::memory_order_relaxed);
  s.conns_closed = counters_.conns_closed.load(std::memory_order_relaxed);
  s.conns_rejected = counters_.conns_rejected.load(std::memory_order_relaxed);
  s.conns_open = s.conns_accepted - s.conns_rejected - s.conns_closed;
  s.requests = counters_.requests.load(std::memory_order_relaxed);
  s.ok = counters_.ok.load(std::memory_order_relaxed);
  s.shed = counters_.shed.load(std::memory_order_relaxed);
  s.malformed = counters_.malformed.load(std::memory_order_relaxed);
  s.deadline_exceeded =
      counters_.deadline_exceeded.load(std::memory_order_relaxed);
  s.not_found = counters_.not_found.load(std::memory_order_relaxed);
  s.internal = counters_.internal.load(std::memory_order_relaxed);
  s.shutting_down = counters_.shutting_down.load(std::memory_order_relaxed);
  s.pings = counters_.pings.load(std::memory_order_relaxed);
  s.transport_errors =
      counters_.transport_errors.load(std::memory_order_relaxed);
  return s;
}

std::string Server::SummaryLine() const {
  const ServerSummary s = summary();
  return StrCat("serve.summary accepted=", s.conns_accepted,
                " closed=", s.conns_closed, " rejected=", s.conns_rejected,
                " conns_open=", s.conns_open, " requests=", s.requests,
                " ok=", s.ok, " shed=", s.shed, " malformed=", s.malformed,
                " deadline_exceeded=", s.deadline_exceeded,
                " not_found=", s.not_found, " internal=", s.internal,
                " shutting_down=", s.shutting_down, " pings=", s.pings,
                " transport_errors=", s.transport_errors);
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) {
    (void)DrainAndWait(/*grace_s=*/5.0);
  }
}

}  // namespace rangesyn::serve
