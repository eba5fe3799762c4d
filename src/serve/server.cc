#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>
#include <variant>

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
struct Server::Conn {
  explicit Conn(Fd fd_in) : fd(std::move(fd_in)) {}

  Fd fd;
  // lint: waive(LINT-004) blocking-read thread, joined at reap/drain
  std::thread thread;
  /// A reply write failed (reset / injected fault): the loop stops after
  /// the current frame.
  bool dead = false;
  /// Frames currently being handled on the connection thread (read
  /// complete, reply not yet written); the drain settle-wait uses it so a
  /// reply in progress is not cut off by the fd shutdown.
  std::atomic<int32_t> busy{0};
  /// ConnLoop returned; the thread is joinable and the conn reapable.
  std::atomic<bool> finished{false};
  WireSites sites{"serve.conn"};
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
  std::string frame_bytes;
  for (;;) {
    char header[kFrameHeaderBytes];
    Status read_status =
        ReadFull(conn.fd.get(), header, kFrameHeaderBytes, conn.sites);
    if (!read_status.ok()) {
      // Clean EOF between frames, drain shutdown, or a transport fault:
      // either way this connection is over. Faults were already surfaced
      // as a typed client-side error (reset) — nothing is silent.
      break;
    }
    conn.busy.fetch_add(1, std::memory_order_acq_rel);
    bool keep = false;
    Result<FrameHeader> decoded =
        DecodeFrameHeader(std::string_view(header, kFrameHeaderBytes));
    if (!decoded.ok()) {
      // Bad magic/version/size: the stream position is unknowable, so
      // answer typed MALFORMED and close rather than resynchronize.
      Refuse(conn, {0, WireError::kMalformed,
                    std::string(decoded.status().message())});
    } else {
      const size_t rest = decoded->payload_size + kFrameTrailerBytes;
      frame_bytes.assign(header, kFrameHeaderBytes);
      frame_bytes.resize(kFrameHeaderBytes + rest);
      read_status = ReadFull(conn.fd.get(),
                             frame_bytes.data() + kFrameHeaderBytes, rest,
                             conn.sites);
      if (read_status.ok()) {
        Result<std::string> payload = CheckFrameCrc(frame_bytes, *decoded);
        if (!payload.ok()) {
          // Checksum mismatch: the transport corrupted bytes in flight;
          // typed MALFORMED, then close (framing can no longer be
          // trusted).
          Refuse(conn, {0, WireError::kMalformed,
                        std::string(payload.status().message())});
        } else {
          keep = DispatchFrame(conn, {decoded->type, *std::move(payload)});
        }
      }
    }
    conn.busy.fetch_sub(1, std::memory_order_acq_rel);
    if (!keep || !read_status.ok() || conn.dead) break;
  }
  // Send FIN now: the fd object itself is reclaimed later (ReapConnections
  // or drain), but the peer must observe the close immediately — a client
  // waiting for the next frame after a protocol-violation reply would
  // otherwise hang until its own timeout.
  conn.fd.ShutdownBoth();
  counters_.conns_closed.fetch_add(1, std::memory_order_relaxed);
  GetServingMetrics().conns_closed->Increment();
  conn.finished.store(true, std::memory_order_release);
  GetServingMetrics().open_conns->Set(OpenConnCount());
}

bool Server::DispatchFrame(Conn& conn, const Frame& frame) {
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
  Result<QueryRequest> parsed = ParseQuery(payload);
  if (!parsed.ok()) {
    Refuse(conn, {0, WireError::kMalformed,
                  std::string(parsed.status().message())});
    return;
  }
  const uint64_t id = parsed->request_id;
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
  if (parsed->deadline_ms > 0) {
    deadline = Deadline::After(parsed->deadline_ms / 1000.0);
  }
  const uint64_t admitted_ns = static_cast<uint64_t>(MonoNs());
  const auto outcome = Evaluate(*parsed, deadline);
  if (const auto* error = std::get_if<ErrorResponse>(&outcome)) {
    CountOutcome(error->code, admitted_ns);
    WriteReply(conn, EncodeError(*error));
  } else {
    CountOk(admitted_ns);
    WriteReply(conn, EncodeQueryOk(std::get<QueryResponse>(outcome)));
  }
  ReleaseInflight();
}

std::variant<QueryResponse, ErrorResponse> Server::Evaluate(
    const QueryRequest& request, const Deadline& deadline) const {
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
  QueryResponse response;
  response.request_id = id;
  response.estimates.resize(request.ranges.size());
  FlatSynopsis::BatchScratch scratch;
  const size_t chunk = static_cast<size_t>(options_.eval_chunk);
  const std::span<const FlatQuery> queries(request.ranges);
  const std::span<double> out(response.estimates);
  for (size_t off = 0; off < queries.size(); off += chunk) {
    if (deadline.Expired()) {
      return ErrorResponse{id, WireError::kDeadlineExceeded,
                           StrCat("deadline expired after ", off, " of ",
                                  queries.size(), " ranges")};
    }
    const size_t len = std::min(chunk, queries.size() - off);
    // Chunked batches answer bit-identically to one big batch: every
    // element equals the matching EstimateOne regardless of grouping.
    Status eval = view.EstimateMany(queries.subspan(off, len),
                                    out.subspan(off, len), &scratch);
    if (!eval.ok()) {
      return ErrorResponse{id, WireError::kInternal,
                           std::string(eval.message())};
    }
  }
  return response;
}

void Server::WriteReply(Conn& conn, const std::string& frame_bytes) {
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
