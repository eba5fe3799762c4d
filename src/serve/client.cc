#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/deadline.h"
#include "core/strings.h"

namespace rangesyn::serve {

Client::Client(const ClientOptions& options)
    : options_(options), jitter_(options.backoff_seed) {}

void Client::Disconnect() {
  fd_ = Fd();
  rx_.Release();  // bytes of the old connection must not frame the next
}

Status Client::EnsureConnected() {
  if (fd_.valid()) return OkStatus();
  RANGESYN_ASSIGN_OR_RETURN(
      fd_, ConnectTcp(options_.host, options_.port,
                      options_.connect_timeout_s));
  return OkStatus();
}

Result<FrameView> Client::ReadFrame(const Deadline& deadline) {
  rx_.Consume();  // the previous round trip's reply
  RANGESYN_ASSIGN_OR_RETURN(const FrameHeader header,
                            rx_.ReadFrame(fd_.get(), sites_, deadline));
  RANGESYN_ASSIGN_OR_RETURN(const std::string_view payload,
                            CheckFrameCrcInPlace(rx_.frame(), header));
  return FrameView{header.type, payload};
}

Result<FrameView> Client::RoundTrip(std::string_view frame_bytes,
                                    uint32_t deadline_ms,
                                    std::string_view what) {
  ++stats_.requests;
  // Socket waits get a grace past the budget: the server answers its own
  // typed DEADLINE_EXCEEDED at its next check, after the budget ran out.
  constexpr double kWireGraceS = 1.0;
  Deadline budget;
  Deadline wire;
  if (deadline_ms > 0) {
    budget = Deadline::After(deadline_ms / 1000.0);
    wire = Deadline::After(deadline_ms / 1000.0 + kWireGraceS);
  }
  // Every failed attempt sets `last`; it is built lazily so that a round
  // trip that succeeds allocates no error message.
  Status last;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      // Exponential backoff with deterministic jitter; the sleep is also
      // capped so a retry never blows through what is left of the budget
      // just waiting.
      double backoff_s =
          std::min(options_.max_backoff_s,
                   options_.initial_backoff_s *
                       static_cast<double>(uint64_t{1} << (attempt - 1)));
      backoff_s *= 0.5 + 0.5 * jitter_.NextDouble();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
    if (budget.Expired()) {
      return DeadlineExceededError(
          StrCat(what, ": retry budget exhausted after ", attempt,
                 " attempts; last error: ", last.message()));
    }
    ++stats_.attempts;
    const bool was_connected = fd_.valid();
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      if (was_connected) ++stats_.reconnects;
      last = std::move(connected);
      continue;
    }
    Status sent = WriteFull(fd_.get(), frame_bytes, sites_, wire);
    if (!sent.ok()) {
      // An ambiguous failure: the request may or may not have been
      // applied. Safe to redrive only because every request is an
      // idempotent read.
      Disconnect();
      ++stats_.reconnects;
      last = std::move(sent);
      continue;
    }
    Result<FrameView> frame = ReadFrame(wire);
    if (!frame.ok()) {
      Disconnect();
      ++stats_.reconnects;
      last = frame.status();
      continue;
    }
    if (frame->type == MsgType::kError) {
      Result<ErrorResponse> error = ParseError(frame->payload);
      if (!error.ok()) {
        Disconnect();  // undecodable response: desynced, start clean
        ++stats_.reconnects;
        last = error.status();
        continue;
      }
      if (error->code == WireError::kOverloaded) {
        // The one typed error worth retrying: load-shedding is transient
        // by design, and backoff is exactly the pressure release the
        // server is asking for. The connection itself is healthy.
        last = Status(WireErrorStatusCode(error->code),
                      StrCat(what, ": ", error->message));
        continue;
      }
    }
    return frame;
  }
  if (last.code() == StatusCode::kResourceExhausted) {
    return last;  // typed OVERLOADED survived every retry: keep the type
  }
  if (last.code() == StatusCode::kDeadlineExceeded) {
    return DeadlineExceededError(StrCat(what, ": ", last.message()));
  }
  // Transport-level failures (resets, EOFs, desyncs) surface as Internal
  // once the attempts are spent, per the class contract — the raw code of
  // whichever syscall lost the race is not part of the client's API.
  return InternalError(StrCat(what, ": ", options_.max_attempts,
                              " attempts exhausted; last error: ",
                              last.message()));
}

Status Client::Ping(uint32_t deadline_ms) {
  const uint64_t id = next_request_id_++;
  RANGESYN_ASSIGN_OR_RETURN(
      const FrameView frame, RoundTrip(EncodePing(id), deadline_ms, "ping"));
  if (frame.type == MsgType::kError) {
    RANGESYN_ASSIGN_OR_RETURN(ErrorResponse error,
                              ParseError(frame.payload));
    return Status(WireErrorStatusCode(error.code),
                  StrCat("ping: server error (", WireErrorName(error.code),
                         "): ", error.message));
  }
  if (frame.type != MsgType::kPong) {
    Disconnect();
    return InternalError(StrCat("ping: unexpected response type ",
                                static_cast<int>(frame.type)));
  }
  RANGESYN_ASSIGN_OR_RETURN(PingMessage pong, ParsePing(frame.payload));
  if (pong.request_id != id) {
    Disconnect();
    return InternalError(StrCat("ping: response id ", pong.request_id,
                                " does not match request id ", id));
  }
  return OkStatus();
}

Result<std::vector<double>> Client::Query(const std::string& key,
                                          std::span<const FlatQuery> ranges,
                                          uint32_t deadline_ms) {
  // A frame over the cap would be refused by the server's header check,
  // which closes the connection; refuse it here before anything is sent.
  const size_t payload_bytes = QueryPayloadBytes(key, ranges.size());
  if (payload_bytes > kMaxPayloadBytes) {
    return InvalidArgumentError(
        StrCat("query: ", ranges.size(), " ranges under a ", key.size(),
               "-byte key need a ", payload_bytes,
               "-byte payload, over the frame cap of ", kMaxPayloadBytes));
  }
  const uint64_t id = next_request_id_++;
  EncodeQueryInto(id, deadline_ms, key, ranges, &tx_);
  Result<FrameView> round_trip = RoundTrip(tx_, deadline_ms, "query");
  // Like the server's buffers, keep no more than the ceiling between
  // requests.
  if (tx_.capacity() > FrameBuffer::kCeilingBytes) std::string().swap(tx_);
  RANGESYN_ASSIGN_OR_RETURN(const FrameView frame, std::move(round_trip));
  if (frame.type == MsgType::kError) {
    RANGESYN_ASSIGN_OR_RETURN(ErrorResponse error,
                              ParseError(frame.payload));
    return Status(WireErrorStatusCode(error.code),
                  StrCat("query: server error (", WireErrorName(error.code),
                         "): ", error.message));
  }
  if (frame.type != MsgType::kQueryOk) {
    Disconnect();
    return InternalError(StrCat("query: unexpected response type ",
                                static_cast<int>(frame.type)));
  }
  QueryResponse response;
  RANGESYN_RETURN_IF_ERROR(ParseQueryOkInto(frame.payload, &response));
  if (response.request_id != id) {
    Disconnect();
    return InternalError(StrCat("query: response id ", response.request_id,
                                " does not match request id ", id));
  }
  if (response.estimates.size() != ranges.size()) {
    Disconnect();
    return InternalError(StrCat("query: ", response.estimates.size(),
                                " estimates for ", ranges.size(),
                                " ranges"));
  }
  return std::move(response.estimates);
}

}  // namespace rangesyn::serve
