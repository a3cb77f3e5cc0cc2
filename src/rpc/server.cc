#include "rpc/server.h"

#include <utility>

namespace histwalk::rpc {

namespace {

obs::Sample MakeSample(const char* name, obs::SampleKind kind,
                       uint64_t value) {
  obs::Sample sample;
  sample.name = name;
  sample.kind = kind;
  sample.value = static_cast<int64_t>(value);
  return sample;
}

}  // namespace

util::Result<std::unique_ptr<Server>> Server::Start(api::Sampler* sampler,
                                                    ServerOptions options) {
  if (sampler == nullptr) {
    return util::Status::InvalidArgument("rpc::Server needs a sampler");
  }
  if (options.max_inflight_requests == 0) options.max_inflight_requests = 1;
  std::unique_ptr<Server> server(new Server());
  server->sampler_ = sampler;
  server->options_ = std::move(options);
  HW_ASSIGN_OR_RETURN(
      server->listener_,
      util::TcpListener::Listen(server->options_.port,
                                server->options_.backlog));
  if (server->options_.registry != nullptr) {
    Server* raw = server.get();
    server->collector_ = server->options_.registry->AddCollector(
        [raw](std::vector<obs::Sample>& out) { raw->CollectSamples(out); });
  }
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

Server::~Server() {
  Shutdown();
  // Unregister the collector before connection state is torn down (a
  // concurrent scrape must never walk a half-destroyed server).
  collector_.reset();
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Stop accepting, then wake the accept thread (its blocked Accept
  // returns an error once the listener is shut).
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: half-close each connection's read side so its reader sees
  // end-of-stream after the frame it is on; accepted requests finish and
  // their replies still flush through the intact write side.
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : connections_) conns.push_back(conn.get());
  }
  for (Connection* conn : conns) conn->stream.ShutdownRead();
  for (Connection* conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats stats;
  stats.connections_total = connections_total_;
  stats.requests_total = requests_total_;
  stats.protocol_errors = protocol_errors_;
  stats.sessions_opened = sessions_opened_;
  stats.sessions_reaped = sessions_reaped_;
  for (const auto& conn : connections_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (!conn->finished) ++stats.connections_active;
    stats.requests_inflight += conn->inflight;
  }
  return stats;
}

void Server::CollectSamples(std::vector<obs::Sample>& out) const {
  using obs::SampleKind;
  const ServerStats s = stats();
  out.push_back(MakeSample("hw_rpc_connections_total", SampleKind::kCounter,
                           s.connections_total));
  out.push_back(MakeSample("hw_rpc_active_connections", SampleKind::kGauge,
                           s.connections_active));
  out.push_back(MakeSample("hw_rpc_requests_total", SampleKind::kCounter,
                           s.requests_total));
  out.push_back(MakeSample("hw_rpc_inflight_requests", SampleKind::kGauge,
                           s.requests_inflight));
  out.push_back(MakeSample("hw_rpc_protocol_errors_total",
                           SampleKind::kCounter, s.protocol_errors));
  out.push_back(MakeSample("hw_rpc_sessions_opened_total",
                           SampleKind::kCounter, s.sessions_opened));
  out.push_back(MakeSample("hw_rpc_sessions_reaped_total",
                           SampleKind::kCounter, s.sessions_reaped));
  // Submits queued behind the hosted service's resident-session cap right
  // now (ServiceOptions::admission_wait_us): the RPC front's view of
  // admission backpressure.
  uint64_t queue_depth = 0;
  if (sampler_->service() != nullptr) {
    queue_depth = sampler_->service()->stats().admission_waiting;
  }
  out.push_back(MakeSample("hw_rpc_admission_queue_depth", SampleKind::kGauge,
                           queue_depth));
}

void Server::AcceptLoop() {
  while (true) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // Shutdown() closed the listener
    (void)accepted->SetNoDelay();
    auto conn = std::make_unique<Connection>();
    conn->stream = std::move(*accepted);
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;  // raced Shutdown; drop the connection
    ++connections_total_;
    // Reap connections that finished entirely so a long-lived daemon's
    // list holds only live peers. A finished connection's reader thread
    // has run to completion (finished is its last act, after which it
    // takes no locks) but still needs joining before its Connection dies.
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      bool done;
      {
        std::lock_guard<std::mutex> conn_lock(c->mu);
        done = c->finished;
      }
      if (done && c->reader.joinable()) c->reader.join();
      return done;
    });
    connections_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void Server::ServeConnection(Connection* conn) {
  // Worker pool sized to the in-flight window: every admitted request can
  // execute concurrently, so a blocked Wait never delays a Poll behind it.
  conn->workers.reserve(options_.max_inflight_requests);
  for (uint32_t w = 0; w < options_.max_inflight_requests; ++w) {
    conn->workers.emplace_back([this, conn] { WorkerLoop(conn); });
  }

  while (true) {
    Frame frame;
    util::Status status = ReadFrame(conn->stream, &frame);
    if (!status.ok()) {
      // kNotFound = clean close between frames (normal). Anything else is
      // a protocol violation or a dead socket: either way the stream
      // cannot be resynchronized, so the connection ends.
      if (status.code() != util::StatusCode::kNotFound) {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
      }
      break;
    }
    // Handshake first: anything else before kHello is a protocol error.
    if (!conn->hello_done) {
      if (frame.type != static_cast<uint16_t>(MsgType::kHello)) {
        SendError(conn, frame.correlation_id,
                  util::Status::FailedPrecondition("expected hello"));
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
        break;
      }
      auto hello = DecodeHello(frame.payload);
      if (!hello.ok()) {
        SendError(conn, frame.correlation_id, hello.status());
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
        break;
      }
      if (hello->version != kProtocolVersion) {
        SendError(conn, frame.correlation_id,
                  util::Status::FailedPrecondition(
                      "protocol version mismatch: client speaks " +
                      std::to_string(hello->version) + ", server speaks " +
                      std::to_string(kProtocolVersion)));
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
        break;
      }
      HelloPayload reply;
      reply.peer_name = options_.server_name;
      SendReply(conn, frame.correlation_id, MsgType::kHelloOk,
                EncodeHello(reply));
      conn->hello_done = true;
      continue;
    }
    // Backpressure: block the reader until the in-flight window has room.
    // The socket's receive buffer (and then the client) absorbs the rest.
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->window_cv.wait(lock, [this, conn] {
        return conn->inflight < options_.max_inflight_requests;
      });
      ++conn->inflight;
      conn->queue.push_back(std::move(frame));
    }
    conn->work_cv.notify_one();
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_total_;
  }

  // Drain: no more frames will arrive; let the workers finish what was
  // admitted, then reap this connection's sessions.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  conn->work_cv.notify_all();
  for (std::thread& worker : conn->workers) worker.join();
  ReapSessions(conn);
  // Shut down, not close: Server::Shutdown may be calling ShutdownRead on
  // this stream from another thread right now. The descriptor is released
  // with the Connection, after this thread has been joined.
  conn->stream.ShutdownBoth();
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->finished = true;
}

void Server::WorkerLoop(Connection* conn) {
  while (true) {
    Frame request;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->work_cv.wait(lock, [conn] {
        return !conn->queue.empty() || conn->closed;
      });
      if (conn->queue.empty()) return;  // closed and drained
      request = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    HandleRequest(conn, std::move(request));
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->inflight;
    }
    conn->window_cv.notify_one();
  }
}

void Server::SendReply(Connection* conn, uint64_t correlation_id,
                       MsgType type, std::string payload) {
  Frame reply;
  reply.type = static_cast<uint16_t>(type);
  reply.correlation_id = correlation_id;
  reply.payload = std::move(payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed write means the peer is gone; the reader will notice on its
  // side and tear the connection down — nothing to do here.
  (void)WriteFrame(conn->stream, reply);
}

void Server::SendError(Connection* conn, uint64_t correlation_id,
                       const util::Status& status) {
  SendReply(conn, correlation_id, MsgType::kError,
            EncodeStatusPayload(status));
}

void Server::ReapSessions(Connection* conn) {
  std::map<uint64_t, api::RunHandle> sessions;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    sessions.swap(conn->sessions);
  }
  uint64_t reaped = 0;
  for (auto& [id, handle] : sessions) {
    // Cooperative cancel: blocks until the walk finishes, then frees the
    // admission slot. A vanished client must not leak sessions.
    handle.Cancel();
    ++reaped;
  }
  if (reaped > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_reaped_ += reaped;
  }
}

void Server::HandleRequest(Connection* conn, Frame request) {
  const uint64_t corr = request.correlation_id;
  const MsgType type = static_cast<MsgType>(request.type);

  // Requests that address a session resolve their handle up front.
  auto find_handle = [&](uint64_t id) -> util::Result<api::RunHandle> {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->sessions.find(id);
    if (it == conn->sessions.end()) {
      return util::Status::NotFound("unknown rpc session " +
                                    std::to_string(id));
    }
    return it->second;  // handles are cheap shared views
  };

  switch (type) {
    case MsgType::kSubmit: {
      auto options = DecodeRunOptions(request.payload);
      if (!options.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
      }
      if (!options.ok()) return SendError(conn, corr, options.status());
      // May block in the hosted service's bounded admission wait — that is
      // the queue-behind-the-cap behavior, and it occupies one window slot
      // of this connection while it lasts.
      auto run = sampler_->Run(*options);
      if (!run.ok()) return SendError(conn, corr, run.status());
      uint64_t id;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        id = conn->next_session++;
        conn->sessions.emplace(id, *run);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++sessions_opened_;
      }
      return SendReply(conn, corr, MsgType::kSubmitOk, EncodeSessionId(id));
    }
    case MsgType::kPoll: {
      auto id = DecodeSessionId(request.payload);
      if (!id.ok()) return SendError(conn, corr, id.status());
      auto handle = find_handle(*id);
      if (!handle.ok()) return SendError(conn, corr, handle.status());
      return SendReply(conn, corr, MsgType::kPollOk,
                       EncodeRunState(handle->Poll()));
    }
    case MsgType::kWait: {
      auto id = DecodeSessionId(request.payload);
      if (!id.ok()) return SendError(conn, corr, id.status());
      auto handle = find_handle(*id);
      if (!handle.ok()) return SendError(conn, corr, handle.status());
      auto report = handle->Wait();
      if (!report.ok()) return SendError(conn, corr, report.status());
      return SendReply(conn, corr, MsgType::kReportOk,
                       EncodeRunReport(*report));
    }
    case MsgType::kReport: {
      auto id = DecodeSessionId(request.payload);
      if (!id.ok()) return SendError(conn, corr, id.status());
      auto handle = find_handle(*id);
      if (!handle.ok()) return SendError(conn, corr, handle.status());
      auto report = handle->Report();
      if (!report.ok()) return SendError(conn, corr, report.status());
      return SendReply(conn, corr, MsgType::kReportOk,
                       EncodeRunReport(*report));
    }
    case MsgType::kProgress: {
      auto id = DecodeSessionId(request.payload);
      if (!id.ok()) return SendError(conn, corr, id.status());
      auto handle = find_handle(*id);
      if (!handle.ok()) return SendError(conn, corr, handle.status());
      return SendReply(conn, corr, MsgType::kProgressOk,
                       EncodeProgressSnapshot(handle->Progress()));
    }
    case MsgType::kCancel: {
      auto id = DecodeSessionId(request.payload);
      if (!id.ok()) return SendError(conn, corr, id.status());
      auto handle = find_handle(*id);
      if (!handle.ok()) return SendError(conn, corr, handle.status());
      handle->Cancel();
      return SendReply(conn, corr, MsgType::kCancelOk, "");
    }
    default: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
      }
      // Unknown types are refused, not fatal: a newer client probing an
      // older server gets a typed error and keeps its connection.
      return SendError(conn, corr,
                       util::Status::InvalidArgument(
                           "unknown message type " +
                           std::to_string(request.type)));
    }
  }
}

}  // namespace histwalk::rpc
