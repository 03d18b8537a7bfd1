#include "server/server.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "ordb/health.h"
#include "ordb/sql.h"
#include "xadt/xadt.h"

namespace xorator::server {

namespace {

/// The acceptor's tick (how often it checks for shutdown, reaps finished
/// connection threads and probes busy connections for a client disconnect)
/// and Shutdown's drain poll granularity.
constexpr int64_t kDisconnectProbeMillis = 20;

/// Longest single slot wait (keeps the wait's clock arithmetic in range).
constexpr int64_t kMaxSlotWaitMillis = 60'000;

/// Execution slots: statements inside the engine at once.
size_t SlotCount(const ServerOptions& options) {
  return std::max<size_t>(options.worker_threads, 1);
}

/// Renders a QueryResult into the wire shape: display strings, an XADT
/// value as its XML text (the examples and tests want text, and it keeps the
/// protocol free of the engine's type system). Fails on a corrupt fragment.
Result<ResultPayload> RenderResult(const ordb::QueryResult& result) {
  ResultPayload payload;
  payload.columns = result.columns;
  payload.rows.reserve(result.rows.size());
  for (const ordb::Tuple& row : result.rows) {
    std::vector<std::string> rendered;
    rendered.reserve(row.size());
    for (const ordb::Value& value : row) {
      if (value.type() == ordb::TypeId::kXadt) {
        ASSIGN_OR_RETURN(std::string xml, xadt::ToXmlString(value.AsString()));
        rendered.push_back(std::move(xml));
      } else {
        rendered.push_back(value.ToString());
      }
    }
    payload.rows.push_back(std::move(rendered));
  }
  payload.plan = result.plan;
  return payload;
}

/// Milliseconds since `since`.
int64_t MillisSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Encodes the frame for `result`, downgrading an over-cap result to a
/// clean error frame.
std::string EncodeResultOrError(const ResultPayload& result) {
  Result<std::string> frame = EncodeResult(result);
  if (frame.ok()) return std::move(frame).value();
  return EncodeError(ErrorFromStatus(frame.status()));
}

}  // namespace

Server::Server(ordb::Database* db, const ServerOptions& options)
    : db_(db), options_(options) {}

Result<std::unique_ptr<Server>> Server::Start(ordb::Database* db,
                                              const ServerOptions& options) {
  // The backlog is sized past max_connections so a burst reaches the
  // acceptor (which rejects it fast with a proper error frame) instead of
  // timing out in the kernel's SYN queue.
  std::unique_ptr<Server> server(new Server(db, options));
  ASSIGN_OR_RETURN(
      server->listener_,
      Listen(options.port, static_cast<int>(options.max_connections) + 16));
  ASSIGN_OR_RETURN(server->port_, BoundPort(server->listener_));
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::AcceptLoop() {
  for (;;) {
    // Reap connection threads that finished on their own, so a long-lived
    // server does not accumulate dead std::thread objects. Joins happen
    // outside the lock.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      xo::MutexLock lock(&mu_);
      if (stopping_) break;
      auto done = std::partition(
          connections_.begin(), connections_.end(), [](const auto& conn) {
            return !conn->finished.load(std::memory_order_acquire);
          });
      std::move(done, connections_.end(), std::back_inserter(finished));
      connections_.erase(done, connections_.end());
    }
    for (const std::unique_ptr<Connection>& conn : finished) {
      conn->thread.join();
    }
    CancelDisconnected();

    Result<Socket> accepted =
        Accept(listener_, Deadline::After(kDisconnectProbeMillis));
    if (!accepted.ok()) {
      // The deadline is the idle tick; back off on any other error.
      if (accepted.status().code() != StatusCode::kDeadlineExceeded) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kDisconnectProbeMillis));
      }
      continue;
    }
    Socket socket = std::move(accepted).value();

    // Admission and thread spawn in one critical section: the thread
    // handle is only ever written here and joined by a thread that
    // acquired mu_ afterwards, so the handle itself is race-free.
    Status rejection = Status::OK();
    {
      xo::MutexLock lock(&mu_);
      if (draining_) {
        rejection = Status::Unavailable("server is shutting down");
      } else if (stats_.active_connections < options_.max_connections) {
        ++stats_.connections_accepted;
        ++stats_.active_connections;
        auto conn = std::make_unique<Connection>();
        conn->socket = std::move(socket);
        Connection* raw = conn.get();
        raw->thread = std::thread([this, raw] {
          ServeConnection(raw);
          raw->finished.store(true, std::memory_order_release);
        });
        connections_.push_back(std::move(conn));
      } else {
        ++stats_.connections_rejected;
        rejection = Status::ResourceExhausted("server connection limit reached")
                        .WithRetryAfter(options_.retry_after_millis);
      }
    }
    if (!rejection.ok()) {
      // Fast rejection: one small error frame, then close. The short
      // deadline keeps a peer that will not even read a 40-byte frame from
      // stalling the acceptor.
      const std::string frame = EncodeError(ErrorFromStatus(rejection));
      XO_DISCARD_STATUS(WriteFull(socket, frame, Deadline::After(100)),
                        "rejected peer may already be gone");
    }
  }
}

void Server::CancelDisconnected() {
  std::vector<uint64_t> cancels;
  {
    // The probes are non-blocking, so they may run under the lock; the
    // engine calls below may not.
    xo::MutexLock lock(&mu_);
    bool wake = false;
    for (const auto& [id, task] : tasks_) {
      if (!task->cancel_requested && PeerDisconnected(task->conn->socket)) {
        task->cancel_requested = true;
        task->abandoned = true;
        ++stats_.cancelled_on_disconnect;
        wake = wake || !task->running;
      }
      if (task->cancel_requested && task->running) cancels.push_back(id);
    }
    if (wake) slot_cv_.SignalAll();  // a waiter answers without running
  }
  // Cancel only touches the engine's leaf guard registry and never blocks;
  // NotFound means the statement is not registered yet (the next tick
  // re-fires) or already finished.
  for (uint64_t id : cancels) {
    Status cancelled = db_->Cancel(id);
    cancelled.IgnoreError();
  }
}

void Server::ServeConnection(Connection* conn) {
  for (;;) {
    std::string header_bytes;
    // Idle reads wait indefinitely: Shutdown() wakes them by shutting the
    // socket down, which surfaces here as a failed read.
    Status read = ReadFull(conn->socket, &header_bytes, kFrameHeaderBytes,
                           Deadline::Infinite());
    if (!read.ok()) {
      // kUnavailable = clean close between frames; anything else is a
      // truncated or failed header read.
      if (read.code() != StatusCode::kUnavailable) CountMalformedFrame();
      break;
    }
    Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
    std::string payload;
    if (header.ok() && header->payload_bytes > 0) {
      read = ReadFull(conn->socket, &payload, header->payload_bytes,
                      Deadline::After(options_.io_timeout_millis));
      if (!read.ok()) {
        CountMalformedFrame();
        break;
      }
    }
    // A frame that does not decode is counted and answered with its parse
    // error, and the connection closes: a desynced byte stream cannot be
    // re-synced.
    Status served = header.status();
    if (served.ok()) served = ServeFrame(conn, *header, payload);
    if (!served.ok()) {
      CountMalformedFrame();
      SendError(conn, served);
      break;
    }
  }
  xo::MutexLock lock(&mu_);
  --stats_.active_connections;
  ++stats_.connections_closed;
}

Status Server::ServeFrame(Connection* conn, const FrameHeader& header,
                          const std::string& payload) {
  switch (header.type) {
    case FrameType::kQuery:
    case FrameType::kExecute: {
      ASSIGN_OR_RETURN(QueryRequest request,
                       DecodeQueryRequest(payload, header.flags));
      HandleStatement(conn, header.type, std::move(request));
      return Status::OK();
    }
    case FrameType::kCancel: {
      ASSIGN_OR_RETURN(CancelRequest request, DecodeCancelRequest(payload));
      HandleCancel(conn, request);
      return Status::OK();
    }
    case FrameType::kStats:
      HandleStats(conn);
      return Status::OK();
    default:
      return Status::ParseError("response frame type sent as a request");
  }
}

void Server::CountMalformedFrame() {
  xo::MutexLock lock(&mu_);
  ++stats_.malformed_frames;
}

void Server::HandleStatement(Connection* conn, FrameType type,
                             QueryRequest request) {
  // Graceful degradation: shed mutations at admission while the engine
  // cannot write. The health latch's own status rides the wire — state
  // name, latched detail, retry-after hint — so the client's backoff layer
  // can tell "retry later" from "give up".
  if (ordb::sql::ClassifyStatement(request.sql) ==
      ordb::sql::StatementClass::kMutation) {
    Status writable = db_->health()->CheckWritable();
    if (!writable.ok()) {
      {
        xo::MutexLock lock(&mu_);
        ++stats_.statements_shed_readonly;
      }
      SendError(conn, writable);
      return;
    }
  }

  Task task{.type = type, .request = std::move(request), .conn = conn};

  Status rejection = Status::OK();
  bool cancelled = false;
  {
    xo::MutexLock lock(&mu_);
    if (draining_) {
      ++stats_.statements_rejected_draining;
      rejection = Status::Unavailable("server is shutting down");
    } else if (running_ >= SlotCount(options_) &&
               stats_.queue_depth >= options_.max_queue_depth) {
      // Admission control: reject fast instead of queuing into collapse.
      ++stats_.statements_rejected_queue;
      rejection =
          Status::ResourceExhausted("statement queue full (" +
                                    std::to_string(options_.max_queue_depth) +
                                    " statements queued)")
              .WithRetryAfter(options_.retry_after_millis);
    } else {
      task.server_query_id = next_server_query_id_++;
      task.admitted_at = std::chrono::steady_clock::now();
      ++stats_.statements_admitted;
      ++in_flight_;
      tasks_[task.server_query_id] = &task;
      if (task.request.query_id != 0) {
        by_client_id_[task.request.query_id] = &task;
      }
      AcquireSlotLocked(&task);
      cancelled = task.cancel_requested;
    }
  }
  if (!rejection.ok()) {
    SendError(conn, rejection);
    return;
  }

  TaskOutcome outcome;
  if (cancelled) {
    outcome.frame = EncodeError(
        ErrorFromStatus(Status::Cancelled("statement cancelled while queued")));
  } else {
    outcome = RunTask(task);
  }

  // `running` is only ever written by this thread, so reading it outside
  // the lock is race-free.
  bool abandoned;
  {
    xo::MutexLock lock(&mu_);
    if (task.running) --running_;
    ++(outcome.ok ? stats_.statements_ok : stats_.statements_error);
    tasks_.erase(task.server_query_id);
    auto it = by_client_id_.find(task.request.query_id);
    if (it != by_client_id_.end() && it->second == &task) {
      by_client_id_.erase(it);
    }
    --in_flight_;
    abandoned = task.abandoned;
    if (draining_) {
      // Shutdown waits on the same condition variable for in_flight_ to
      // reach zero; a lone Signal could wake it instead of a slot waiter.
      slot_cv_.SignalAll();
    } else if (running_ < SlotCount(options_) && stats_.queue_depth > 0) {
      // Hand the free slot on (also when this task never ran: it may have
      // consumed the wakeup meant for a waiter).
      slot_cv_.Signal();
    }
  }
  if (!abandoned) {
    SendFrame(conn, outcome.frame);
  }
}

void Server::AcquireSlotLocked(Task* task) {
  const size_t slots = SlotCount(options_);
  if (running_ >= slots) {
    ++stats_.queue_depth;
    stats_.peak_queue_depth =
        std::max(stats_.peak_queue_depth, stats_.queue_depth);
    const auto deadline = static_cast<int64_t>(task->request.deadline_millis);
    while (!task->cancel_requested && running_ >= slots) {
      int64_t wait = kMaxSlotWaitMillis;
      if (task->request.deadline_millis > 0) {
        // The same test as RunTask's, so both agree the deadline expired.
        const int64_t waited = MillisSince(task->admitted_at);
        if (waited >= deadline) break;
        wait = std::min(wait, deadline - waited);
      }
      slot_cv_.WaitFor(&mu_, wait);
    }
    --stats_.queue_depth;
  }
  if (!task->cancel_requested && running_ < slots) {
    ++running_;
    task->running = true;
  }
}

void Server::HandleCancel(Connection* conn, const CancelRequest& request) {
  uint64_t server_id = 0;
  {
    xo::MutexLock lock(&mu_);
    auto it = by_client_id_.find(request.query_id);
    if (it != by_client_id_.end()) {
      it->second->cancel_requested = true;
      server_id = it->second->server_query_id;
      // A waiting statement wakes and answers kCancelled without running.
      slot_cv_.SignalAll();
    }
  }
  if (server_id == 0) {
    SendError(conn, Status::NotFound("no in-flight statement with query id " +
                                     std::to_string(request.query_id)));
    return;
  }
  // Reaches a running statement; one not registered with the engine yet
  // gets the cancel re-fired by the acceptor's next tick.
  Status cancelled = db_->Cancel(server_id);
  cancelled.IgnoreError();
  SendFrame(conn, EncodeResultOrError(ResultPayload{}));
}

void Server::HandleStats(Connection* conn) {
  // Engine rows first (health state/detail and the containment counters —
  // the degraded-state advertisement), then the server's own counters.
  StatsPayload stats;
  stats.rows = db_->ResilienceStats();
  const ServerStats s = server_stats();
  const std::pair<const char*, uint64_t> counters[] = {
      {"server_connections_accepted", s.connections_accepted},
      {"server_connections_rejected", s.connections_rejected},
      {"server_connections_closed", s.connections_closed},
      {"server_active_connections", s.active_connections},
      {"server_statements_admitted", s.statements_admitted},
      {"server_statements_rejected_queue", s.statements_rejected_queue},
      {"server_statements_shed_readonly", s.statements_shed_readonly},
      {"server_statements_rejected_draining", s.statements_rejected_draining},
      {"server_statements_ok", s.statements_ok},
      {"server_statements_error", s.statements_error},
      {"server_cancelled_on_disconnect", s.cancelled_on_disconnect},
      {"server_malformed_frames", s.malformed_frames},
      {"server_queue_depth", s.queue_depth},
      {"server_peak_queue_depth", s.peak_queue_depth},
  };
  for (const auto& [name, value] : counters) {
    stats.rows.emplace_back(name, std::to_string(value));
  }
  SendFrame(conn, EncodeStats(stats));
}

Server::TaskOutcome Server::RunTask(const Task& task) {
  // The deadline is measured from admission: slot wait counts against the
  // budget, and a statement that died waiting (the only way here without a
  // slot) is answered without touching the engine — an overloaded server
  // drains its backlog at rejection speed, not service speed.
  ordb::QueryOptions query_options;
  query_options.max_memory_bytes = task.request.max_memory_bytes;
  query_options.query_id = task.server_query_id;
  query_options.skip_quarantined = task.request.skip_quarantined;
  const int64_t waited = MillisSince(task.admitted_at);
  if (!task.running ||
      (task.request.deadline_millis > 0 &&
       waited >= static_cast<int64_t>(task.request.deadline_millis))) {
    return {EncodeError(ErrorFromStatus(Status::DeadlineExceeded(
                "deadline of " + std::to_string(task.request.deadline_millis) +
                "ms expired after " + std::to_string(waited) +
                "ms in the admission queue"))),
            false};
  }
  if (task.request.deadline_millis > 0) {
    query_options.deadline_millis =
        task.request.deadline_millis - static_cast<uint64_t>(waited);
  }

  if (task.type == FrameType::kExecute) {
    Status executed = db_->Execute(task.request.sql, query_options);
    if (!executed.ok()) {
      return {EncodeError(ErrorFromStatus(executed)), false};
    }
    return {EncodeResultOrError(ResultPayload{}), true};
  }
  Result<ordb::QueryResult> result =
      db_->Query(task.request.sql, query_options);
  if (!result.ok()) {
    return {EncodeError(ErrorFromStatus(result.status())), false};
  }
  Result<ResultPayload> rendered = RenderResult(result.value());
  if (!rendered.ok()) {
    return {EncodeError(ErrorFromStatus(rendered.status())), false};
  }
  return {EncodeResultOrError(rendered.value()), true};
}

void Server::SendFrame(Connection* conn, std::string_view frame) {
  XO_DISCARD_STATUS(
      WriteFull(conn->socket, frame,
                Deadline::After(options_.io_timeout_millis)),
      "a peer that stopped reading forfeits its response; the read loop "
      "observes the dead socket next");
}

void Server::SendError(Connection* conn, const Status& status) {
  SendFrame(conn, EncodeError(ErrorFromStatus(status)));
}

void Server::Shutdown() {
  {
    xo::MutexLock lock(&mu_);
    if (shut_down_) return;
    if (draining_) {
      // Another thread is mid-shutdown; wait for it to finish.
      while (!shut_down_) {
        slot_cv_.WaitFor(&mu_, kDisconnectProbeMillis);
      }
      return;
    }
    // New connections and statements are rejected from here on; the
    // acceptor keeps probing for disconnects.
    draining_ = true;
  }

  // Drain: let admitted statements finish for the grace window. Every
  // completion signals slot_cv_ while draining.
  const Deadline drain = Deadline::After(options_.drain_timeout_millis);
  {
    xo::MutexLock lock(&mu_);
    while (in_flight_ > 0 && !drain.Expired()) {
      slot_cv_.WaitFor(&mu_, kDisconnectProbeMillis);
    }
    // Hard timeout: cancel every straggler. Waiting tasks wake and answer
    // kCancelled; the acceptor's next tick fires Database::Cancel at the
    // running ones.
    for (const auto& [id, task] : tasks_) task->cancel_requested = true;
    slot_cv_.SignalAll();
    // Every admitted statement gets its response before anything closes.
    while (in_flight_ > 0) {
      slot_cv_.WaitFor(&mu_, kDisconnectProbeMillis);
    }
    stopping_ = true;
  }
  // When Start() failed before spawning the acceptor (Listen or BoundPort
  // failed), the handle is default-constructed and there is nothing to
  // join — joining it anyway would throw inside the (noexcept) destructor.
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // End the connections. Read-half only: a thread blocked in its idle
  // header read wakes with EOF and exits, while a thread still sending the
  // response of a just-drained statement keeps its write half — the drain
  // guarantee would be hollow if shutdown clipped the final frame.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    xo::MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->socket.ShutdownRead();
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->thread.join();
  }

  xo::MutexLock lock(&mu_);
  shut_down_ = true;
  slot_cv_.SignalAll();
}

ServerStats Server::server_stats() const {
  xo::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace xorator::server
