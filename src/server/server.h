#ifndef XORATOR_SERVER_SERVER_H_
#define XORATOR_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "ordb/database.h"
#include "server/net.h"
#include "server/protocol.h"

namespace xorator::server {

/// Server configuration. The defaults suit tests and the example binary;
/// production-shaped loads tune max_connections / worker_threads /
/// max_queue_depth together (queue depth bounds the statements waiting
/// under overload, worker_threads bounds engine concurrency).
struct ServerOptions {
  /// TCP port on 127.0.0.1 (0 = ephemeral; read the choice via port()).
  uint16_t port = 0;
  /// Admission cap on concurrent connections; excess connections get a
  /// fast kResourceExhausted + retry-after and are closed.
  size_t max_connections = 64;
  /// Execution slots: statements running inside the Database at once.
  size_t worker_threads = 4;
  /// Admission cap on statements waiting for a slot; excess statements
  /// get kResourceExhausted + retry-after.
  size_t max_queue_depth = 128;
  /// How long Shutdown() lets in-flight statements drain before
  /// cancelling them.
  int64_t drain_timeout_millis = 5000;
  /// Retry-after hint attached to admission rejections (connection cap
  /// and queue cap).
  uint32_t retry_after_millis = 25;
  /// Per-frame I/O budget: reading a request payload after its header, and
  /// writing a response. A peer that stalls longer mid-frame is dropped.
  int64_t io_timeout_millis = 10'000;
};

/// Monotonic server counters, exposed through the STATS frame (prefixed
/// `server_`) and the server_stats() test hook. Snapshot semantics: one
/// coherent copy under the server lock.
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections turned away at the connection cap.
  uint64_t connections_rejected = 0;
  uint64_t connections_closed = 0;
  uint64_t active_connections = 0;
  /// Statements that passed admission (ran at once or waited for a slot).
  uint64_t statements_admitted = 0;
  /// Statements rejected because the queue was at max_queue_depth.
  uint64_t statements_rejected_queue = 0;
  /// Mutations shed at admission because the engine was read-only/failed.
  uint64_t statements_shed_readonly = 0;
  /// Statements rejected because the server was draining.
  uint64_t statements_rejected_draining = 0;
  /// Admitted statements that completed OK / with an error status.
  uint64_t statements_ok = 0;
  uint64_t statements_error = 0;
  /// Admitted statements cancelled because their client disconnected.
  uint64_t cancelled_on_disconnect = 0;
  /// Frames that failed header or payload decode.
  uint64_t malformed_frames = 0;
  /// Current and high-water queue depth (admitted, waiting for a slot).
  uint64_t queue_depth = 0;
  uint64_t peak_queue_depth = 0;
};

/// The xorator network front end (DESIGN.md section 17): a socket server
/// speaking the server/protocol.h frame protocol over the embedded
/// Database. The connection thread that decodes a statement runs it under
/// one of `worker_threads` execution slots and writes the response.
///
/// Robustness contract:
///   * Admission control — connection count and the number of statements
///     waiting for a slot are both bounded; excess load is rejected fast
///     with a retryable kResourceExhausted carrying a retry-after hint, so
///     overload sheds in microseconds instead of queuing into collapse.
///   * Deadline & budget propagation — frame fields become QueryOptions;
///     the deadline is measured from admission, so slot wait counts
///     against it, and a statement whose deadline expired while waiting is
///     answered kDeadlineExceeded without touching the engine.
///   * Disconnect cancellation — every admitted statement runs under a
///     server-assigned QueryGuard id; the acceptor probes each busy
///     connection every tick and cancels the statement of a vanished
///     client (a waiting one is answered without running).
///   * Graceful degradation — mutations are shed at admission with the
///     health latch's own status (state, detail, retry-after) while the
///     engine is read-only; STATS advertises the degraded state.
///   * Drain-then-close shutdown — Shutdown() stops accepting, lets
///     in-flight statements finish for drain_timeout_millis, cancels the
///     stragglers, answers every admitted one and joins every thread.
///
/// Locking: one xo::Mutex at rank kServer — above kStatement, per the
/// descending-acquire rule, because connection threads call into the
/// engine. The lock is never held across an engine call (Database::Cancel,
/// which only touches the engine's leaf guard registry, included); slot
/// waits go through one xo::CondVar.
///
/// Thread safety: Start/Shutdown/port/server_stats are safe from any
/// thread; Shutdown is idempotent.
class Server {
 public:
  /// Binds, listens, and starts the acceptor thread. `db` must outlive the
  /// returned server.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(
      ordb::Database* db, const ServerOptions& options = {});

  /// Shuts down (drain-then-close) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when options.port was 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Drain-then-close shutdown; see the class comment. Idempotent.
  void Shutdown() XO_EXCLUDES(mu_);

  /// Coherent snapshot of the admission/served counters (test hook; the
  /// same numbers ride the STATS frame prefixed `server_`).
  [[nodiscard]] ServerStats server_stats() const XO_EXCLUDES(mu_);

 private:
  /// One live client connection: the socket plus the thread serving it.
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  /// One admitted statement, on its connection thread's stack (the id maps
  /// point at it until its completion erases them). The fields before
  /// `cancel_requested` are immutable once admitted; the rest are guarded
  /// by the server lock.
  struct Task {
    FrameType type = FrameType::kQuery;
    QueryRequest request;
    /// Server-assigned guard id (never 0): every admitted statement is
    /// cancellable regardless of the client-chosen request.query_id.
    uint64_t server_query_id = 0;
    std::chrono::steady_clock::time_point admitted_at{};
    /// The connection whose thread runs it (the disconnect probe's target).
    Connection* conn = nullptr;

    /// Cancel was requested (CANCEL frame, disconnect or shutdown): a task
    /// still waiting for a slot is answered kCancelled without running.
    bool cancel_requested = false;
    /// The client is gone; nobody sends the response.
    bool abandoned = false;
    /// Holds an execution slot (the engine call may be in progress).
    bool running = false;
  };

  Server(ordb::Database* db, const ServerOptions& options);

  /// Acceptor loop: admits or fast-rejects connections, reaps finished
  /// connection threads, runs CancelDisconnected every tick.
  void AcceptLoop() XO_EXCLUDES(mu_);

  /// Marks the tasks of vanished clients cancelled and abandoned, and fires
  /// Database::Cancel at every cancelled slot holder (each tick, since the
  /// engine may not have registered the statement yet).
  void CancelDisconnected() XO_EXCLUDES(mu_);

  /// Per-connection loop: frame parse, admission, response.
  void ServeConnection(Connection* conn) XO_EXCLUDES(mu_);

  /// Decodes and handles one request frame; an error = a malformed frame.
  [[nodiscard]] Status ServeFrame(Connection* conn, const FrameHeader& header,
                                  const std::string& payload) XO_EXCLUDES(mu_);

  /// Bumps stats_.malformed_frames.
  void CountMalformedFrame() XO_EXCLUDES(mu_);

  /// Handles one QUERY/EXECUTE frame on a connection thread: admission,
  /// slot wait, the engine call and the response send.
  void HandleStatement(Connection* conn, FrameType type, QueryRequest request)
      XO_EXCLUDES(mu_);

  /// Handles a CANCEL frame: resolves the client-chosen id to the admitted
  /// statement and cancels it.
  void HandleCancel(Connection* conn, const CancelRequest& request)
      XO_EXCLUDES(mu_);

  /// Handles a STATS frame: engine resilience rows + server counters.
  void HandleStats(Connection* conn) XO_EXCLUDES(mu_);

  /// Waits until `task` holds a slot (task->running), was cancelled, or
  /// its deadline expired.
  void AcquireSlotLocked(Task* task) XO_REQUIRES(mu_);

  /// Result of running one task: the encoded response frame plus whether
  /// the statement succeeded (for the ok/error counters).
  struct TaskOutcome {
    std::string frame;
    bool ok = false;
  };

  /// Runs an admitted task against the Database and encodes the response
  /// (called without the server lock; reads only immutable fields).
  [[nodiscard]] TaskOutcome RunTask(const Task& task);

  /// Sends an encoded frame with the per-frame I/O deadline (best effort:
  /// a send failure just ends the connection).
  void SendFrame(Connection* conn, std::string_view frame);

  /// Sends an ERROR frame built from `status`.
  void SendError(Connection* conn, const Status& status);

  ordb::Database* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  Socket listener_;

  /// The server lock (rank kServer; see the class comment).
  mutable xo::Mutex mu_{xo::LockRank::kServer};
  /// Slot waiters (and a draining Shutdown) wait here; a finished
  /// statement wakes one waiter, cancels and drain-time completions all.
  xo::CondVar slot_cv_;

  /// Draining: no new statements, admitted ones may finish.
  bool draining_ XO_GUARDED_BY(mu_) = false;
  /// Stopping: every admitted statement was answered; the acceptor exits.
  bool stopping_ XO_GUARDED_BY(mu_) = false;
  /// Statements holding an execution slot (at most worker_threads).
  size_t running_ XO_GUARDED_BY(mu_) = 0;
  /// Admitted, unfinished statements (drain waits for this to hit zero).
  size_t in_flight_ XO_GUARDED_BY(mu_) = 0;
  uint64_t next_server_query_id_ XO_GUARDED_BY(mu_) = 1;
  /// Every admitted, unfinished task by server-assigned id (disconnect
  /// probe and shutdown cancel fan-out).
  std::unordered_map<uint64_t, Task*> tasks_ XO_GUARDED_BY(mu_);
  /// Client-chosen query_id -> the admitted task, for CANCEL frames from
  /// other connections.
  std::unordered_map<uint64_t, Task*> by_client_id_ XO_GUARDED_BY(mu_);
  ServerStats stats_ XO_GUARDED_BY(mu_);

  std::vector<std::unique_ptr<Connection>> connections_ XO_GUARDED_BY(mu_);
  std::thread acceptor_;
  /// Set once Shutdown() has fully run (threads joined).
  bool shut_down_ XO_GUARDED_BY(mu_) = false;
};

}  // namespace xorator::server

#endif  // XORATOR_SERVER_SERVER_H_
