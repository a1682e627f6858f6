// Server: the socket front end of the online merge/purge service.
//
// A dedicated accept thread hands each connection to the shared
// ThreadPool (util/thread_pool.h); a worker owns the connection for its
// lifetime — reads newline-delimited JSON requests (service/protocol.h),
// dispatches them to the MatchService, and writes one response line per
// request. Defences, all testable without a real client:
//
//   * per-line byte limit (LineFrameReader): oversized frames get a
//     frame_too_large error and the connection is closed;
//   * idle timeout: a connection that sends nothing for idle_timeout_ms
//     is closed (SO_RCVTIMEO, no timer thread);
//   * connection cap: beyond max_connections, new connections receive a
//     too_many_connections error line and are closed immediately;
//   * malformed input (bad JSON, wrong shape, bad records) gets a typed
//     error line and the connection STAYS open — line framing preserves
//     sync;
//   * abrupt disconnects and mid-frame closes just end the connection;
//     the worker returns to the pool.
//
// Graceful drain (SIGTERM via obs/drain.h, or RequestDrain() directly):
// stop accepting, wake every blocked read, finish requests already
// buffered (upserts arriving after the drain began are refused with a
// "draining" error), flush the batcher, then Join() returns so the
// binary can write its final --metrics-out report.

#ifndef MERGEPURGE_SERVICE_SERVER_H_
#define MERGEPURGE_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/window.h"
#include "record/schema.h"
#include "service/dispatcher.h"
#include "service/match_service.h"
#include "service/protocol.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

struct ServerOptions {
  // IPv4 address to bind; the service is a backend, loopback by default.
  std::string bind_address = "127.0.0.1";

  // 0 picks an ephemeral port (Start() returns the actual one).
  uint16_t port = 7733;

  // Connection-handling workers. A worker owns one connection at a time,
  // so this is also the number of connections served CONCURRENTLY;
  // accepted connections beyond it wait for a free worker.
  size_t num_workers = 8;

  // Hard cap on connections admitted at once (serving + waiting).
  size_t max_connections = 64;

  // Per-request-line byte limit.
  size_t max_line_bytes = 1 << 20;

  // Close a connection after this long without a complete read.
  // 0 disables the timeout.
  int idle_timeout_ms = 30000;

  // Log a structured warning for any request slower than this many
  // microseconds (rate-limited to one line per second so a pathological
  // burst cannot flood the log). 0 disables slow-request logging.
  int slow_request_us = 0;

  // When non-empty, stamped as "instance" into every stats and health
  // response (and surfaced in the run report by the binaries), so
  // multi-shard output is attributable per process.
  std::string instance_label;

  // The topology this server was configured with, answered (and
  // verified) by the hello op: canonical --keys spec
  // (protocol.h CanonicalKeysSpec) and window size. A hello carrying a
  // different topology gets a config_mismatch error — the coordinator
  // handshake that stops a mis-deployed shard fleet before any record
  // is routed. Empty / 0 mean "not configured": hello then answers
  // without checking that member.
  std::string topology_keys;
  uint64_t topology_window = 0;
};

class Server {
 public:
  // Convenience: single-node service — wraps `service` (which must
  // outlive the server) in an owned EngineDispatcher.
  Server(ServerOptions options, MatchService* service);

  // General form: any backend behind the RequestDispatcher seam (the
  // shard coordinator uses this). `dispatcher` must outlive the server.
  Server(ServerOptions options, RequestDispatcher* dispatcher);

  // Drains and joins if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the accept thread. Returns the bound port.
  Result<uint16_t> Start();

  uint16_t port() const { return port_; }

  // Begins a graceful drain: stops accepting and wakes blocked reads.
  // Thread-safe and idempotent; callable from a SignalDrain callback.
  void RequestDrain();

  // Blocks until the accept thread and every connection have finished,
  // then drains the MatchService. Call after RequestDrain() (or let a
  // signal trigger it). Idempotent.
  void Join();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  // The composite lifecycle string the health/stats ops report:
  // "recovering" / "failed" from the service, else "draining" /
  // "serving" from the socket layer's drain flag.
  const char* StateName() const;

 private:
  // Runs on accept_thread_ until the drain; `listen_fd` stays open until
  // Join has joined this thread.
  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);
  // Parses and dispatches one request line; returns the response line.
  std::string ProcessLine(const std::string& line);
  static bool WriteAll(int fd, std::string_view data);

  void RegisterConnection(int fd);
  void UnregisterConnection(int fd);

  // True when this request should open a trace span: the global recorder
  // is enabled and this is the first of each `trace_sample_` requests.
  bool SampleTrace();

  // Rate-limited structured warning for a request that exceeded
  // options_.slow_request_us.
  void LogSlowRequest(const ServiceRequest& request, const JsonValue* id,
                      double elapsed_us, size_t line_bytes);

  // The live-introspection sections merged into the stats response:
  // state, uptime, full counters/gauges, histogram quantile summaries,
  // and windowed rates over the last kStatsWindowSeconds (fed by a
  // snapshot ring that grows one sample per stats call).
  JsonValue BuildStatsExtra();

  // The health document: lifecycle + WAL fail-stop state + snapshot age
  // + resident sizes. While recovering (or failed) it reports a reduced
  // document without touching the engine locks.
  JsonValue BuildHealthDoc();

  ServerOptions options_;
  // Owned only by the convenience (MatchService) constructor.
  std::unique_ptr<RequestDispatcher> owned_dispatcher_;
  RequestDispatcher* dispatcher_;
  Schema schema_;

  uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};

  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;

  Mutex conn_mu_{lockrank::kServerConn};
  // The listening socket; -1 before Start and after Join closes it.
  int listen_fd_ MERGEPURGE_GUARDED_BY(conn_mu_) = -1;
  std::set<int> open_fds_ MERGEPURGE_GUARDED_BY(conn_mu_);
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  // --- Live introspection (docs/observability.md). ---
  // Steady-clock epoch for uptime_seconds and the snapshot ring's
  // timestamps; starts at construction.
  Timer uptime_timer_;
  // One sample per stats request; Over(10s) yields the windowed rates.
  SnapshotRing stats_ring_;
  // Span-sampling interval, adjustable at runtime via the trace op:
  // one span per this many requests while the recorder is enabled.
  std::atomic<uint64_t> trace_sample_{64};
  std::atomic<uint64_t> trace_request_counter_{0};
  // Slow-request log rate limiter: uptime milliseconds of the last
  // emitted line; claimed by compare-exchange so concurrent workers emit
  // at most one line per second between them.
  std::atomic<int64_t> last_slow_log_ms_{-1000000};
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_SERVER_H_
