#include "service/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <optional>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/engine_dispatcher.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

// One socket read per iteration of the connection loop.
constexpr size_t kReadChunkBytes = 16 * 1024;

// Span of the windowed-rate section of the stats response.
constexpr double kStatsWindowSeconds = 10.0;

// Minimum gap between slow-request log lines.
constexpr int64_t kSlowLogMinIntervalMs = 1000;

void CloseQuietly(int fd) {
  if (fd >= 0) ::close(fd);
}

const char* OpName(ServiceRequest::Op op) {
  switch (op) {
    case ServiceRequest::Op::kMatch:
      return "match";
    case ServiceRequest::Op::kUpsert:
      return "upsert";
    case ServiceRequest::Op::kPing:
      return "ping";
    case ServiceRequest::Op::kStats:
      return "stats";
    case ServiceRequest::Op::kHealth:
      return "health";
    case ServiceRequest::Op::kTrace:
      return "trace";
    case ServiceRequest::Op::kHello:
      return "hello";
  }
  return "unknown";
}

// {count, sum, p50, p90, p99} per histogram. Quantiles are interpolated
// from the bucket counts (obs/window.h); *_us histograms report them in
// microseconds.
JsonValue HistogramSummaries(const MetricsSnapshot& snapshot) {
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : snapshot.histograms) {
    JsonValue doc = JsonValue::Object();
    doc.Set("count", histogram.count);
    doc.Set("sum", histogram.sum);
    doc.Set("p50", HistogramQuantile(histogram, 0.50));
    doc.Set("p90", HistogramQuantile(histogram, 0.90));
    doc.Set("p99", HistogramQuantile(histogram, 0.99));
    histograms.Set(name, std::move(doc));
  }
  return histograms;
}

// Typed refusal for engine-touching ops while the service cannot serve
// them: recovering is retryable (the client waits and resends), failed
// is terminal.
std::string NotServingResponse(const JsonValue* id,
                               MatchService::Lifecycle lifecycle) {
  if (lifecycle == MatchService::Lifecycle::kRecovering) {
    return ErrorResponseLine(
        id, {ServiceErrorCode::kRecovering,
             "startup recovery in progress; retry shortly"});
  }
  return ErrorResponseLine(id, {ServiceErrorCode::kInternal,
                                "startup recovery failed; service is "
                                "not serving"});
}

}  // namespace

Server::Server(ServerOptions options, MatchService* service)
    : options_(std::move(options)),
      owned_dispatcher_(std::make_unique<EngineDispatcher>(service)),
      dispatcher_(owned_dispatcher_.get()),
      schema_(employee::MakeSchema()) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
}

Server::Server(ServerOptions options, RequestDispatcher* dispatcher)
    : options_(std::move(options)),
      dispatcher_(dispatcher),
      schema_(employee::MakeSchema()) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
}

Server::~Server() {
  RequestDrain();
  Join();
}

Result<uint16_t> Server::Start() {
  // A peer closing mid-write must surface as a send() error on that
  // connection, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  // Built in a local and published under conn_mu_ once listening, so a
  // concurrent RequestDrain never sees a half-set-up socket.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StringPrintf("socket: %s", strerror(errno)));
  }
  int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    CloseQuietly(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status status = Status::IoError(
        StringPrintf("bind %s:%u: %s", options_.bind_address.c_str(),
                     options_.port, strerror(errno)));
    CloseQuietly(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    Status status =
        Status::IoError(StringPrintf("listen: %s", strerror(errno)));
    CloseQuietly(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    Status status =
        Status::IoError(StringPrintf("getsockname: %s", strerror(errno)));
    CloseQuietly(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);

  {
    MutexLock lock(conn_mu_);
    listen_fd_ = fd;
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  MERGEPURGE_LOG(kInfo) << "serving on " << options_.bind_address << ":" << port_
           << " (" << options_.num_workers << " workers, cap "
           << options_.max_connections << " connections)";
  return port_;
}

void Server::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  MutexLock lock(conn_mu_);
  // Wake the blocked accept() (Linux returns EINVAL after shutdown).
  // Under conn_mu_, so Join cannot close the fd (and the number be
  // reused) between the check and the shutdown.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Wake every blocked read; SHUT_RD leaves response writes working.
  for (int fd : open_fds_) ::shutdown(fd, SHUT_RD);
}

void Server::Join() {
  bool expected = false;
  if (!joined_.compare_exchange_strong(expected, true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_ != nullptr) pool_->Wait();
  {
    MutexLock lock(conn_mu_);
    if (listen_fd_ >= 0) {
      CloseQuietly(listen_fd_);
      listen_fd_ = -1;
    }
  }
  dispatcher_->Drain();
  MERGEPURGE_LOG(kInfo) << "drained: " << connections_accepted_.load()
           << " connections served";
}

void Server::AcceptLoop(int listen_fd) {
  static Counter* const connections = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceConnections);
  static Counter* const rejected = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceConnectionsRejected);

  while (!draining()) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (draining()) break;
      MERGEPURGE_LOG(kWarning) << "accept: " << strerror(errno);
      break;
    }
    if (draining()) {
      CloseQuietly(fd);
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      rejected->Increment();
      WriteAll(fd, ErrorResponseLine(
                       nullptr, {ServiceErrorCode::kTooManyConnections,
                                 "connection cap reached"}));
      CloseQuietly(fd);
      continue;
    }
    connections->Increment();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    RegisterConnection(fd);
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  if (options_.idle_timeout_ms > 0) {
    timeval tv;
    tv.tv_sec = options_.idle_timeout_ms / 1000;
    tv.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  LineFrameReader reader(options_.max_line_bytes);
  char buffer[kReadChunkBytes];
  std::string line;
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) break;  // Peer closed (or drain shut the read side).
    if (n < 0) {
      // EAGAIN/EWOULDBLOCK is the idle timeout firing; anything else is
      // a dead peer. Either way the connection is done.
      if (errno == EINTR) continue;
      break;
    }
    if (!reader.Append(std::string_view(buffer, static_cast<size_t>(n)))) {
      WriteAll(fd, ErrorResponseLine(
                       nullptr, {ServiceErrorCode::kFrameTooLarge,
                                 StringPrintf("request line exceeds %zu "
                                              "bytes",
                                              options_.max_line_bytes)}));
      break;
    }
    while (reader.NextLine(&line)) {
      if (!WriteAll(fd, ProcessLine(line))) {
        open = false;
        break;
      }
    }
    if (open && reader.overflowed()) {
      WriteAll(fd, ErrorResponseLine(
                       nullptr, {ServiceErrorCode::kFrameTooLarge,
                                 StringPrintf("request line exceeds %zu "
                                              "bytes",
                                              options_.max_line_bytes)}));
      break;
    }
  }
  UnregisterConnection(fd);
  CloseQuietly(fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

std::string Server::ProcessLine(const std::string& line) {
  static Counter* const requests = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceRequests);
  static Counter* const errors =
      MetricsRegistry::Global().GetCounter(metric_names::kServiceErrors);
  static LatencyHistogram* const request_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceRequestUs);

  Timer timer;
  requests->Increment();

  ServiceRequest request;
  ServiceError error;
  if (!ParseRequest(line, schema_, &request, &error)) {
    errors->Increment();
    request_us->Record(static_cast<double>(timer.ElapsedMicros()));
    return ErrorResponseLine(nullptr, error);
  }
  const JsonValue* id =
      request.id.has_value() ? &request.id.value() : nullptr;
  const MatchService::Lifecycle lifecycle = dispatcher_->lifecycle();
  const bool sampled = SampleTrace();

  std::string response;
  switch (request.op) {
    case ServiceRequest::Op::kPing:
      response = PingResponseLine(id);
      break;
    case ServiceRequest::Op::kHealth:
      // Health must answer while recovery still holds the engine write
      // lock, so BuildHealthDoc never touches engine state unless the
      // service is serving.
      response = HealthResponseLine(id, BuildHealthDoc());
      break;
    case ServiceRequest::Op::kHello: {
      // Like ping/health, hello must answer while recovery still holds
      // the engine write lock: the coordinator verifies topology at
      // startup, exactly when shards are likely to be replaying.
      const bool keys_mismatch =
          request.hello_keys.has_value() &&
          !options_.topology_keys.empty() &&
          *request.hello_keys != options_.topology_keys;
      const bool window_mismatch =
          request.hello_window.has_value() &&
          options_.topology_window != 0 &&
          *request.hello_window != options_.topology_window;
      if (keys_mismatch || window_mismatch) {
        errors->Increment();
        std::string message =
            "topology mismatch: this server runs keys=" +
            options_.topology_keys +
            " window=" + std::to_string(options_.topology_window) +
            ", caller sent";
        if (request.hello_keys.has_value()) {
          message += " keys=" + *request.hello_keys;
        }
        if (request.hello_window.has_value()) {
          message += " window=" + std::to_string(*request.hello_window);
        }
        response = ErrorResponseLine(
            id, {ServiceErrorCode::kConfigMismatch, message});
      } else {
        response = HelloResponseLine(id, options_.topology_keys,
                                     options_.topology_window);
      }
      break;
    }
    case ServiceRequest::Op::kTrace: {
      if (request.trace_sample.has_value()) {
        trace_sample_.store(*request.trace_sample,
                            std::memory_order_relaxed);
      }
      TraceRecorder& recorder = TraceRecorder::Global();
      if (request.trace_enabled) {
        recorder.Enable();
      } else {
        recorder.Disable();
      }
      response = TraceResponseLine(
          id, recorder.enabled(),
          trace_sample_.load(std::memory_order_relaxed));
      break;
    }
    case ServiceRequest::Op::kStats: {
      if (lifecycle != MatchService::Lifecycle::kServing) {
        errors->Increment();
        response = NotServingResponse(id, lifecycle);
        break;
      }
      std::optional<Span> span;
      if (sampled) span.emplace("service-stats");
      JsonValue extra = BuildStatsExtra();
      response = dispatcher_->HandleStats(id, extra);
      break;
    }
    case ServiceRequest::Op::kMatch: {
      if (lifecycle != MatchService::Lifecycle::kServing) {
        errors->Increment();
        response = NotServingResponse(id, lifecycle);
        break;
      }
      std::optional<Span> span;
      if (sampled) span.emplace("service-match");
      response = dispatcher_->HandleMatch(id, std::move(request.records));
      break;
    }
    case ServiceRequest::Op::kUpsert: {
      if (lifecycle != MatchService::Lifecycle::kServing) {
        errors->Increment();
        response = NotServingResponse(id, lifecycle);
        break;
      }
      if (draining()) {
        errors->Increment();
        response = ErrorResponseLine(
            id, {ServiceErrorCode::kDraining,
                 "server is draining; upsert not admitted"});
        break;
      }
      std::optional<Span> span;
      if (sampled) {
        span.emplace("service-upsert");
        span->AddArg("records",
                     static_cast<uint64_t>(request.records.size()));
      }
      response = dispatcher_->HandleUpsert(id, std::move(request.records));
      break;
    }
  }
  const double elapsed_us = static_cast<double>(timer.ElapsedMicros());
  request_us->Record(elapsed_us);
  if (options_.slow_request_us > 0 &&
      elapsed_us >= static_cast<double>(options_.slow_request_us)) {
    LogSlowRequest(request, id, elapsed_us, line.size());
  }
  return response;
}

const char* Server::StateName() const {
  switch (dispatcher_->lifecycle()) {
    case MatchService::Lifecycle::kRecovering:
      return "recovering";
    case MatchService::Lifecycle::kFailed:
      return "failed";
    case MatchService::Lifecycle::kServing:
      break;
  }
  return draining() ? "draining" : "serving";
}

bool Server::SampleTrace() {
  if (!TraceRecorder::Global().enabled()) return false;
  const uint64_t sample = trace_sample_.load(std::memory_order_relaxed);
  if (sample <= 1) return true;
  return trace_request_counter_.fetch_add(1, std::memory_order_relaxed) %
             sample ==
         0;
}

void Server::LogSlowRequest(const ServiceRequest& request,
                            const JsonValue* id, double elapsed_us,
                            size_t line_bytes) {
  const int64_t now_ms = static_cast<int64_t>(uptime_timer_.ElapsedMillis());
  int64_t last = last_slow_log_ms_.load(std::memory_order_relaxed);
  if (now_ms - last < kSlowLogMinIntervalMs) return;
  // One worker wins the slot; the rest drop their line (the histogram
  // still counted the request, only the log line is rate-limited).
  if (!last_slow_log_ms_.compare_exchange_strong(
          last, now_ms, std::memory_order_relaxed)) {
    return;
  }
  MERGEPURGE_LOG(kWarning) << "slow request: op=" << OpName(request.op)
                           << (id != nullptr ? " id=" + id->Dump()
                                             : std::string())
                           << " us=" << static_cast<uint64_t>(elapsed_us)
                           << " bytes=" << line_bytes << " threshold_us="
                           << options_.slow_request_us;
}

JsonValue Server::BuildStatsExtra() {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const double now_seconds = uptime_timer_.ElapsedSeconds();

  JsonValue extra = JsonValue::Object();
  extra.Set("state", StateName());
  extra.Set("uptime_seconds", now_seconds);
  if (!options_.instance_label.empty()) {
    extra.Set("instance", options_.instance_label);
  }

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, value);
  }
  extra.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, value);
  }
  extra.Set("gauges", std::move(gauges));

  extra.Set("histograms", HistogramSummaries(snapshot));

  // Feed the ring AFTER summarizing, so the window never diffs a sample
  // against itself; the window then spans up to the previous
  // kStatsWindowSeconds of stats requests.
  JsonValue window_doc = JsonValue::Object();
  stats_ring_.Push(now_seconds, std::move(snapshot));
  SnapshotWindow window = stats_ring_.Over(kStatsWindowSeconds);
  window_doc.Set("valid", window.valid);
  if (window.valid) {
    window_doc.Set("seconds", window.seconds);
    window_doc.Set(
        "requests_per_sec",
        static_cast<double>(
            window.delta.counter(metric_names::kServiceRequests)) /
            window.seconds);
    window_doc.Set(
        "records_per_sec",
        static_cast<double>(
            window.delta.counter(metric_names::kServiceUpsertRecords)) /
            window.seconds);
    window_doc.Set("histograms", HistogramSummaries(window.delta));
  }
  extra.Set("window", std::move(window_doc));
  return extra;
}

JsonValue Server::BuildHealthDoc() {
  JsonValue health = JsonValue::Object();
  health.Set("state", StateName());
  health.Set("uptime_seconds", uptime_timer_.ElapsedSeconds());
  if (!options_.instance_label.empty()) {
    health.Set("instance", options_.instance_label);
  }
  // Backend-specific sections (WAL/snapshot/resident for the engine
  // dispatcher, shard fan-out for the coordinator); the dispatcher
  // respects its own lifecycle so this never blocks behind a recovery
  // replay.
  dispatcher_->FillHealth(&health);
  return health;
}

bool Server::WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

void Server::RegisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.insert(fd);
  // Registering during a drain means the accept raced RequestDrain's fd
  // sweep; shut the read side now so the worker sees EOF immediately.
  if (draining()) ::shutdown(fd, SHUT_RD);
}

void Server::UnregisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.erase(fd);
}

}  // namespace mergepurge
