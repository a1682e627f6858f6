#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "keys/standard_keys.h"

namespace mpbench {

using mergepurge::JsonValue;

void Check(bool condition, const std::string& message) {
  if (!condition) throw CheckFailure(message);
}

void RecordExact(Report* report, const std::string& name, uint64_t value) {
  auto [it, inserted] = report->exact.emplace(name, value);
  Check(inserted || it->second == value,
        "exact counter " + name + " = " + std::to_string(value) +
            " differs from its earlier value in this run (" +
            std::to_string(it->second) + ")");
}

mergepurge::MergePurgeOptions EngineOptions() {
  mergepurge::MergePurgeOptions options;
  options.keys = mergepurge::StandardThreeKeys();
  options.window = 10;
  return options;
}

mergepurge::GeneratedDatabase Generate(uint64_t seed, size_t originals) {
  mergepurge::GeneratorConfig config;
  config.num_records = originals;
  config.seed = seed;
  mergepurge::Result<mergepurge::GeneratedDatabase> db =
      mergepurge::DatabaseGenerator(config).Generate();
  Check(db.ok(), "generator failed: " + db.status().ToString());
  return std::move(*db);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

void SetLatencies(const std::string& op, const std::vector<double>& ms,
                  Report* report) {
  const double n = static_cast<double>(ms.size());
  const double tail_q = std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
  report->end_to_end[op + "_p50_ms"] = Quantile(ms, 0.5);
  report->details.Set(op + "_samples", static_cast<uint64_t>(ms.size()));
  report->details.Set(op + "_p99_ms", Quantile(ms, tail_q));
  report->details.Set(op + "_p99_quantile", tail_q);
}

double PerUnit(double total, double count) {
  return total / std::max(count, 1.0);
}

double OverheadPct(double untraced_rate, double traced_rate) {
  return (untraced_rate / traced_rate - 1.0) * 100.0;
}

// --- Spans. ---

namespace {

thread_local uint64_t current_span = 0;
std::atomic<uint64_t> next_thread_index{1};
thread_local uint64_t thread_index = 0;

uint64_t ThreadIndex() {
  if (thread_index == 0) thread_index = next_thread_index.fetch_add(1);
  return thread_index;
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

uint64_t SpanRecorder::NextId() {
  mergepurge::MutexLock lock(mu_);
  return next_id_++;
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::Add(SpanRecord record) {
  mergepurge::MutexLock lock(mu_);
  spans_.push_back(std::move(record));
}

std::map<std::string, double> SpanRecorder::LayerSelfSeconds() const {
  mergepurge::MutexLock lock(mu_);
  // Children of one parent never overlap each other (a thread runs one
  // span at a time), so the covered part is the sum of child durations.
  std::map<uint64_t, double> child_us;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) child_us[span.parent] += span.dur_us;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    auto it = child_us.find(span.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    self[span.layer] += std::max(0.0, span.dur_us - covered) / 1e6;
  }
  return self;
}

JsonValue SpanRecorder::ChromeTrace() const {
  mergepurge::MutexLock lock(mu_);
  JsonValue events = JsonValue::Array();
  for (const SpanRecord& span : spans_) {
    JsonValue event = JsonValue::Object();
    event.Set("name", span.name);
    event.Set("cat", span.layer);
    event.Set("ph", "X");
    event.Set("pid", 1);
    event.Set("tid", span.thread);
    event.Set("ts", span.start_us);
    event.Set("dur", span.dur_us);
    JsonValue args = JsonValue::Object();
    args.Set("id", span.id);
    args.Set("parent", span.parent);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue trace = JsonValue::Object();
  trace.Set("traceEvents", std::move(events));
  trace.Set("displayTimeUnit", "ms");
  return trace;
}

LayerSpan::LayerSpan(const char* name, const char* layer, bool record) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!record || !recorder.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.id = recorder.NextId();
  record_.parent = current_span;
  record_.thread = ThreadIndex();
  saved_parent_ = current_span;
  current_span = record_.id;
  record_.start_us = recorder.NowUs();
}

LayerSpan::~LayerSpan() {
  if (!active_) return;
  SpanRecorder& recorder = SpanRecorder::Global();
  record_.dur_us = recorder.NowUs() - record_.start_us;
  current_span = saved_parent_;
  recorder.Add(std::move(record_));
}

// --- Child processes. ---

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  Check(pid_ >= 0, "fork failed");
  if (pid_ == 0) {
    // The child dies with the benchmark, so no server outlives a crash.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    // The benchmark blocks no signals, but be explicit: the servers
    // install their own SIGTERM drain.
    sigset_t none;
    sigemptyset(&none);
    sigprocmask(SIG_SETMASK, &none, nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
}

ChildProcess::~ChildProcess() { Stop(2000); }

bool ChildProcess::running() {
  if (pid_ <= 0) return false;
  return !Reap(WNOHANG);
}

bool ChildProcess::Reap(int options) {
  int status = 0;
  if (waitpid(pid_, &status, options) != pid_) return false;
  status_ = status;
  pid_ = -1;
  return true;
}

double ChildProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  return VmHwmMb("/proc/" + std::to_string(pid_) + "/status");
}

int ChildProcess::Stop(int grace_ms) {
  if (pid_ <= 0) return status_;
  kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (Reap(WNOHANG)) return status_;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill(pid_, SIGKILL);
  Reap(0);
  status_ = -1;
  return status_;
}

uint16_t WaitForPortFile(const std::string& path, ChildProcess* child,
                         int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    // The file is complete once its newline is there.
    std::ifstream in(path);
    std::string line;
    if (std::getline(in, line) && !in.eof()) {
      const int port = std::atoi(line.c_str());
      Check(port > 0 && port < 65536, "bad port in " + path + ": " + line);
      return static_cast<uint16_t>(port);
    }
    Check(child->running(), "server exited before writing " + path);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw CheckFailure("timed out waiting for " + path);
}

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak RSS (proc(5)).
  out.flush();
  Check(static_cast<bool>(out), "cannot reset the peak RSS");
}

std::string JoinPath(const std::string& a, const std::string& b) {
  return (std::filesystem::path(a) / b).string();
}

void MakeDir(const std::string& path) {
  std::filesystem::create_directories(path);
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace mpbench
