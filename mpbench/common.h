// Shared pieces of the merge/purge benchmark driver: run options, the
// metric report, the benchmark's own span recorder, generated inputs,
// child-process control for the service binaries, and small statistics.
#ifndef MPBENCH_COMMON_H_
#define MPBENCH_COMMON_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/merge_purge.h"
#include "gen/generator.h"
#include "obs/json.h"
#include "util/sync.h"

namespace mpbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // Holds mergepurge_serve / mergepurge_coord.
  std::string work_dir;  // Scratch space of this run (data dirs, CSVs).
  std::string out_dir;   // Report and trace of this run.
};

// A failed output check. Thrown anywhere in a workload; the driver turns
// it into a non-zero exit without a result line.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void Check(bool condition, const std::string& message);

// What a workload measured. Metric names and units are those of
// BENCHMARK.json (the driver's tables hold the units).
struct Report {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  // Deterministic counters of this run (see RecordExact).
  std::map<std::string, uint64_t> exact;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Details written to report.json: reference figures, check outcomes,
  // per-layer self times and the tracing overhead.
  mergepurge::JsonValue details = mergepurge::JsonValue::Object();
};

// Records a deterministic counter; a second value for the same name in
// one run must repeat the first bit-for-bit.
void RecordExact(Report* report, const std::string& name, uint64_t value);

// Records per upsert request in the online workloads' request mix.
inline constexpr size_t kUpsertRecords = 8;

// The engine configuration every workload uses: the three standard keys,
// w = 10, conditioning on — identical to mergepurge_serve's defaults so
// snapshots written here are accepted by the server.
mergepurge::MergePurgeOptions EngineOptions();

// Generates the employee database for `originals` originals; the same
// seed always yields the same records and ground truth.
mergepurge::GeneratedDatabase Generate(uint64_t seed, size_t originals);

// --- Statistics. ---
// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
// Sets end-to-end `<op>_p50_ms` from latency samples in ms, and in the
// details their count and `<op>_p99_ms` with the quantile it used. The
// tail is not an end-to-end metric: across runs of one commit it spread
// more than any bound allows (see README.md). It is the 0.99-quantile
// when at least ten samples lie beyond it (n >= 1000); with fewer
// samples it is the highest quantile that has ten beyond it, and never
// below the median.
void SetLatencies(const std::string& op, const std::vector<double>& ms,
                  Report* report);
// total / count, with an empty count read as 1 (a rate over no work is 0).
double PerUnit(double total, double count);
// Throughput lost to tracing, in percent of the traced rate.
double OverheadPct(double untraced_rate, double traced_rate);

// --- The benchmark's own spans (one per layer call, parent-linked). ---
// Recording is off until set_enabled(true); a disabled span costs one
// relaxed load. Spans are kept in memory and written once at the end.
class SpanRecorder {
 public:
  static SpanRecorder& Global();
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct SpanRecord {
    std::string name;
    std::string layer;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0: root.
    uint64_t thread = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  void Add(SpanRecord record);
  uint64_t NextId();
  double NowUs() const;

  // Self time per layer in seconds: each span's duration minus the part
  // of it its child spans cover.
  std::map<std::string, double> LayerSelfSeconds() const;
  // Chrome trace-event JSON ("traceEvents", complete events).
  mergepurge::JsonValue ChromeTrace() const;

 private:
  SpanRecorder();
  std::atomic<bool> enabled_{false};
  mutable mergepurge::Mutex mu_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_ MERGEPURGE_GUARDED_BY(mu_);
  uint64_t next_id_ MERGEPURGE_GUARDED_BY(mu_) = 1;
};

class LayerSpan {
 public:
  // `record` false makes the span a no-op (benchmark-side reference work
  // that belongs to no measured layer).
  LayerSpan(const char* name, const char* layer, bool record = true);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  bool active_ = false;
  SpanRecorder::SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

// --- Child processes (the service binaries). ---
// Starts `argv` with stdout/stderr appended to `log_path`; the child is
// killed if this process dies. Stop() sends SIGTERM, waits up to
// `grace_ms`, then SIGKILLs and reaps. The destructor stops it too.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running();
  // Peak resident set of the running child in MiB: VmHWM of its own
  // image, which unlike ru_maxrss does not inherit this process's peak
  // through fork. 0 once the child has exited.
  double PeakRssMb() const;
  // Returns the exit status (as from waitpid) or -1 if it was killed.
  int Stop(int grace_ms = 10000);

 private:
  // waitpid; true once the child was reaped.
  bool Reap(int options);

  pid_t pid_ = -1;
  int status_ = -1;
};

// Waits for `path` to hold a port number the child wrote; throws a
// CheckFailure when the child exits or `timeout_ms` passes.
uint16_t WaitForPortFile(const std::string& path, ChildProcess* child,
                         int timeout_ms);

// Peak resident set (VmHWM) in MiB of the process whose status file is
// `status_path` ("/proc/<pid>/status"); 0 when it cannot be read.
double VmHwmMb(const std::string& status_path);
// Returns freed heap to the system and resets this process's VmHWM to
// its current resident set, so a later VmHwmMb("/proc/self/status")
// covers only what follows.
void ResetPeakRss();

std::string JoinPath(const std::string& a, const std::string& b);
void MakeDir(const std::string& path);
void RemoveTree(const std::string& path);

}  // namespace mpbench

#endif  // MPBENCH_COMMON_H_
