// mpbench_driver — runs one benchmark workload and prints its result.
//
//   mpbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --bin-dir=DIR --work-dir=DIR --out-dir=DIR
//
// Untraced (--trace=0) the last stdout line carries every end-to-end
// metric; traced (--trace=1) every per-layer metric, and the run writes
// the benchmark's spans as a Chrome trace (trace.json) beside its report
// (report.json) in --out-dir. Per-layer metrics of a layer the workload
// does not use are reported as 0 and listed under "not_applicable".
//
// Exit codes: 0 with a result line; 1 when an output check failed or the
// program misbehaved (no result line); 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.h"
#include "eval/experiment.h"
#include "workloads.h"

namespace {

namespace mp = mergepurge;
using mpbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics BENCHMARK.json names.
constexpr MetricSpec kEndToEnd[] = {
    {"records_per_s", "rec/s"},  {"upsert_p50_ms", "ms"},
    {"match_p50_ms", "ms"},      {"recall_pct", "%"},
    {"false_positive_pct", "%"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"rules.ns_per_comparison", "ns"},
    {"rules.distance_calls_per_comparison", "ratio"},
    {"rules.early_exit_frac", "ratio"},
    {"rules.dsl_ns_per_comparison", "ns"},
    {"rules.dsl_disagreements", "count"},
    {"core.scan_s", "s"},
    {"core.comparisons", "count"},
    {"core.union_pairs", "count"},
    {"core.matches_per_comparison", "ratio"},
    {"core.closure_ms", "ms"},
    {"core.purge_ms", "ms"},
    {"core.apply_ms_per_batch", "ms"},
    {"core.apply_us_per_record", "us"},
    {"core.label_rebuild_us", "us"},
    {"core.restore_s", "s"},
    {"core.probe_us", "us"},
    {"keys.build_us_per_record", "us"},
    {"sort.sort_s", "s"},
    {"text.condition_us_per_record", "us"},
    {"parallel.model_c_ns", "ns"},
    {"parallel.model_alpha", "ratio"},
    {"service.queue_wait_ms", "ms"},
    {"service.apply_ms", "ms"},
    {"service.label_rebuild_us", "us"},
    {"service.wal_append_us", "us"},
    {"service.wal_fsync_us", "us"},
    {"service.ack_us", "us"},
    {"service.batch_records", "count"},
    {"service.wal_bytes_per_record", "B"},
    {"service.snapshot_ms", "ms"},
    {"service.protocol_us_per_request", "us"},
    {"shard.route_us_per_record", "us"},
    {"shard.replica_frac", "ratio"},
    {"shard.skew", "ratio"},
    {"shard.fanout_ms", "ms"},
    {"shard.closure_merge_us", "us"},
    {"shard.retries", "count"},
    {"trace.overhead_pct", "%"},
};

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "mpbench_driver: %s\nusage: mpbench_driver --workload=NAME "
               "--seed=N --seconds=S --trace=0|1 --bin-dir=DIR "
               "--work-dir=DIR --out-dir=DIR\n",
               message.c_str());
  return 2;
}

void WriteJson(const std::string& path, const mp::JsonValue& doc) {
  std::ofstream out(path);
  out << doc.Dump(1) << "\n";
  mpbench::Check(static_cast<bool>(out), "cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  mp::ArgParser args(argc, argv);
  if (!args.status().ok()) return Usage(args.status().message());
  mpbench::RunOptions options;
  options.workload = args.GetString("workload", "");
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.seconds = args.GetDouble("seconds", 10.0);
  options.trace = args.GetInt("trace", 0) != 0;
  options.bin_dir = args.GetString("bin-dir", "");
  options.work_dir = args.GetString("work-dir", "");
  options.out_dir = args.GetString("out-dir", "");
  if (options.bin_dir.empty() || options.work_dir.empty() ||
      options.out_dir.empty()) {
    return Usage("--bin-dir, --work-dir and --out-dir are required");
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be > 0");

  Report report;
  try {
    mpbench::MakeDir(options.work_dir);
    mpbench::MakeDir(options.out_dir);
    if (options.workload == "batch_multipass") {
      mpbench::RunBatchMultipass(options, &report);
    } else if (options.workload == "online_resident") {
      mpbench::RunOnlineResident(options, &report);
    } else if (options.workload == "online_sharded") {
      mpbench::RunOnlineSharded(options, &report);
    } else {
      return Usage("unknown --workload '" + options.workload + "'");
    }
  } catch (const mpbench::CheckFailure& failure) {
    std::fprintf(stderr, "mpbench: %s: output check failed: %s\n",
                 options.workload.c_str(), failure.what());
    return 1;
  }

  mp::JsonValue metrics = mp::JsonValue::Object();
  mp::JsonValue not_applicable = mp::JsonValue::Array();
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = report.end_to_end.find(spec.name);
      if (it == report.end_to_end.end()) {
        std::fprintf(stderr, "mpbench: %s did not measure %s\n",
                     options.workload.c_str(), spec.name);
        return 1;
      }
      mp::JsonValue metric = mp::JsonValue::Object();
      metric.Set("value", it->second);
      metric.Set("unit", spec.unit);
      metrics.Set(spec.name, std::move(metric));
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report.per_layer.find(spec.name);
      double value = 0.0;
      if (it == report.per_layer.end()) {
        not_applicable.Append(spec.name);
      } else {
        value = it->second;
      }
      mp::JsonValue metric = mp::JsonValue::Object();
      metric.Set("value", value);
      metric.Set("unit", spec.unit);
      metrics.Set(spec.name, std::move(metric));
    }
  }

  // The report: metrics, exact counters, details, and for traced runs
  // the per-layer self times of the benchmark's spans.
  mp::JsonValue doc = mp::JsonValue::Object();
  doc.Set("workload", options.workload);
  doc.Set("seed", options.seed);
  doc.Set("seconds", options.seconds);
  doc.Set("trace", options.trace);
  doc.Set("metrics", metrics);
  mp::JsonValue exact = mp::JsonValue::Object();
  for (const auto& [name, value] : report.exact) exact.Set(name, value);
  doc.Set("exact", std::move(exact));
  doc.Set("details", report.details);
  try {
    if (options.trace) {
      doc.Set("not_applicable", std::move(not_applicable));
      mp::JsonValue self = mp::JsonValue::Object();
      for (const auto& [layer, seconds] :
           mpbench::SpanRecorder::Global().LayerSelfSeconds()) {
        self.Set(layer, seconds);
        std::printf("self time %-8s %10.4f s\n", layer.c_str(), seconds);
      }
      doc.Set("layer_self_seconds", std::move(self));
      WriteJson(mpbench::JoinPath(options.out_dir, "trace.json"),
                mpbench::SpanRecorder::Global().ChromeTrace());
    }
    WriteJson(mpbench::JoinPath(options.out_dir, "report.json"), doc);
  } catch (const mpbench::CheckFailure& failure) {
    std::fprintf(stderr, "mpbench: %s\n", failure.what());
    return 1;
  }

  for (const auto& [name, metric] : metrics.members()) {
    std::printf("%-40s %16.6f %s\n", name.c_str(),
                metric.Find("value")->double_value(),
                metric.Find("unit")->string_value().c_str());
  }
  mp::JsonValue result = mp::JsonValue::Object();
  result.Set("correct", true);
  result.Set("attempted", std::max<uint64_t>(1, report.attempted));
  result.Set("failed", report.failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(0).c_str());
  return 0;
}
