// batch_multipass: the paper's own experiment. The generator at 20k
// originals (~50k records), the three standard keys, w = 10, the built-in
// theory, in-process MergePurgeEngine::Run with conditioning inside the
// timed call. Rules and the window scan do almost all of the work; the
// incremental engine, the WAL and the shard layer are not used.
#include <functional>
#include <string>

#include "core/merge_purge.h"
#include "eval/metrics.h"
#include "io/csv.h"
#include "layers.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "record/schema.h"
#include "rules/employee_theory.h"
#include "util/timer.h"
#include "workloads.h"

namespace mpbench {

namespace mp = mergepurge;

namespace {

constexpr size_t kOriginals = 20000;
// Set-up is timed this many times before the loop and again after it,
// so its median straddles the run.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

struct LoopStats {
  std::vector<double> run_ms;
  std::vector<double> purge_ms;
  // The first Run's closure; every later Run must repeat it.
  std::vector<uint32_t> labels;
  size_t entities = 0;
};

// Runs the engine until `seconds` pass (at least twice, so the exact
// counters are seen to repeat). `before_run` runs untimed before each
// Run, with the Run's index. After each Run, its closed result is purged
// once — the read that turns the labels into the deduplicated list —
// timed on its own.
LoopStats TimedLoop(const mp::Dataset& dataset, double seconds,
                    const std::function<void(size_t)>& before_run,
                    Report* report) {
  const mp::MergePurgeEngine engine(EngineOptions());
  mp::EmployeeTheory theory;
  mp::Counter* distance_calls = mp::MetricsRegistry::Global().GetCounter(
      mp::metric_names::kRulesDistanceCalls);
  const uint64_t n = dataset.size();
  const uint64_t w = engine.options().window;
  const uint64_t per_key = (w - 1) * n - w * (w - 1) / 2;

  LoopStats stats;
  mp::Timer elapsed;
  do {
    before_run(stats.run_ms.size());
    const uint64_t calls_before = distance_calls->Value();
    mp::Result<mp::MergePurgeResult> result = [&] {
      LayerSpan span("engine.MergePurgeEngine.Run", "engine");
      mp::Timer timer;
      mp::Result<mp::MergePurgeResult> run = engine.Run(dataset, theory);
      stats.run_ms.push_back(timer.ElapsedMillis());
      return run;
    }();
    Check(result.ok(), "Run failed: " + result.status().ToString());
    ++report->attempted;
    uint64_t comparisons = 0;
    for (const mp::PassResult& pass : result->detail.passes) {
      Check(pass.comparisons == per_key,
            "pass " + pass.key_name + " made " +
                std::to_string(pass.comparisons) + " comparisons, expected " +
                std::to_string(per_key));
      comparisons += pass.comparisons;
    }
    if (stats.run_ms.size() == 1) {
      stats.labels = result->component_of;
      stats.entities = result->num_entities;
    }
    Check(result->component_of == stats.labels,
          "Run's closure labels changed between two Runs of one input");
    RecordExact(report, "core.comparisons", comparisons);
    RecordExact(report, "core.union_pairs", result->detail.union_pair_count);
    RecordExact(report, "entities", result->num_entities);
    RecordExact(report, "run.distance_calls",
                distance_calls->Value() - calls_before);

    LayerSpan span("engine.MergePurgeResult.Purge", "engine");
    mp::Timer timer;
    const mp::Dataset purged = result->Purge(dataset);
    stats.purge_ms.push_back(timer.ElapsedMillis());
    Check(purged.size() == result->num_entities,
          "Purge returned " + std::to_string(purged.size()) +
              " records for " + std::to_string(result->num_entities) +
              " entities");
  } while (stats.run_ms.size() < 2 || elapsed.ElapsedSeconds() < seconds);
  return stats;
}

}  // namespace

void RunBatchMultipass(const RunOptions& options, Report* report) {
  const std::string csv = JoinPath(options.work_dir, "input.csv");
  const mp::Schema schema = mp::employee::MakeSchema();

  // Set-up: what a batch user pays before Run — loading the input and
  // constructing the engine and the theory. Construction alone takes
  // microseconds, below the timer's noise, so the load is included.
  std::vector<double> setup_s;
  auto set_up = [&] {
    mp::Timer timer;
    mp::Result<mp::Dataset> loaded = mp::ReadCsvFile(schema, csv);
    const mp::MergePurgeEngine engine(EngineOptions());
    const mp::EmployeeTheory theory;
    setup_s.push_back(timer.ElapsedSeconds());
    Check(loaded.ok(), "cannot read " + csv);
    return std::move(*loaded);
  };

  // Only the loaded input stays: the generated copy is dropped, so the
  // peak RSS of the loop is the program's (input plus what Run and Purge
  // allocate) and the ground truth (4 bytes per record).
  mp::Dataset dataset;
  mp::GroundTruth truth;
  {
    mp::GeneratedDatabase db = Generate(options.seed, kOriginals);
    Check(mp::WriteCsvFile(db.dataset, csv).ok(), "cannot write " + csv);
    dataset = set_up();
    Check(dataset.records() == db.dataset.records(),
          "the loaded input differs from the generated records");
    truth = std::move(db.truth);
  }
  auto more_set_ups = [&](int count) {
    for (int rep = 0; rep < count; ++rep) {
      Check(set_up().records() == dataset.records(),
            "a reload of the input differs from the first load");
    }
  };
  more_set_ups(kSetupsBefore - 1);
  const uint64_t n = dataset.size();
  report->details.Set("records", n);

  LoopStats loop;
  if (!options.trace) {
    ResetPeakRss();
    loop = TimedLoop(dataset, options.seconds, [](size_t) {}, report);
    const double rss_mb = VmHwmMb("/proc/self/status");
    Check(rss_mb > 0.0, "cannot read this process's peak RSS");
    more_set_ups(kSetupsAfter);
    const mp::AccuracyReport accuracy =
        mp::EvaluateComponents(loop.labels, truth);
    // A batch caller's records are admitted by one Run (upsert), and the
    // deduplicated list is there once that Run's result is purged (match).
    // Purge alone is ~1% of that time; timed on its own, its median moved
    // up to 2x between runs with the host's memory contention.
    std::vector<double> run_purge_ms;
    for (size_t i = 0; i < loop.run_ms.size(); ++i) {
      run_purge_ms.push_back(loop.run_ms[i] + loop.purge_ms[i]);
    }
    auto& e2e = report->end_to_end;
    e2e["records_per_s"] = n / (Median(loop.run_ms) / 1e3);
    SetLatencies("upsert", loop.run_ms, report);
    SetLatencies("match", run_purge_ms, report);
    e2e["recall_pct"] = accuracy.recall_percent;
    e2e["false_positive_pct"] = accuracy.false_positive_percent;
    e2e["setup_s"] = Median(setup_s);
    e2e["peak_rss_mb"] = rss_mb;
    mp::JsonValue run_ms = mp::JsonValue::Array();
    for (const double ms : loop.run_ms) run_ms.Append(ms);
    report->details.Set("run_ms", std::move(run_ms));
    mp::JsonValue purge_ms = mp::JsonValue::Array();
    for (const double ms : loop.purge_ms) purge_ms.Append(ms);
    report->details.Set("purge_ms", std::move(purge_ms));
  } else {
    // Traced run: Runs alternate spans off, on, on, off, ... so a drift in
    // the host's speed cancels out of the overhead.
    auto traced_run = [](size_t run) { return run % 4 == 1 || run % 4 == 2; };
    loop = TimedLoop(
        dataset, options.seconds,
        [&](size_t run) {
          SpanRecorder::Global().set_enabled(traced_run(run));
        },
        report);
    SpanRecorder::Global().set_enabled(true);
    std::vector<double> run_ms[2];
    for (size_t run = 0; run < loop.run_ms.size(); ++run) {
      run_ms[traced_run(run)].push_back(loop.run_ms[run]);
    }
    if (!run_ms[0].empty() && !run_ms[1].empty()) {
      report->per_layer["trace.overhead_pct"] =
          OverheadPct(1.0 / Median(run_ms[0]), 1.0 / Median(run_ms[1]));
    }
    report->per_layer["core.purge_ms"] = Median(loop.purge_ms);
  }

  // The serial reference, composed from the layer APIs: the Runs' labels
  // must equal it. A traced run times each layer while building it.
  const mp::Dataset conditioned =
      ConditionedCopy(dataset, options.trace ? report : nullptr);
  const LayeredPasses reference =
      RunLayeredPasses(conditioned, !options.trace,
                       options.trace ? report : nullptr);
  Check(reference.comparisons == 3 * (9 * n - 45),
        "serial reference made " + std::to_string(reference.comparisons) +
            " comparisons, expected 3*((w-1)n - w(w-1)/2)");
  Check(loop.entities == reference.entities,
        "Run found " + std::to_string(loop.entities) +
            " entities, the serial reference " +
            std::to_string(reference.entities));
  Check(loop.labels == reference.labels,
        "Run's closure labels differ from the serial reference");
  Check(reference.comparisons == report->exact["core.comparisons"] &&
            reference.pairs.size() == report->exact["core.union_pairs"],
        "the serial reference and the Run disagree on comparisons or pairs");
  report->details.Set("reference_entities",
                      static_cast<uint64_t>(reference.entities));
  if (!options.trace) return;

  // Rules, replayed twice over the scan's window pairs: the distance
  // calls must equal the Run's, and the DSL disagreements must repeat.
  std::vector<TuplePair> pairs;
  for (const auto& order : reference.orders) {
    std::vector<TuplePair> key_pairs = WindowPairs(order, 10, 1);
    pairs.insert(pairs.end(), key_pairs.begin(), key_pairs.end());
  }
  Check(pairs.size() == reference.comparisons,
        "window-pair replay does not cover the scan's comparisons");
  for (int rep = 0; rep < 2; ++rep) {
    const RuleCounts rules = MeasureRules(conditioned, pairs, 4, report);
    Check(rules.distance_calls == report->exact["run.distance_calls"],
          "replaying the scan's pairs made " +
              std::to_string(rules.distance_calls) +
              " distance calls, the Run " +
              std::to_string(report->exact["run.distance_calls"]));
    RecordExact(report, "rules.distance_calls", rules.distance_calls);
    RecordExact(report, "rules.dsl_disagreements", rules.dsl_disagreements);
  }
}

}  // namespace mpbench
