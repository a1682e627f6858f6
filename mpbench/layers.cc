#include "layers.h"

#include <algorithm>
#include <string>
#include <thread>

#include "core/incremental.h"
#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "core/window_scanner.h"
#include "keys/key_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "parallel/cost_model.h"
#include "rules/employee_rules_text.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "shard/router.h"
#include "text/normalize.h"
#include "util/timer.h"

namespace mpbench {

namespace mp = mergepurge;

namespace {

// Consumes a value so the optimizer cannot drop the call producing it.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

mp::Dataset ConditionedCopy(const mp::Dataset& raw, Report* report) {
  mp::Dataset conditioned = raw;
  LayerSpan span("text.ConditionEmployeeDataset", "text", report != nullptr);
  mp::Timer timer;
  mp::ConditionEmployeeDataset(&conditioned);
  const double seconds = timer.ElapsedSeconds();
  if (report != nullptr) {
    report->per_layer["text.condition_us_per_record"] =
        PerUnit(seconds * 1e6, raw.size());
  }
  return conditioned;
}

LayeredPasses RunLayeredPasses(const mp::Dataset& conditioned, bool parallel,
                               Report* report) {
  const mp::MergePurgeOptions options = EngineOptions();
  const size_t n = conditioned.size();
  const size_t num_keys = options.keys.size();
  LayeredPasses out;
  out.orders.resize(num_keys);
  std::vector<mp::PairSet> pass_pairs(num_keys);
  std::vector<mp::ScanStats> stats(num_keys);
  std::vector<double> keys_s(num_keys), sort_s(num_keys), scan_s(num_keys);

  auto run_pass = [&](size_t k) {
    const mp::KeySpec& key = options.keys[k];
    mp::EmployeeTheory theory;
    {
      LayerSpan span("keys.BuildKeys", "keys", !parallel);
      mp::Timer timer;
      std::vector<std::string> keys =
          mp::KeyBuilder(key).BuildKeys(conditioned);
      keys_s[k] = timer.ElapsedSeconds();
      Keep(keys);
    }
    {
      LayerSpan span("sort.SortByKey", "sort", !parallel);
      mp::Timer timer;
      out.orders[k] = mp::SortedNeighborhood::SortByKey(conditioned, key);
      sort_s[k] = timer.ElapsedSeconds();
    }
    {
      LayerSpan span("core.WindowScanner.Scan", "core", !parallel);
      mp::Timer timer;
      stats[k] = mp::WindowScanner(options.window)
                     .Scan(conditioned, out.orders[k], theory, &pass_pairs[k]);
      scan_s[k] = timer.ElapsedSeconds();
    }
  };
  if (parallel) {
    std::vector<std::thread> threads;
    for (size_t k = 0; k < num_keys; ++k) threads.emplace_back(run_pass, k);
    for (std::thread& thread : threads) thread.join();
  } else {
    for (size_t k = 0; k < num_keys; ++k) run_pass(k);
  }

  double closure_s = 0.0;
  {
    LayerSpan span("core.TransitiveClosure", "core", !parallel);
    std::vector<const mp::PairSet*> sets;
    for (const mp::PairSet& pairs : pass_pairs) sets.push_back(&pairs);
    mp::Timer timer;
    out.labels = mp::TransitiveClosure(sets, n);
    closure_s = timer.ElapsedSeconds();
  }
  uint64_t matches = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    out.comparisons += stats[k].comparisons;
    matches += stats[k].matches;
    out.pairs.Merge(pass_pairs[k]);
  }
  for (size_t t = 0; t < n; ++t) {
    if (out.labels[t] == t) ++out.entities;
  }
  if (report == nullptr || parallel) return out;

  const double nd = static_cast<double>(n);
  double keys_total = 0.0, sort_total = 0.0, scan_total = 0.0;
  std::vector<double> model_c, model_alpha;
  for (size_t k = 0; k < num_keys; ++k) {
    keys_total += keys_s[k];
    sort_total += sort_s[k];
    scan_total += scan_s[k];
    // SortByKey renders the keys itself, so its time is the paper's
    // "creation of the keys integrated into the sorting phase" (§3.5).
    mp::PassResult pass;
    pass.sort_seconds = sort_s[k];
    pass.scan_seconds = scan_s[k];
    pass.comparisons = stats[k].comparisons;
    const mp::SerialCostModel model = mp::SerialCostModel::Fit(pass, n);
    model_c.push_back(model.c);
    model_alpha.push_back(model.alpha);
  }
  report->per_layer["keys.build_us_per_record"] =
      PerUnit(keys_total * 1e6, nd * static_cast<double>(num_keys));
  report->per_layer["sort.sort_s"] = sort_total;
  report->per_layer["core.scan_s"] = scan_total;
  report->per_layer["core.comparisons"] = static_cast<double>(out.comparisons);
  report->per_layer["core.union_pairs"] = static_cast<double>(out.pairs.size());
  report->per_layer["core.matches_per_comparison"] =
      PerUnit(matches, out.comparisons);
  report->per_layer["core.closure_ms"] = closure_s * 1e3;
  report->per_layer["parallel.model_c_ns"] = Median(model_c) * 1e9;
  report->per_layer["parallel.model_alpha"] = Median(model_alpha);
  return out;
}

std::vector<TuplePair> WindowPairs(const std::vector<mp::TupleId>& order,
                                   size_t window, size_t stride) {
  std::vector<TuplePair> pairs;
  size_t index = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const size_t start = i >= window - 1 ? i - (window - 1) : 0;
    for (size_t j = start; j < i; ++j, ++index) {
      if (index % stride == 0) pairs.emplace_back(order[j], order[i]);
    }
  }
  return pairs;
}

RuleCounts MeasureRules(const mp::Dataset& conditioned,
                        const std::vector<TuplePair>& pairs, size_t dsl_stride,
                        Report* report) {
  mp::MetricsRegistry& registry = mp::MetricsRegistry::Global();
  mp::Counter* calls =
      registry.GetCounter(mp::metric_names::kRulesDistanceCalls);
  mp::Counter* exits = registry.GetCounter(mp::metric_names::kRulesEarlyExits);
  const double count = static_cast<double>(pairs.size());

  mp::EmployeeTheory theory;
  std::vector<uint8_t> verdicts(pairs.size());
  const uint64_t calls_before = calls->Value();
  const uint64_t exits_before = exits->Value();
  double cpp_s = 0.0;
  {
    LayerSpan span("rules.EmployeeTheory.Matches", "rules");
    mp::Timer timer;
    for (size_t i = 0; i < pairs.size(); ++i) {
      verdicts[i] = theory.Matches(conditioned.record(pairs[i].first),
                                   conditioned.record(pairs[i].second));
    }
    cpp_s = timer.ElapsedSeconds();
  }
  theory.FlushMetrics();
  const uint64_t distance_calls = calls->Value() - calls_before;
  const uint64_t early_exits = exits->Value() - exits_before;

  mp::Result<mp::RuleProgram> program =
      mp::RuleProgram::Compile(mp::EmployeeRulesText(), conditioned.schema());
  Check(program.ok(), "employee rules do not compile: " +
                          program.status().ToString());
  uint64_t disagreements = 0;
  uint64_t dsl_pairs = 0;
  double dsl_s = 0.0;
  {
    LayerSpan span("rules.RuleProgram.Matches", "rules");
    mp::Timer timer;
    for (size_t i = 0; i < pairs.size(); i += dsl_stride, ++dsl_pairs) {
      const bool match = program->Matches(conditioned.record(pairs[i].first),
                                          conditioned.record(pairs[i].second));
      disagreements += match != static_cast<bool>(verdicts[i]);
    }
    dsl_s = timer.ElapsedSeconds();
  }
  report->per_layer["rules.ns_per_comparison"] = PerUnit(cpp_s * 1e9, count);
  report->per_layer["rules.distance_calls_per_comparison"] =
      PerUnit(distance_calls, count);
  report->per_layer["rules.early_exit_frac"] =
      PerUnit(early_exits, distance_calls);
  report->per_layer["rules.dsl_ns_per_comparison"] =
      PerUnit(dsl_s * 1e9, dsl_pairs);
  report->per_layer["rules.dsl_disagreements"] = disagreements;
  return RuleCounts{distance_calls, disagreements};
}

void MeasureOnlineCore(const mp::Dataset& conditioned,
                       const mp::PairSet& pairs, const mp::Dataset& stream,
                       size_t batches, const mp::Dataset& probes,
                       Report* report) {
  mp::IncrementalMergePurge engine(EngineOptions());
  mp::EmployeeTheory theory;
  double restore_s = 0.0;
  {
    LayerSpan span("core.IncrementalMergePurge.Restore", "core");
    mp::Timer timer;
    mp::Status restored = engine.Restore(conditioned, pairs);
    restore_s = timer.ElapsedSeconds();
    Check(restored.ok(), "Restore failed: " + restored.ToString());
  }
  engine.CachedComponentLabels();

  std::vector<double> apply_ms, label_us;
  for (size_t b = 0; b < batches; ++b) {
    const size_t first = b * kUpsertRecords;
    if (first + kUpsertRecords > stream.size()) break;
    mp::Dataset batch(stream.schema());
    for (size_t i = first; i < first + kUpsertRecords; ++i) {
      batch.Append(stream.record(static_cast<mp::TupleId>(i)));
    }
    {
      LayerSpan span("core.IncrementalMergePurge.AddBatch", "core");
      mp::Timer timer;
      mp::Result<uint64_t> added = engine.AddBatch(batch, theory);
      apply_ms.push_back(timer.ElapsedSeconds() * 1e3);
      Check(added.ok(), "AddBatch failed: " + added.status().ToString());
    }
    {
      LayerSpan span("core.CachedComponentLabels", "core");
      mp::Timer timer;
      Keep(engine.CachedComponentLabels().size());
      label_us.push_back(timer.ElapsedSeconds() * 1e6);
    }
  }
  std::vector<double> probe_us;
  for (const mp::Record& probe : probes.records()) {
    LayerSpan span("core.IncrementalMergePurge.MatchOnly", "core");
    mp::Timer timer;
    mp::Result<mp::ProbeResult> result = engine.MatchOnly(probe, theory);
    probe_us.push_back(timer.ElapsedSeconds() * 1e6);
    Check(result.ok(), "MatchOnly failed: " + result.status().ToString());
  }
  const double apply = Median(apply_ms);
  report->per_layer["core.restore_s"] = restore_s;
  report->per_layer["core.apply_ms_per_batch"] = apply;
  report->per_layer["core.apply_us_per_record"] =
      PerUnit(apply * 1e3, kUpsertRecords);
  report->per_layer["core.label_rebuild_us"] = Median(label_us);
  report->per_layer["core.probe_us"] = Median(probe_us);
}

void MeasureServiceCalls(const mp::Dataset& conditioned,
                         const mp::PairSet& pairs, const mp::Dataset& stream,
                         const mp::Dataset& probes, const std::string& dir,
                         Report* report) {
  mp::SnapshotState state;
  state.seq = 1;
  state.records = conditioned;
  state.pairs = pairs;
  const uint64_t digest = mp::EngineConfigDigest(EngineOptions());
  std::vector<double> snapshot_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string rep_dir = JoinPath(dir, "snap" + std::to_string(rep));
    MakeDir(rep_dir);
    LayerSpan span("service.SaveSnapshot", "service");
    mp::Timer timer;
    mp::Status saved = mp::SaveSnapshot(rep_dir, digest, state);
    snapshot_ms.push_back(timer.ElapsedSeconds() * 1e3);
    Check(saved.ok(), "SaveSnapshot failed: " + saved.ToString());
    RemoveTree(rep_dir);
  }
  report->per_layer["service.snapshot_ms"] = Median(snapshot_ms);

  // About the online loop's request mix: one match probe per two
  // upserts.
  const mp::Schema& schema = stream.schema();
  std::vector<std::string> lines;
  size_t upserts = 0;
  for (size_t first = 0;
       first + kUpsertRecords <= stream.size() && lines.size() < 3000;
       first += kUpsertRecords) {
    mp::JsonValue records = mp::JsonValue::Array();
    for (size_t i = first; i < first + kUpsertRecords; ++i) {
      records.Append(mp::RecordToJson(
          schema, stream.record(static_cast<mp::TupleId>(i))));
    }
    mp::JsonValue request = mp::JsonValue::Object();
    request.Set("op", "upsert");
    request.Set("records", std::move(records));
    lines.push_back(request.Dump(0));
    if (++upserts % 2 == 0) {
      mp::JsonValue match = mp::JsonValue::Object();
      match.Set("op", "match");
      match.Set("record",
                mp::RecordToJson(schema, probes.record(static_cast<mp::TupleId>(
                                             lines.size() % probes.size()))));
      lines.push_back(match.Dump(0));
    }
  }
  const std::vector<uint32_t> entities(kUpsertRecords, 1);
  const std::vector<mp::TupleId> tids(kUpsertRecords, 1);
  const std::vector<std::pair<uint32_t, uint32_t>> merges = {{1, 2}};
  size_t encoded_bytes = 0;
  double protocol_s = 0.0;
  {
    LayerSpan span("service.ParseRequest+encode", "service");
    mp::Timer timer;
    for (const std::string& line : lines) {
      mp::ServiceRequest request;
      mp::ServiceError error;
      const bool parsed = mp::ParseRequest(line, schema, &request, &error);
      Check(parsed, "ParseRequest rejected a benchmark request: " +
                        error.message);
      if (request.op == mp::ServiceRequest::Op::kUpsert) {
        encoded_bytes +=
            mp::UpsertResponseLine(nullptr, entities, 1, &tids, &merges).size();
      } else {
        encoded_bytes +=
            mp::MatchResponseLine(nullptr, 1u, tids, entities).size();
      }
    }
    protocol_s = timer.ElapsedSeconds();
  }
  Keep(encoded_bytes);
  report->per_layer["service.protocol_us_per_request"] =
      PerUnit(protocol_s * 1e6, lines.size());
}

void MeasureRouting(const mp::Dataset& sample, const mp::Dataset& stream,
                    size_t shards, Report* report) {
  mp::ShardRouterOptions options;
  options.num_shards = shards;
  mp::Rng rng(1);
  mp::Result<mp::ShardRouter> router =
      mp::ShardRouter::Build(EngineOptions().keys, sample.records(), options,
                             &rng);
  Check(router.ok(), "ShardRouter::Build failed: " +
                         router.status().ToString());
  size_t destinations = 0;
  double route_s = 0.0;
  {
    LayerSpan span("shard.ShardRouter.DestinationsOf", "shard");
    mp::Timer timer;
    for (const mp::Record& record : stream.records()) {
      destinations += router->DestinationsOf(record).size();
    }
    route_s = timer.ElapsedSeconds();
  }
  Keep(destinations);
  report->per_layer["shard.route_us_per_record"] =
      PerUnit(route_s * 1e6, stream.size());
}

}  // namespace mpbench
