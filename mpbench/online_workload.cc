// The online workloads: 4 client connections. Three are a closed loop
// of 8-record upserts, each sending its next upsert only after the
// previous reply (an upsert's reply is its durability ack). The fourth
// sends match probes drawn from the same generated database, pausing an
// exponentially distributed think time before each, so probes arrive at
// random points of the server's commit cycle.
//
// online_resident: one durable mergepurge_serve (WAL, --fsync=group,
//   default snapshot cadence) that recovers a ~100k-record resident
//   store from a snapshot this benchmark writes with SaveSnapshot.
// online_sharded: mergepurge_coord over two durable shards that start
//   empty.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/incremental.h"
#include "core/union_find.h"
#include "eval/metrics.h"
#include "io/csv.h"
#include "layers.h"
#include "rules/employee_theory.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace mpbench {

namespace mp = mergepurge;

namespace {

constexpr size_t kUpsertClients = 3;
// Mean think time of the probe connection before each match. A probe
// sent right after a reply of the same connection's own upsert would
// land between two commits; the random pause makes whether it waits
// for the engine lock depend on the lock's duty cycle, not on timing
// luck, so the match latency quantiles are not bimodal.
constexpr double kMatchThinkMs = 10.0;
// The untimed sweep uses as many connections as the servers have workers.
constexpr size_t kSweepClients = 8;
constexpr size_t kResidentRecords = 100000;
// The upsert streams hold more than this host acks in a 45 s run (up to
// ~30k records resident, ~100k sharded), so a faster host does not run
// out: resident streams ~100k records past the preload, sharded streams
// ~150k.
constexpr size_t kResidentOriginals = 80000;
constexpr size_t kShardedOriginals = 60000;
constexpr size_t kShards = 2;
// docs/sharding.md: the sharded closure may merge at most 0.2% more
// entities than one engine fed the same stream, and never fewer.
constexpr double kOverMergeBound = 0.002;
constexpr size_t kReferenceUpserts = 32;
// Set-up is timed this many times before the loop and again after it,
// so its median straddles the run.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;
constexpr int kStartTimeoutMs = 120000;

// --- Requests and replies. ---

std::string UpsertLine(const mp::Dataset& records, size_t first) {
  mp::JsonValue array = mp::JsonValue::Array();
  for (size_t i = first; i < first + kUpsertRecords; ++i) {
    array.Append(mp::RecordToJson(records.schema(),
                                  records.record(static_cast<mp::TupleId>(i))));
  }
  mp::JsonValue request = mp::JsonValue::Object();
  request.Set("op", "upsert");
  request.Set("records", std::move(array));
  return request.Dump(0) + "\n";
}

std::string MatchLine(const mp::Schema& schema, const mp::Record& record) {
  mp::JsonValue request = mp::JsonValue::Object();
  request.Set("op", "match");
  request.Set("record", mp::RecordToJson(schema, record));
  return request.Dump(0) + "\n";
}

std::string OpLine(const char* op) {
  return std::string("{\"op\":\"") + op + "\"}\n";
}

std::vector<uint32_t> UintArray(const mp::JsonValue& doc, const char* key) {
  std::vector<uint32_t> out;
  const mp::JsonValue* array = doc.Find(key);
  if (array == nullptr || !array->is_array()) return out;
  for (const mp::JsonValue& value : array->elements()) {
    out.push_back(static_cast<uint32_t>(value.int_value()));
  }
  return out;
}

bool ReplyOk(const mp::Result<mp::JsonValue>& reply) {
  if (!reply.ok() || !reply->is_object()) return false;
  const mp::JsonValue* ok = reply->Find("ok");
  return ok != nullptr && ok->kind() == mp::JsonValue::Kind::kBool &&
         ok->bool_value();
}

// Path lookup into a stats reply ("histograms", name, "p50").
double StatNumber(const mp::JsonValue& doc,
                  std::initializer_list<const char*> path) {
  const mp::JsonValue* node = &doc;
  for (const char* key : path) {
    node = node->Find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->double_value() : 0.0;
}

mp::JsonValue Request(uint16_t port, const std::string& line) {
  mp::ServiceClient client;
  Check(client.Connect("127.0.0.1", port).ok(), "cannot connect to server");
  mp::Result<mp::JsonValue> reply = client.Call(line);
  Check(ReplyOk(reply), "request failed: " + line);
  return std::move(*reply);
}

// --- Processes. ---

std::unique_ptr<ChildProcess> StartServe(const RunOptions& options,
                                         const std::string& dir,
                                         const std::string& label) {
  const std::vector<std::string> argv = {
      JoinPath(options.bin_dir, "mergepurge_serve"),
      "--port=0",
      "--port-file=" + JoinPath(dir, "port"),
      "--data-dir=" + JoinPath(dir, "data"),
      "--fsync=group",
      "--instance-label=" + label,
      "--log-level=warn",
  };
  return std::make_unique<ChildProcess>(argv, JoinPath(dir, "serve.log"));
}

// Polls health until the server reports "serving" (recovery finished).
void WaitServing(uint16_t port, ChildProcess* child) {
  mp::Timer waited;
  mp::ServiceClient client;
  while (waited.ElapsedMillis() < kStartTimeoutMs) {
    Check(child->running(), "server exited during start-up");
    if (!client.connected() &&
        !client.Connect("127.0.0.1", port).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    mp::Result<mp::JsonValue> reply = client.Call(OpLine("health"));
    if (!reply.ok()) {
      client.Close();
      continue;
    }
    const mp::JsonValue* state = reply->Find("state");
    if (state != nullptr && state->is_string() &&
        state->string_value() == "serving") {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw CheckFailure("server did not reach serving state");
}

// The processes of one online deployment; `port` is where clients go.
struct Fleet {
  std::vector<std::unique_ptr<ChildProcess>> processes;
  uint16_t port = 0;

  // Sums the processes' peak RSS, then stops them (front door first).
  double Stop() {
    double rss = 0.0;
    for (const auto& process : processes) rss += process->PeakRssMb();
    for (auto it = processes.rbegin(); it != processes.rend(); ++it) {
      const int status = (*it)->Stop();
      Check(status == 0, "a server did not drain cleanly (status " +
                              std::to_string(status) + ")");
    }
    processes.clear();
    return rss;
  }
};

// Times `launch` kSetupsBefore times, keeping the last deployment up for
// `measure`, stops it (returning its peak RSS), then times kSetupsAfter
// more launches. Each launch appends its seconds to `setup_s`.
template <typename Launch, typename Measure>
double Deploy(Launch launch, Measure measure, std::vector<double>* setup_s) {
  Fleet fleet;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (rep > 0) fleet.Stop();
    setup_s->push_back(launch(&fleet));
  }
  measure(fleet);
  const double rss_mb = fleet.Stop();
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    setup_s->push_back(launch(&fleet));
    fleet.Stop();
  }
  return rss_mb;
}

// --- The closed loop. ---

struct AckedUpsert {
  bool acked = false;
  uint64_t order = 0;  // Ack sequence across all clients.
  std::vector<uint32_t> entities;
  std::vector<uint32_t> tids;
  std::vector<uint32_t> merges;  // Flattened [survivor, absorbed] pairs.
};

// Samples and acks of the closed loop; one loop may run in segments,
// each continuing where the last stopped in the upsert stream.
struct LoopResult {
  std::vector<double> upsert_ms;
  std::vector<double> match_ms;
  std::vector<AckedUpsert> upserts;  // Index = upsert line index.
  size_t next_upsert = 0;
  uint64_t next_ack = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked_records = 0;
  double seconds = 0.0;
  std::string first_error;
};

// Runs the loop for `seconds`, adding to `result`: kUpsertClients
// closed-loop upsert connections and one probe connection.
void ClosedLoop(uint16_t port, const std::vector<std::string>& upserts,
                const std::vector<std::string>& probes, double seconds,
                uint64_t seed, LoopResult* result) {
  result->upserts.resize(upserts.size());
  std::atomic<size_t> next_upsert{result->next_upsert};
  std::atomic<uint64_t> ack_order{result->next_ack};
  struct ClientStats {
    std::vector<double> upsert_ms, match_ms;
    uint64_t attempted = 0, failed = 0, records = 0;
    std::string first_error;
  };
  std::vector<ClientStats> clients(kUpsertClients + 1);
  mp::Timer elapsed;
  auto client_loop = [&](size_t index) {
    LayerSpan worker("client.connection", "client");
    ClientStats& stats = clients[index];
    const bool prober = index == kUpsertClients;
    mp::Rng rng(seed * 1000003 + index);
    mp::ServiceClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      ++stats.failed;
      stats.first_error = "connect failed";
      return;
    }
    while (elapsed.ElapsedSeconds() < seconds) {
      size_t slot = 0;
      const std::string* line = nullptr;
      if (prober) {
        const double think_ms =
            -kMatchThinkMs * std::log(1.0 - rng.NextDouble());
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(think_ms));
        line = &probes[rng.NextBounded(probes.size())];
      } else {
        slot = next_upsert.fetch_add(1);
        if (slot >= upserts.size()) break;  // Stream exhausted.
        line = &upserts[slot];
      }
      ++stats.attempted;
      mp::Timer timer;
      mp::Result<mp::JsonValue> reply = [&] {
        LayerSpan span(prober ? "client.match" : "client.upsert", "client");
        return client.Call(*line);
      }();
      const double ms = timer.ElapsedMillis();
      if (!ReplyOk(reply)) {
        ++stats.failed;
        if (stats.first_error.empty()) {
          stats.first_error = reply.ok() ? reply->Dump(0)
                                         : reply.status().ToString();
        }
        if (!reply.ok()) {
          client.Close();
          if (!client.Connect("127.0.0.1", port).ok()) break;
        }
        continue;
      }
      if (prober) {
        stats.match_ms.push_back(ms);
        continue;
      }
      stats.upsert_ms.push_back(ms);
      AckedUpsert& acked = result->upserts[slot];
      acked.acked = true;
      acked.order = ack_order.fetch_add(1);
      acked.entities = UintArray(*reply, "entities");
      acked.tids = UintArray(*reply, "tids");
      const mp::JsonValue* merges = reply->Find("merges");
      if (merges != nullptr && merges->is_array()) {
        for (const mp::JsonValue& pair : merges->elements()) {
          if (!pair.is_array() || pair.size() != 2) continue;
          acked.merges.push_back(static_cast<uint32_t>(pair.at(0).int_value()));
          acked.merges.push_back(static_cast<uint32_t>(pair.at(1).int_value()));
        }
      }
      stats.records += kUpsertRecords;
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back(client_loop, i);
  }
  for (std::thread& thread : threads) thread.join();
  result->seconds += elapsed.ElapsedSeconds();
  result->next_upsert = std::min(next_upsert.load(), upserts.size());
  result->next_ack = ack_order.load();
  for (ClientStats& stats : clients) {
    result->upsert_ms.insert(result->upsert_ms.end(), stats.upsert_ms.begin(),
                             stats.upsert_ms.end());
    result->match_ms.insert(result->match_ms.end(), stats.match_ms.begin(),
                            stats.match_ms.end());
    result->attempted += stats.attempted;
    result->failed += stats.failed;
    result->acked_records += stats.records;
    if (result->first_error.empty()) result->first_error = stats.first_error;
  }
}

// The traced loop: four equal segments with spans off, on, on, off, so a
// drift in the system's speed over the run (the resident store grows)
// cancels out of the tracing overhead, which it returns.
double AlternatingLoop(uint16_t port, const std::vector<std::string>& upserts,
                       const std::vector<std::string>& probes, double seconds,
                       uint64_t seed, LoopResult* result) {
  double records[2] = {0.0, 0.0};
  double elapsed[2] = {0.0, 0.0};
  for (int segment = 0; segment < 4; ++segment) {
    const bool traced = segment == 1 || segment == 2;
    SpanRecorder::Global().set_enabled(traced);
    const uint64_t records_before = result->acked_records;
    const double seconds_before = result->seconds;
    ClosedLoop(port, upserts, probes, seconds / 4, seed + segment, result);
    records[traced] += result->acked_records - records_before;
    elapsed[traced] += result->seconds - seconds_before;
  }
  SpanRecorder::Global().set_enabled(true);
  return OverheadPct(records[0] / elapsed[0], records[1] / elapsed[1]);
}

double RecordsPerSecond(const LoopResult& loop) {
  return static_cast<double>(loop.acked_records) / loop.seconds;
}

void CheckLoop(const LoopResult& loop, size_t stream_lines) {
  Check(loop.failed == 0, std::to_string(loop.failed) + " of " +
                              std::to_string(loop.attempted) +
                              " requests failed; first: " + loop.first_error);
  Check(loop.acked_records > 0 && !loop.match_ms.empty(),
        "the loop completed no upsert or no match");
  Check(loop.acked_records < stream_lines * kUpsertRecords,
        "the generated stream ran out before the run ended");
  for (const AckedUpsert& acked : loop.upserts) {
    if (!acked.acked) continue;
    Check(acked.entities.size() == kUpsertRecords,
          "an upsert reply carries " + std::to_string(acked.entities.size()) +
              " entities for " + std::to_string(kUpsertRecords) + " records");
  }
}

// The measured loop of an online run: untraced for the end-to-end
// metrics, alternating for a traced run (which reports the overhead),
// then the loop's output checks.
void RunLoop(const RunOptions& options, uint16_t port,
             const std::vector<std::string>& upserts,
             const std::vector<std::string>& probes, LoopResult* loop,
             Report* report) {
  if (options.trace) {
    report->per_layer["trace.overhead_pct"] = AlternatingLoop(
        port, upserts, probes, options.seconds, options.seed, loop);
  } else {
    ClosedLoop(port, upserts, probes, options.seconds, options.seed, loop);
  }
  CheckLoop(*loop, upserts.size());
}

void SetEndToEnd(const LoopResult& loop, double setup_s, double rss_mb,
                 const mp::AccuracyReport& accuracy, Report* report) {
  auto& e2e = report->end_to_end;
  e2e["records_per_s"] = RecordsPerSecond(loop);
  SetLatencies("upsert", loop.upsert_ms, report);
  SetLatencies("match", loop.match_ms, report);
  e2e["recall_pct"] = accuracy.recall_percent;
  e2e["false_positive_pct"] = accuracy.false_positive_percent;
  e2e["setup_s"] = setup_s;
  e2e["peak_rss_mb"] = rss_mb;
  report->details.Set("acked_records", loop.acked_records);
  report->details.Set("loop_seconds", loop.seconds);
}

// Per-layer figures of the service stages, read through stats.
void SetServiceLayers(const mp::JsonValue& stats, Report* report) {
  struct StageMetric {
    const char* metric;
    const char* histogram;
    double scale;
  };
  static constexpr StageMetric kStages[] = {
      {"service.queue_wait_ms", "service.stage.queue_wait_us", 1e-3},
      {"service.apply_ms", "service.stage.apply_us", 1e-3},
      {"service.label_rebuild_us", "service.stage.label_rebuild_us", 1.0},
      {"service.wal_append_us", "service.stage.wal_append_us", 1.0},
      {"service.wal_fsync_us", "service.stage.wal_fsync_us", 1.0},
      {"service.ack_us", "service.stage.ack_us", 1.0},
      {"service.batch_records", "service.batch_records", 1.0},
  };
  for (const StageMetric& stage : kStages) {
    report->per_layer[stage.metric] =
        StatNumber(stats, {"histograms", stage.histogram, "p50"}) *
        stage.scale;
  }
  report->per_layer["service.wal_bytes_per_record"] =
      PerUnit(StatNumber(stats, {"counters", "service.wal.bytes"}),
              StatNumber(stats, {"counters", "service.upsert_records"}));
}

// Records of `stream` in the order the loop's acked upserts hold them.
mp::Dataset AckedRecords(const LoopResult& loop, const mp::Dataset& stream,
                         std::vector<size_t>* stream_index) {
  mp::Dataset out(stream.schema());
  for (size_t u = 0; u < loop.upserts.size(); ++u) {
    if (!loop.upserts[u].acked) continue;
    for (size_t i = 0; i < kUpsertRecords; ++i) {
      const size_t index = u * kUpsertRecords + i;
      out.Append(stream.record(static_cast<mp::TupleId>(index)));
      stream_index->push_back(index);
    }
  }
  return out;
}

std::vector<uint32_t> Labels(mp::UnionFind* uf) {
  std::vector<uint32_t> labels(uf->size());
  for (size_t t = 0; t < labels.size(); ++t) {
    labels[t] = uf->Find(static_cast<uint32_t>(t));
  }
  return labels;
}

// Every batch-reference component must sit inside one component of the
// online partition (incremental ⊇ batch).
void CheckSupersetOfBatch(const std::vector<uint32_t>& online,
                          const std::vector<uint32_t>& batch,
                          const std::string& what) {
  Check(online.size() == batch.size(), what + ": partition sizes differ");
  size_t split = 0;
  for (size_t t = 0; t < batch.size(); ++t) {
    split += online[t] != online[batch[t]];
  }
  Check(split == 0, what + ": " + std::to_string(split) +
                        " records are split from their batch-reference "
                        "entity (incremental must contain batch)");
}

std::vector<std::string> ProbeLines(const mp::Dataset& pool, uint64_t seed,
                                    size_t count) {
  mp::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    lines.push_back(MatchLine(
        pool.schema(),
        pool.record(static_cast<mp::TupleId>(rng.NextBounded(pool.size())))));
  }
  return lines;
}

mp::Dataset Slice(const mp::Dataset& all, size_t begin, size_t end) {
  mp::Dataset out(all.schema());
  out.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.Append(all.record(static_cast<mp::TupleId>(i)));
  }
  return out;
}

// --- online_resident. ---

struct ResidentRun {
  LoopResult loop;
  mp::JsonValue stats;
  double rss_mb = 0.0;
};

// Launches the server on a copy of the pristine snapshot directory,
// measuring launch-to-serving; returns the setup time.
double LaunchResident(const RunOptions& options, const std::string& pristine,
                      const std::string& dir, Fleet* fleet) {
  RemoveTree(dir);
  MakeDir(dir);
  std::filesystem::copy(pristine, JoinPath(dir, "data"),
                        std::filesystem::copy_options::recursive);
  mp::Timer timer;
  fleet->processes.push_back(StartServe(options, dir, "resident"));
  ChildProcess* server = fleet->processes.back().get();
  fleet->port = WaitForPortFile(JoinPath(dir, "port"), server,
                                kStartTimeoutMs);
  WaitServing(fleet->port, server);
  return timer.ElapsedSeconds();
}

}  // namespace

void RunOnlineResident(const RunOptions& options, Report* report) {
  mp::GeneratedDatabase db = Generate(options.seed, kResidentOriginals);
  Check(db.dataset.size() > kResidentRecords + kResidentRecords / 2,
        "generated database too small for the resident workload");
  const mp::Dataset resident =
      ConditionedCopy(Slice(db.dataset, 0, kResidentRecords), nullptr);
  const mp::Dataset stream =
      Slice(db.dataset, kResidentRecords, db.dataset.size());

  // The resident state: what an engine holds after admitting the first
  // 100k records — their conditioned copies and the batch pair set.
  const LayeredPasses preload = RunLayeredPasses(resident, true, nullptr);
  const std::string pristine = JoinPath(options.work_dir, "pristine");
  RemoveTree(pristine);
  MakeDir(pristine);
  {
    mp::SnapshotState state;
    state.seq = 1;
    state.records = resident;
    state.pairs = preload.pairs;
    mp::Status saved = mp::SaveSnapshot(
        pristine, mp::EngineConfigDigest(EngineOptions()), state);
    Check(saved.ok(), "SaveSnapshot failed: " + saved.ToString());
  }

  std::vector<std::string> upserts;
  for (size_t first = 0; first + kUpsertRecords <= stream.size();
       first += kUpsertRecords) {
    upserts.push_back(UpsertLine(stream, first));
  }
  const std::vector<std::string> probes =
      ProbeLines(db.dataset, options.seed, 20000);

  // One deployment: timed launches, the loop, stats.
  std::vector<double> setup_s;
  ResidentRun run;
  auto launch = [&](Fleet* fleet) {
    return LaunchResident(options, pristine,
                          JoinPath(options.work_dir, "serve"), fleet);
  };
  run.rss_mb = Deploy(launch, [&](Fleet& fleet) {
    RunLoop(options, fleet.port, upserts, probes, &run.loop, report);
    run.stats = Request(fleet.port, OpLine("stats"));
  }, &setup_s);
  report->attempted = run.loop.attempted;
  report->failed = run.loop.failed;

  // Resident records must equal the acked records: the preload plus
  // every acked upsert, each tid assigned exactly once.
  const uint64_t total = kResidentRecords + run.loop.acked_records;
  Check(static_cast<uint64_t>(StatNumber(run.stats, {"records"})) == total,
        "server holds " + std::to_string(StatNumber(run.stats, {"records"})) +
            " records, acked " + std::to_string(total));
  std::vector<size_t> db_index_of(total, SIZE_MAX);
  for (size_t t = 0; t < kResidentRecords; ++t) db_index_of[t] = t;
  mp::UnionFind partition(total);
  for (size_t t = 0; t < kResidentRecords; ++t) {
    partition.Union(static_cast<uint32_t>(t), preload.labels[t]);
  }
  for (size_t u = 0; u < run.loop.upserts.size(); ++u) {
    const AckedUpsert& acked = run.loop.upserts[u];
    if (!acked.acked) continue;
    Check(acked.tids.size() == kUpsertRecords, "upsert reply without tids");
    for (size_t i = 0; i < kUpsertRecords; ++i) {
      const uint32_t tid = acked.tids[i];
      Check(tid >= kResidentRecords && tid < total &&
                db_index_of[tid] == SIZE_MAX,
            "tid " + std::to_string(tid) + " out of range or reused");
      db_index_of[tid] = kResidentRecords + u * kUpsertRecords + i;
      Check(acked.entities[i] < total, "entity label out of range");
      partition.Union(tid, acked.entities[i]);
    }
    for (size_t m = 0; m + 1 < acked.merges.size(); m += 2) {
      Check(acked.merges[m] < total && acked.merges[m + 1] < total,
            "merge label out of range");
      partition.Union(acked.merges[m], acked.merges[m + 1]);
    }
  }
  Check(static_cast<uint64_t>(StatNumber(run.stats, {"entities"})) ==
            partition.NumSets(),
        "folding the replies gives " + std::to_string(partition.NumSets()) +
            " entities, the server reports " +
            std::to_string(StatNumber(run.stats, {"entities"})));

  // Batch reference on the same records, in tid order.
  mp::Dataset all(db.dataset.schema());
  std::vector<uint32_t> origin(total);
  for (size_t t = 0; t < total; ++t) {
    all.Append(db.dataset.record(static_cast<mp::TupleId>(db_index_of[t])));
    origin[t] = db.truth.origin_of(static_cast<mp::TupleId>(db_index_of[t]));
  }
  const mp::Dataset all_conditioned = ConditionedCopy(all, nullptr);
  const LayeredPasses batch = RunLayeredPasses(all_conditioned, true, nullptr);
  const std::vector<uint32_t> online = Labels(&partition);
  CheckSupersetOfBatch(online, batch.labels, "online_resident");
  report->details.Set("entities", static_cast<uint64_t>(partition.NumSets()));
  report->details.Set("batch_reference_entities",
                      static_cast<uint64_t>(batch.entities));

  const mp::AccuracyReport accuracy =
      mp::EvaluateComponents(online, mp::GroundTruth(std::move(origin)));
  if (!options.trace) {
    SetEndToEnd(run.loop, Median(setup_s), run.rss_mb, accuracy, report);
    return;
  }

  SetServiceLayers(run.stats, report);
  // The shard layer: online_sharded, traced, for half the run's time on
  // its own fleet and stream. Its output checks apply here too.
  RunOptions sharded = options;
  sharded.seconds = options.seconds / 2;
  sharded.work_dir = JoinPath(options.work_dir, "sharded");
  Report shard_report;
  RunOnlineSharded(sharded, &shard_report);
  for (const auto& [name, value] : shard_report.per_layer) {
    if (name.rfind("shard.", 0) == 0) report->per_layer[name] = value;
  }
  report->details.Set("sharded", shard_report.details);

  const mp::Dataset probe_records = Slice(db.dataset, 0, 500);
  MeasureOnlineCore(resident, preload.pairs, stream, 100, probe_records,
                    report);
  MeasureServiceCalls(resident, preload.pairs, stream, db.dataset,
                      options.work_dir, report);
  ConditionedCopy(stream, report);
  std::vector<TuplePair> pairs;
  for (const auto& order : preload.orders) {
    std::vector<TuplePair> key_pairs = WindowPairs(order, 10, 16);
    pairs.insert(pairs.end(), key_pairs.begin(), key_pairs.end());
  }
  MeasureRules(resident, pairs, 1, report);
}

// --- online_sharded. ---

namespace {

struct ShardedRun {
  LoopResult loop;
  mp::JsonValue stats;
  std::vector<std::vector<uint32_t>> sweep;  // Per acked record.
  size_t single_entities = 0;
  double rss_mb = 0.0;
};

double LaunchSharded(const RunOptions& options, const std::string& sample_csv,
                     const std::string& dir, Fleet* fleet) {
  RemoveTree(dir);
  MakeDir(dir);
  mp::Timer timer;
  std::string shards;
  for (size_t s = 0; s < kShards; ++s) {
    const std::string shard_dir = JoinPath(dir, "shard" + std::to_string(s));
    MakeDir(shard_dir);
    fleet->processes.push_back(
        StartServe(options, shard_dir, "shard-" + std::to_string(s)));
  }
  for (size_t s = 0; s < kShards; ++s) {
    const uint16_t port = WaitForPortFile(
        JoinPath(JoinPath(dir, "shard" + std::to_string(s)), "port"),
        fleet->processes[s].get(), kStartTimeoutMs);
    shards += (s == 0 ? "" : ",") + std::string("127.0.0.1:") +
              std::to_string(port);
  }
  const std::vector<std::string> argv = {
      JoinPath(options.bin_dir, "mergepurge_coord"),
      "--shards=" + shards,
      "--port=0",
      "--port-file=" + JoinPath(dir, "coord.port"),
      "--router-sample=" + sample_csv,
      "--log-level=warn",
  };
  fleet->processes.push_back(
      std::make_unique<ChildProcess>(argv, JoinPath(dir, "coord.log")));
  fleet->port = WaitForPortFile(JoinPath(dir, "coord.port"),
                                fleet->processes.back().get(),
                                kStartTimeoutMs);
  Request(fleet->port, OpLine("hello"));
  return timer.ElapsedSeconds();
}

// Untimed: every acked record probed through the coordinator, giving
// the global entities it now belongs to.
std::vector<std::vector<uint32_t>> Sweep(uint16_t port,
                                         const mp::Dataset& records) {
  std::vector<std::vector<uint32_t>> entities(records.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&] {
    mp::ServiceClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      failed = true;
      return;
    }
    for (size_t i = next.fetch_add(1); i < records.size();
         i = next.fetch_add(1)) {
      mp::Result<mp::JsonValue> reply = client.Call(MatchLine(
          records.schema(), records.record(static_cast<mp::TupleId>(i))));
      if (!ReplyOk(reply)) {
        failed = true;
        return;
      }
      entities[i] = UintArray(*reply, "entities");
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSweepClients; ++i) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  Check(!failed, "the match sweep through the coordinator failed");
  return entities;
}

// One IncrementalMergePurge fed the acked upserts in ack order, in
// commits of kReferenceUpserts upserts; returns its entity count. The
// count barely depends on the commit size (1, 3, 8 and 32 upserts per
// commit agreed within one entity at ~46k records) while the replay
// time halves.
size_t SingleEngineEntities(const LoopResult& loop,
                            const mp::Dataset& stream) {
  std::vector<size_t> acked;
  for (size_t u = 0; u < loop.upserts.size(); ++u) {
    if (loop.upserts[u].acked) acked.push_back(u);
  }
  std::sort(acked.begin(), acked.end(), [&](size_t a, size_t b) {
    return loop.upserts[a].order < loop.upserts[b].order;
  });
  mp::IncrementalMergePurge single(EngineOptions());
  mp::EmployeeTheory theory;
  for (size_t first = 0; first < acked.size(); first += kReferenceUpserts) {
    mp::Dataset commit(stream.schema());
    const size_t end = std::min(acked.size(), first + kReferenceUpserts);
    for (size_t a = first; a < end; ++a) {
      for (size_t i = 0; i < kUpsertRecords; ++i) {
        commit.Append(stream.record(
            static_cast<mp::TupleId>(acked[a] * kUpsertRecords + i)));
      }
    }
    Check(single.AddBatch(commit, theory).ok(),
          "single-engine reference AddBatch failed");
  }
  return single.NumEntities();
}

}  // namespace

void RunOnlineSharded(const RunOptions& options, Report* report) {
  mp::GeneratedDatabase db = Generate(options.seed, kShardedOriginals);
  const mp::Dataset& stream = db.dataset;
  // The router is fit on a sample from the same generator, as a
  // deployment fits it on a sample of its own data.
  const mp::GeneratedDatabase sample =
      Generate(options.seed ^ 0x5a17e5eedull, 2000);
  MakeDir(options.work_dir);
  const std::string sample_csv = JoinPath(options.work_dir, "sample.csv");
  Check(mp::WriteCsvFile(sample.dataset, sample_csv).ok(),
        "cannot write " + sample_csv);

  std::vector<std::string> upserts;
  for (size_t first = 0; first + kUpsertRecords <= stream.size();
       first += kUpsertRecords) {
    upserts.push_back(UpsertLine(stream, first));
  }
  const std::vector<std::string> probes =
      ProbeLines(stream, options.seed, 20000);

  std::vector<double> setup_s;
  ShardedRun run;
  auto launch = [&](Fleet* fleet) {
    return LaunchSharded(options, sample_csv,
                         JoinPath(options.work_dir, "fleet"), fleet);
  };
  run.rss_mb = Deploy(launch, [&](Fleet& fleet) {
    RunLoop(options, fleet.port, upserts, probes, &run.loop, report);
    // The single-engine reference needs only the loop's acks; build it
    // while the sweep runs.
    std::thread reference([&] {
      run.single_entities = SingleEngineEntities(run.loop, stream);
    });
    run.stats = Request(fleet.port, OpLine("stats"));
    std::vector<size_t> unused;
    run.sweep = Sweep(fleet.port, AckedRecords(run.loop, stream, &unused));
    reference.join();
  }, &setup_s);
  report->attempted = run.loop.attempted;
  report->failed = run.loop.failed;

  std::vector<size_t> stream_index;
  const mp::Dataset acked = AckedRecords(run.loop, stream, &stream_index);
  const uint64_t n = acked.size();
  const uint64_t global_records =
      static_cast<uint64_t>(StatNumber(run.stats, {"records"}));
  const uint64_t global_entities =
      static_cast<uint64_t>(StatNumber(run.stats, {"entities"}));
  Check(global_records == n, "coordinator holds " +
                                 std::to_string(global_records) +
                                 " records, acked " + std::to_string(n));

  // The partition: each record joins the global entity its upsert was
  // acked with, then the one the sweep finds it in now (when the probe
  // names exactly one; a probe that bridges unmerged entities is left at
  // its ack). Global ids are offset past the record nodes.
  mp::UnionFind partition(n);
  std::vector<uint32_t> node_of_gid;
  auto gid_node = [&](uint32_t gid) {
    if (gid >= node_of_gid.size()) node_of_gid.resize(gid + 1, UINT32_MAX);
    if (node_of_gid[gid] == UINT32_MAX) {
      node_of_gid[gid] = static_cast<uint32_t>(partition.size());
      partition.Grow(partition.size() + 1);
    }
    return node_of_gid[gid];
  };
  std::vector<uint32_t> origin;
  size_t record = 0;
  uint64_t bridging = 0;
  for (const AckedUpsert& upsert : run.loop.upserts) {
    if (!upsert.acked) continue;
    for (size_t i = 0; i < kUpsertRecords; ++i, ++record) {
      partition.Union(static_cast<uint32_t>(record),
                      gid_node(upsert.entities[i]));
      const std::vector<uint32_t>& now = run.sweep[record];
      Check(!now.empty(), "a stored record does not match itself");
      if (now.size() == 1) {
        partition.Union(static_cast<uint32_t>(record), gid_node(now[0]));
      } else {
        ++bridging;
      }
      origin.push_back(db.truth.origin_of(
          static_cast<mp::TupleId>(stream_index[record])));
    }
  }
  std::vector<uint32_t> labels = Labels(&partition);
  labels.resize(n);

  // References on the same records: the batch run (the sharded closure
  // must contain it) and one incremental engine fed the acked upserts in
  // ack order (entity counts must agree within the over-merge bound).
  const LayeredPasses batch =
      RunLayeredPasses(ConditionedCopy(acked, nullptr), true, nullptr);
  Check(global_entities <= batch.entities,
        "sharded closure has " + std::to_string(global_entities) +
            " entities, more than the batch reference's " +
            std::to_string(batch.entities));
  const double single_entities = static_cast<double>(run.single_entities);
  report->details.Set("entities", global_entities);
  report->details.Set("single_engine_entities",
                      static_cast<uint64_t>(run.single_entities));
  report->details.Set("batch_reference_entities",
                      static_cast<uint64_t>(batch.entities));
  report->details.Set("bridging_probes", bridging);
  Check(static_cast<double>(global_entities) <= single_entities &&
            static_cast<double>(global_entities) >=
                single_entities * (1.0 - kOverMergeBound),
        "sharded closure has " + std::to_string(global_entities) +
            " entities against " + std::to_string(run.single_entities) +
            " for one engine (bound: never more, at most 0.2% fewer)");

  const mp::AccuracyReport accuracy =
      mp::EvaluateComponents(labels, mp::GroundTruth(std::move(origin)));
  if (!options.trace) {
    SetEndToEnd(run.loop, Median(setup_s), run.rss_mb, accuracy, report);
    return;
  }

  // Per-layer: the shard figures from the coordinator's stats, and the
  // router's own cost. (online_resident measures the other layers.)
  double max_records = 0.0, sum_records = 0.0;
  size_t shards = 0;
  if (const mp::JsonValue* sections = run.stats.Find("shards")) {
    for (const mp::JsonValue& shard : sections->elements()) {
      const double records = StatNumber(shard, {"records"});
      max_records = std::max(max_records, records);
      sum_records += records;
      ++shards;
    }
  }
  Check(shards == kShards, "stats lacks the shard sections");
  auto& layer = report->per_layer;
  layer["shard.replica_frac"] =
      PerUnit(StatNumber(run.stats, {"counters", "coord.replica_records"}),
              StatNumber(run.stats, {"counters", "coord.route_records"}));
  layer["shard.skew"] = PerUnit(max_records, sum_records / kShards);
  layer["shard.fanout_ms"] =
      StatNumber(run.stats, {"histograms", "coord.fanout_us", "p50"}) / 1e3;
  layer["shard.closure_merge_us"] =
      StatNumber(run.stats, {"histograms", "coord.closure_merge_us", "p50"});
  layer["shard.retries"] =
      StatNumber(run.stats, {"counters", "coord.shard_retries"});
  MeasureRouting(sample.dataset, stream, kShards, report);
}

}  // namespace mpbench
