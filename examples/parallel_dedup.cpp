// Parallel merge/purge (paper §4): runs the thread-based shared-nothing
// executors (owned fragments for SNM; LPT-balanced clusters for the
// clustering method), verifies they reproduce the serial pair sets, and
// prints the calibrated cluster model's projected times for P = 1..8.
//
//   ./build/examples/parallel_dedup [--records=10000] [--procs=4]

#include <cstdio>
#include <memory>

#include "core/clustering_method.h"
#include "core/parallel_snm.h"
#include "core/sorted_neighborhood.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "parallel/cost_model.h"
#include "parallel/parallel_clustering.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const size_t procs = static_cast<size_t>(args.GetInt("procs", 4));

  GeneratorConfig config;
  config.num_records = static_cast<size_t>(args.GetInt("records", 10000));
  config.duplicate_selection_rate = 0.5;
  config.seed = 3;
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);

  TheoryFactory factory = [] { return std::make_unique<EmployeeTheory>(); };

  // Serial reference pass.
  EmployeeTheory serial_theory;
  auto serial = SortedNeighborhood(10).Run(db->dataset, LastNameKey(),
                                           serial_theory);
  if (!serial.ok()) {
    std::fprintf(stderr, "%s\n", serial.status().ToString().c_str());
    return 1;
  }

  // Parallel SNM on worker threads.
  ParallelSnm snm(procs, 10);
  EmployeeTheory theory;
  auto snm_result = snm.Run(db->dataset, LastNameKey(), theory);
  if (!snm_result.ok()) {
    std::fprintf(stderr, "%s\n", snm_result.status().ToString().c_str());
    return 1;
  }
  const bool identical =
      snm_result->pairs.ToSortedVector() == serial->pairs.ToSortedVector() &&
      snm_result->comparisons == serial->comparisons;
  std::printf(
      "parallel SNM (%zu workers): %zu pairs, %llu comparisons (serial: "
      "%zu, %llu) -> %s\n",
      procs, snm_result->pairs.size(),
      static_cast<unsigned long long>(snm_result->comparisons),
      serial->pairs.size(),
      static_cast<unsigned long long>(serial->comparisons),
      identical ? "identical" : "MISMATCH");

  // Parallel clustering method.
  ClusteringOptions cluster_options;
  cluster_options.num_clusters = 25;  // Per processor.
  ParallelClustering clustering(procs, cluster_options);
  auto cluster_result = clustering.Run(db->dataset, LastNameKey(), factory);
  if (!cluster_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 cluster_result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "parallel clustering (%zu workers): %zu pairs, LPT imbalance %.3f\n\n",
      procs, cluster_result->pairs.size(),
      clustering.last_balance().imbalance);

  // Project cluster times from the calibrated model (the paper's HP
  // cluster had real parallel hardware; on one core we model, §4).
  SerialCostModel fitted = SerialCostModel::Fit(*serial,
                                                db->dataset.size());
  ClusterModelParams params = CalibrateLikePaper(
      fitted, db->dataset.size(), 10, clustering.last_balance().imbalance);
  SimulatedCluster cluster_model(params);

  TablePrinter table({"P", "snm time(s)", "clustering time(s)", "speedup"});
  double base = cluster_model.SnmPassSeconds(db->dataset.size(), 10, 1);
  for (size_t p = 1; p <= 8; ++p) {
    double snm_time = cluster_model.SnmPassSeconds(db->dataset.size(), 10, p);
    double cl_time = cluster_model.ClusteringPassSeconds(
        db->dataset.size(), 10, p, 100);
    table.AddRow({std::to_string(p), FormatDouble(snm_time, 3),
                  FormatDouble(cl_time, 3),
                  FormatDouble(base / snm_time, 2)});
  }
  std::printf("modeled cluster times (c=%.2e, alpha=%.1f):\n", params.c,
              params.alpha);
  table.Print();
  return 0;
}
