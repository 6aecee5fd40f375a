#ifndef HIGNN_PERFBENCH_WORKLOADS_H_
#define HIGNN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace hignn::perfbench {

/// \brief Command-line contract of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int32_t seconds = 10;  ///< measured time budget of the run
  bool trace = false;    ///< per-layer (traced) run instead of end-to-end
  std::string work_dir;  ///< scratch files (stores, traces, provenance)
};

/// \brief What a workload hands back besides its metrics: the operation
/// tallies behind the result line and every failed correctness check.
struct RunOutcome {
  OpCounts ops;
  std::vector<std::string> check_failures;
  std::string provenance;  ///< ProvenanceJson() of the run

  bool correct() const { return check_failures.empty() && ops.failed() == 0; }
};

/// \brief Offline pipeline: click graph -> Hignn::Fit -> CVR features ->
/// CvrModel::Train -> ExportEmbeddingStore (the `hignn export-store` path).
Status RunTrainPipeline(const RunOptions& options, Report* report,
                        RunOutcome* outcome);

/// \brief Online serving over loopback TCP against an in-process server:
/// kScore pair batches (topk = false) or kTopK retrieval (topk = true).
Status RunServeStream(const RunOptions& options, bool topk, Report* report,
                      RunOutcome* outcome);

}  // namespace hignn::perfbench

#endif  // HIGNN_PERFBENCH_WORKLOADS_H_
