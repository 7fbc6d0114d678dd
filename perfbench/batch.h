// The batch check shared by kb_audit, hub_scan and violation_flood: one
// cold ngdcheck-style pass (load the graph, parse the rules, optionally
// minimize Σ, detect, read every violation back through the cursor), and
// the time-bounded loop that repeats it and derives the metrics.

#ifndef NGDPERF_BATCH_H_
#define NGDPERF_BATCH_H_

#include <memory>
#include <string>

#include "common.h"
#include "core/ngd.h"
#include "detect/violation.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "reason/sigma_optimizer.h"

namespace ngdperf {

/// The ngdcheck options a batch workload sets. Everything else stays at
/// the library's defaults.
struct BatchSpec {
  std::string graph_path;  ///< binary snapshot or TSV, told apart by magic
  std::string rules_path;
  bool minimize_sigma = false;
  int processors = 0;  ///< 0: sequential Dect; else PDect with p
  const ngd::VioSpillOptions* spill = nullptr;
};

/// The workload's expected output, fixed by construction at setup.
struct Expected {
  uint64_t count = 0;
  uint64_t digest = 0;
};

/// Reads "count digest" as written by WriteExpected.
ngd::StatusOr<Expected> ReadExpected(const std::string& path);
[[nodiscard]] ngd::Status WriteExpected(const std::string& path,
                                        const Expected& e);

Report RunBatchWorkload(const Context& ctx, const BatchSpec& spec,
                        const Expected& want);

}  // namespace ngdperf

#endif  // NGDPERF_BATCH_H_
