// PDect: parallel batch detection, fragment-native (paper §5.1 / §7,
// extended from the GFD algorithms of Fan-Wu-Xu SIGMOD'16 [24]).
//
// The graph is fragmented across p processors (FragmentRuntime,
// parallel/cluster.h): each fragment holds the induced CSR of its owned
// nodes plus a d_Σ-hop halo of replicated boundary neighbors. Detection
// is owner-computes: every match is seeded exactly once cluster-wide, by
// the fragment that OWNS the candidate bound to the rule's start node
// (FragmentCandidates enumerates owned candidates only). Expansion runs
// the sequential engines' match kernel (PlanWalk, match/homomorphism.h)
// against the fragment CSR; because every two nodes of one match are
// within graph distance d_Σ of each other, the halo makes local
// expansion exact whichever anchor the kernel picks (see
// parallel/fragment.h for the argument).
//
// Boundary-crossing matches are resolved by the paper's §7 hybrid
// policy in the kernel's Ship hook, per expansion step whose chosen
// anchor is non-owned (halo):
//   - read the halo adjacency locally — one simulated message per
//     halo-anchored adjacency scan (the replica must be fetched); or
//   - forward the partial match to the anchor's owner when the cost
//     model C·(k+1) + |adj|/p < |adj| says shipping k+1 bound nodes
//     beats shipping the scan — one message, counted in `forwards`. The
//     unit carries the sender's anchor choice, which the owner scans
//     without choosing again (its halo view of another anchor may look
//     cheaper and would bounce the unit back).
// Large owned adjacencies split into p slice units under the same cost
// model (work-unit splitting, as in PIncDect), and idle processors steal
// seed chunks across fragments; every stolen or forwarded unit is one
// simulated message (ClusterMetrics, surfaced in PDectResult).
//
// A caller that already holds a whole-graph snapshot (PDectOptions::
// snapshot) gets the same engine over a one-fragment runtime: every
// worker reads the shared CSR, so there is nothing to forward, and
// balance comes from stealing and splitting alone.

#ifndef NGD_PARALLEL_PDECT_H_
#define NGD_PARALLEL_PDECT_H_

#include "detect/dect.h"
#include "parallel/cluster.h"

namespace ngd {

struct PDectOptions {
  int num_processors = 4;
  GraphView view = GraphView::kNew;
  /// Pre-built whole-graph CSR snapshot (e.g. loaded from a binary
  /// snapshot file). When set, the engine runs over a one-fragment
  /// runtime that borrows it: no partitioning, no halo, and all
  /// num_processors workers share the fragment, with seed chunks dealt
  /// round-robin and stealing and splitting as usual. Overrides `runtime`.
  const GraphSnapshot* snapshot = nullptr;
  /// Pre-built fragment runtime to amortize partitioning + fragment CSR
  /// builds across calls (benchmarks, warm starts via FragmentRuntime::
  /// Load). Used when it matches: num_fragments == num_processors, same
  /// view, halo_hops >= max pattern diameter of Σ; otherwise the engine
  /// builds its own.
  const FragmentRuntime* runtime = nullptr;
  /// Communication-latency constant C of the hybrid cost model (the
  /// paper fixes 60; Fig. 4(m) varies it).
  double latency_c = 60.0;
  /// Halo-anchored expansions never forward below this adjacency length.
  size_t min_forward_adjacency = 8;
  /// Owned adjacencies never split below this length.
  size_t min_split_adjacency = 64;
  /// Seed candidates per work unit (steal/balance granularity).
  size_t seed_chunk = 256;
  bool enable_steal = true;    ///< idle workers steal across fragments
  bool enable_forward = true;  ///< hybrid forward-to-owner at halos
  bool enable_split = true;    ///< work-unit splitting of hub adjacency
  /// Σ-optimizer (reason/sigma_optimizer.h): kAlways/kAuto seed fragments
  /// from the implication-minimized rule set only (dropped rules spawn no
  /// work units) and remap violation indices back to Σ.
  MinimizeMode minimize_sigma = MinimizeMode::kNever;
  SigmaOptimizerOptions sigma_optimizer = {};
  /// Graceful degradation (see DectOptions): when the token trips or the
  /// deadline expires, workers stop expanding and the pool drains the
  /// remaining queued units unprocessed. The call returns the violations
  /// found so far with `truncated` set; `run_info` (optional, must
  /// outlive the call) reports which rules' enumerations still finished —
  /// a rule is complete when every one of its work units (seed chunks,
  /// forwards, splits) was fully processed.
  CancelToken* cancel = nullptr;
  Deadline deadline = {};
  DetectRunInfo* run_info = nullptr;
  /// Streaming results: each worker-local set spills under
  /// "<path_prefix>.w<i>" with budget_bytes/p, and the merged result
  /// keeps spilling under "<path_prefix>" (see DectOptions::spill and
  /// detect/vio_stream.h). Read result.vio back with OpenCursor.
  const VioSpillOptions* spill = nullptr;
  /// Producer backpressure: a worker whose mid-run spawn (split slice,
  /// forward, child unit) targets a queue at or past this depth executes
  /// the unit inline instead of enqueueing it, bounding queue state under
  /// core starvation (ROADMAP item 3's 1-core fig4_il bug). 0 disables
  /// the bound. Initial seeding is exempt (bounded by the seed volume).
  size_t max_queue_depth = 4096;
};

struct PDectResult {
  VioSet vio;
  /// True iff the run was cut short by cancel/deadline and some rule's
  /// enumeration is incomplete (per-rule detail in opts.run_info).
  bool truncated = false;
  double elapsed_seconds = 0.0;
  size_t crossing_edges = 0;  ///< edge-cut of the fragmentation used
  /// Communication / balancing counters. replicated_nodes = Σ_f |halo(f)|
  /// (actual replica volume); messages = halo scans + forwards + steals +
  /// split broadcasts. Over a caller snapshot there is one fragment, so
  /// replicated_nodes, crossing_edges, halo scans and forwards are 0;
  /// steals and splits are still counted.
  ClusterMetricsSnapshot metrics;
};

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts);

}  // namespace ngd

#endif  // NGD_PARALLEL_PDECT_H_
