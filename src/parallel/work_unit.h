// Work units for PDect and PIncDect (paper §6.3 / §7).
//
// A work unit is a partial solution h(u0..uk) awaiting expansion by the
// match kernel (match/homomorphism.h): the rule (and, for PIncDect, the
// pivot identity), the partial binding, the literal bookkeeping, the
// anchor option its sender chose for the next step and — for units
// produced by hybrid splitting — the slice [slice_begin, slice_end) of
// that anchor's neighbour sequence this processor is responsible for
// (its "partial copy v.adj_i").

#ifndef NGD_PARALLEL_WORK_UNIT_H_
#define NGD_PARALLEL_WORK_UNIT_H_

#include <cstdint>
#include <vector>

#include "core/expr.h"
#include "match/homomorphism.h"
#include "parallel/cluster.h"

namespace ngd {

struct PWorkUnit {
  int32_t ngd_index = -1;
  /// PIncDect pivot: pattern edge and effective-update index.
  int32_t pattern_edge = -1;
  int32_t update_index = -1;
  /// PDect: fragment whose CSR serves this unit's expansion (stolen units
  /// keep their home and read the victim's fragment — the steal message
  /// paid for the remote access).
  int32_t home_fragment = 0;
  /// Number of plan steps already applied (the unit expands step
  /// `depth`). -1 marks a PDect seed chunk: [slice_begin, slice_end) then
  /// indexes the home fragment's owned candidates of the rule's start
  /// label.
  int32_t depth = 0;
  /// Anchor option of step `depth` fixed by the sender (forwards and
  /// slices), or -1 to let the receiver choose.
  int32_t anchor_option = -1;
  /// Slice of the anchor's neighbour sequence; (-1,-1) means all of it.
  int32_t slice_begin = -1;
  int32_t slice_end = -1;
  LiteralState literals;
  Binding binding;

  /// Resumes the unit's walk at step `depth` with its pinned anchor
  /// option and slice.
  template <typename Walk>
  bool Resume(Walk* walk) {
    if (slice_begin < 0) {
      return walk->Expand(depth, &binding, literals, anchor_option);
    }
    return walk->Expand(depth, &binding, literals, anchor_option,
                        static_cast<size_t>(slice_begin),
                        static_cast<size_t>(slice_end));
  }
};

/// A parallel scan of a `seq_len` neighbour sequence pays when the hybrid
/// cost model (paper §6.3 / §7) says C·(k+1) + |adj|/p < |adj|, for
/// latency constant C and k already-matched pattern nodes.
inline bool ParallelScanPays(double latency_c, size_t k, size_t seq_len,
                             int p) {
  const double seq_cost = static_cast<double>(seq_len);
  return latency_c * (static_cast<double>(k) + 1.0) +
             seq_cost / static_cast<double>(p) <
         seq_cost;
}

/// Work-unit splitting (paper §6.3): broadcasts `proto` to all p workers
/// as slice units covering [0, seq_len) of its anchor's neighbour
/// sequence in equal shares — one split, p messages. Each slice opens its
/// rule in `ledger`; Spawn, not Seed, so a saturated receiver's slice runs
/// inline on `worker` (any worker can expand any unit). Returns the
/// number of slices.
inline size_t BroadcastSlices(const PWorkUnit& proto, size_t seq_len,
                            int worker, WorkStealingPool<PWorkUnit>* pool,
                            ClusterMetrics* metrics, RunLedger* ledger) {
  const int p = pool->num_queues();
  metrics->splits.fetch_add(1, std::memory_order_relaxed);
  metrics->messages.fetch_add(p, std::memory_order_relaxed);
  const size_t share = (seq_len + p - 1) / p;
  size_t slices = 0;
  for (int i = 0; i < p; ++i) {
    const size_t b = static_cast<size_t>(i) * share;
    if (b >= seq_len) break;
    PWorkUnit slice = proto;
    slice.slice_begin = static_cast<int32_t>(b);
    slice.slice_end = static_cast<int32_t>(std::min(b + share, seq_len));
    ledger->Open(slice.ngd_index);
    pool->Spawn(worker, i, std::move(slice));
    ++slices;
  }
  return slices;
}

/// ||BVio_i|| / avg_t ||BVio_t|| — the skewness measure of paper §6.3.
std::vector<double> ComputeSkewness(const std::vector<size_t>& queue_sizes);

}  // namespace ngd

#endif  // NGD_PARALLEL_WORK_UNIT_H_
