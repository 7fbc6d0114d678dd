// The Matchn / SubMatchn homomorphism search engine (paper §6.2).
//
// One plan-walk kernel, PlanWalk<Hooks>, serves all four detection
// algorithms. Every engine seeds a MatchPlan and lets the kernel expand
// it step by step: pick the cheapest anchor among the step's options,
// scan that anchor's label range (block-compacted on a CSR snapshot),
// verify the closure edges, prune on the literals that became ready, and
// descend. The engines differ only in three hooks:
//   - Ship, after the step's anchor option is fixed: the sequential
//     engines always scan in place; PDect forwards a partial match whose
//     anchor another fragment owns, or splits a hub's adjacency into
//     slice units, and PIncDect splits;
//   - Descend, per admitted extension: recurse in place, or (PIncDect)
//     spawn one child work unit;
//   - Emit, per full match: the VioEmitter or callback (Dect, IncDect),
//     PDect's worker-local set, or PIncDect's canonical-pivot check.
// The hooks are template parameters, so the sequential engines pay no
// per-step indirect call. A parallel unit resumes a walk mid-plan with
// the anchor option its sender chose, and optionally a [begin, end)
// slice of that anchor's neighbour sequence; the receiver scans that
// option without choosing again.
//
// IncDect/PIncDect seed the kernel with an update pivot h(u,u') = (v,v')
// and an EdgeFilter enforcing the ΔVio+/ΔVio- view discipline and the
// minimal-pivot duplicate suppression.
//
// The engine prunes with literals (paper §6.2 step (3)) soundly:
//   - any fully-bound X literal evaluating false prunes the branch (no
//     extension can satisfy X, hence none can violate X → Y);
//   - once ALL Y literals are bound and true the branch is pruned (every
//     extension satisfies Y, hence none violates).
// Emit receives full matches h(x̄) that are violations (X true, Y not
// all true), or every match when find_violations is off.

#ifndef NGD_MATCH_HOMOMORPHISM_H_
#define NGD_MATCH_HOMOMORPHISM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/ngd.h"
#include "detect/violation.h"
#include "graph/accessor.h"
#include "graph/neighborhood.h"
#include "graph/snapshot.h"
#include "match/candidate_index.h"
#include "match/match_order.h"
#include "util/cancel.h"

namespace ngd {

/// Per-edge admissibility hook. Incremental detection uses it to (a) keep
/// ΔVio+ searches off update edges with smaller indices than the pivot
/// (duplicate avoidance across pivots) and (b) keep ΔVio- searches off
/// inserted edges / ΔVio+ searches off deleted edges.
class EdgeFilter {
 public:
  virtual ~EdgeFilter() = default;
  virtual bool Admit(int pattern_edge, NodeId src, NodeId dst,
                     LabelId label) const = 0;
};

/// Return false to abort the entire search (early-exit validation).
using MatchCallback = std::function<bool(const Binding&)>;

struct SearchConfig {
  /// At least one of `graph` / `snapshot` / `delta_view` must be set;
  /// precedence is snapshot > delta_view > graph. Batch detection matches
  /// against the CSR snapshot's label-partitioned adjacency; incremental
  /// detection passes either the live overlay graph plus `view`, or a
  /// DeltaView (base snapshot ⊕ ΔG) plus `view`.
  const Graph* graph = nullptr;
  const GraphSnapshot* snapshot = nullptr;
  const DeltaView* delta_view = nullptr;
  const Pattern* pattern = nullptr;
  const std::vector<Literal>* x = nullptr;
  const std::vector<Literal>* y = nullptr;
  GraphView view = GraphView::kNew;  ///< live-graph / delta-view searches
  const EdgeFilter* edge_filter = nullptr;   ///< optional
  const NodeSet* node_scope = nullptr;       ///< optional candidate scope
  /// true: emit only violations (X true, Y violated), with literal
  /// pruning; false: emit every match of the pattern.
  bool find_violations = true;
  /// Optional cooperative stop (util/cancel.h), polled in the expansion
  /// inner loop. When it trips the search unwinds and returns false, like
  /// a callback-requested stop; callers that need to tell the two apart
  /// check cancel->Stopped() afterwards.
  CancelCheck* cancel = nullptr;
  /// Optional batched emission sink. When set, full matches bypass the
  /// MatchCallback entirely: the engine appends h(x̄) to the emitter's
  /// staging buffer (flushed into its VioSet in blocks), and an emitter
  /// limit stop behaves like a callback-requested stop. Only valid for
  /// enumerations that provably cannot produce duplicate bindings (batch
  /// detection per rule — see VioSet::AppendUnchecked).
  VioEmitter* emitter = nullptr;

  /// The accessor the engine actually matches against.
  GraphAccessor MakeAccessor() const {
    if (snapshot != nullptr) return GraphAccessor(*snapshot);
    if (delta_view != nullptr) return GraphAccessor(*delta_view, view);
    return GraphAccessor(*graph, view);
  }
};

/// Literal bookkeeping of a partial match, carried down the recursion by
/// value (backtracking restores it for free) and shipped with parallel
/// work units.
struct LiteralState {
  bool y_false = false;  ///< some bound Y literal is false
  uint32_t y_ready = 0;  ///< number of Y literals bound so far
};

/// Slice end meaning "the anchor's whole neighbour sequence".
inline constexpr size_t kWholeSequence = SIZE_MAX;

namespace match_internal {

/// Evaluates the literals that became ready; true iff the branch is
/// pruned (an X literal is false, or every Y literal is bound and true).
bool PruneOnReadyLiterals(const SearchConfig& cfg, const GraphAccessor& g,
                          const std::vector<int>& ready_x,
                          const std::vector<int>& ready_y,
                          const Binding& binding, LiteralState* ls);

/// Index of the step's anchor option with the shortest neighbour
/// sequence under `binding` (ties keep the earlier option).
int CheapestAnchor(const GraphAccessor& g, const Pattern& pattern,
                   const ExpansionStep& step, const Binding& binding);

/// Seed labels, scope, seed-internal edges and seed-ready literals of a
/// pre-seeded binding; false iff the seed is rejected or pruned.
bool AdmitSeeds(const SearchConfig& cfg, const GraphAccessor& g,
                const MatchPlan& plan, const Binding& binding,
                LiteralState* ls);

}  // namespace match_internal

/// Ship and Descend of an engine that walks the whole plan where it
/// stands: never ship, recurse in place. Engine hooks derive from it and
/// override what they change.
struct InPlaceHooks {
  template <typename Walk, typename SeqLen>
  bool Ship(Walk&, size_t /*step*/, int /*option*/, const Binding&,
            LiteralState, const SeqLen& /*seq_len*/) {
    return true;
  }
  template <typename Walk>
  bool Descend(Walk& walk, size_t next, Binding* binding, LiteralState ls) {
    return walk.Expand(next, binding, ls);
  }
};

/// The plan-walk kernel. `Hooks` provides:
///   bool Ship(PlanWalk&, size_t step, int option, const Binding&,
///             LiteralState, const SeqLen& seq_len)
///     runs once step `step`'s anchor option is fixed, before its scan;
///     seq_len() is the length of the anchor's neighbour sequence (the
///     index domain of a slice), computed on demand. Return false when
///     the partial match went elsewhere; the walk then skips the scan.
///     A slice's scan skips Ship: its sender already shipped it.
///   bool Descend(PlanWalk&, size_t next, Binding*, LiteralState)
///     runs per admitted extension through step next-1; usually
///     walk.Expand(next, ...). Return false to stop the search.
///   bool Emit(const Binding&)
///     runs per full match. Return false to stop the search.
/// Expand/Seeded return false iff the search was stopped (hook or cancel).
template <typename Hooks>
class PlanWalk {
 public:
  PlanWalk(const SearchConfig& cfg, const GraphAccessor& g,
           const MatchPlan& plan, Hooks* hooks)
      : cfg_(cfg), g_(g), plan_(plan), hooks_(hooks) {}

  const MatchPlan& plan() const { return plan_; }

  /// Runs the plan from a binding with plan.seeds bound: verifies the
  /// seeds, then expands from step 0.
  bool Seeded(Binding* binding) {
    LiteralState ls;
    if (!match_internal::AdmitSeeds(cfg_, g_, plan_, *binding, &ls)) {
      return true;
    }
    return Expand(0, binding, ls);
  }

  /// Expands step `step_idx` onward. `option` >= 0 fixes the anchor
  /// option instead of choosing the cheapest; [begin, end) restricts the
  /// scan to a slice of that anchor's neighbour sequence.
  bool Expand(size_t step_idx, Binding* binding, LiteralState ls,
              int option = -1, size_t begin = 0,
              size_t end = kWholeSequence) {
    if (cfg_.cancel != nullptr && cfg_.cancel->ShouldStop()) return false;
    // Full match. In violation mode the literal pruning guarantees X is
    // satisfied and Y is not (y_false), except for the empty-Y
    // degenerate case which can never be violated.
    if (step_idx == plan_.steps.size()) return hooks_->Emit(*binding);
    const ExpansionStep& step = plan_.steps[step_idx];
    const Pattern& pattern = *cfg_.pattern;

    // Candidate generation scans the cheapest anchor among the step's
    // options, measured by the neighbour sequence the scan will touch.
    // The edges not chosen are verified as closure edges below.
    if (option < 0) {
      option = step.anchor_options.size() > 1
                   ? match_internal::CheapestAnchor(g_, pattern, step,
                                                    *binding)
                   : 0;
    }
    const AnchorOption& chosen = step.anchor_options[option];
    const LabelId anchor_label = pattern.edge(chosen.edge).label;
    const NodeId anchor = (*binding)[chosen.anchor_node];
    const LabelId want_label = pattern.node(step.node).label;

    // On a snapshot the neighbour sequence is one CSR label range,
    // fetched once for both Ship's cost model and the scan.
    GraphSnapshot::IdRange range{};
    if (g_.is_snapshot()) {
      range = chosen.anchor_out
                  ? g_.snapshot()->OutNeighbors(anchor, anchor_label)
                  : g_.snapshot()->InNeighbors(anchor, anchor_label);
    }
    if (end == kWholeSequence &&
        !hooks_->Ship(*this, step_idx, option, *binding, ls, [&] {
          return g_.is_snapshot()
                     ? range.size()
                     : g_.NeighborSeqLen(anchor, chosen.anchor_out,
                                         anchor_label);
        })) {
      return true;
    }

    // Everything past the label test for one label-matching candidate:
    // scope/filter admission, closure-edge verification, literal pruning,
    // and the descent. Returns false to abort the whole scan.
    auto visit = [&](NodeId cand) {
      if (cfg_.node_scope != nullptr && !cfg_.node_scope->Contains(cand)) {
        return true;
      }
      if (cfg_.edge_filter != nullptr) {
        const NodeId src = chosen.anchor_out ? anchor : cand;
        const NodeId dst = chosen.anchor_out ? cand : anchor;
        if (!cfg_.edge_filter->Admit(chosen.edge, src, dst, anchor_label)) {
          return true;
        }
      }
      // Verify the remaining pattern edges into the matched prefix.
      auto edge_holds = [&](int ce) {
        const PatternEdge& pe = pattern.edge(ce);
        const NodeId s = pe.src == step.node ? cand : (*binding)[pe.src];
        const NodeId d = pe.dst == step.node ? cand : (*binding)[pe.dst];
        return g_.HasEdge(s, d, pe.label) &&
               (cfg_.edge_filter == nullptr ||
                cfg_.edge_filter->Admit(ce, s, d, pe.label));
      };
      for (int ce : step.check_edges) {
        if (ce != chosen.edge && !edge_holds(ce)) return true;
      }
      // A non-default anchor choice demotes the default anchor edge to
      // a closure check.
      if (option != 0 && !edge_holds(step.anchor_edge)) return true;

      (*binding)[step.node] = cand;
      LiteralState child = ls;
      bool keep_going = true;
      if ((step.ready_x.empty() && step.ready_y.empty()) ||
          !match_internal::PruneOnReadyLiterals(cfg_, g_, step.ready_x,
                                                step.ready_y, *binding,
                                                &child)) {
        keep_going = hooks_->Descend(*this, step_idx + 1, binding, child);
      }
      (*binding)[step.node] = kInvalidNode;
      return keep_going;
    };

    if (g_.is_snapshot()) {
      // Snapshot scan in blocks. The candidate label filter over a
      // contiguous CSR label range is a gather + compare against the
      // flat node-label array, so it runs block-compacted: branch-free
      // `m += (label == want)` keeps the filter auto-vectorizable and
      // the survivors (usually a small minority on selective labels) get
      // the expensive per-candidate body from a dense stack buffer. A
      // wildcard visits the range itself.
      const LabelId* labels = g_.snapshot()->node_labels_data();
      const size_t stop = std::min(end, range.size());
      constexpr size_t kBlock = 256;
      NodeId cands[kBlock];
      for (size_t base = begin; base < stop; base += kBlock) {
        // Bounded response even on a hub anchor's long adjacency scan:
        // one cancellation poll per block.
        if (cfg_.cancel != nullptr && cfg_.cancel->ShouldStop()) return false;
        const size_t n = std::min(kBlock, stop - base);
        const NodeId* block = range.ptr + base;
        size_t m = n;
        if (want_label != kWildcardLabel) {
          m = 0;
          for (size_t i = 0; i < n; ++i) {
            cands[m] = block[i];
            m += static_cast<size_t>(labels[block[i]] == want_label);
          }
          block = cands;
        }
        for (size_t i = 0; i < m; ++i) {
          if (!visit(block[i])) return false;
        }
      }
      return true;
    }

    return g_.ForEachNeighborSlice(
        anchor, chosen.anchor_out, anchor_label, begin, end,
        [&](NodeId cand) {
          // Bounded response even on a hub anchor's long adjacency scan.
          if (cfg_.cancel != nullptr && cfg_.cancel->ShouldStop()) {
            return false;
          }
          if (!g_.NodeMatchesLabel(cand, want_label)) return true;
          return visit(cand);
        });
  }

 private:
  const SearchConfig& cfg_;
  const GraphAccessor& g_;
  const MatchPlan& plan_;
  Hooks* hooks_;
};

/// Runs the plan from pre-seeded `binding` (plan.seeds already bound).
/// Verifies seed edges/literals first. Returns false iff a callback
/// requested stop.
bool RunSeededSearch(const SearchConfig& config, const MatchPlan& plan,
                     Binding* binding, const MatchCallback& callback);

/// Full batch search for one NGD: picks the most selective start node,
/// iterates its candidates, expands each. Returns false iff stopped.
bool RunBatchSearch(const SearchConfig& config,
                    const MatchCallback& callback);

/// Batch search with a caller-chosen start node and prebuilt plan
/// (plan.seeds must be {start}). Dect hoists start/plan selection out of
/// the per-candidate loop so a rule's plan is built once per detection
/// call. Returns false iff stopped.
bool RunBatchSearchWithPlan(const SearchConfig& config, int start,
                            const MatchPlan& plan,
                            const MatchCallback& callback);

}  // namespace ngd

#endif  // NGD_MATCH_HOMOMORPHISM_H_
