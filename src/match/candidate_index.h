// Candidate selection C(u) for pattern nodes (Matchn step 1, paper §6.2).
//
// Candidates are label-indexed: a pattern node labelled l can only match
// graph nodes labelled l; the wildcard '_' matches every node. The start
// node of a batch search is chosen to minimize |C(u)| (selectivity). All
// primitives run against a GraphAccessor, so they serve both the live
// overlay Graph, a CSR GraphSnapshot and a DeltaView; the two Graph
// overloads below serve pivot enumeration and tests.

#ifndef NGD_MATCH_CANDIDATE_INDEX_H_
#define NGD_MATCH_CANDIDATE_INDEX_H_

#include <vector>

#include "core/pattern.h"
#include "graph/accessor.h"
#include "graph/graph.h"

namespace ngd {

/// True iff graph node v can match a pattern node with label `label`.
inline bool NodeMatchesLabel(const Graph& g, NodeId v, LabelId label) {
  return label == kWildcardLabel || g.NodeLabel(v) == label;
}

/// The pattern node with the fewest candidates in g (batch search start).
/// Label-count ties — including the all-wildcard pattern, where every
/// count is |V| — fall back to the highest-degree pattern node (most
/// immediate edge constraints on the first expansion).
int ChooseStartNode(const Pattern& pattern, const GraphAccessor& g);
inline int ChooseStartNode(const Pattern& pattern, const Graph& g) {
  return ChooseStartNode(pattern, GraphAccessor(g, GraphView::kNew));
}

/// Candidate enumeration scoped to one fragment: the label-indexed C(u)
/// arrays restricted to the nodes the fragment OWNS. The fragment CSR
/// keeps the full-width candidate arrays of the binary snapshot format
/// (graph/snapshot.h), so owner-computes seeding — each match is seeded
/// exactly once cluster-wide, by the fragment owning its start node —
/// needs this separate owned-only index. Built once per fragment from any
/// accessor backend; O(|members|) space.
class FragmentCandidates {
 public:
  FragmentCandidates() = default;

  /// `owned` must be ascending (Partition::members order). Node labels
  /// are read through `acc`.
  FragmentCandidates(const GraphAccessor& acc,
                     const std::vector<NodeId>& owned);

  /// Owned candidates of `label`, ascending. kWildcardLabel -> every
  /// owned node.
  GraphSnapshot::IdRange Range(LabelId label) const {
    if (label == kWildcardLabel) {
      return GraphSnapshot::IdRange{owned_.data(), owned_.size()};
    }
    if (static_cast<size_t>(label) + 1 >= label_off_.size()) {
      return GraphSnapshot::IdRange{};
    }
    return GraphSnapshot::IdRange{
        by_label_.data() + label_off_[label],
        static_cast<size_t>(label_off_[label + 1] - label_off_[label])};
  }

  size_t Count(LabelId label) const { return Range(label).size(); }
  size_t NumOwned() const { return owned_.size(); }

  /// Invokes fn(NodeId) -> bool per owned candidate of `label`; fn
  /// returning false aborts. Returns false iff aborted.
  template <typename Fn>
  bool ForEach(LabelId label, Fn&& fn) const {
    for (NodeId v : Range(label)) {
      if (!fn(v)) return false;
    }
    return true;
  }

 private:
  std::vector<NodeId> owned_;     // ascending
  std::vector<NodeId> by_label_;  // owned_, grouped by label, id-ascending
  std::vector<uint32_t> label_off_;
};

}  // namespace ngd

#endif  // NGD_MATCH_CANDIDATE_INDEX_H_
