// FragmentSnapshot: one fragment of a fragmented graph, materialized as
// an induced-subgraph CSR (paper §7).
//
// The paper's parallel algorithms run over a graph fragmented across p
// workers by METIS; each worker holds its fragment F_i plus the d_Q-hop
// halo of replicated boundary nodes it needs to evaluate any match whose
// start node it owns without a per-candidate remote fetch. We reproduce
// that shape exactly:
//
//   - `csr` is the induced subgraph over members ∪ halo in GLOBAL node
//     ids (graph/snapshot.h induced constructor) — bindings, violations
//     and cross-fragment messages need no id translation;
//   - `members` are the owned nodes (Partition::members[f]); `halo` the
//     replicated non-owned nodes, each tagged with its owner fragment;
//   - the halo is the d-hop ball around the fragment's BOUNDARY members:
//     any node within d hops of an owned node is within d hops of the
//     last owned node on that path, so d = max_Σ diameter(Q) makes every
//     match anchored at an owned node fully local (homomorphisms
//     contract distances, so all nodes of a match lie within d of every
//     other matched node);
//   - `candidates` scope seed enumeration to owned nodes
//     (owner-computes: each match is seeded exactly once cluster-wide).
//
// Fragments persist individually ("NGDFRAG1" container embedding the
// snapshot_io image plus the ownership arrays) so a cluster warm-starts
// without re-partitioning or re-building CSRs.

#ifndef NGD_PARALLEL_FRAGMENT_H_
#define NGD_PARALLEL_FRAGMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/neighborhood.h"
#include "graph/snapshot.h"
#include "match/candidate_index.h"
#include "parallel/partitioner.h"
#include "util/status.h"

namespace ngd {

inline constexpr uint32_t kFragmentFormatVersion = 1;
inline constexpr char kFragmentMagic[8] = {'N', 'G', 'D', 'F',
                                           'R', 'A', 'G', '1'};

struct FragmentSnapshot {
  int fragment_id = 0;
  int num_fragments = 1;
  /// Halo depth d the fragment was built with; serves any rule set whose
  /// max pattern diameter is <= halo_hops.
  int halo_hops = 0;
  /// Induced CSR over members ∪ halo, global node ids. Owned by the
  /// fragment, or borrowed from a caller that outlives it (a one-fragment
  /// runtime over a whole-graph snapshot, parallel/cluster.h).
  std::shared_ptr<const GraphSnapshot> csr;
  std::vector<NodeId> members;      ///< owned nodes, ascending
  std::vector<NodeId> halo;         ///< replicated nodes, ascending
  std::vector<int32_t> halo_owner;  ///< owner fragment of halo[i]
  NodeSet owned = NodeSet(0);       ///< mask over global ids
  FragmentCandidates candidates;    ///< owned-only C(u) index

  bool Owns(NodeId v) const { return owned.Contains(v); }
};

/// Builds fragment `fragment_id` of `part` over `view` of `g` with a
/// `halo_hops`-hop halo around its boundary members.
FragmentSnapshot BuildFragmentSnapshot(const Graph& g, const Partition& part,
                                       int fragment_id, GraphView view,
                                       int halo_hops);

/// "NGDFRAG1" container image: header + ownership arrays + the embedded
/// snapshot_io image of `csr` (all sections FNV-1a checksummed there).
[[nodiscard]] StatusOr<std::string> SerializeFragment(const FragmentSnapshot& frag);

/// Parses a fragment image, revalidating the embedded snapshot and every
/// ownership invariant (sorted disjoint member/halo sets, in-range owner
/// tags). Schema contract matches DeserializeSnapshot.
[[nodiscard]] StatusOr<FragmentSnapshot> DeserializeFragment(std::string_view bytes,
                                               SchemaPtr schema);

[[nodiscard]] Status SaveFragmentFile(const FragmentSnapshot& frag,
                        const std::string& path);
[[nodiscard]] StatusOr<FragmentSnapshot> LoadFragmentFile(const std::string& path,
                                            SchemaPtr schema);

}  // namespace ngd

#endif  // NGD_PARALLEL_FRAGMENT_H_
