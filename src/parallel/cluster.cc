#include "parallel/cluster.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

namespace ngd {

namespace {

/// Builds all p FragmentSnapshots, one thread per fragment — the "deploy
/// the fragments" phase of a cluster, parallel by construction.
std::vector<FragmentSnapshot> BuildAllFragments(const Graph& g,
                                                const Partition& part,
                                                GraphView view,
                                                int halo_hops) {
  const int p = part.num_fragments;
  std::vector<FragmentSnapshot> fragments(p);
  if (p == 1) {
    fragments[0] = BuildFragmentSnapshot(g, part, 0, view, halo_hops);
    return fragments;
  }
  std::vector<std::thread> builders;
  builders.reserve(p);
  for (int f = 0; f < p; ++f) {
    builders.emplace_back([&, f]() {
      fragments[f] = BuildFragmentSnapshot(g, part, f, view, halo_hops);
    });
  }
  for (auto& b : builders) b.join();
  return fragments;
}

std::string FragmentPath(const std::string& prefix, int f) {
  return prefix + ".f" + std::to_string(f) + ".ngdfrag";
}

}  // namespace

RunLedger::RunLedger(int p, size_t num_rules, CancelToken* cancel,
                     Deadline deadline)
    : pending_(num_rules) {
  if (cancel != nullptr || deadline.armed()) {
    token_ = cancel != nullptr ? cancel : &owned_token_;
    checks_.reserve(p);
    for (int i = 0; i < p; ++i) checks_.emplace_back(token_, deadline);
  }
}

bool RunLedger::Report(DetectRunInfo* info) const {
  DetectRunInfo local_info;
  if (info == nullptr) info = &local_info;
  info->StartFull(pending_.size());
  for (size_t r = 0; r < pending_.size(); ++r) {
    if (pending_[r].load(std::memory_order_relaxed) != 0) {
      info->rule_completed[r] = 0;
      info->truncated = true;
    }
  }
  return info->truncated;
}

WorkerVioSets::WorkerVioSets(int p, const VioSpillOptions* spill,
                             std::string suffix)
    : spill_(spill), suffix_(std::move(suffix)), local_(p) {
  if (spill == nullptr) return;
  VioSpillOptions wopts = *spill;
  wopts.budget_bytes = spill->budget_bytes / static_cast<size_t>(p);
  for (int i = 0; i < p; ++i) {
    wopts.path_prefix = spill->path_prefix + suffix_ + ".w" + std::to_string(i);
    local_[i].EnableSpill(wopts);
  }
}

void WorkerVioSets::Retire(int worker) {
  MutexLock lock(&mu_);
  finished_.emplace_back(worker, std::move(local_[worker]));
}

void WorkerVioSets::MergeInto(VioSet* out) {
  if (spill_ != nullptr) {
    VioSpillOptions merged = *spill_;
    merged.path_prefix += suffix_;
    out->EnableSpill(merged);
  }
  MutexLock lock(&mu_);
  std::sort(finished_.begin(), finished_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& f : finished_) out->MergeDisjointUnchecked(std::move(f.second));
  finished_.clear();
}

FragmentRuntime::FragmentRuntime(const Graph& g, int p, GraphView view,
                                 int halo_hops,
                                 const PartitionOptions& popts)
    : FragmentRuntime(g, PartitionGraph(g, std::max(1, p), view, popts), view,
                      halo_hops) {}

FragmentRuntime::FragmentRuntime(const Graph& g, Partition part,
                                 GraphView view, int halo_hops)
    : view_(view),
      halo_hops_(std::max(0, halo_hops)),
      partition_(std::move(part)) {
  fragments_ = BuildAllFragments(g, partition_, view_, halo_hops_);
}

FragmentRuntime::FragmentRuntime(const GraphSnapshot& snapshot)
    : view_(snapshot.view()), halo_hops_(std::numeric_limits<int>::max()) {
  const size_t n = snapshot.NumNodes();
  FragmentSnapshot frag;
  frag.halo_hops = halo_hops_;
  // Aliasing constructor with an empty owner: a non-owning handle.
  frag.csr = std::shared_ptr<const GraphSnapshot>(
      std::shared_ptr<const GraphSnapshot>(), &snapshot);
  frag.members.resize(n);
  std::iota(frag.members.begin(), frag.members.end(), NodeId{0});
  frag.owned = NodeSet(n);
  for (NodeId v : frag.members) frag.owned.Add(v);
  frag.candidates = FragmentCandidates(GraphAccessor(snapshot), frag.members);
  partition_.fragment_of.assign(n, 0);
  partition_.fragment_sizes = {n};
  partition_.members = {frag.members};
  partition_.boundary.resize(1);
  fragments_.push_back(std::move(frag));
}

uint64_t FragmentRuntime::total_halo_nodes() const {
  uint64_t total = 0;
  for (const FragmentSnapshot& f : fragments_) total += f.halo.size();
  return total;
}

Status FragmentRuntime::Save(const std::string& prefix) const {
  for (int f = 0; f < num_fragments(); ++f) {
    NGD_RETURN_IF_ERROR(SaveFragmentFile(fragments_[f],
                                         FragmentPath(prefix, f)));
  }
  return Status::OK();
}

StatusOr<FragmentRuntime> FragmentRuntime::Load(const std::string& prefix,
                                                int p, SchemaPtr schema) {
  if (p < 1) return Status::InvalidArgument("fragment count must be >= 1");
  FragmentRuntime runtime;
  runtime.fragments_.reserve(p);
  for (int f = 0; f < p; ++f) {
    NGD_ASSIGN_OR_RETURN(FragmentSnapshot frag,
                         LoadFragmentFile(FragmentPath(prefix, f), schema));
    if (frag.num_fragments != p || frag.fragment_id != f) {
      return Status::Corruption("fragment file " + FragmentPath(prefix, f) +
                                " does not belong to a " + std::to_string(p) +
                                "-fragment cluster at position " +
                                std::to_string(f));
    }
    runtime.fragments_.push_back(std::move(frag));
  }

  // Cross-fragment consistency: same halo depth, same view, same id
  // space, and the member lists partition it exactly.
  const FragmentSnapshot& first = runtime.fragments_[0];
  const size_t n = first.csr->NumNodes();
  runtime.halo_hops_ = first.halo_hops;
  runtime.view_ = first.csr->view();
  Partition& part = runtime.partition_;
  part.num_fragments = p;
  part.fragment_of.assign(n, -1);
  part.fragment_sizes.assign(p, 0);
  part.members.resize(p);
  part.boundary.resize(p);
  for (int f = 0; f < p; ++f) {
    const FragmentSnapshot& frag = runtime.fragments_[f];
    if (frag.halo_hops != runtime.halo_hops_ ||
        frag.csr->view() != runtime.view_ || frag.csr->NumNodes() != n) {
      return Status::Corruption(
          "fragment files disagree on halo depth, view, or node count");
    }
    for (NodeId v : frag.members) {
      if (part.fragment_of[v] != -1) {
        return Status::Corruption("node " + std::to_string(v) +
                                  " is owned by two fragments");
      }
      part.fragment_of[v] = f;
    }
    part.members[f] = frag.members;
    part.fragment_sizes[f] = frag.members.size();
  }
  for (NodeId v = 0; v < n; ++v) {
    if (part.fragment_of[v] == -1) {
      return Status::Corruption("node " + std::to_string(v) +
                                " is owned by no fragment");
    }
  }

  // Partition stats from the fragment CSRs. Every crossing edge (u, v)
  // with u owned here has v within one hop of the boundary, so it is
  // present in the owner's induced CSR whenever halo_hops >= 1 — the scan
  // is then exact. (halo_hops == 0 keeps no cross edges; stats stay 0.)
  for (int f = 0; f < p; ++f) {
    const FragmentSnapshot& frag = runtime.fragments_[f];
    for (NodeId v : frag.members) {
      bool crossing = false;
      frag.csr->ForEachOutEdge(v, [&](LabelId, NodeId w) {
        if (!frag.Owns(w)) {
          ++part.crossing_edges;
          crossing = true;
        }
      });
      if (!crossing) {
        frag.csr->ForEachInEdge(v, [&](LabelId, NodeId w) {
          if (!frag.Owns(w)) crossing = true;
        });
      }
      if (crossing) part.boundary[f].push_back(v);
    }
  }
  return runtime;
}

}  // namespace ngd
