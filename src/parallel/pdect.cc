#include "parallel/pdect.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "parallel/work_unit.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ngd {

namespace {

/// PDect work units (parallel/work_unit.h) come in three kinds:
///   - seed chunk (depth < 0): candidates [slice_begin, slice_end) of the
///     rule's start label among fragment `home_fragment`'s OWNED nodes;
///   - forwarded partial match (depth >= 0, no slice): binding expanded
///     through step `depth-1`, shipped to the owner of step `depth`'s
///     anchor, which scans the sender's anchor option;
///   - slice unit (depth >= 0, slice set): same, but scanning only
///     [slice_begin, slice_end) of the anchor's neighbour sequence
///     (hybrid split).
/// Units always expand against fragment `home_fragment`'s CSR; a thief
/// reads the victim's fragment, paid for by the steal message.
class FragmentDectEngine {
 public:
  FragmentDectEngine(const NgdSet& sigma, const PDectOptions& opts,
                     const FragmentRuntime& rt)
      : sigma_(sigma),
        opts_(opts),
        rt_(rt),
        p_(std::max(1, opts.num_processors)),
        pool_(p_, &metrics_, opts.enable_steal && p_ > 1,
              opts.max_queue_depth),
        ledger_(p_, sigma.size(), opts.cancel, opts.deadline),
        results_(p_, opts.spill, "") {}

  PDectResult Run(const GraphAccessor& global) {
    metrics_.replicated_nodes.fetch_add(rt_.total_halo_nodes(),
                                        std::memory_order_relaxed);

    // One start node + plan per rule, chosen against the global graph so
    // every fragment agrees (owner-computes seeding needs one well-defined
    // owner per match).
    plans_.reserve(sigma_.size());
    for (const Ngd& ngd : sigma_.ngds()) {
      plans_.push_back(BuildMatchPlan(ngd.pattern(),
                                      {ChooseStartNode(ngd.pattern(), global)},
                                      &ngd.X(), &ngd.Y()));
    }

    // Owner-computes seeding: fragment f expands exactly the candidates
    // it owns, in seed_chunk-sized units (the steal granularity). Worker f
    // serves fragment f; a lone fragment that every worker shares deals
    // its chunks round-robin instead.
    const size_t chunk = std::max<size_t>(1, opts_.seed_chunk);
    size_t dealt = 0;
    for (int f = 0; f < rt_.num_fragments(); ++f) {
      const FragmentSnapshot& frag = rt_.fragment(f);
      for (size_t r = 0; r < sigma_.size(); ++r) {
        const size_t count = frag.candidates.Count(StartLabel(r));
        for (size_t b = 0; b < count; b += chunk) {
          PWorkUnit u;
          u.ngd_index = static_cast<int32_t>(r);
          u.home_fragment = f;
          u.depth = -1;
          u.slice_begin = static_cast<int32_t>(b);
          u.slice_end = static_cast<int32_t>(std::min(b + chunk, count));
          ledger_.Open(static_cast<int>(r));
          const int worker =
              rt_.num_fragments() == 1 ? static_cast<int>(dealt++ % p_) : f;
          pool_.Seed(worker, std::move(u));
        }
      }
    }

    pool_.Run(
        [this](int worker, PWorkUnit& unit) { ProcessUnit(worker, unit); },
        []() {}, ledger_.token(),
        [this](int worker) { results_.Retire(worker); });

    PDectResult result;
    // Owner-computes seeding keeps per-worker sets globally disjoint.
    results_.MergeInto(&result.vio);
    result.crossing_edges = rt_.partition().crossing_edges;
    result.metrics = SnapshotOf(metrics_);
    result.truncated = ledger_.Report(opts_.run_info);
    return result;
  }

 private:
  /// Kernel hooks of one unit's walk: forward or split at Ship, append
  /// full matches to the worker-local set at Emit.
  struct Hooks : InPlaceHooks {
    FragmentDectEngine* engine;
    const FragmentSnapshot* frag;
    int worker;
    int ngd_index;
    uint64_t halo_scans = 0;

    template <typename Walk, typename SeqLen>
    bool Ship(Walk& walk, size_t step, int option, const Binding& binding,
              LiteralState ls, const SeqLen& seq_len) {
      // One worker means one fragment that owns every node: nothing to
      // forward, split or count.
      if (engine->p_ == 1) return true;
      return engine->Ship(this, walk.plan(), step, option, binding, ls,
                          seq_len());
    }
    bool Emit(const Binding& binding) {
      // A full-depth branch has every X literal admitted and Y violated.
      // Owner-computes seeding plus disjoint slice splits make the
      // per-worker sets globally duplicate-free, so the append skips the
      // hash probe.
      engine->results_.local(worker).AppendUnchecked(
          ngd_index, binding.data(), binding.size());
      return true;
    }
  };

  void ProcessUnit(int worker, PWorkUnit& unit) {
    CancelCheck* check = ledger_.check(worker);
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const int r = unit.ngd_index;
    const Ngd& ngd = sigma_[r];
    const FragmentSnapshot& frag = rt_.fragment(unit.home_fragment);
    const GraphAccessor acc(*frag.csr);
    SearchConfig cfg;
    cfg.snapshot = frag.csr.get();
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.cancel = check;
    Hooks hooks;
    hooks.engine = this;
    hooks.frag = &frag;
    hooks.worker = worker;
    hooks.ngd_index = r;
    PlanWalk<Hooks> walk(cfg, acc, plans_[r], &hooks);
    if (unit.depth < 0) {
      const int start = plans_[r].seeds[0];
      const GraphSnapshot::IdRange range =
          frag.candidates.Range(StartLabel(r));
      Binding binding(ngd.pattern().NumNodes(), kInvalidNode);
      const size_t end =
          std::min(static_cast<size_t>(unit.slice_end), range.size());
      for (size_t i = static_cast<size_t>(unit.slice_begin); i < end; ++i) {
        binding[start] = range.ptr[i];
        if (!walk.Seeded(&binding)) break;
      }
    } else {
      unit.Resume(&walk);
    }
    if (hooks.halo_scans > 0) {
      metrics_.messages.fetch_add(hooks.halo_scans, std::memory_order_relaxed);
    }
    if (check == nullptr || !check->Stopped()) {
      // Fully processed (spawned children carry their own pending counts).
      ledger_.Close(r);
    }
  }

  /// Ship hook: the paper's §7 hybrid policy for step `step` of a walk on
  /// fragment hooks->frag, whose anchor scan covers `seq_len` entries.
  /// Returns false when the partial match was forwarded to the anchor's
  /// owner or split into slice units.
  bool Ship(Hooks* hooks, const MatchPlan& plan, size_t step, int option,
            const Binding& binding, LiteralState ls, size_t seq_len) {
    const FragmentSnapshot& frag = *hooks->frag;
    const NodeId anchor =
        binding[plan.steps[step].anchor_options[option].anchor_node];
    const bool anchor_owned = frag.Owns(anchor);
    const bool pays =
        seq_len > 0 && ParallelScanPays(opts_.latency_c,
                                        plan.seeds.size() + step, seq_len, p_);
    const bool forward = pays && !anchor_owned && opts_.enable_forward &&
                         seq_len >= opts_.min_forward_adjacency;
    const bool split =
        pays && opts_.enable_split && seq_len >= opts_.min_split_adjacency;
    if (!forward && !split) {
      if (!anchor_owned) ++hooks->halo_scans;  // local read of a replica
      return true;
    }
    PWorkUnit u;
    u.ngd_index = hooks->ngd_index;
    u.home_fragment = frag.fragment_id;
    u.depth = static_cast<int32_t>(step);
    u.anchor_option = option;
    u.literals = ls;
    u.binding = binding;
    if (forward) {
      // Boundary-crossing match: ship the k+1 bound nodes to the anchor's
      // owner, which scans its own (owned) adjacency. Exact: all nodes of
      // any completion are within d_Σ of the anchor, so they lie inside
      // the owner's members ∪ halo.
      u.home_fragment = rt_.OwnerOf(anchor);
      ledger_.Open(hooks->ngd_index);
      const int target = u.home_fragment;
      pool_.Forward(hooks->worker, target, std::move(u));
      return false;
    }
    const size_t slices =
        BroadcastSlices(u, seq_len, hooks->worker, &pool_, &metrics_, &ledger_);
    // Each slice unit reads the anchor's adjacency where it stands.
    if (!anchor_owned) hooks->halo_scans += slices;
    return false;
  }

  LabelId StartLabel(size_t r) const {
    return sigma_[r].pattern().node(plans_[r].seeds[0]).label;
  }

  const NgdSet& sigma_;
  const PDectOptions& opts_;
  const FragmentRuntime& rt_;
  /// Worker count: one per fragment, or p workers sharing a lone fragment.
  const int p_;
  ClusterMetrics metrics_;
  WorkStealingPool<PWorkUnit> pool_;
  RunLedger ledger_;
  WorkerVioSets results_;
  /// One plan per rule, seeded at its start node.
  std::vector<MatchPlan> plans_;
};

}  // namespace

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts) {
  // Σ-optimizer wiring: minimize before fragment seeding, so dropped
  // rules never spawn work units. elapsed_seconds of the re-entry covers
  // the parallel detection itself; the (cached, amortized) minimization
  // cost is the caller's setup, as with runtime builds.
  if (auto result = DetectMinimized(
          sigma, g.schema(), opts,
          [&](const NgdSet& kept_sigma, const PDectOptions& inner,
              const std::vector<int>& kept) {
            PDectResult r = PDect(g, kept_sigma, inner);
            r.vio = RemapViolations(std::move(r.vio), kept);
            return r;
          })) {
    return *std::move(result);
  }

  WallTimer timer;
  const int p = std::max(1, opts.num_processors);
  const int d_sigma = sigma.MaxDiameter();

  // A caller snapshot runs as one fragment all p workers share. Otherwise
  // reuse a caller-supplied runtime when it matches, or fragment here (the
  // clock includes it — a cold start really pays it; callers that care
  // pre-build and pass opts.runtime).
  std::optional<FragmentRuntime> owned_rt;
  const FragmentRuntime* rt = opts.runtime;
  if (opts.snapshot != nullptr) {
    owned_rt.emplace(*opts.snapshot);
    rt = &*owned_rt;
  } else if (rt == nullptr || rt->num_fragments() != p ||
             rt->view() != opts.view || rt->halo_hops() < d_sigma) {
    owned_rt.emplace(g, p, opts.view, d_sigma);
    rt = &*owned_rt;
  }

  FragmentDectEngine engine(sigma, opts, *rt);
  PDectResult result = engine.Run(opts.snapshot != nullptr
                                      ? GraphAccessor(*opts.snapshot)
                                      : GraphAccessor(g, opts.view));
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ngd
