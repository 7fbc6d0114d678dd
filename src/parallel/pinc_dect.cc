#include "parallel/pinc_dect.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "graph/neighborhood.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ngd {

namespace {

class PIncDectEngine {
 public:
  PIncDectEngine(const Graph& g, const NgdSet& sigma,
                 const UpdateBatch& batch, const PIncDectOptions& opts)
      : g_(g),
        sigma_(sigma),
        batch_(batch),
        opts_(opts),
        p_(std::max(1, opts.num_processors)),
        index_(g, batch),
        nc_(0),
        pool_(p_, &metrics_, opts.enable_steal && p_ > 1,
              opts.max_queue_depth),
        ledger_(p_, sigma.size(), opts.cancel, opts.deadline),
        added_(p_, opts.spill, ".add"),
        removed_(p_, opts.spill, ".rem") {}

  StatusOr<PIncDectResult> Run() {
    NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma_));
    WallTimer timer;

    // Step 1: pivots, prefiltered by the per-rule affected area (rules
    // whose d_Q-ball cannot supply every pattern-node label spawn no
    // work units at all).
    std::vector<PivotTask> tasks = EnumeratePivotTasks(g_, sigma_, index_);
    std::optional<AffectedArea> area;
    if (opts_.affected_area_prefilter) {
      area.emplace(g_, sigma_, index_);
      tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                                 [&](const PivotTask& t) {
                                   return !area->RuleCanMatch(t.ngd_index);
                                 }),
                  tasks.end());
    }

    // Backend: the same resolution as IncDect. The base snapshot (and
    // the DeltaView over it) is immutable, so all p processors share it
    // read-only — it counts as replicated state, like N_C below.
    if (ResolveDeltaView(g_, index_, tasks, opts_.snapshot_mode,
                         opts_.base_snapshot != nullptr)) {
      const GraphSnapshot* base = opts_.base_snapshot;
      if (base == nullptr) {
        owned_base_.emplace(g_, GraphView::kOld);
        base = &*owned_base_;
      }
      dv_.emplace(*base, g_, batch_);
    }

    // Step 2: candidate neighborhood N_C(ΔG, Σ) = union of d_Σ-balls
    // around update endpoints, over the union of both views (safe for
    // ΔVio+ and ΔVio- searches alike), replicated at all processors.
    std::vector<NodeId> seeds;
    for (const auto& u : index_.updates()) {
      seeds.push_back(u.edge.src);
      seeds.push_back(u.edge.dst);
    }
    const int d_sigma = sigma_.MaxDiameter();
    NodeSet ball_old = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kOld);
    nc_ = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kNew);
    for (NodeId v : ball_old.members()) nc_.Add(v);
    metrics_.replicated_nodes +=
        static_cast<uint64_t>(nc_.size()) * (p_ > 1 ? p_ - 1 : 0);
    metrics_.messages += p_ > 1 ? p_ : 0;  // one broadcast round

    plans_.emplace(sigma_, tasks);

    // Step 3: partition the pivots across BVio_i — fragment-affine when a
    // matching runtime is supplied (the unit starts where its pivot's
    // source lives), round-robin otherwise. Both are free initial
    // placements (seeds are born, not sent).
    {
      const FragmentRuntime* rt =
          opts_.runtime != nullptr && opts_.runtime->num_fragments() == p_
              ? opts_.runtime
              : nullptr;
      size_t i = 0;
      for (const PivotTask& t : tasks) {
        const Ngd& ngd = sigma_[t.ngd_index];
        const EffectiveUpdate& u = index_.updates()[t.update_index];
        const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
        PWorkUnit unit;
        unit.ngd_index = t.ngd_index;
        unit.pattern_edge = t.pattern_edge;
        unit.update_index = t.update_index;
        unit.binding.assign(ngd.pattern().NumNodes(), kInvalidNode);
        unit.binding[pe.src] = u.edge.src;
        unit.binding[pe.dst] = u.edge.dst;
        int target = static_cast<int>(i % p_);
        // New nodes created by ΔG postdate the partition; they fall back
        // to round-robin.
        if (rt != nullptr &&
            u.edge.src < rt->partition().fragment_of.size()) {
          target = rt->OwnerOf(u.edge.src);
        }
        ledger_.Open(t.ngd_index);
        pool_.Seed(target, std::move(unit));
        ++i;
      }
    }

    // Step 4+5: workers expand (stealing when enabled); the caller thread
    // runs the skew balancer at its interval via the pool tick.
    {
      using namespace std::chrono;
      auto last_balance = steady_clock::now();
      pool_.Run(
          [this](int worker, PWorkUnit& unit) { ProcessUnit(worker, unit); },
          [&]() {
            if (!opts_.enable_balance) return;
            auto now = steady_clock::now();
            if (duration_cast<milliseconds>(now - last_balance).count() <
                opts_.balance_interval_ms) {
              return;
            }
            last_balance = now;
            BalanceOnce();
          },
          ledger_.token(), [this](int worker) {
            added_.Retire(worker);
            removed_.Retire(worker);
          });
    }

    PIncDectResult result;
    // Per-worker deltas are globally disjoint (exactly-once canonical
    // emission).
    added_.MergeInto(&result.delta.added);
    removed_.MergeInto(&result.delta.removed);
    result.candidate_neighborhood_nodes = nc_.size();
    result.messages = metrics_.messages.load();
    result.replicated_nodes = metrics_.replicated_nodes.load();
    result.work_units = metrics_.work_units.load();
    result.splits = metrics_.splits.load();
    result.balance_moves = metrics_.balance_moves.load();
    result.steals = metrics_.steals.load();
    result.elapsed_seconds = timer.ElapsedSeconds();
    result.truncated = ledger_.Report(opts_.run_info);
    return result;
  }

 private:
  void BalanceOnce() {
    std::vector<size_t> sizes = pool_.QueueSizes();
    std::vector<double> skew = ComputeSkewness(sizes);
    std::vector<int> receivers;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] < opts_.receiver_threshold) receivers.push_back(i);
    }
    if (receivers.empty()) return;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] <= opts_.skew_threshold) continue;
      std::vector<PWorkUnit> moved = pool_.HarvestFront(i, sizes[i] / 2);
      if (moved.empty()) continue;
      metrics_.balance_moves += moved.size();
      metrics_.messages += moved.size();
      // Distribute round-robin over the lightly loaded processors.
      std::vector<std::vector<PWorkUnit>> shares(receivers.size());
      for (size_t k = 0; k < moved.size(); ++k) {
        shares[k % receivers.size()].push_back(std::move(moved[k]));
      }
      for (size_t r = 0; r < receivers.size(); ++r) {
        if (!shares[r].empty()) {
          pool_.PushMany(receivers[r], std::move(shares[r]));
        }
      }
    }
  }

  /// Kernel hooks of one pivot unit's walk: split at Ship, spawn one
  /// child unit per extension at Descend, canonical-pivot Emit into the
  /// worker-local delta half.
  struct Hooks : PivotEmitHooks {
    PIncDectEngine* engine;
    const PWorkUnit* unit;
    int worker;

    template <typename Walk, typename SeqLen>
    bool Ship(Walk& walk, size_t step, int option, const Binding& binding,
              LiteralState ls, const SeqLen& seq_len) {
      if (!engine->opts_.enable_split || engine->p_ == 1) return true;
      return engine->Ship(this, walk.plan(), step, option, binding, ls,
                          seq_len());
    }
    template <typename Walk>
    bool Descend(Walk& walk, size_t next, Binding* binding, LiteralState ls) {
      if (next == walk.plan().steps.size()) {
        return walk.Expand(next, binding, ls);
      }
      PWorkUnit child = engine->UnitLike(*unit, next, ls, *binding);
      engine->ledger_.Open(child.ngd_index);
      engine->pool_.SpawnLocal(worker, std::move(child));
      return true;
    }
  };

  void ProcessUnit(int worker, PWorkUnit& unit) {
    CancelCheck* check = ledger_.check(worker);
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const Ngd& ngd = sigma_[unit.ngd_index];
    const EffectiveUpdate& u = index_.updates()[unit.update_index];
    SearchConfig cfg;
    cfg.graph = &g_;
    cfg.delta_view = dv_.has_value() ? &*dv_ : nullptr;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view =
        u.kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
    cfg.node_scope = &nc_;
    cfg.cancel = check;
    const GraphAccessor acc = cfg.MakeAccessor();
    PivotEdgeFilter filter(&acc, &index_, u.kind, unit.update_index);
    cfg.edge_filter = &filter;
    Hooks hooks;
    hooks.g = &acc;
    hooks.pattern = &ngd.pattern();
    hooks.index = &index_;
    hooks.kind = u.kind;
    hooks.task = PivotTask{unit.ngd_index, unit.pattern_edge,
                           unit.update_index};
    hooks.target = u.kind == UpdateKind::kInsert ? &added_.local(worker)
                                                 : &removed_.local(worker);
    hooks.engine = this;
    hooks.unit = &unit;
    hooks.worker = worker;
    PlanWalk<Hooks> walk(
        cfg, acc, plans_->Of(unit.ngd_index, unit.pattern_edge),
        &hooks);
    // Fresh pivot units start with seed validation; split and child
    // units have already passed it.
    if (unit.depth == 0 && unit.slice_begin < 0) {
      walk.Seeded(&unit.binding);
    } else {
      unit.Resume(&walk);
    }
    // Fully processed (spawned children carry their own open counts).
    if (check == nullptr || !check->Stopped()) ledger_.Close(unit.ngd_index);
  }

  /// `unit`'s pivot identity with a new walk position.
  static PWorkUnit UnitLike(const PWorkUnit& unit, size_t depth,
                            LiteralState ls, const Binding& binding) {
    PWorkUnit u;
    u.ngd_index = unit.ngd_index;
    u.pattern_edge = unit.pattern_edge;
    u.update_index = unit.update_index;
    u.depth = static_cast<int32_t>(depth);
    u.literals = ls;
    u.binding = binding;
    return u;
  }

  /// Ship hook: work-unit splitting under the hybrid cost model, for a
  /// step whose anchor scan covers `seq_len` entries — the raw overlay
  /// adjacency on the live backend, the base label range plus delta
  /// entries on the DeltaView (graph/accessor.h).
  /// Returns false when the scan was broadcast as p slice units.
  bool Ship(Hooks* hooks, const MatchPlan& plan, size_t step, int option,
            const Binding& binding, LiteralState ls, size_t seq_len) {
    if (seq_len < opts_.min_split_adjacency ||
        !ParallelScanPays(opts_.latency_c, plan.seeds.size() + step,
                          seq_len, p_)) {
      return true;
    }
    PWorkUnit proto = UnitLike(*hooks->unit, step, ls, binding);
    proto.anchor_option = option;
    BroadcastSlices(proto, seq_len, hooks->worker, &pool_, &metrics_,
                    &ledger_);
    return false;
  }

  const Graph& g_;
  const NgdSet& sigma_;
  const UpdateBatch& batch_;
  const PIncDectOptions opts_;
  const int p_;
  UpdateIndex index_;
  std::optional<GraphSnapshot> owned_base_;
  std::optional<DeltaView> dv_;
  NodeSet nc_;
  std::optional<PivotPlans> plans_;
  ClusterMetrics metrics_;
  WorkStealingPool<PWorkUnit> pool_;
  RunLedger ledger_;
  /// Worker-local ΔVio+ / ΔVio- halves.
  WorkerVioSets added_;
  WorkerVioSets removed_;
};

}  // namespace

StatusOr<PIncDectResult> PIncDect(const Graph& g, const NgdSet& sigma,
                                  const UpdateBatch& batch,
                                  const PIncDectOptions& opts) {
  // Σ-optimizer wiring: validate the full Σ first (rejection behavior
  // matches the oracle), then run the whole pivot/replicate/balance
  // pipeline on the minimized set and remap ΔVio back to Σ.
  if (opts.minimize_sigma != MinimizeMode::kNever) {
    NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma));
    if (auto result = DetectMinimized(
            sigma, g.schema(), opts,
            [&](const NgdSet& kept_sigma, const PIncDectOptions& inner,
                const std::vector<int>& kept) {
              auto r = PIncDect(g, kept_sigma, batch, inner);
              if (r.ok()) r->delta = RemapDelta(std::move(r->delta), kept);
              return r;
            })) {
      return *std::move(result);
    }
  }

  PIncDectEngine engine(g, sigma, batch, opts);
  return engine.Run();
}

}  // namespace ngd
