#include "match/homomorphism.h"

#include <cassert>

namespace ngd {

namespace {

/// Literal evaluation against whichever backend the accessor wraps.
Truth EvalLiteral(const GraphAccessor& g, const Literal& lit,
                  const Binding& binding) {
  if (g.is_snapshot()) return lit.Evaluate(*g.snapshot(), binding);
  if (g.is_delta_view()) return lit.Evaluate(*g.delta_view(), binding);
  return lit.Evaluate(*g.live_graph(), binding);
}

/// Emit hook of the sequential entry points: the batched emitter when the
/// config has one (no std::function dispatch, no per-match allocation),
/// else the callback.
struct CallbackHooks : InPlaceHooks {
  const SearchConfig* cfg;
  const MatchCallback* callback;

  bool Emit(const Binding& binding) {
    if (cfg->emitter != nullptr) return cfg->emitter->Emit(binding);
    return (*callback)(binding);
  }
};

void AssertSearchable(const SearchConfig& config) {
  assert((config.graph != nullptr || config.snapshot != nullptr ||
          config.delta_view != nullptr) &&
         config.pattern != nullptr);
  assert(!config.find_violations ||
         (config.x != nullptr && config.y != nullptr));
  (void)config;
}

}  // namespace

namespace match_internal {

bool PruneOnReadyLiterals(const SearchConfig& cfg, const GraphAccessor& g,
                          const std::vector<int>& ready_x,
                          const std::vector<int>& ready_y,
                          const Binding& binding, LiteralState* ls) {
  if (!cfg.find_violations) return false;
  for (int i : ready_x) {
    Truth t = EvalLiteral(g, (*cfg.x)[i], binding);
    assert(t != Truth::kNotReady);
    if (t == Truth::kFalse) return true;  // h ̸|= X forever
  }
  for (int i : ready_y) {
    Truth t = EvalLiteral(g, (*cfg.y)[i], binding);
    assert(t != Truth::kNotReady);
    ++ls->y_ready;
    if (t == Truth::kFalse) ls->y_false = true;
  }
  // All Y literals bound and true: every extension satisfies Y.
  return !ls->y_false && ls->y_ready == cfg.y->size();
}

int CheapestAnchor(const GraphAccessor& g, const Pattern& pattern,
                   const ExpansionStep& step, const Binding& binding) {
  int best = 0;
  size_t best_cost = SIZE_MAX;
  for (size_t k = 0; k < step.anchor_options.size(); ++k) {
    const AnchorOption& o = step.anchor_options[k];
    const size_t cost = g.NeighborSeqLen(binding[o.anchor_node], o.anchor_out,
                                         pattern.edge(o.edge).label);
    if (cost < best_cost) {
      best_cost = cost;
      best = static_cast<int>(k);
    }
  }
  return best;
}

bool AdmitSeeds(const SearchConfig& cfg, const GraphAccessor& g,
                const MatchPlan& plan, const Binding& binding,
                LiteralState* ls) {
  // Seeds must satisfy labels and scope.
  for (int s : plan.seeds) {
    const NodeId v = binding[s];
    assert(v != kInvalidNode);
    if (!g.NodeMatchesLabel(v, cfg.pattern->node(s).label)) return false;
    if (cfg.node_scope != nullptr && !cfg.node_scope->Contains(v)) {
      return false;
    }
  }
  // Seed-internal edges.
  for (int ce : plan.seed_check_edges) {
    const PatternEdge& pe = cfg.pattern->edge(ce);
    const NodeId s = binding[pe.src];
    const NodeId d = binding[pe.dst];
    if (!g.HasEdge(s, d, pe.label)) return false;
    if (cfg.edge_filter != nullptr &&
        !cfg.edge_filter->Admit(ce, s, d, pe.label)) {
      return false;
    }
  }
  return !PruneOnReadyLiterals(cfg, g, plan.seed_ready_x, plan.seed_ready_y,
                               binding, ls);
}

}  // namespace match_internal

bool RunSeededSearch(const SearchConfig& config, const MatchPlan& plan,
                     Binding* binding, const MatchCallback& callback) {
  AssertSearchable(config);
  const GraphAccessor g = config.MakeAccessor();
  CallbackHooks hooks{{}, &config, &callback};
  return PlanWalk<CallbackHooks>(config, g, plan, &hooks).Seeded(binding);
}

bool RunBatchSearchWithPlan(const SearchConfig& config, int start,
                            const MatchPlan& plan,
                            const MatchCallback& callback) {
  AssertSearchable(config);
  assert(plan.seeds.size() == 1 && plan.seeds[0] == start);
  const GraphAccessor g = config.MakeAccessor();
  CallbackHooks hooks{{}, &config, &callback};
  PlanWalk<CallbackHooks> walk(config, g, plan, &hooks);
  Binding binding(config.pattern->NumNodes(), kInvalidNode);
  return g.ForEachCandidate(config.pattern->node(start).label, [&](NodeId v) {
    binding[start] = v;
    const bool keep_going = walk.Seeded(&binding);
    binding[start] = kInvalidNode;
    return keep_going;
  });
}

bool RunBatchSearch(const SearchConfig& config,
                    const MatchCallback& callback) {
  AssertSearchable(config);
  const Pattern& pattern = *config.pattern;
  const int start = ChooseStartNode(pattern, config.MakeAccessor());
  const MatchPlan plan =
      BuildMatchPlan(pattern, {start}, config.x, config.y);
  return RunBatchSearchWithPlan(config, start, plan, callback);
}

}  // namespace ngd
