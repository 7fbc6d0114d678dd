// Multi-anchor differential test for the parallel engines.
//
// The rule's pattern is a square s -> a, s -> h, h -> b, a -> b whose plan
// reaches b last, with two anchor options: the default one scans the hub
// h's long q-adjacency, the alternative scans a's short r-adjacency. The
// match kernel picks the cheap option, so PDect/PIncDect units that
// resume at b's step — forwarded partial matches and split slices — must
// carry that non-default choice to the receiver. With the cost model
// forced (latency_c = 0, tiny forward/split thresholds) every shippable
// step ships, and every run must equal the sequential oracle exactly.

#include <gtest/gtest.h>

#include <memory>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "graph/snapshot.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"
#include "util/rng.h"

namespace ngd {
namespace {

constexpr const char* kSquareRule = R"(
ngd square {
  match (s:s)-[p]->(a:a), (s)-[p]->(h:h), (h)-[q]->(b:b), (a)-[r]->(b)
  then a.v = b.v
}
)";

struct SquareGraph {
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> g = std::make_unique<Graph>(schema);
  std::vector<NodeId> s, a, h, b;
};

/// 4 hubs with 60 q-spokes each into 200 b nodes; 40 s nodes, each
/// pointing at one hub and 3 a nodes; every a has 3 r-edges into b.
SquareGraph MakeSquareGraph(uint64_t seed) {
  SquareGraph w;
  Graph& g = *w.g;
  Rng rng(seed);
  auto add = [&](const char* label, int n, std::vector<NodeId>* out) {
    for (int i = 0; i < n; ++i) {
      const NodeId v = g.AddNode(label);
      g.SetAttr(v, "v", Value(rng.UniformInt(0, 2)));
      out->push_back(v);
    }
  };
  add("s", 40, &w.s);
  add("a", 80, &w.a);
  add("h", 4, &w.h);
  add("b", 200, &w.b);
  // Duplicate picks fail with kAlreadyExists and are simply skipped.
  for (NodeId hub : w.h) {
    for (int i = 0; i < 60; ++i) {
      (void)g.AddEdge(hub, rng.PickFrom(w.b), "q");
    }
  }
  for (NodeId v : w.s) {
    (void)g.AddEdge(v, rng.PickFrom(w.h), "p");
    for (int i = 0; i < 3; ++i) (void)g.AddEdge(v, rng.PickFrom(w.a), "p");
  }
  for (NodeId v : w.a) {
    for (int i = 0; i < 3; ++i) (void)g.AddEdge(v, rng.PickFrom(w.b), "r");
  }
  return w;
}

PDectOptions ForcedShipping(int p) {
  PDectOptions opts;
  opts.num_processors = p;
  opts.latency_c = 0.0;
  opts.min_forward_adjacency = 1;
  opts.min_split_adjacency = 2;
  opts.seed_chunk = 4;
  return opts;
}

void ExpectSubset(const VioSet& part, const VioSet& full) {
  for (const Violation& v : part.Sorted()) EXPECT_TRUE(full.Contains(v));
}

class MultiAnchorPDectTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    sigma = testing_util::MustParse(kSquareRule, w.schema);
    ASSERT_EQ(sigma.size(), 1u);
    oracle = Dect(*w.g, sigma);
    ASSERT_GT(oracle.size(), 0u);
  }

  SquareGraph w = MakeSquareGraph(7);
  NgdSet sigma;
  VioSet oracle;
};

TEST_P(MultiAnchorPDectTest, PlanDefaultsToTheHubAnchor) {
  const Pattern& pattern = sigma[0].pattern();
  const int start = ChooseStartNode(pattern, *w.g);
  const MatchPlan plan =
      BuildMatchPlan(pattern, {start}, &sigma[0].X(), &sigma[0].Y());
  ASSERT_EQ(plan.steps.size(), 3u);
  const ExpansionStep& last = plan.steps.back();
  ASSERT_EQ(last.anchor_options.size(), 2u);
  EXPECT_EQ(pattern.node(last.node).label, w.g->NodeLabel(w.b[0]));
  EXPECT_EQ(pattern.node(last.anchor_options[0].anchor_node).label,
            w.g->NodeLabel(w.h[0]));
  EXPECT_EQ(pattern.node(last.anchor_options[1].anchor_node).label,
            w.g->NodeLabel(w.a[0]));
}

TEST_P(MultiAnchorPDectTest, HeldRuntimeMatchesDect) {
  const int p = GetParam();
  const FragmentRuntime rt(*w.g, p, GraphView::kNew, sigma.MaxDiameter());
  PDectOptions opts = ForcedShipping(p);
  opts.runtime = &rt;
  const PDectResult r = PDect(*w.g, sigma, opts);
  EXPECT_EQ(r.vio.Sorted(), oracle.Sorted());
  EXPECT_FALSE(r.truncated);
  if (p > 1) {
    EXPECT_GT(r.metrics.splits, 0u);
    EXPECT_GT(r.metrics.forwards, 0u);
  }
}

TEST_P(MultiAnchorPDectTest, CallerSnapshotMatchesDect) {
  const int p = GetParam();
  const GraphSnapshot snapshot(*w.g, GraphView::kNew);
  PDectOptions opts = ForcedShipping(p);
  opts.snapshot = &snapshot;
  const PDectResult r = PDect(*w.g, sigma, opts);
  EXPECT_EQ(r.vio.Sorted(), oracle.Sorted());
  EXPECT_EQ(r.metrics.forwards, 0u);
  if (p > 1) {
    EXPECT_GT(r.metrics.splits, 0u);
  }
}

TEST_P(MultiAnchorPDectTest, DeadlinedRunIsASubset) {
  const int p = GetParam();
  const FragmentRuntime rt(*w.g, p, GraphView::kNew, sigma.MaxDiameter());
  for (int64_t ms : {0, 1}) {
    PDectOptions opts = ForcedShipping(p);
    opts.runtime = &rt;
    opts.deadline = Deadline::After(ms);
    const PDectResult r = PDect(*w.g, sigma, opts);
    ExpectSubset(r.vio, oracle);
    if (!r.truncated) {
      EXPECT_EQ(r.vio.Sorted(), oracle.Sorted());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, MultiAnchorPDectTest,
                         ::testing::Values(1, 2, 4));

/// Partition with the given node -> fragment assignment.
Partition PartitionOf(const Graph& g, int p, std::vector<int> fragment_of) {
  Partition part;
  part.num_fragments = p;
  part.fragment_of = std::move(fragment_of);
  part.members.resize(p);
  part.boundary.resize(p);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const int f = part.fragment_of[v];
    part.members[f].push_back(v);
    bool crossing = false;
    for (const auto* adj : {&g.OutEdges(v), &g.InEdges(v)}) {
      for (const AdjEntry& e : *adj) {
        if (part.fragment_of[e.other] == f) continue;
        crossing = true;
        if (adj == &g.OutEdges(v)) ++part.crossing_edges;
      }
    }
    if (crossing) part.boundary[f].push_back(v);
  }
  for (const auto& m : part.members) part.fragment_sizes.push_back(m.size());
  return part;
}

TEST(MultiAnchorForwardTest, ForwardedUnitsKeepTheSendersAnchor) {
  // Fragment 0 owns s, the hub h and its 10 q-spokes; fragment 1 owns a
  // and 5 extra r-targets. On fragment 0 the cheap anchor of b's step is
  // a (8 r-edges, a halo node) against h (10 owned q-edges), so the
  // partial match is forwarded to a's owner. On fragment 1, h's halo copy
  // shows only the 3 spokes near a, so choosing again there would pick h
  // and forward the unit back — forever. The receiver must scan the
  // sender's option.
  SquareGraph w;
  Graph& g = *w.g;
  const NodeId s = g.AddNode("s");
  const NodeId a = g.AddNode("a");
  const NodeId h = g.AddNode("h");
  std::vector<int> fragment_of = {0, 1, 0};
  ASSERT_TRUE(g.AddEdge(s, a, "p").ok());
  ASSERT_TRUE(g.AddEdge(s, h, "p").ok());
  g.SetAttr(a, "v", Value(int64_t{1}));
  for (int i = 0; i < 15; ++i) {
    const NodeId b = g.AddNode("b");
    g.SetAttr(b, "v", Value(int64_t{i % 2}));
    const bool spoke = i < 10;
    fragment_of.push_back(spoke ? 0 : 1);
    if (spoke) {
      ASSERT_TRUE(g.AddEdge(h, b, "q").ok());
    }
    if (i < 3 || !spoke) {
      ASSERT_TRUE(g.AddEdge(a, b, "r").ok());
    }
  }
  const NgdSet sigma = testing_util::MustParse(kSquareRule, w.schema);
  const VioSet oracle = Dect(g, sigma);
  ASSERT_EQ(oracle.size(), 2u);  // matches end at b0..b2; b0, b2 violate

  const FragmentRuntime rt(g, PartitionOf(g, 2, fragment_of),
                           GraphView::kNew, sigma.MaxDiameter());
  PDectOptions opts = ForcedShipping(2);
  opts.runtime = &rt;
  opts.deadline = Deadline::After(10000);  // a bounce would run forever
  const PDectResult r = PDect(g, sigma, opts);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.vio.Sorted(), oracle.Sorted());
  EXPECT_GT(r.metrics.forwards, 0u);
}

/// The square graph with a pending batch that inserts and deletes r- and
/// q-edges, so pivots seed the square from both of its cheap sides.
struct SquareUpdate {
  SquareGraph w = MakeSquareGraph(11);
  NgdSet sigma;
  UpdateBatch batch;
  DeltaVio oracle;
};

std::unique_ptr<SquareUpdate> MakeSquareUpdate() {
  auto u = std::make_unique<SquareUpdate>();
  u->sigma = testing_util::MustParse(kSquareRule, u->w.schema);
  Rng rng(12);
  const LabelId q = u->w.schema->InternLabel("q");
  const LabelId r = u->w.schema->InternLabel("r");
  Graph& g = *u->w.g;
  for (int i = 0; i < 30; ++i) {
    u->batch.updates.push_back({UpdateKind::kInsert, rng.PickFrom(u->w.a),
                                rng.PickFrom(u->w.b), r});
    u->batch.updates.push_back({UpdateKind::kInsert, rng.PickFrom(u->w.h),
                                rng.PickFrom(u->w.b), q});
  }
  for (NodeId v : u->w.a) {
    if (rng.Bernoulli(0.2) && !g.OutEdges(v).empty()) {
      const AdjEntry& e = g.OutEdges(v).front();
      u->batch.updates.push_back(
          {UpdateKind::kDelete, v, e.other, e.label});
    }
  }
  EXPECT_TRUE(ApplyUpdateBatch(&g, &u->batch).ok());
  auto delta = IncDect(g, u->sigma, u->batch);
  EXPECT_TRUE(delta.ok());
  u->oracle = std::move(delta).value();
  EXPECT_GT(u->oracle.added.size() + u->oracle.removed.size(), 0u);
  return u;
}

class MultiAnchorPIncDectTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiAnchorPIncDectTest, ForcedSplitsMatchIncDect) {
  const std::unique_ptr<SquareUpdate> u = MakeSquareUpdate();
  for (SnapshotMode mode : {SnapshotMode::kNever, SnapshotMode::kAlways}) {
    PIncDectOptions opts;
    opts.num_processors = GetParam();
    opts.snapshot_mode = mode;
    opts.latency_c = 0.0;
    opts.min_split_adjacency = 2;
    opts.balance_interval_ms = 1;
    auto r = PIncDect(*u->w.g, u->sigma, u->batch, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->delta.added.Sorted(), u->oracle.added.Sorted());
    EXPECT_EQ(r->delta.removed.Sorted(), u->oracle.removed.Sorted());
    if (GetParam() > 1) {
      EXPECT_GT(r->splits, 0u);
    }
  }
}

TEST_P(MultiAnchorPIncDectTest, DeadlinedRunIsASubset) {
  const std::unique_ptr<SquareUpdate> u = MakeSquareUpdate();
  for (int64_t ms : {0, 1}) {
    PIncDectOptions opts;
    opts.num_processors = GetParam();
    opts.latency_c = 0.0;
    opts.min_split_adjacency = 2;
    opts.deadline = Deadline::After(ms);
    auto r = PIncDect(*u->w.g, u->sigma, u->batch, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSubset(r->delta.added, u->oracle.added);
    ExpectSubset(r->delta.removed, u->oracle.removed);
    if (!r->truncated) {
      EXPECT_EQ(r->delta.added.Sorted(), u->oracle.added.Sorted());
      EXPECT_EQ(r->delta.removed.Sorted(), u->oracle.removed.Sorted());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, MultiAnchorPIncDectTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace ngd
