#include <gtest/gtest.h>

#include <memory>

#include "detect/dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "parallel/pdect.h"
#include "test_util.h"

namespace ngd {
namespace {

class PDectTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    g = GenerateGraph(SyntheticConfig(600, 1500, 21), schema);
    NgdGenOptions gen;
    gen.count = 10;
    gen.max_diameter = 3;
    gen.seed = 22;
    gen.violation_rate = 0.25;
    sigma = GenerateNgdSet(*g, gen);
    ASSERT_GT(sigma.size(), 0u);
  }

  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> g;
  NgdSet sigma;
};

TEST_P(PDectTest, MatchesSequentialDect) {
  VioSet sequential = Dect(*g, sigma);
  PDectOptions opts;
  opts.num_processors = GetParam();
  PDectResult parallel = PDect(*g, sigma, opts);
  EXPECT_EQ(parallel.vio.size(), sequential.size());
  for (const auto& v : sequential.items()) {
    EXPECT_TRUE(parallel.vio.Contains(v));
  }
  EXPECT_GT(parallel.elapsed_seconds, 0.0);
}

// A caller-supplied snapshot runs the same engine as one fragment that
// every worker shares: no partition, so no cut, no halo and no forwards.
TEST_P(PDectTest, SharedSnapshotMatchesSequentialDect) {
  const GraphSnapshot snapshot(*g, GraphView::kNew);
  PDectOptions opts;
  opts.num_processors = GetParam();
  opts.snapshot = &snapshot;
  opts.seed_chunk = 16;  // many chunks per rule, dealt round-robin
  PDectResult parallel = PDect(*g, sigma, opts);
  EXPECT_EQ(parallel.vio.Sorted(), Dect(*g, sigma).Sorted());
  EXPECT_FALSE(parallel.truncated);
  EXPECT_EQ(parallel.crossing_edges, 0u);
  EXPECT_EQ(parallel.metrics.replicated_nodes, 0u);
  EXPECT_EQ(parallel.metrics.forwards, 0u);
  EXPECT_GT(parallel.metrics.work_units, 0u);
}

INSTANTIATE_TEST_SUITE_P(Processors, PDectTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(PDectSnapshotFixedTest, SharedSnapshotSplitsHubAdjacency) {
  // 8 'a' seeds point at one hub with 600 spokes: over a shared snapshot
  // nothing is forwarded, so the hub scan must split across the workers.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  const NodeId hub = g.AddNode("n");
  g.SetAttr(hub, "v", Value(int64_t{0}));
  for (int i = 0; i < 600; ++i) {
    const NodeId leaf = g.AddNode("n");
    g.SetAttr(leaf, "v", Value(int64_t{i}));
    ASSERT_TRUE(g.AddEdge(hub, leaf, "e").ok());
  }
  for (int i = 0; i < 8; ++i) {
    const NodeId src = g.AddNode("a");
    g.SetAttr(src, "v", Value(int64_t{50}));
    ASSERT_TRUE(g.AddEdge(src, hub, "e").ok());
  }
  NgdSet sigma = testing_util::MustParse(
      "ngd r { match (x:a)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema);
  ASSERT_EQ(sigma.size(), 1u);

  const GraphSnapshot snapshot(g, GraphView::kNew);
  PDectOptions opts;
  opts.num_processors = 4;
  opts.snapshot = &snapshot;
  PDectResult r = PDect(g, sigma, opts);
  EXPECT_EQ(r.vio.Sorted(), Dect(g, sigma).Sorted());
  EXPECT_GT(r.metrics.splits, 0u);
  EXPECT_EQ(r.metrics.forwards, 0u);
}

TEST(PDectFixedTest, FindsPaperFig1Violations) {
  auto g = testing_util::BuildG4();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, g.schema);
  PDectOptions opts;
  opts.num_processors = 3;
  PDectResult r = PDect(*g.graph, rules, opts);
  EXPECT_EQ(r.vio.size(), 1u);
}

TEST(PDectFixedTest, EmptyRuleSetYieldsNoViolations) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(100, 200, 1), schema);
  PDectOptions opts;
  opts.num_processors = 2;
  EXPECT_TRUE(PDect(*g, NgdSet{}, opts).vio.empty());
}

}  // namespace
}  // namespace ngd
