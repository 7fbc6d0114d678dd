// violation_flood: sequential Dect with result spilling, then a full
// cursor drain. `hubs` hubs each observe `obs` readings with values
// 0..obs-1, and one pairwise rule
//   (x:hub)-[observes]->(y:reading), (x)-[observes]->(z:reading)
//   then y.val - z.val > 1000000000
// that no pair satisfies, so every ordered (y, z) pair of a hub, y = z
// included, is a violation: hubs * obs^2 in all. Matching is trivial;
// VioSet emission, segment spill and the k-way cursor merge do the work.

#include <string>
#include <vector>

#include "batch.h"
#include "graph/snapshot_io.h"
#include "util/rng.h"

namespace ngdperf {
namespace {

using ngd::Status;

constexpr const char* kRuleName = "pairwise_delta";

std::string GraphPath(const Context& ctx) { return ctx.dir + "/flood.ngds"; }
std::string RulesPath(const Context& ctx) { return ctx.dir + "/flood.ngd"; }
std::string ExpectPath(const Context& ctx) { return ctx.dir + "/flood.expect"; }

}  // namespace

ngd::StatusOr<double> SetupViolationFlood(const Context& ctx) {
  const Clock::time_point start = Clock::now();
  const uint32_t hubs = static_cast<uint32_t>(ctx.params.Int("hubs"));
  const uint32_t obs = static_cast<uint32_t>(ctx.params.Int("obs"));
  if (ctx.params.Int("hubs") <= 0 || ctx.params.Int("obs") <= 0) {
    return Status::InvalidArgument("violation_flood needs hubs, obs > 0");
  }
  ngd::SchemaPtr schema = ngd::Schema::Create();
  ngd::Graph g(schema);
  const ngd::LabelId hub = schema->InternLabel("hub");
  const ngd::LabelId reading = schema->InternLabel("reading");
  const ngd::LabelId observes = schema->InternLabel("observes");
  const ngd::AttrId val = schema->InternAttr("val");
  // Hub h observes readings h*obs .. h*obs+obs-1 (after the hubs); the
  // seed permutes each hub's values, which leaves the violation set, and
  // so the work, the same for every seed.
  ngd::Rng rng(ctx.seed);
  for (uint32_t h = 0; h < hubs; ++h) g.AddNode(hub);
  std::vector<int64_t> values(obs);
  for (uint32_t h = 0; h < hubs; ++h) {
    for (uint32_t i = 0; i < obs; ++i) values[i] = i;
    for (size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[rng.NextUint64() % i]);
    }
    for (uint32_t i = 0; i < obs; ++i) {
      const ngd::NodeId v = g.AddNode(reading);
      g.SetAttr(v, val, ngd::Value(values[i]));
      Status s = g.AddEdge(h, v, observes);
      if (!s.ok()) return s;
    }
  }
  Status s = ngd::SaveSnapshotFile(ngd::GraphSnapshot(g, ngd::GraphView::kNew),
                                   GraphPath(ctx));
  if (!s.ok()) return s;
  s = WriteTextFile(RulesPath(ctx),
                    std::string("ngd ") + kRuleName +
                        " {\n  match (x:hub)-[observes]->(y:reading), "
                        "(x)-[observes]->(z:reading)\n"
                        "  then y.val - z.val > 1000000000\n}\n");
  if (!s.ok()) return s;

  Expected want;
  const uint64_t rh = RuleHash(kRuleName);
  for (uint32_t h = 0; h < hubs; ++h) {
    const uint32_t first = hubs + h * obs;
    for (uint32_t y = first; y < first + obs; ++y) {
      for (uint32_t z = first; z < first + obs; ++z) {
        const uint32_t nodes[3] = {h, y, z};
        ++want.count;
        want.digest += ViolationDigest(rh, nodes, 3);
      }
    }
  }
  s = WriteExpected(ExpectPath(ctx), want);
  if (!s.ok()) return s;
  return SecondsSince(start);
}

Report RunViolationFlood(const Context& ctx) {
  ngd::VioSpillOptions spill;
  spill.path_prefix = ctx.dir + "/flood_spill";
  spill.budget_bytes = static_cast<size_t>(ctx.params.Int("spill_budget_kb"))
                       << 10;
  BatchSpec spec;
  spec.graph_path = GraphPath(ctx);
  spec.rules_path = RulesPath(ctx);
  spec.spill = &spill;
  auto want = ReadExpected(ExpectPath(ctx));
  if (!want.ok()) return FailedReport(want.status());
  return RunBatchWorkload(ctx, spec, *want);
}

}  // namespace ngdperf
