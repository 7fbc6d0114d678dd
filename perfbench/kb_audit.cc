// kb_audit: `ngdcheck --graph kb.tsv --rules kb.ngd --minimize-sigma
// --parallel 4` on a DBpedia-like knowledge graph with planted Exp-5
// error motifs. TSV ingest dominates the check; the rule catalog is
// selective, so the parallel engine's runtime build is mostly overhead.
//
// The output is fixed by construction: every planted error is exactly one
// violation of the six base rules (the background graph's t*/e* alphabet
// shares no label with them), and the implied variants the catalog is
// inflated with are dropped by the Σ-optimizer. Setup also records the
// digest of a sequential-Dect reference run, which every check must match.

#include <string>

#include "batch.h"
#include "core/parser.h"
#include "detect/dect.h"
#include "detect/vio_stream.h"
#include "discovery/ngd_generator.h"
#include "graph/error_injector.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

namespace ngdperf {
namespace {

using ngd::Status;

// The knowledge-base rules of the Exp-5 effectiveness study (paper §7).
constexpr const char* kKbRules = R"(
ngd lifespan {
  match (x:org)-[wasCreatedOnDate]->(y:date),
        (x)-[wasDestroyedOnDate]->(z:date)
  then z.val - y.val >= 100
}
ngd population_sum {
  match (x:area)-[femalePopulation]->(y:integer),
        (x)-[malePopulation]->(z:integer),
        (x)-[populationTotal]->(w:integer)
  then y.val + z.val = w.val
}
ngd population_rank {
  match (x:place)-[partof]->(z:place), (y:place)-[partof]->(z:place),
        (x)-[population]->(m1:integer), (y)-[population]->(m2:integer),
        (x)-[populationRank]->(n1:integer), (y)-[populationRank]->(n2:integer),
        (m1)-[date]->(w:date), (m2)-[date]->(w:date)
  where m1.val < m2.val
  then n1.val > n2.val
}
ngd living_people {
  match (x:person)-[birthYear]->(y:year), (x)-[category]->(z:category)
  where y.val < 1800
  then z.val != "living people"
}
ngd olympic_nations {
  match (x:competition)-[nations]->(z:integer),
        (x)-[competitors]->(y:integer)
  where x.type = "Olympic"
  then z.val <= y.val
}
ngd capital_kind {
  match (x:capital)-[locatedIn]->(y:country)
  then x.kind = "capital-city"
}
)";

std::string GraphPath(const Context& ctx) { return ctx.dir + "/kb.tsv"; }
std::string RulesPath(const Context& ctx) { return ctx.dir + "/kb.ngd"; }
std::string ExpectPath(const Context& ctx) { return ctx.dir + "/kb.expect"; }

}  // namespace

ngd::StatusOr<double> SetupKbAudit(const Context& ctx) {
  const Clock::time_point start = Clock::now();
  const Params& p = ctx.params;
  ngd::SchemaPtr schema = ngd::Schema::Create();
  std::unique_ptr<ngd::Graph> g = ngd::GenerateGraph(
      ngd::DBpediaLikeConfig(p.Real("scale"), ctx.seed), schema);

  ngd::ErrorInjector inject(g.get(), ctx.seed + 1);
  const double rate = p.Real("error_rate");
  auto count = [&](const char* key) {
    return static_cast<size_t>(p.Int(key));
  };
  uint64_t planted = 0;
  planted += inject.PlantLifespan(count("lifespan"), rate).errors;
  planted += inject.PlantPopulation(count("population"), rate).errors;
  planted += inject.PlantPopulationRank(count("population_rank"), rate).errors;
  planted += inject.PlantLivingPeople(count("living_people"), rate).errors;
  planted += inject.PlantOlympicNations(count("olympic"), rate).errors;
  planted += inject.PlantConstantBinding(count("constant_binding"), rate).errors;
  Status s = ngd::SaveGraphFile(*g, GraphPath(ctx));
  if (!s.ok()) return s;

  auto base = ngd::ParseNgds(kKbRules, schema);
  if (!base.ok()) return base.status();
  ngd::InflateOptions inflate;
  inflate.variants_per_rule = static_cast<size_t>(p.Int("variants_per_rule"));
  inflate.duplicate_fraction = p.Real("duplicate_fraction");
  inflate.seed = ctx.seed + 2;
  const ngd::NgdSet inflated = ngd::InflateWithImpliedVariants(*base, inflate);
  std::string text;
  for (const ngd::Ngd& r : inflated.ngds()) {
    text += r.ToString(schema->labels(), schema->attrs()) + "\n";
  }
  s = WriteTextFile(RulesPath(ctx), text);
  if (!s.ok()) return s;

  // Reference: the written catalog, minimized, under sequential Dect.
  auto reparsed = ngd::ParseNgds(text, schema);
  if (!reparsed.ok()) return reparsed.status();
  if (reparsed->size() != inflated.size()) {
    return Status::Internal("kb.ngd does not round-trip the inflated catalog");
  }
  ngd::ClearSigmaOptimizerCache();
  const ngd::MinimizedSigma kept = ngd::MinimizeSigma(*reparsed, schema);
  const ngd::VioSet vio = ngd::Dect(*g, kept.sigma);
  Expected want;
  auto cursor = vio.OpenCursor();
  if (!cursor.ok()) return cursor.status();
  ngd::Violation v;
  while (cursor->Next(&v)) {
    ++want.count;
    want.digest += ViolationDigest(
        RuleHash(kept.sigma[static_cast<size_t>(v.ngd_index)].name()),
        v.nodes.data(), v.nodes.size());
  }
  if (want.count != planted) {
    return Status::Internal("reference Dect found " +
                            std::to_string(want.count) + " violations, " +
                            std::to_string(planted) + " were planted");
  }
  s = WriteExpected(ExpectPath(ctx), want);
  if (!s.ok()) return s;
  return SecondsSince(start);
}

Report RunKbAudit(const Context& ctx) {
  BatchSpec spec;
  spec.graph_path = GraphPath(ctx);
  spec.rules_path = RulesPath(ctx);
  spec.minimize_sigma = true;
  spec.processors = 4;
  auto want = ReadExpected(ExpectPath(ctx));
  if (!want.ok()) return FailedReport(want.status());
  return RunBatchWorkload(ctx, spec, *want);
}

}  // namespace ngdperf
