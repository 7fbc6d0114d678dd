// hub_scan and update_stream: a hand-built hub graph and two-hop wildcard
// rules routed through its hubs, in the style of the Fig. 4(a)-(d) sweep.
//
// Hubs fan out `fanout` edges over `edge_labels` labels to random spokes;
// spokes feed hubs over the `feeds` label. Rule r is
//   (x)-[feeds]->(y)-[e<7r mod L>]->(z)  then z.val >= 0
// and a sparse set of spokes carries val = -1. Only hubs have e* out-edges
// and only spokes have feeds out-edges, so y is always a hub and every
// violation is (feeder of h, h, negative e_r-target of h). The workload's
// own edge lists therefore fix the violation set, and an inserted or
// deleted feeds edge s->h adds or removes exactly weight(h) violations,
// the number of negative targets of h summed over the rules.

#include <algorithm>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "batch.h"
#include "core/parser.h"
#include "detect/inc_dect.h"
#include "detect/vio_stream.h"
#include "graph/snapshot_io.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "util/rng.h"

namespace ngdperf {
namespace {

using ngd::Status;

struct HubModel {
  uint32_t hubs = 0;  ///< node ids [0, hubs)
  uint32_t spokes = 0;  ///< node ids [hubs, hubs + spokes)
  uint32_t edge_labels = 0;
  std::vector<uint32_t> rule_label;  ///< per rule: index of its e* label
  std::vector<char> negative;        ///< per node: val = -1
  /// Per hub: distinct (label index, target) out-edges, sorted.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> hub_out;
  /// Distinct (spoke, hub) feeds edges.
  std::vector<std::pair<uint32_t, uint32_t>> feeds;

  /// Negative e_r-targets of hub h.
  std::vector<uint32_t> NegativeTargets(uint32_t h, uint32_t label) const {
    std::vector<uint32_t> out;
    for (const auto& [l, dst] : hub_out[h]) {
      if (l == label && negative[dst]) out.push_back(dst);
    }
    return out;
  }
  /// Violations one feeds edge into hub h takes part in.
  uint64_t Weight(uint32_t h) const {
    uint64_t w = 0;
    for (uint32_t label : rule_label) w += NegativeTargets(h, label).size();
    return w;
  }
};

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

ngd::StatusOr<HubModel> BuildHubModel(const Params& p, uint64_t seed) {
  HubModel m;
  m.hubs = static_cast<uint32_t>(p.Int("hubs"));
  m.spokes = static_cast<uint32_t>(p.Int("spokes"));
  m.edge_labels = static_cast<uint32_t>(p.Int("edge_labels"));
  const int64_t rules = p.Int("rules");
  const int64_t fanout = p.Int("fanout");
  const int64_t feeds_per_hub = p.Int("feeds_per_hub");
  if (m.hubs == 0 || m.spokes == 0 || rules <= 0 || fanout <= 0 ||
      m.edge_labels < static_cast<uint32_t>(rules) || m.edge_labels % 7 == 0) {
    return Status::InvalidArgument(
        "hub model needs hubs, spokes, rules > 0 and edge_labels >= rules, "
        "coprime to 7 (so every rule gets its own label)");
  }
  for (int64_t r = 0; r < rules; ++r) {
    m.rule_label.push_back(static_cast<uint32_t>((r * 7) % m.edge_labels));
  }
  ngd::Rng rng(seed);
  const double negative_rate = p.Real("negative_rate");
  m.negative.assign(m.hubs + m.spokes, 0);
  for (uint32_t s = m.hubs; s < m.hubs + m.spokes; ++s) {
    m.negative[s] = rng.Bernoulli(negative_rate) ? 1 : 0;
  }
  auto spoke = [&] {
    return m.hubs + static_cast<uint32_t>(rng.NextUint64() % m.spokes);
  };
  m.hub_out.resize(m.hubs);
  std::unordered_set<uint64_t> fed;
  for (uint32_t h = 0; h < m.hubs; ++h) {
    auto& out = m.hub_out[h];
    for (int64_t k = 0; k < fanout; ++k) {
      out.emplace_back(static_cast<uint32_t>(k % m.edge_labels), spoke());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    for (int64_t k = 0; k < feeds_per_hub; ++k) {
      const uint32_t s = spoke();
      if (fed.insert(PairKey(s, h)).second) m.feeds.emplace_back(s, h);
    }
  }
  return m;
}

std::string RuleName(size_t r) { return "hub_r" + std::to_string(r); }

std::string RulesText(const HubModel& m) {
  std::string text;
  for (size_t r = 0; r < m.rule_label.size(); ++r) {
    text += "ngd " + RuleName(r) + " {\n  match (x)-[feeds]->(y), (y)-[e" +
            std::to_string(m.rule_label[r]) +
            "]->(z)\n  then z.val >= 0\n}\n";
  }
  return text;
}

/// Builds the graph, writes it as a binary snapshot and writes the rules.
Status WriteHubInputs(const HubModel& m, const std::string& snapshot_path,
                      const std::string& rules_path) {
  ngd::SchemaPtr schema = ngd::Schema::Create();
  ngd::Graph g(schema);
  const ngd::LabelId hub = schema->InternLabel("hub");
  const ngd::LabelId spoke = schema->InternLabel("spoke");
  const ngd::LabelId feeds = schema->InternLabel("feeds");
  const ngd::AttrId val = schema->InternAttr("val");
  std::vector<ngd::LabelId> labels;
  for (uint32_t l = 0; l < m.edge_labels; ++l) {
    labels.push_back(schema->InternLabel("e" + std::to_string(l)));
  }
  for (uint32_t v = 0; v < m.hubs + m.spokes; ++v) {
    g.AddNode(v < m.hubs ? hub : spoke);
    g.SetAttr(v, val, ngd::Value(int64_t{m.negative[v] ? -1 : 1}));
  }
  for (uint32_t h = 0; h < m.hubs; ++h) {
    for (const auto& [l, dst] : m.hub_out[h]) {
      Status s = g.AddEdge(h, dst, labels[l]);
      if (!s.ok()) return s;
    }
  }
  for (const auto& [s, h] : m.feeds) {
    Status st = g.AddEdge(s, h, feeds);
    if (!st.ok()) return st;
  }
  Status s = ngd::SaveSnapshotFile(ngd::GraphSnapshot(g, ngd::GraphView::kNew),
                                   snapshot_path);
  if (!s.ok()) return s;
  return WriteTextFile(rules_path, RulesText(m));
}

/// The violation set implied by the edge lists.
Expected HubExpected(const HubModel& m) {
  std::vector<std::vector<uint32_t>> feeders(m.hubs);
  for (const auto& [s, h] : m.feeds) feeders[h].push_back(s);
  Expected e;
  for (size_t r = 0; r < m.rule_label.size(); ++r) {
    const uint64_t rh = RuleHash(RuleName(r));
    for (uint32_t h = 0; h < m.hubs; ++h) {
      for (uint32_t z : m.NegativeTargets(h, m.rule_label[r])) {
        for (uint32_t x : feeders[h]) {
          const uint32_t nodes[3] = {x, h, z};
          ++e.count;
          e.digest += ViolationDigest(rh, nodes, 3);
        }
      }
    }
  }
  return e;
}

std::string HubSnapshotPath(const Context& ctx) { return ctx.dir + "/hub.ngds"; }
std::string HubRulesPath(const Context& ctx) { return ctx.dir + "/hub.ngd"; }
std::string HubExpectPath(const Context& ctx) {
  return ctx.dir + "/hub.expect";
}

}  // namespace

ngd::StatusOr<double> SetupHubScan(const Context& ctx) {
  const Clock::time_point start = Clock::now();
  auto m = BuildHubModel(ctx.params, ctx.seed);
  if (!m.ok()) return m.status();
  Status s = WriteHubInputs(*m, HubSnapshotPath(ctx), HubRulesPath(ctx));
  if (!s.ok()) return s;
  s = WriteExpected(HubExpectPath(ctx), HubExpected(*m));
  if (!s.ok()) return s;
  return SecondsSince(start);
}

Report RunHubScan(const Context& ctx) {
  BatchSpec spec;
  spec.graph_path = HubSnapshotPath(ctx);
  spec.rules_path = HubRulesPath(ctx);
  spec.processors = 4;
  auto want = ReadExpected(HubExpectPath(ctx));
  if (!want.ok()) return FailedReport(want.status());
  return RunBatchWorkload(ctx, spec, *want);
}

// ---- update_stream ---------------------------------------------------------
//
// Feeds-edge churn epochs on the hub graph, each one
//   ApplyUpdateBatch -> UpdateLog::Append + Sync -> IncDect -> read ΔVio
//   -> Graph::Commit.
// A cycle starts from the epoch-0 snapshot with a fresh journal, runs
// `epochs_per_cycle` epochs and ends with RecoverState from that snapshot
// plus the journal, whose graph must fingerprint-match the live one. Cycles
// repeat until the time budget and `min_epochs` are both used up, so every
// recovery replays the same number of epochs.

ngd::StatusOr<double> SetupUpdateStream(const Context& ctx) {
  const Clock::time_point start = Clock::now();
  auto m = BuildHubModel(ctx.params, ctx.seed);
  if (!m.ok()) return m.status();
  Status s = WriteHubInputs(*m, HubSnapshotPath(ctx), HubRulesPath(ctx));
  if (!s.ok()) return s;
  return SecondsSince(start);
}

namespace {

struct Epoch {
  ngd::UpdateBatch batch;
  uint64_t want_added = 0;
  uint64_t want_removed = 0;
};

/// The benchmark's own view of the feeds edges, which decides each
/// epoch's expected ΔVio.
class FeedsBook {
 public:
  FeedsBook(const HubModel& m, ngd::LabelId feeds) : m_(m), feeds_(feeds) {
    for (uint32_t h = 0; h < m.hubs; ++h) weight_.push_back(m.Weight(h));
    for (const auto& e : m.feeds) Insert(e);
  }

  /// Half deletions of present feeds edges, half insertions of absent
  /// ones, all distinct, so every update is effective.
  Epoch Next(size_t updates, ngd::Rng* rng) {
    Epoch ep;
    const size_t deletes = std::min(updates / 2, edges_.size());
    for (size_t i = 0; i < deletes; ++i) {
      const size_t j = static_cast<size_t>(rng->NextUint64() % edges_.size());
      const auto e = edges_[j];
      Erase(j);
      ep.batch.updates.push_back(
          {ngd::UpdateKind::kDelete, e.first, e.second, feeds_});
      ep.want_removed += weight_[e.second];
    }
    while (ep.batch.updates.size() < updates) {
      const uint32_t s =
          m_.hubs + static_cast<uint32_t>(rng->NextUint64() % m_.spokes);
      const uint32_t h = static_cast<uint32_t>(rng->NextUint64() % m_.hubs);
      if (present_.count(PairKey(s, h)) != 0 ||
          deleted_.count(PairKey(s, h)) != 0) {
        continue;
      }
      Insert({s, h});
      ep.batch.updates.push_back({ngd::UpdateKind::kInsert, s, h, feeds_});
      ep.want_added += weight_[h];
    }
    deleted_.clear();
    return ep;
  }

 private:
  void Insert(std::pair<uint32_t, uint32_t> e) {
    present_.insert(PairKey(e.first, e.second));
    edges_.push_back(e);
  }
  void Erase(size_t j) {
    const auto e = edges_[j];
    present_.erase(PairKey(e.first, e.second));
    deleted_.insert(PairKey(e.first, e.second));
    edges_[j] = edges_.back();
    edges_.pop_back();
  }

  const HubModel& m_;
  ngd::LabelId feeds_;
  std::vector<uint64_t> weight_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::unordered_set<uint64_t> present_;
  std::unordered_set<uint64_t> deleted_;  ///< this epoch's deletions
};

uint64_t Fingerprint(const ngd::Graph& g) {
  return ngd::SnapshotFingerprint(ngd::GraphSnapshot(g, ngd::GraphView::kNew));
}

uint64_t Drain(const ngd::VioSet& set, Status* status) {
  auto cursor = set.OpenCursor();
  if (!cursor.ok()) {
    *status = cursor.status();
    return 0;
  }
  uint64_t n = 0;
  ngd::Violation v;
  while (cursor->Next(&v)) ++n;
  if (!cursor->status().ok()) *status = cursor->status();
  return n;
}

}  // namespace

Report RunUpdateStream(const Context& ctx) {
  Report report;
  auto model = BuildHubModel(ctx.params, ctx.seed);
  if (!model.ok()) return FailedReport(model.status());
  const HubModel& m = *model;
  auto text = ReadTextFile(HubRulesPath(ctx));
  if (!text.ok()) return FailedReport(text.status());
  const size_t updates = static_cast<size_t>(ctx.params.Int("epoch_updates"));
  const size_t per_cycle = static_cast<size_t>(ctx.params.Int("epochs_per_cycle"));
  const size_t min_epochs = static_cast<size_t>(ctx.params.Int("min_epochs"));
  const std::string snapshot_path = HubSnapshotPath(ctx);
  const std::string wal_path = ctx.dir + "/stream.wal";

  Tracer tracer;
  ngd::Rng rng(ctx.seed + 7);
  std::vector<double> epoch_s, recover_s, untraced_epoch_s;
  std::vector<double> pivots, added, removed;
  uint64_t journalled_updates = 0;
  uint64_t wal_bytes = 0;
  double replayed = 0;
  // A traced run spends its first half untraced, for the overhead figure.
  bool tracing = false;

  CpuRotation cpus;
  auto cycle = [&]() -> Status {
    cpus.Next();  // the stream is single-threaded
    Tracer* tt = tracing ? &tracer : nullptr;
    ngd::SchemaPtr schema = ngd::Schema::Create();
    std::unique_ptr<ngd::GraphSnapshot> snap;
    {
      ScopedSpan span(tt, "graph.LoadSnapshotFile");
      auto loaded = ngd::LoadSnapshotFile(snapshot_path, schema);
      if (!loaded.ok()) return loaded.status();
      snap = std::move(loaded).value();
    }
    std::unique_ptr<ngd::Graph> g;
    {
      ScopedSpan span(tt, "graph.MaterializeGraph");
      auto mg = ngd::MaterializeGraph(*snap);
      if (!mg.ok()) return mg.status();
      g = std::move(mg).value();
    }
    snap.reset();
    ngd::StatusOr<ngd::NgdSet> sigma = ngd::NgdSet();
    {
      ScopedSpan span(tt, "core.ParseNgds");
      sigma = ngd::ParseNgds(*text, schema);
    }
    if (!sigma.ok()) return sigma.status();
    auto wal = ngd::UpdateLog::Create(wal_path, 0);
    if (!wal.ok()) return wal.status();
    FeedsBook book(m, schema->InternLabel("feeds"));

    for (size_t e = 1; e <= per_cycle; ++e) {
      Epoch ep = book.Next(updates, &rng);
      ++report.attempted;
      Status s;
      uint64_t got_added = 0;
      uint64_t got_removed = 0;
      double probe_s = 0.0;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan epoch_span(tt, "bench.epoch");
        {
          ScopedSpan span(tt, "graph.ApplyUpdateBatch");
          s = ngd::ApplyUpdateBatch(g.get(), &ep.batch);
        }
        if (s.ok() && ep.batch.size() != updates) {
          s = Status::Internal("only " + std::to_string(ep.batch.size()) +
                               " of " + std::to_string(updates) +
                               " updates were effective");
        }
        if (s.ok()) {
          ScopedSpan span(tt, "graph.UpdateLog.AppendSync");
          const ngd::EpochRecord rec = ngd::EpochRecord::Capture(
              *g, ep.batch, static_cast<ngd::NodeId>(g->NumNodes()), e);
          s = (*wal)->Append(rec);
          if (s.ok()) s = (*wal)->Sync();
        }
        if (s.ok()) {
          ngd::StatusOr<ngd::DeltaVio> delta = ngd::DeltaVio();
          {
            ScopedSpan span(tt, "detect.IncDect");
            delta = ngd::IncDect(*g, *sigma, ep.batch);
          }
          if (!delta.ok()) {
            s = delta.status();
          } else {
            ScopedSpan span(tt, "detect.VioCursor");
            got_added = Drain(delta->added, &s);
            got_removed = Drain(delta->removed, &s);
          }
        }
        if (s.ok() && tt != nullptr) {
          // Pivot count of the epoch: not part of its latency.
          const Clock::time_point p0 = Clock::now();
          ScopedSpan span(tt, "probe.EnumeratePivotTasks");
          const ngd::UpdateIndex index(*g, ep.batch);
          pivots.push_back(static_cast<double>(
              ngd::EnumeratePivotTasks(*g, *sigma, index).size()));
          probe_s = SecondsSince(p0);
        }
        ScopedSpan span(tt, "graph.Commit");
        g->Commit();
      }
      const double lat = SecondsSince(t0) - probe_s;
      (tracing ? epoch_s : untraced_epoch_s).push_back(lat);
      if (!s.ok()) {
        report.Fail("epoch: " + s.ToString());
      } else if (got_added != ep.want_added || got_removed != ep.want_removed) {
        report.Fail("epoch: ΔVio +" + std::to_string(got_added) + " -" +
                    std::to_string(got_removed) + ", expected +" +
                    std::to_string(ep.want_added) + " -" +
                    std::to_string(ep.want_removed));
      }
      added.push_back(static_cast<double>(got_added));
      removed.push_back(static_cast<double>(got_removed));
      journalled_updates += ep.batch.size();
    }
    wal->reset();
    wal_bytes += FileBytes(wal_path);

    ++report.attempted;
    const Clock::time_point r0 = Clock::now();
    ngd::StatusOr<ngd::RecoverResult> rec = ngd::RecoverResult();
    {
      ScopedSpan span(tt, "graph.RecoverState");
      rec = ngd::RecoverState(snapshot_path, wal_path, ngd::Schema::Create());
    }
    recover_s.push_back(SecondsSince(r0));
    if (!rec.ok()) {
      report.Fail("recover: " + rec.status().ToString());
    } else if (rec->replayed_records != per_cycle ||
               Fingerprint(*rec->graph) != Fingerprint(*g)) {
      report.Fail("recover: replayed " + std::to_string(rec->replayed_records) +
                  " epochs; recovered graph differs from the live one");
    } else {
      replayed = static_cast<double>(rec->replayed_records);
    }
    return Status::OK();
  };

  auto run_cycles = [&](double seconds, size_t min_samples,
                        std::vector<double>* samples) {
    const Clock::time_point phase = Clock::now();
    while (samples->size() < min_samples || SecondsSince(phase) < seconds) {
      Status s = cycle();
      if (!s.ok()) {
        ++report.attempted;
        report.Fail("cycle: " + s.ToString());
        return;
      }
    }
  };

  if (!ctx.trace) {
    run_cycles(ctx.seconds, min_epochs, &untraced_epoch_s);
    report.metrics["check_p50_ms"] = Median(untraced_epoch_s) * 1e3;
    report.metrics["peak_rss_mb"] = PeakRssMb();
    return report;
  }
  // The untraced half only needs a median to subtract; the traced half
  // needs min_epochs for its p95.
  run_cycles(ctx.seconds / 2, 1, &untraced_epoch_s);
  tracing = true;
  recover_s.clear();
  added.clear();
  removed.clear();
  journalled_updates = 0;
  wal_bytes = 0;
  run_cycles(ctx.seconds / 2, min_epochs, &epoch_s);

  auto& mt = report.metrics;
  mt["trace.overhead_ms"] = (Median(epoch_s) - Median(untraced_epoch_s)) * 1e3;
  AddLayerSelfTimes(tracer, epoch_s.size(), &report);
  mt["stream.epoch_p95_ms"] = Percentile(epoch_s, 0.95) * 1e3;
  double total = 0;
  for (double s : epoch_s) total += s;
  mt["stream.updates_per_s"] =
      total > 0 ? static_cast<double>(updates * epoch_s.size()) / total : 0.0;
  mt["graph.snapshot_load_s"] = MedianSpan(tracer, "graph.LoadSnapshotFile");
  mt["graph.materialize_s"] = MedianSpan(tracer, "graph.MaterializeGraph");
  mt["graph.apply_s"] = MedianSpan(tracer, "graph.ApplyUpdateBatch");
  mt["graph.commit_s"] = MedianSpan(tracer, "graph.Commit");
  mt["graph.wal_append_sync_s"] =
      MedianSpan(tracer, "graph.UpdateLog.AppendSync");
  mt["graph.wal_bytes_per_update"] =
      journalled_updates > 0
          ? static_cast<double>(wal_bytes) / static_cast<double>(journalled_updates)
          : 0.0;
  mt["graph.recover_s"] = Median(recover_s);
  mt["graph.replayed_records"] = replayed;
  mt["detect.pivots"] = Median(pivots);
  mt["detect.incdect_s"] = MedianSpan(tracer, "detect.IncDect");
  const double drain_s = MedianSpan(tracer, "detect.VioCursor");
  mt["detect.cursor_drain_s"] = drain_s;
  mt["detect.cursor_records_per_s"] =
      drain_s > 0 ? (Median(added) + Median(removed)) / drain_s : 0.0;
  mt["core.parse_s"] = MedianSpan(tracer, "core.ParseNgds");
  mt["detect.delta_added"] = Median(added);
  mt["detect.delta_removed"] = Median(removed);
  Status w = tracer.WriteChromeTrace(ctx.trace_path);
  if (!w.ok()) std::cerr << "ngdperf: " << w.ToString() << "\n";
  return report;
}

}  // namespace ngdperf
