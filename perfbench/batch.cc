#include "batch.h"

#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/vio_stream.h"
#include "graph/graph_io.h"
#include "graph/snapshot_io.h"
#include "match/homomorphism.h"
#include "parallel/cluster.h"
#include "parallel/pdect.h"

namespace ngdperf {
namespace {

using ngd::Status;

constexpr size_t kMinChecks = 3;
constexpr int kParserThreads = 4;  // the benchmark's thread cap
constexpr double kMB = 1e6;

/// What one check leaves behind; the traced run's probes reuse it.
struct CheckState {
  ngd::SchemaPtr schema;
  std::unique_ptr<ngd::GraphSnapshot> snapshot;  ///< snapshot input only
  std::unique_ptr<ngd::Graph> graph;
  ngd::NgdSet sigma;  ///< after minimization
  size_t rules_in = 0;
  ngd::OptimizeReport optimize;
  ngd::VioSet vio;
  uint64_t count = 0;
  uint64_t digest = 0;
  double total_s = 0.0;
};

/// One cold check, in ngdcheck's order. Time runs from opening the graph
/// file to reading the last violation from the cursor.
Status RunBatchCheck(const BatchSpec& spec, Tracer* t, CheckState* st) {
  ScopedSpan root(t, "bench.check");
  const Clock::time_point start = Clock::now();
  st->schema = ngd::Schema::Create();
  if (ngd::SniffSnapshotFile(spec.graph_path)) {
    {
      ScopedSpan span(t, "graph.LoadSnapshotFile");
      auto snap = ngd::LoadSnapshotFile(spec.graph_path, st->schema);
      if (!snap.ok()) return snap.status();
      st->snapshot = std::move(snap).value();
    }
    ScopedSpan span(t, "graph.MaterializeGraph");
    auto g = ngd::MaterializeGraph(*st->snapshot);
    if (!g.ok()) return g.status();
    st->graph = std::move(g).value();
  } else {
    ScopedSpan span(t, "graph.LoadGraphFile");
    ngd::IngestOptions ingest;
    ingest.threads = kParserThreads;
    auto g = ngd::LoadGraphFile(spec.graph_path, st->schema, ingest);
    if (!g.ok()) return g.status();
    st->graph = std::move(g).value();
  }

  auto text = ReadTextFile(spec.rules_path);
  if (!text.ok()) return text.status();
  {
    ScopedSpan span(t, "core.ParseNgds");
    auto sigma = ngd::ParseNgds(*text, st->schema);
    if (!sigma.ok()) return sigma.status();
    st->sigma = std::move(sigma).value();
  }
  st->rules_in = st->sigma.size();
  if (spec.minimize_sigma) {
    ScopedSpan span(t, "reason.MinimizeSigma");
    ngd::MinimizedSigma m = ngd::MinimizeSigma(st->sigma, st->schema);
    st->optimize = std::move(m.report);
    st->sigma = std::move(m.sigma);
  }

  if (spec.processors > 0) {
    ScopedSpan span(t, "parallel.PDect");
    ngd::PDectOptions p;
    p.num_processors = spec.processors;
    p.snapshot = st->snapshot.get();
    p.spill = spec.spill;
    st->vio = ngd::PDect(*st->graph, st->sigma, p).vio;
  } else {
    ScopedSpan span(t, "detect.Dect");
    ngd::DectOptions d;
    d.snapshot = st->snapshot.get();
    d.spill = spec.spill;
    st->vio = ngd::Dect(*st->graph, st->sigma, d);
  }
  Status spilled = st->vio.spill_status();
  if (!spilled.ok()) return spilled;

  std::vector<uint64_t> rule_hash;
  for (const ngd::Ngd& r : st->sigma.ngds()) rule_hash.push_back(RuleHash(r.name()));
  {
    ScopedSpan span(t, "detect.VioCursor");
    auto cursor = st->vio.OpenCursor();
    if (!cursor.ok()) return cursor.status();
    ngd::Violation v;
    while (cursor->Next(&v)) {
      ++st->count;
      st->digest += ViolationDigest(rule_hash[static_cast<size_t>(v.ngd_index)],
                                    v.nodes.data(), v.nodes.size());
    }
    if (!cursor->status().ok()) return cursor->status();
  }
  st->total_s = SecondsSince(start);
  return Status::OK();
}

/// Runs `fn` `reps` times under a span called `name`; median seconds.
double TimeMedian(Tracer* t, const std::string& name, int reps,
                  const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(t, name);
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start));
  }
  return Median(samples);
}

void CheckCount(const char* what, uint64_t got, const Expected& want,
                Report* report) {
  ++report->attempted;
  if (got != want.count) {
    report->Fail(std::string(what) + ": " + std::to_string(got) +
                 " violations, expected " + std::to_string(want.count));
  }
}

/// match layer: RunBatchSearch per rule against the check's snapshot,
/// enumerating every match, then only violations.
void ProbeMatch(const ngd::GraphSnapshot& snap, const ngd::NgdSet& sigma,
                const Expected& want, Tracer* t, Report* report) {
  uint64_t matches = 0;
  uint64_t violations = 0;
  auto sweep = [&](bool find_violations, uint64_t* counter) {
    *counter = 0;
    for (const ngd::Ngd& r : sigma.ngds()) {
      ngd::SearchConfig c;
      c.snapshot = &snap;
      c.pattern = &r.pattern();
      c.x = &r.X();
      c.y = &r.Y();
      c.find_violations = find_violations;
      ngd::RunBatchSearch(c, [counter](const ngd::Binding&) {
        ++*counter;
        return true;
      });
    }
  };
  const double enumerate_s =
      TimeMedian(t, "match.RunBatchSearch(all)", 3,
                 [&] { sweep(false, &matches); });
  const double search_s =
      TimeMedian(t, "match.RunBatchSearch(violations)", 3,
                 [&] { sweep(true, &violations); });
  CheckCount("match probe", violations, want, report);
  report->metrics["match.matches"] = static_cast<double>(matches);
  report->metrics["match.enumerate_s"] = enumerate_s;
  report->metrics["match.search_s"] = search_s;
  report->metrics["match.violations_per_match"] =
      matches == 0 ? 0.0
                   : static_cast<double>(violations) /
                         static_cast<double>(matches);
}

/// parallel layer: PDect over a prebuilt FragmentRuntime at p=4 and p=1.
void ProbeParallel(const ngd::Graph& g, const ngd::NgdSet& sigma,
                   const Expected& want, Tracer* t, Report* report) {
  const int halo = sigma.MaxDiameter();
  std::unique_ptr<ngd::FragmentRuntime> rt4;
  report->metrics["parallel.runtime_build_s"] =
      TimeMedian(t, "parallel.FragmentRuntime(p=4)", 3, [&] {
        rt4.reset();
        rt4 = std::make_unique<ngd::FragmentRuntime>(g, 4, ngd::GraphView::kNew,
                                                     halo);
      });
  report->metrics["parallel.halo_nodes"] =
      static_cast<double>(rt4->total_halo_nodes());
  report->metrics["parallel.crossing_edges"] =
      static_cast<double>(rt4->partition().crossing_edges);

  auto run = [&](const ngd::FragmentRuntime& rt, int p, const char* name) {
    ngd::PDectResult last;
    const double s = TimeMedian(t, name, 3, [&] {
      ngd::PDectOptions o;
      o.num_processors = p;
      o.runtime = &rt;
      last = ngd::PDect(g, sigma, o);
    });
    CheckCount(name, last.vio.size(), want, report);
    return std::make_pair(s, last.metrics);
  };
  const auto [p4_s, m] = run(*rt4, 4, "parallel.PDect(runtime,p=4)");
  rt4.reset();
  std::unique_ptr<ngd::FragmentRuntime> rt1;
  {
    ScopedSpan span(t, "parallel.FragmentRuntime(p=1)");
    rt1 = std::make_unique<ngd::FragmentRuntime>(g, 1, ngd::GraphView::kNew,
                                                 halo);
  }
  const double p1_s = run(*rt1, 1, "parallel.PDect(runtime,p=1)").first;
  report->metrics["parallel.pdect_s"] = p4_s;
  report->metrics["parallel.pdect_p1_s"] = p1_s;
  report->metrics["parallel.speedup_p4"] = p4_s > 0 ? p1_s / p4_s : 0.0;
  report->metrics["parallel.messages"] = static_cast<double>(m.messages);
  report->metrics["parallel.forwards"] = static_cast<double>(m.forwards);
  report->metrics["parallel.splits"] = static_cast<double>(m.splits);
  report->metrics["parallel.steals"] = static_cast<double>(m.steals);
  report->metrics["parallel.inline_runs"] = static_cast<double>(m.inline_runs);
  report->metrics["parallel.peak_queue_depth"] =
      static_cast<double>(m.peak_queue_depth);
}

/// Size of the spill segments the last check left under `prefix`.
uint64_t SpillBytes(const std::string& prefix) {
  namespace fs = std::filesystem;
  const fs::path p(prefix);
  const std::string stem = p.filename().string();
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(p.parent_path(), ec)) {
    if (e.path().filename().string().rfind(stem, 0) == 0) {
      total += FileBytes(e.path().string());
    }
  }
  return total;
}

}  // namespace

ngd::StatusOr<Expected> ReadExpected(const std::string& path) {
  auto text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  std::istringstream in(*text);
  Expected e;
  if (!(in >> e.count >> e.digest)) {
    return Status::Corruption("malformed expected-output file " + path);
  }
  return e;
}

Status WriteExpected(const std::string& path, const Expected& e) {
  return WriteTextFile(path, std::to_string(e.count) + " " +
                                 std::to_string(e.digest) + "\n");
}

Report RunBatchWorkload(const Context& ctx, const BatchSpec& spec,
                        const Expected& want) {
  Report report;
  CpuRotation cpus;
  auto one_check = [&](Tracer* t, CheckState* st) {
    // Sequential checks run on one thread; parallel ones use every CPU.
    if (spec.processors == 0) cpus.Next();
    // A fresh ngdcheck process starts with an empty kept-set cache.
    if (spec.minimize_sigma) ngd::ClearSigmaOptimizerCache();
    ++report.attempted;
    Status s = RunBatchCheck(spec, t, st);
    if (!s.ok()) {
      report.Fail("check: " + s.ToString());
    } else if (st->count != want.count || st->digest != want.digest) {
      report.Fail("check: " + std::to_string(st->count) +
                  " violations (digest " + std::to_string(st->digest) +
                  "), expected " + std::to_string(want.count) + " (digest " +
                  std::to_string(want.digest) + ")");
    }
  };

  // The traced run splits its time between untraced and traced checks;
  // the difference of their medians is the tracing overhead.
  const double untraced_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const std::vector<double> totals = RunFor(untraced_s, kMinChecks, [&] {
    CheckState st;
    one_check(nullptr, &st);
    return st.total_s;
  });
  if (!ctx.trace) {
    report.metrics["check_p50_ms"] = Median(totals) * 1e3;
    report.metrics["peak_rss_mb"] = PeakRssMb();
    return report;
  }

  Tracer tracer;
  Tracer* const t = &tracer;
  CheckState last;
  const std::vector<double> traced = RunFor(ctx.seconds / 2, kMinChecks, [&] {
    last = CheckState();  // free the previous check's graph first
    one_check(t, &last);
    return last.total_s;
  });
  auto& m = report.metrics;
  m["trace.overhead_ms"] = (Median(traced) - Median(totals)) * 1e3;
  AddLayerSelfTimes(tracer, traced.size(), &report);

  if (last.snapshot != nullptr) {
    m["graph.snapshot_load_s"] = MedianSpan(tracer, "graph.LoadSnapshotFile");
    m["graph.materialize_s"] = MedianSpan(tracer, "graph.MaterializeGraph");
  } else {
    const double load_s = MedianSpan(tracer, "graph.LoadGraphFile");
    m["graph.tsv_load_s"] = load_s;
    m["graph.tsv_mb_per_s"] =
        load_s > 0 ? static_cast<double>(FileBytes(spec.graph_path)) / kMB /
                         load_s
                   : 0.0;
  }
  m["core.parse_s"] = MedianSpan(tracer, "core.ParseNgds");
  if (spec.minimize_sigma) {
    m["reason.minimize_s"] = MedianSpan(tracer, "reason.MinimizeSigma");
    m["reason.rules_in"] = static_cast<double>(last.rules_in);
    m["reason.rules_kept"] = static_cast<double>(last.optimize.kept.size());
    m["reason.implication_checks"] =
        static_cast<double>(last.optimize.implication_checks);
  }
  const double drain_s = MedianSpan(tracer, "detect.VioCursor");
  m["detect.violations"] = static_cast<double>(last.count);
  m["detect.cursor_drain_s"] = drain_s;
  m["detect.cursor_records_per_s"] =
      drain_s > 0 ? static_cast<double>(last.count) / drain_s : 0.0;
  m["detect.vioset_peak_mb"] =
      static_cast<double>(last.vio.peak_resident_bytes()) / kMB;
  if (spec.spill != nullptr) {
    m["detect.spill_segments"] =
        static_cast<double>(last.vio.num_spill_segments());
    m["detect.spill_mb"] =
        static_cast<double>(SpillBytes(spec.spill->path_prefix)) / kMB;
  }

  if (last.graph == nullptr) {
    report.Fail("traced checks left no graph to probe");
  } else {
    // The layers below the check, timed call by call on its inputs.
    last.vio = ngd::VioSet();
    std::unique_ptr<ngd::GraphSnapshot> built;
    m["graph.snapshot_build_s"] =
        TimeMedian(t, "graph.GraphSnapshot", 3, [&] {
          built.reset();
          built = std::make_unique<ngd::GraphSnapshot>(*last.graph,
                                                       ngd::GraphView::kNew);
        });
    const ngd::GraphSnapshot& snap =
        last.snapshot != nullptr ? *last.snapshot : *built;
    ProbeMatch(snap, last.sigma, want, t, &report);
    built.reset();
    if (spec.processors == 0) {
      m["detect.dect_s"] = MedianSpan(tracer, "detect.Dect");
      m["detect.emit_s"] = m["detect.dect_s"] - m["match.search_s"];
    }
    if (spec.processors > 0) {
      ProbeParallel(*last.graph, last.sigma, want, t, &report);
    }
  }
  Status w = tracer.WriteChromeTrace(ctx.trace_path);
  if (!w.ok()) std::cerr << "ngdperf: " << w.ToString() << "\n";
  return report;
}

}  // namespace ngdperf
