// Shared plumbing of the ngdperf benchmark binary: workload parameters,
// the span tracer, the per-run report and small statistics helpers.
//
// ngdperf links libngd and calls only its public entry points, in the
// order ngdcheck does. Tracing wraps those calls from the outside: a span
// per call, kept in memory, written as Chrome trace-event JSON at exit.

#ifndef NGDPERF_COMMON_H_
#define NGDPERF_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace ngdperf {

/// key=value workload parameters, as listed in workloads.json.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  /// Aborts the run with a message when `key` is missing or malformed:
  /// every parameter a workload reads is required, so a typo in
  /// workloads.json cannot silently fall back to a default.
  int64_t Int(const std::string& key) const;
  double Real(const std::string& key) const;

 private:
  const std::string& Raw(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// In-memory span recorder. A span is one public library call: its name
/// ("<layer>.<Call>"), start, end and the span that was open when it
/// began. A null Tracer* means tracing is off and spans cost nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name);
  void End(int id);

  /// Self time per layer (the name before the first '.'): each span's
  /// duration minus the part of it its direct children cover, summed over
  /// the spans inside a measured operation (a root span named "bench.*").
  /// Layer "probe" marks extra calls a traced operation makes only to
  /// count something; they are charged to no layer.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  [[nodiscard]] ngd::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// What one `ngdperf run` reports. Checks (or epochs) are the attempted
/// operations; one fails on a non-OK Status or an output that does not
/// match the workload's expected result.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void Fail(const std::string& what);
};

/// A report for a run that could not start: one attempt, failed.
Report FailedReport(const ngd::Status& s);

/// Everything a workload's entry points need.
struct Context {
  Params params;
  uint64_t seed = 0;
  std::string dir;        ///< per-process scratch directory
  std::string trace_path; ///< Chrome trace output of a traced run
  double seconds = 0.0;   ///< measured time budget of the run
  bool trace = false;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// Peak resident set size of this process (getrusage), in MB.
double PeakRssMb();

uint64_t FileBytes(const std::string& path);

/// Order-independent digest of a violation stream: the wrapping sum, over
/// violations, of FNV-1a of the bound node ids seeded with RuleHash of
/// the rule's name. Engines may emit in different orders and number
/// rules differently; equal sets of (rule name, nodes) digest equal.
uint64_t RuleHash(const std::string& rule_name);
uint64_t ViolationDigest(uint64_t rule_hash, const uint32_t* nodes,
                         size_t len);

[[nodiscard]] ngd::Status WriteTextFile(const std::string& path,
                                        const std::string& text);
[[nodiscard]] ngd::StatusOr<std::string> ReadTextFile(const std::string& path);

/// Moves the calling thread round-robin over the CPUs it may run on (at
/// most 4). A single-threaded workload calls Next() before each check, so
/// its samples cover every CPU equally: on a shared host one CPU can run
/// 30% slower than another for minutes, and a thread left on it would set
/// the whole run's median.
class CpuRotation {
 public:
  CpuRotation();
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs `check` until `seconds` have passed and at least `min_runs` runs
/// were made. `check` returns the wall time it measured for one run.
template <typename Fn>
std::vector<double> RunFor(double seconds, size_t min_runs, Fn&& check) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < min_runs || SecondsSince(start) < seconds) {
    samples.push_back(check());
  }
  return samples;
}

/// Adds `<layer>.self_s`, the layer's self time per operation, for every
/// layer seen in `ops` traced operations.
void AddLayerSelfTimes(const Tracer& tracer, size_t ops, Report* report);

/// Median duration of the spans called `name`, 0 when there are none.
inline double MedianSpan(const Tracer& tracer, const std::string& name) {
  return Median(tracer.Durations(name));
}

// Workload entry points. Setup writes every input file into ctx.dir and
// returns the seconds it took; Run measures for ctx.seconds.
ngd::StatusOr<double> SetupKbAudit(const Context& ctx);
Report RunKbAudit(const Context& ctx);
ngd::StatusOr<double> SetupHubScan(const Context& ctx);
Report RunHubScan(const Context& ctx);
ngd::StatusOr<double> SetupViolationFlood(const Context& ctx);
Report RunViolationFlood(const Context& ctx);
ngd::StatusOr<double> SetupUpdateStream(const Context& ctx);
Report RunUpdateStream(const Context& ctx);

}  // namespace ngdperf

#endif  // NGDPERF_COMMON_H_
