#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/hash.h"

namespace ngdperf {

const std::string& Params::Raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::cerr << "ngdperf: missing workload parameter " << key << "\n";
    std::exit(2);
  }
  return it->second;
}

int64_t Params::Int(const std::string& key) const {
  const std::string& raw = Raw(key);
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    std::cerr << "ngdperf: parameter " << key << " is not an integer: "
              << raw << "\n";
    std::exit(2);
  }
  return v;
}

double Params::Real(const std::string& key) const {
  const std::string& raw = Raw(key);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(v)) {
    std::cerr << "ngdperf: parameter " << key << " is not a number: " << raw
              << "\n";
    std::exit(2);
  }
  return v;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  spans_[static_cast<size_t>(id)].start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(id)].end_ns = now;
  // Spans close in LIFO order (ScopedSpan), so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<char> in_op(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // A parent precedes its children, so its flag is already known.
    in_op[i] = s.parent < 0 ? s.name.rfind("bench.", 0) == 0
                            : in_op[static_cast<size_t>(s.parent)];
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    if (!in_op[i] || s.end_ns < 0 || layer == "probe") continue;
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                  1e9;
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  return out;
}

ngd::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Complete ("X") events in microseconds; span names are identifiers,
    // so they need no JSON escaping.
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (first ? "" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << buf
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << "}}";
    first = false;
  }
  os << "\n]}\n";
  return WriteTextFile(path, os.str());
}

void Report::Fail(const std::string& what) {
  ++failed;
  // Keep the first few messages; a systematic failure repeats per check.
  if (errors.size() < 8) errors.push_back(what);
}

Report FailedReport(const ngd::Status& s) {
  Report r;
  r.attempted = 1;
  r.Fail(s.ToString());
  return r;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE && cpus_.size() < 4; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  // Best effort: on failure the thread just stays where it is.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

uint64_t RuleHash(const std::string& rule_name) {
  return ngd::Fnv1a64(rule_name.data(), rule_name.size());
}

uint64_t ViolationDigest(uint64_t rule_hash, const uint32_t* nodes,
                         size_t len) {
  return ngd::Fnv1a64(nodes, len * sizeof(uint32_t), rule_hash);
}

ngd::Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return ngd::Status::Internal("cannot write " + path);
  return ngd::Status::OK();
}

ngd::StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return ngd::Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void AddLayerSelfTimes(const Tracer& tracer, size_t ops, Report* report) {
  if (ops == 0) return;
  for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
    report->metrics[layer + ".self_s"] = seconds / static_cast<double>(ops);
  }
}

}  // namespace ngdperf
