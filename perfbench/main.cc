// ngdperf: the benchmark's measuring binary. perfbench/run.py calls it as
//
//   ngdperf setup --workload W --seed N --dir D [--param key=value]...
//   ngdperf run   --workload W --seed N --dir D --seconds S --trace 0|1
//                 [--trace-out FILE] [--param key=value]...
//
// `setup` writes the workload's input files into D and prints
// {"setup_s": ...}; `run` reads them back, measures for S seconds and
// prints {"attempted": ..., "failed": ..., "metrics": {...}}. Exit status
// is 0 when the command ran (failed checks are reported, not fatal) and
// 2 on a usage error or a setup that could not complete.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"

namespace ngdperf {
namespace {

struct Workload {
  const char* name;
  ngd::StatusOr<double> (*setup)(const Context&);
  Report (*run)(const Context&);
};

constexpr Workload kWorkloads[] = {
    {"kb_audit", SetupKbAudit, RunKbAudit},
    {"hub_scan", SetupHubScan, RunHubScan},
    {"violation_flood", SetupViolationFlood, RunViolationFlood},
    {"update_stream", SetupUpdateStream, RunUpdateStream},
};

int Usage(const std::string& why) {
  std::cerr << "ngdperf: " << why
            << "\nusage: ngdperf setup|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--param key=value]...\n";
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  Context ctx;
  std::string workload;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--dir") {
      ctx.dir = value;
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(ctx.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      ctx.trace = value == "1";
    } else if (flag == "--trace-out") {
      ctx.trace_path = value;
    } else if (flag == "--param") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage("--param wants key=value");
      ctx.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || ctx.dir.empty()) return Usage("--seed and --dir are required");
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr) return Usage("unknown workload '" + workload + "'");

  if (command == "setup") {
    ngd::StatusOr<double> s = w->setup(ctx);
    if (!s.ok()) {
      std::cerr << "ngdperf: setup " << workload << ": " << s.status().ToString()
                << "\n";
      return 2;
    }
    std::printf("{\"setup_s\": %.17g}\n", *s);
    return 0;
  }
  if (command != "run") return Usage("unknown command " + command);
  if (!(ctx.seconds > 0)) return Usage("run needs --seconds");
  if (ctx.trace && ctx.trace_path.empty()) ctx.trace_path = ctx.dir + "/trace.json";
  const Report r = w->run(ctx);
  for (const std::string& e : r.errors) {
    std::cerr << "ngdperf: " << workload << ": " << e << "\n";
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"errors\": [",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(r.errors[i]);
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace ngdperf

int main(int argc, char** argv) { return ngdperf::Main(argc, argv); }
