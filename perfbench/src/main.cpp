// perfbench: the engine's end-to-end benchmark.
//
//   perfbench --workload <serve-sparse|bulk-batch|bulk-segmented|churn> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--plant <fault>]
//
// Prints a run header line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run makes a plain pass
// and a traced pass of the workload and reports the per-layer metrics plus
// the tracing overhead between the two passes. See README.md.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "annsim/simd/distance.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string loadavg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  return "[" + num(l[0]) + ", " + num(l[1]) + ", " + num(l[2]) + "]";
}

bool parse_plant(const std::string& s, Plant& p) {
  static const std::pair<const char*, Plant> kNames[] = {
      {"none", Plant::kNone},           {"unsorted", Plant::kUnsorted},
      {"wrong-distance", Plant::kWrongDistance}, {"deleted-id", Plant::kDeletedId},
      {"short-list", Plant::kShortList}, {"low-recall", Plant::kLowRecall}};
  for (const auto& [name, value] : kNames) {
    if (s == name) {
      p = value;
      return true;
    }
  }
  return false;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--work-dir") opt.work_dir = val;
      else if (key == "--plant") { if (!parse_plant(val, opt.plant)) return false; }
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && known_workload(opt.workload) && opt.seconds > 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void print(const Report& rep) {
  std::ostringstream h;
  h << "{\"header\": {";
  for (std::size_t i = 0; i < rep.header.size(); ++i) {
    h << (i ? ", " : "") << json_str(rep.header[i].first) << ": " << rep.header[i].second;
  }
  h << "}}";
  std::ostringstream out;
  out << "{\"correct\": " << (rep.correct ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out << (i ? ", " : "") << json_str(m.name) << ": {\"value\": " << num(m.value)
        << ", \"unit\": " << json_str(m.unit) << "}";
    std::cerr << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  out << "}}";
  for (const auto& p : rep.problems) std::cerr << "problem: " << p << "\n";
  std::cout << h.str() << "\n" << out.str() << std::endl;
}

void run(const Options& opt, Report& rep) {
  const Inputs in = make_inputs(opt.seed);
  Pass plain = run_pass(opt, in, false, rep);
  if (!opt.trace) {
    plain.engine.reset();
    auto setups = setup_times(opt, in, kSetupReps - 1);
    setups.push_back(plain.setup_s);
    rep.add("setup_s", median(setups), "s");
    rep.metrics.insert(rep.metrics.end(), plain.e2e.begin(), plain.e2e.end());
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    plain.engine.reset();
    Pass traced = run_pass(opt, in, true, rep);
    rep.metrics = traced.layers;
    if (opt.workload != "serve-sparse") {  // the others bypass the QueryServer
      serve_probe(traced, in, 2.0, opt.seed * 7 + 9, rep, rep.metrics);
    }
    probe_layers(opt, in, *traced.engine, rep.metrics);
    // The traced pass against the plain one: what the tracing itself costs.
    auto pct = [&](const char* name) {
      const double a = metric(plain.e2e, name), b = metric(traced.e2e, name);
      return a > 0 ? 100.0 * (b - a) / a : 0.0;
    };
    rep.add("trace.p50_overhead_pct", pct("query_p50_ms"), "%");
    rep.add("trace.qps_overhead_pct", -pct("query_qps"), "%");
  }
  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.fail("metric " + m.name + " is not finite");
  }
  rep.header.emplace_back("lateness_p99_ms", plain.lateness_ms.empty()
                                                 ? "0"
                                                 : num(percentile(plain.lateness_ms, 99)));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <serve-sparse|bulk-batch|bulk-segmented|churn> --seed <n>"
                 " --seconds <s> --trace <0|1> [--work-dir <dir>] [--plant <fault>]\n";
    return 2;
  }
  if (opt.work_dir.empty()) opt.work_dir = "perfbench-run-" + std::to_string(getpid());
  std::filesystem::create_directories(opt.work_dir);

  Report rep;
  auto head = [&](const char* key, std::string json) { rep.header.emplace_back(key, std::move(json)); };
  head("workload", json_str(opt.workload));
  head("seed", std::to_string(opt.seed));
  head("seconds", num(opt.seconds));
  head("trace", opt.trace ? "1" : "0");
  head("nproc", std::to_string(std::thread::hardware_concurrency()));
  head("loadavg_start", loadavg());
  head("kernel_isa", json_str(annsim::simd::kernel_isa()));
  head("compiler", json_str(PERFBENCH_COMPILER));
  head("build_type", json_str(PERFBENCH_BUILD_TYPE));
  int code = 0;
  try {
    run(opt, rep);
    rep.header.emplace_back("loadavg_end", loadavg());
    print(rep);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    code = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  return code;
}
