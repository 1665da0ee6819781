#pragma once
// Shared pieces of the benchmark: options, the report it prints, timing
// helpers, the workload sizes, and the engine configurations.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "annsim/common/stats.hpp"
#include "annsim/core/engine.hpp"
#include "annsim/data/dataset.hpp"

namespace pb {

using annsim::median;
using annsim::percentile;  // linear-interpolated, p in [0, 100]
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Planted faults for the self-test: each corrupts recorded answers before
/// validation, and the run must then report correct=false.
enum class Plant { kNone, kUnsorted, kWrongDistance, kDeletedId, kShortList, kLowRecall };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for WAL files, removed at exit
  Plant plant = Plant::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: validity, operation counts, metrics, and the run
/// header (machine and load) that every wall-clock figure travels with.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> header;  // key, JSON value
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
};

// ---- the workloads' fixed shape (README "Data and sizes") ----
inline constexpr std::size_t kBaseRows = 20000;     ///< SIFT-like rows built
inline constexpr std::size_t kQueryPool = 2048;     ///< distinct queries
inline constexpr std::size_t kWorkers = 8;          ///< P
inline constexpr std::size_t kProbes = 4;           ///< |F(q)|
inline constexpr std::size_t kEf = 64;
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kBulkBatch = 512;
inline constexpr std::size_t kSetupReps = 3;        ///< setups per run; median reported

/// The engine configuration every workload shares: P=8, 4 probes, ef 64,
/// deterministic single-threaded local builds, and the engine's default
/// search team (Algorithm 4) of threads_per_worker threads per worker.
inline annsim::core::EngineConfig engine_config(std::size_t replication,
                                                bool segmented,
                                                const std::string& wal_dir) {
  annsim::core::EngineConfig c;
  c.n_workers = kWorkers;
  c.replication = replication;
  c.n_probe = kProbes;
  c.hnsw.ef_search = kEf;
  c.parallel_local_build = false;
  if (segmented) {
    c.local_index = annsim::core::LocalIndexKind::kSegmented;
    c.wal_dir = wal_dir;
    c.wal_group_commit = true;
  }
  return c;
}

}  // namespace pb
