#pragma once
// The four workloads. Each pass sets the engine up, drives it through its
// public API for `seconds`, validates every answer against the oracle, and
// leaves its engine behind for the traced run's layer probes.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "annsim/core/engine.hpp"
#include "annsim/data/dataset.hpp"
#include "bench.hpp"
#include "oracle.hpp"

namespace pb {

/// Generated inputs, a pure function of the seed.
struct Inputs {
  annsim::data::Dataset base;     ///< kBaseRows SIFT-like rows, ids 0..n-1
  annsim::data::Dataset pool;     ///< kQueryPool queries
  annsim::data::Dataset inserts;  ///< rows the churn writer streams in
  std::vector<std::vector<Neighbor>> truth;  ///< exact k-NN of pool over base
};
[[nodiscard]] Inputs make_inputs(std::uint64_t seed);

struct Pass {
  double setup_s = 0.0;        ///< this pass's one timed set-up
  std::vector<Metric> e2e;     ///< end-to-end metrics of this pass, but setup_s
  std::vector<Metric> layers;  ///< per-layer metrics this pass observed
  std::vector<double> lateness_ms;  ///< open-loop send time minus due time
  std::unique_ptr<annsim::core::DistributedAnnEngine> engine;
  std::unique_ptr<Oracle> oracle;  ///< the rows `engine` holds after the pass
  Clock::time_point t0 = Clock::now();  ///< origin of the oracle's run clock
};

/// Runs one pass of `opt.workload`. `traced` turns on allocation counting
/// and the outside timers whose results land in Pass::layers.
[[nodiscard]] Pass run_pass(const Options& opt, const Inputs& in, bool traced,
                            Report& rep);

/// Open-loop served reads through a QueryServer at serve-sparse's rate for
/// `seconds` against the pass's engine, validated against its oracle; the
/// traced runs of workloads that bypass the QueryServer use it to measure
/// the serving layer.
void serve_probe(Pass& pass, const Inputs& in, double seconds, std::uint64_t seed,
                 Report& rep, std::vector<Metric>& layers);

/// `n` more timed set-ups of the workload's engine, each discarded. The run
/// makes them after its measured passes, so that their after-effects do not
/// reach the timed load; setup_s is the median over all of a run's set-ups.
[[nodiscard]] std::vector<double> setup_times(const Options& opt, const Inputs& in,
                                              std::size_t n);

/// `ids` in an order drawn from `seed`: the order rows are deleted in.
[[nodiscard]] std::vector<GlobalId> shuffled_ids(std::span<const GlobalId> ids,
                                                 std::uint64_t seed);

[[nodiscard]] bool known_workload(const std::string& name);

}  // namespace pb
