#pragma once
// Per-layer probes of the traced run: each times calls into one module's
// public functions from outside, or reads the counters they already return.

#include <vector>

#include "annsim/core/engine.hpp"
#include "bench.hpp"
#include "workloads.hpp"

namespace pb {

/// Appends every probe-derived per-layer metric, measured on the workload's
/// engine (after its pass) and on partition-sized standalone indexes built
/// from the workload's inputs.
void probe_layers(const Options& opt, const Inputs& in,
                  annsim::core::DistributedAnnEngine& engine,
                  std::vector<Metric>& layers);

}  // namespace pb
