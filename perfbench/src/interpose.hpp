#pragma once
// Link-time interposition counters kept inside the benchmark binary: OS
// threads created (pthread_create), fsync/fdatasync calls, and allocations
// (a counting global operator new). The engine's code is unchanged; these
// wrap the symbols it calls.

#include <cstdint>

namespace pb::counters {

struct Snapshot {
  std::uint64_t threads = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t allocs = 0;
};

[[nodiscard]] Snapshot now() noexcept;

/// Allocation counting costs an atomic add per operator new, so it is on
/// only while a traced pass runs. Thread and fsync counting is always on.
void count_allocations(bool on) noexcept;

}  // namespace pb::counters
