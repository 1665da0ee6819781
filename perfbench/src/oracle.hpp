#pragma once
// The benchmark's exact-answer oracle. It keeps its own copy of every row
// the engine ever held, with when each became visible and when its delete
// was acked, and answers k-NN by a plain scalar scan. It calls neither
// annsim::simd nor data::brute_force_knn, so it stays independent of the
// kernels the benchmark measures.

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "annsim/common/types.hpp"
#include "annsim/data/dataset.hpp"

namespace pb {

using annsim::GlobalId;
using annsim::Neighbor;

/// True L2 distance by a scalar loop (the engine reports sqrt of squared L2).
[[nodiscard]] float scalar_l2(const float* a, const float* b, std::size_t dim) noexcept;

class Oracle {
 public:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  explicit Oracle(std::size_t dim) : dim_(dim) {}

  /// Register row `id`, visible to answers that finish at or after
  /// `visible_ms` (run clock; -inf for the built corpus).
  void add(GlobalId id, const float* v, double visible_ms = -kNever);
  /// Record that the delete of `id` was acked at `ack_ms`: answers due after
  /// that must not contain it.
  void mark_deleted(GlobalId id, double ack_ms);

  [[nodiscard]] bool known(GlobalId id) const noexcept {
    return id < visible_.size() && visible_[id] != kNever;
  }
  [[nodiscard]] const float* row(GlobalId id) const noexcept {
    return rows_.data() + id * dim_;
  }
  /// Ids live once every registered write has landed.
  [[nodiscard]] std::vector<GlobalId> live_ids() const;

  /// Exact k nearest `live` rows of each query, scanned on `threads` threads.
  [[nodiscard]] std::vector<std::vector<Neighbor>> knn(
      std::span<const GlobalId> live, const annsim::data::Dataset& queries,
      std::size_t k, std::size_t threads) const;

  /// Checks one answer to `query`, due at `due_ms` and returned at
  /// `done_ms`: exactly `expect_len` entries, sorted by distance, no
  /// duplicate ids, every id live for that window, every distance equal to
  /// the scalar L2 within float tolerance. Returns "" or what is wrong.
  [[nodiscard]] std::string validate(const float* query,
                                     std::span<const Neighbor> got,
                                     std::size_t expect_len, double due_ms,
                                     double done_ms) const;

 private:
  std::size_t dim_;
  std::vector<float> rows_;       ///< dense by id
  std::vector<double> visible_;   ///< kNever = id never registered
  std::vector<double> deleted_;   ///< delete ack time, kNever = not deleted
};

/// recall@k that counts ties: the share of `got`'s first k entries whose
/// distance is within the exact k-th distance. Sound only after validate()
/// has confirmed the distances and ids.
[[nodiscard]] double recall_at(std::span<const Neighbor> got,
                               std::span<const Neighbor> exact, std::size_t k);

}  // namespace pb
