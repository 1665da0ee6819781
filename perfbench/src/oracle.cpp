#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_set>

namespace pb {

float scalar_l2(const float* a, const float* b, std::size_t dim) noexcept {
  // Four independent sums keep the loop from serializing on one add chain.
  float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  std::size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const float t = a[d + j] - b[d + j];
      s[j] += t * t;
    }
  }
  for (; d < dim; ++d) {
    const float t = a[d] - b[d];
    s[0] += t * t;
  }
  return std::sqrt((s[0] + s[1]) + (s[2] + s[3]));
}

void Oracle::add(GlobalId id, const float* v, double visible_ms) {
  if (id >= visible_.size()) {
    visible_.resize(id + 1, kNever);
    deleted_.resize(id + 1, kNever);
    rows_.resize((id + 1) * dim_, 0.0f);
  }
  std::copy(v, v + dim_, rows_.begin() + std::ptrdiff_t(id * dim_));
  visible_[id] = visible_ms;
}

void Oracle::mark_deleted(GlobalId id, double ack_ms) {
  if (known(id)) deleted_[id] = std::min(deleted_[id], ack_ms);
}

std::vector<GlobalId> Oracle::live_ids() const {
  std::vector<GlobalId> out;
  for (GlobalId id = 0; id < visible_.size(); ++id) {
    if (visible_[id] != kNever && deleted_[id] == kNever) out.push_back(id);
  }
  return out;
}

std::vector<std::vector<Neighbor>> Oracle::knn(
    std::span<const GlobalId> live, const annsim::data::Dataset& queries,
    std::size_t k, std::size_t threads) const {
  std::vector<std::vector<Neighbor>> out(queries.size());
  auto scan = [&](std::size_t first, std::size_t step) {
    std::vector<Neighbor> cand(live.size());
    for (std::size_t q = first; q < queries.size(); q += step) {
      const float* qv = queries.row(q);
      for (std::size_t i = 0; i < live.size(); ++i) {
        cand[i] = Neighbor{scalar_l2(qv, row(live[i]), dim_), live[i]};
      }
      const std::size_t kk = std::min(k, cand.size());
      std::partial_sort(cand.begin(), cand.begin() + std::ptrdiff_t(kk), cand.end());
      out[q].assign(cand.begin(), cand.begin() + std::ptrdiff_t(kk));
    }
  };
  std::vector<std::thread> pool;
  threads = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(scan, t, threads);
  for (auto& th : pool) th.join();
  return out;
}

std::string Oracle::validate(const float* query, std::span<const Neighbor> got,
                             std::size_t expect_len, double due_ms,
                             double done_ms) const {
  std::ostringstream why;
  if (got.size() != expect_len) {
    why << "list has " << got.size() << " entries, expected " << expect_len;
    return why.str();
  }
  std::unordered_set<GlobalId> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Neighbor& n = got[i];
    if (i > 0 && n.dist < got[i - 1].dist) {
      why << "not sorted at position " << i;
      return why.str();
    }
    if (!seen.insert(n.id).second) {
      why << "duplicate id " << n.id;
      return why.str();
    }
    if (!known(n.id) || visible_[n.id] > done_ms) {
      why << "id " << n.id << " was never live";
      return why.str();
    }
    if (deleted_[n.id] < due_ms) {
      why << "id " << n.id << " deleted (ack at " << deleted_[n.id]
          << " ms) before the request was due (" << due_ms << " ms)";
      return why.str();
    }
    const float want = scalar_l2(query, row(n.id), dim_);
    if (!(std::fabs(n.dist - want) <= 1e-4f * std::max(1.0f, want))) {
      why << "id " << n.id << " distance " << n.dist << " != exact " << want;
      return why.str();
    }
  }
  return {};
}

double recall_at(std::span<const Neighbor> got, std::span<const Neighbor> exact,
                 std::size_t k) {
  if (exact.empty()) return 1.0;
  const std::size_t kk = std::min(k, exact.size());
  const float kth = exact[kk - 1].dist * (1.0f + 1e-6f);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < std::min(kk, got.size()); ++i) {
    if (got[i].dist <= kth) ++hits;
  }
  return double(hits) / double(kk);
}

}  // namespace pb
