#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "annsim/hnsw/hnsw_index.hpp"
#include "annsim/mpi/mpi.hpp"
#include "annsim/recovery/write_log.hpp"
#include "annsim/segment/segmented_index.hpp"
#include "annsim/simd/distance.hpp"
#include "interpose.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using annsim::data::Dataset;

constexpr std::size_t kRuntimeReps = 30;
constexpr std::size_t kB1Reps = 50;
constexpr std::size_t kB512Reps = 5;
constexpr std::size_t kPasses = 3;        ///< passes over the query pool per probe
constexpr std::size_t kWalRounds = 100;
constexpr std::size_t kWalRowsPerRound = 8;
constexpr std::size_t kCompactRounds = 3;
constexpr std::size_t kCompactRows = 256;

/// Median over `reps` calls of f(i), in ms.
template <typename F>
double median_ms(std::size_t reps, F&& f) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f(i);
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// Median over kPasses passes of the mean time per query of f(query row), in µs.
template <typename F>
double per_query_us(const Dataset& pool, F&& f) {
  return 1e3 / double(pool.size()) * median_ms(kPasses, [&](std::size_t) {
           for (std::size_t q = 0; q < pool.size(); ++q) f(pool.row(q));
         });
}

void probe_runtime(std::vector<Metric>& layers) {
  auto empty_run = [](std::size_t) {
    annsim::mpi::Runtime rt(int(kWorkers + 1));
    rt.run([](annsim::mpi::Comm&) {});
  };
  (void)median_ms(5, empty_run);  // warm-up
  layers.push_back({"mpi.runtime_ms", median_ms(kRuntimeReps, empty_run), "ms"});
}

void probe_engine_search(annsim::core::DistributedAnnEngine& engine, const Inputs& in,
                         std::vector<Metric>& layers) {
  std::vector<Dataset> singles;
  for (std::size_t i = 0; i < kB1Reps; ++i) singles.push_back(in.pool.slice(i, i + 1));
  (void)engine.search(singles[0], kK, kEf);

  const auto threads0 = counters::now().threads;
  const double b1 = median_ms(kB1Reps, [&](std::size_t i) { (void)engine.search(singles[i], kK, kEf); });
  layers.push_back({"core.search_ms_b1", b1, "ms"});
  layers.push_back({"mpi.threads_per_search",
                    double(counters::now().threads - threads0) / double(kB1Reps), "count"});

  const Dataset batch = in.pool.slice(0, kBulkBatch);
  std::vector<annsim::core::SearchStats> stats(kB512Reps);
  const double b512 = median_ms(kB512Reps, [&](std::size_t i) {
    (void)engine.search(batch, kK, kEf, &stats[i]);
  });
  layers.push_back({"core.search_ms_b512", b512, "ms"});
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : stats) v.push_back(field(s));
    return median(std::move(v));
  };
  layers.push_back({"core.route_ms", med([](const auto& s) { return s.master_route_seconds * 1e3; }), "ms"});
  layers.push_back({"core.dispatch_ms", med([](const auto& s) { return s.master_dispatch_seconds * 1e3; }), "ms"});
  layers.push_back({"core.merge_ms", med([](const auto& s) { return s.master_merge_seconds * 1e3; }), "ms"});
  // Wall time summed over the worker threads, which share the machine's
  // cores: not CPU time (README "Per-layer metrics").
  layers.push_back({"core.worker_compute_ms",
                    med([](const auto& s) { return s.worker_compute_seconds * 1e3; }), "ms"});
  layers.push_back({"core.jobs_per_query",
                    med([](const auto& s) { return double(s.total_jobs) / double(kBulkBatch); }),
                    "count"});
  layers.push_back({"core.worker_jobs_max_over_mean", med([](const auto& s) {
                      const auto& j = s.jobs_per_worker;
                      if (j.empty()) return 0.0;
                      const double mean = double(std::accumulate(j.begin(), j.end(), 0ull)) / double(j.size());
                      return mean > 0 ? double(*std::max_element(j.begin(), j.end())) / mean : 0.0;
                    }),
                    "ratio"});
  annsim::mpi::TrafficStats t;
  for (const auto& s : stats) t += s.traffic;
  const double nq = double(kB512Reps * kBulkBatch);
  layers.push_back({"mpi.p2p_messages_per_query", double(t.p2p_messages) / nq, "count"});
  layers.push_back({"mpi.p2p_bytes_per_query", double(t.p2p_bytes) / nq, "bytes"});
  layers.push_back({"mpi.rma_ops_per_query", double(t.rma_ops) / nq, "count"});
  layers.push_back({"mpi.rma_bytes_per_query", double(t.rma_bytes) / nq, "bytes"});
}

void probe_router(const annsim::core::DistributedAnnEngine& engine, const Inputs& in,
                  std::vector<Metric>& layers) {
  const auto& router = engine.router();
  layers.push_back({"vptree.route_us", per_query_us(in.pool, [&](const float* q) {
                      (void)router.route_topk(q, kProbes);
                    }),
                    "us"});
  const auto plans = engine.plan_queries(in.pool);
  double planned = 0.0;
  for (const auto& p : plans) planned += double(p.size());
  layers.push_back({"vptree.partitions_per_query", planned / double(plans.size()), "count"});
  layers.push_back({"vptree.build_s", engine.build_stats().vp_tree_seconds, "s"});
  layers.push_back({"hnsw.build_s", engine.build_stats().hnsw_seconds, "s"});
}

void probe_hnsw_simd(const Dataset& part, const Inputs& in,
                     const annsim::hnsw::HnswParams& params, std::vector<Metric>& layers) {
  annsim::hnsw::HnswIndex index(&part, params);
  index.build();
  layers.push_back({"hnsw.search_us", per_query_us(in.pool, [&](const float* q) {
                      (void)index.search(q, kK, kEf);
                    }),
                    "us"});
  std::vector<float> out(part.size());
  const double us = per_query_us(in.pool, [&](const float* q) {
    annsim::simd::l2_sq_batch(q, part.row(0), part.stride(), part.dim(), nullptr,
                              part.size(), out.data());
  });
  layers.push_back({"simd.l2_ns_per_distance", us * 1e3 / double(part.size()), "ns"});
}

void probe_segment(const Dataset& part, const Inputs& in,
                   const annsim::core::EngineConfig& cfg, std::uint64_t seed,
                   std::vector<Metric>& layers) {
  annsim::segment::SegmentedParams params;
  params.hnsw = cfg.hnsw;
  params.delta_capacity = cfg.segment_delta_capacity;
  annsim::segment::SegmentedIndex seg(part.slice(0, part.size()), params);
  auto search_us = [&] {
    return per_query_us(in.pool, [&](const float* q) { (void)seg.search(q, kK, kEf); });
  };
  layers.push_back({"segment.search_us_del0", search_us(), "us"});
  const auto ids = shuffled_ids(part.ids(), seed);
  for (std::size_t i = 0; i < part.size() / 5; ++i) (void)seg.erase(ids[i]);
  layers.push_back({"segment.search_us_del20", search_us(), "us"});

  // Minor compactions of a delta of kCompactRows fresh rows each, the kind
  // the churn write stream runs.
  GlobalId next = in.base.size() + in.inserts.size();
  std::size_t row = 0;
  std::vector<double> compact_ms;
  for (std::size_t r = 0; r < kCompactRounds; ++r) {
    for (std::size_t j = 0; j < kCompactRows; ++j, ++row) {
      seg.insert(in.inserts.row_span(row % in.inserts.size()), next++);
    }
    const auto t0 = Clock::now();
    (void)seg.compact();
    compact_ms.push_back(ms_between(t0, Clock::now()));
  }
  layers.push_back({"segment.compact_ms", median(compact_ms), "ms"});
}

void probe_wal(const Options& opt, std::size_t dim, std::vector<Metric>& layers) {
  const std::string dir = opt.work_dir + "/probe_log";
  fs::remove_all(dir);
  std::vector<double> commit_ms;
  std::uint64_t fsyncs = 0;
  {
    annsim::recovery::WalOptions wo;
    wo.group_commit = true;
    annsim::recovery::WriteLog log(dir, wo);
    const std::vector<float> row(dim, 1.0f);
    std::uint64_t lsn = 1;
    const auto f0 = counters::now().fsyncs;
    for (std::size_t r = 0; r < kWalRounds; ++r) {
      const auto t0 = Clock::now();
      for (std::size_t j = 0; j < kWalRowsPerRound; ++j, ++lsn) {
        log.append_insert(lsn, annsim::PartitionId(j % kWorkers), lsn, row);
      }
      (void)log.commit();
      commit_ms.push_back(ms_between(t0, Clock::now()));
    }
    fsyncs = counters::now().fsyncs - f0;
  }
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  layers.push_back({"recovery.wal_commit_us", median(commit_ms) * 1e3, "us"});
  layers.push_back({"recovery.fsyncs_per_round", double(fsyncs) / double(kWalRounds), "count"});
  layers.push_back({"recovery.wal_bytes_per_row",
                    double(bytes) / double(kWalRounds * kWalRowsPerRound), "bytes"});
}

}  // namespace

void probe_layers(const Options& opt, const Inputs& in,
                  annsim::core::DistributedAnnEngine& engine, std::vector<Metric>& layers) {
  probe_runtime(layers);
  probe_engine_search(engine, in, layers);
  probe_router(engine, in, layers);
  const Dataset part = in.base.slice(0, in.base.size() / kWorkers);
  probe_hnsw_simd(part, in, engine.config().hnsw, layers);
  probe_segment(part, in, engine.config(), opt.seed * 13 + 1, layers);
  probe_wal(opt, in.base.dim(), layers);
}

}  // namespace pb
