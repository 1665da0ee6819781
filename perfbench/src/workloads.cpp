#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include "annsim/data/recipes.hpp"
#include "annsim/serve/query_server.hpp"
#include "interpose.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using annsim::core::DistributedAnnEngine;
using annsim::core::EngineConfig;
using annsim::data::Dataset;
using annsim::serve::QueryResponse;
using annsim::serve::QueryServer;
using annsim::serve::QueryStatus;

// ---- rates and schedule (README "Workloads") ----
constexpr double kSparseQps = 200.0;       ///< serve-sparse arrivals per second
constexpr std::size_t kChurnBatch = 64;    ///< churn reader's batch size
constexpr std::size_t kRoundsPerRead = 10; ///< churn write rounds per read batch
constexpr double kChurnWriteHz = 50.0;     ///< churn write rounds per second
constexpr std::size_t kInsertRows = 12;    ///< rows per insert round
constexpr std::size_t kInsertPool = 8000;  ///< distinct rows to insert (reused cyclically)
constexpr double kDeleteShare = 0.20;      ///< built rows deleted by the end of churn
constexpr std::size_t kCompactions = 5;    ///< compact() calls per write stream
constexpr std::size_t kProbeRows = 4000;   ///< write-probe engine size
constexpr std::size_t kProbeRounds = 1000; ///< write-probe rounds (closed loop)
constexpr double kWarmupSeconds = 0.5;     ///< served warm-up, not measured
constexpr double kSettleSeconds = 2.0;     ///< idle pause between set-up and load

// ---- data (README "Data and sizes") ----
constexpr std::size_t kGenRows = kBaseRows + 2 * kInsertPool;  ///< mixture rows generated
constexpr std::size_t kGenQueries = 2 * kQueryPool;
constexpr std::uint64_t kRecipeSeed = 20200901;  ///< fixes the mixture itself

// ---- recall floors (README "Recall floors") ----
constexpr double kFloorServe = 0.90;
constexpr double kFloorBulk = 0.90;
constexpr double kFloorChurn = 0.85;

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& t) { return double(t.tv_sec) * 1e3 + double(t.tv_usec) / 1e3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Sleeps until `due_ms` on the run clock that starts at t0.
void sleep_until_ms(Clock::time_point t0, double due_ms) {
  std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double, std::milli>(due_ms)));
}

/// Oracle holding the built corpus.
Oracle base_oracle(const Dataset& base) {
  Oracle o(base.dim());
  for (std::size_t i = 0; i < base.size(); ++i) o.add(base.id(i), base.row(i));
  return o;
}

std::size_t oracle_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

EngineConfig workload_config(const Options& opt, const std::string& tag) {
  if (opt.workload == "serve-sparse") return engine_config(1, false, "");
  if (opt.workload == "bulk-batch") return engine_config(2, false, "");
  // bulk-segmented and churn: the segmented engine with its write-ahead logs.
  const std::string wal = opt.work_dir + "/wal_" + tag;
  fs::remove_all(wal);
  return engine_config(2, true, wal);
}

/// One timed set-up: engine construction and build(), which on the
/// segmented workloads also opens the write-ahead logs. The engine then
/// idles for kSettleSeconds, so the build's after-effects on the machine
/// pass before anything is timed.
std::unique_ptr<DistributedAnnEngine> set_up(const Options& opt, const Inputs& in,
                                             const std::string& tag, double& seconds) {
  const EngineConfig cfg = workload_config(opt, tag);
  const auto t0 = Clock::now();
  auto engine = std::make_unique<DistributedAnnEngine>(&in.base, cfg);
  engine->build();
  seconds = ms_between(t0, Clock::now()) / 1e3;
  std::this_thread::sleep_for(std::chrono::duration<double>(kSettleSeconds));
  return engine;
}

// ---- open-loop served reads ----

struct Read {
  std::size_t query = 0;
  double due_ms = 0.0;
  double sent_ms = 0.0;
  QueryResponse resp;

  [[nodiscard]] double done_ms() const { return sent_ms + resp.total_ms; }
};

/// Poisson arrivals conditioned on their count: n uniform times, sorted.
std::vector<double> arrivals(double qps, double seconds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, seconds * 1e3);
  std::vector<double> due(std::size_t(std::llround(qps * seconds)));
  for (auto& d : due) d = u(rng);
  std::sort(due.begin(), due.end());
  return due;
}

annsim::serve::ServerConfig server_config() {
  annsim::serve::ServerConfig c;
  c.max_batch = 32;
  c.max_delay_ms = 0.0;  // flush as soon as the scheduler is free
  c.queue_capacity = 1 << 14;
  c.ef = kEf;
  return c;
}

/// Sends query i % pool at t0 + due[i] and collects every response. Times
/// are on the run clock (ms since t0); latency counts from the due time.
std::vector<Read> open_loop(QueryServer& server, const Dataset& pool,
                            const std::vector<double>& due, Clock::time_point t0,
                            std::size_t first_query = 0) {
  std::vector<Read> reads(due.size());
  std::vector<std::future<QueryResponse>> futs;
  futs.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    sleep_until_ms(t0, due[i]);
    Read& r = reads[i];
    r.query = (first_query + i) % pool.size();
    r.due_ms = due[i];
    r.sent_ms = ms_between(t0, Clock::now());
    futs.push_back(server.submit(
        std::vector<float>(pool.row(r.query), pool.row(r.query) + pool.dim()), kK));
  }
  for (std::size_t i = 0; i < due.size(); ++i) reads[i].resp = futs[i].get();
  return reads;
}

void warm_up(QueryServer& server, const Dataset& pool, double qps) {
  const auto due = arrivals(qps, kWarmupSeconds, 7);
  (void)open_loop(server, pool, due, Clock::now(), pool.size() / 2);
}

struct ReadScore {
  std::vector<double> latency_ms, queue_ms, service_ms;
  double batch_sum = 0.0, recall_sum = 0.0, last_done_ms = 0.0;
  std::size_t ok = 0;
};

/// Validates every read and gathers its timings. `truth` (exact k-NN of the
/// pool) is given when the live set is fixed, so recall is scored too.
ReadScore score_reads(const std::vector<Read>& reads, const Oracle& oracle,
                      const Dataset& pool,
                      const std::vector<std::vector<Neighbor>>* truth,
                      Report& rep) {
  ReadScore s;
  for (const Read& r : reads) {
    ++rep.attempted;
    if (r.resp.status != QueryStatus::kOk) {
      ++rep.failed;
      continue;
    }
    const auto why = oracle.validate(pool.row(r.query), r.resp.neighbors, kK,
                                     r.due_ms, r.done_ms());
    if (!why.empty()) {
      ++rep.failed;
      rep.fail("read of query " + std::to_string(r.query) + ": " + why);
      continue;
    }
    ++s.ok;
    s.latency_ms.push_back(r.done_ms() - r.due_ms);
    s.queue_ms.push_back(r.resp.queue_ms);
    s.service_ms.push_back(r.resp.total_ms - r.resp.queue_ms);
    s.batch_sum += double(r.resp.batch_size);
    s.last_done_ms = std::max(s.last_done_ms, r.done_ms());
    if (truth) s.recall_sum += recall_at(r.resp.neighbors, (*truth)[r.query], kK);
  }
  return s;
}

/// Query latency: the median is gated end to end; the p99 is reported from
/// the traced pass only (README "What is not gated").
void add_latency_metrics(const std::vector<double>& latency_ms, bool traced, Pass& pass) {
  pass.e2e.push_back({"query_p50_ms", percentile(latency_ms, 50), "ms"});
  if (traced) pass.layers.push_back({"client.query_p99_ms", percentile(latency_ms, 99), "ms"});
}

void add_read_metrics(const ReadScore& s, bool traced, Pass& pass) {
  add_latency_metrics(s.latency_ms, traced, pass);
  pass.e2e.push_back({"query_qps",
                      s.last_done_ms > 0 ? double(s.ok) / (s.last_done_ms / 1e3) : 0.0,
                      "queries/s"});
}

void add_serve_layers(const ReadScore& s, std::vector<Metric>& layers) {
  layers.push_back({"serve.queue_ms_p50", median(s.queue_ms), "ms"});
  layers.push_back({"serve.service_ms_p50", median(s.service_ms), "ms"});
  layers.push_back({"serve.batch_size_mean", s.ok ? s.batch_sum / double(s.ok) : 0.0, "queries"});
}

void check_recall(double recall, double floor, const char* what, Report& rep) {
  if (recall < floor) {
    rep.fail(std::string(what) + " recall_at_10 " + std::to_string(recall) +
             " below the floor " + std::to_string(floor));
  }
}

// ---- planted faults (self-test) ----

/// Corrupts the first answer (or, for kLowRecall, every answer) the way the
/// fault names; the oracle must then reject the run.
void plant(Plant p, std::vector<Read>& reads, Oracle& oracle, const Inputs& in) {
  auto first_ok = std::find_if(reads.begin(), reads.end(), [](const Read& r) {
    return r.resp.status == QueryStatus::kOk && r.resp.neighbors.size() == kK;
  });
  if (p == Plant::kNone || first_ok == reads.end()) return;
  auto& n = first_ok->resp.neighbors;
  switch (p) {
    case Plant::kUnsorted:
      std::swap(n.front(), n.back());
      break;
    case Plant::kWrongDistance:
      n.back().dist += 1.0f;
      break;
    case Plant::kDeletedId:
      oracle.mark_deleted(n.front().id, -Oracle::kNever);
      break;
    case Plant::kShortList:
      n.pop_back();
      break;
    case Plant::kLowRecall: {
      // Valid lists of the wrong rows: exact ranks k..2k-1 of each query.
      std::vector<GlobalId> ids(in.base.ids().begin(), in.base.ids().end());
      const auto far = oracle.knn(ids, in.pool, 2 * kK, oracle_threads());
      for (Read& r : reads) {
        r.resp.neighbors.assign(far[r.query].begin() + kK, far[r.query].end());
      }
      break;
    }
    case Plant::kNone:
      break;
  }
}

// ---- write streams (churn, and the write probe of read-only workloads) ----

/// Latency samples (ms) of writes, split by call, for one write stream.
struct WriteTimes {
  std::vector<double> insert_ms, remove_ms, compact_ms;
  std::vector<double> all_ms;  ///< insert and remove, due time to ack
};

struct WritePlan {
  std::vector<double> due_ms;  ///< per round; empty = closed loop
  std::size_t rounds = 0;
  std::size_t compact_every = 0;
  std::size_t delete_total = 0;  ///< spread evenly over the delete rounds
  std::size_t replication = 1;
  GlobalId first_stream_id = 0;  ///< the engine's first streamed id
  const Dataset* inserts = nullptr;
  std::vector<GlobalId> delete_order;
  std::function<void(std::size_t)> after_round;  ///< called with each round's index
};

struct WriteRound {
  bool insert = true;
  std::vector<GlobalId> ids;
  std::vector<std::size_t> rows;  ///< insert rows (index into plan.inserts)
  double due_ms = 0.0, sent_ms = 0.0, ack_ms = 0.0;
  bool acked = false;
};

/// Even rounds insert kInsertRows rows, odd rounds delete; compact() runs
/// after every plan.compact_every rounds. Streamed ids are predictable (the
/// engine hands them out in order from first_stream_id), and any mismatch
/// counts the round as not acked.
std::vector<WriteRound> write_stream(DistributedAnnEngine& engine, const WritePlan& plan,
                                     Clock::time_point t0, WriteTimes& times) {
  std::vector<WriteRound> out(plan.rounds);
  std::size_t next_row = 0, next_delete = 0;
  GlobalId next_id = plan.first_stream_id;
  const std::size_t dim = plan.inserts->dim();
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    WriteRound& w = out[r];
    if (!plan.due_ms.empty()) {
      sleep_until_ms(t0, plan.due_ms[r]);
      w.due_ms = plan.due_ms[r];
    } else {
      w.due_ms = ms_between(t0, Clock::now());
    }
    w.insert = r % 2 == 0;
    if (w.insert) {
      Dataset rows(kInsertRows, dim);
      for (std::size_t j = 0; j < kInsertRows; ++j, ++next_row) {
        const std::size_t src = next_row % plan.inserts->size();
        rows.set_row(j, plan.inserts->row_span(src));
        w.rows.push_back(src);
        w.ids.push_back(next_id++);
      }
      w.sent_ms = ms_between(t0, Clock::now());
      const auto st = engine.insert(rows);
      w.ack_ms = ms_between(t0, Clock::now());
      w.acked = st.all_acked && st.dropped_rows == 0 && st.assigned_ids == w.ids &&
                std::all_of(st.row_acked.begin(), st.row_acked.end(),
                            [](char c) { return c != 0; });
      times.insert_ms.push_back(w.ack_ms - w.sent_ms);
    } else {
      // Delete round j ends the stream's first (j + 1) / D share of deletes.
      const std::size_t rounds = plan.rounds / 2, j = r / 2;
      const std::size_t n = (j + 1) * plan.delete_total / rounds - next_delete;
      w.ids.assign(plan.delete_order.begin() + std::ptrdiff_t(next_delete),
                   plan.delete_order.begin() + std::ptrdiff_t(next_delete + n));
      next_delete += n;
      w.sent_ms = ms_between(t0, Clock::now());
      const auto st = engine.remove(w.ids);
      w.ack_ms = ms_between(t0, Clock::now());
      w.acked = st.all_acked && st.erased_replicas == plan.replication * n;
      times.remove_ms.push_back(w.ack_ms - w.sent_ms);
    }
    times.all_ms.push_back(w.ack_ms - w.due_ms);
    if (plan.compact_every != 0 && (r + 1) % plan.compact_every == 0) {
      const auto c0 = Clock::now();
      (void)engine.compact();
      times.compact_ms.push_back(ms_between(c0, Clock::now()));
    }
    if (plan.after_round) plan.after_round(r);
  }
  return out;
}

/// Counts the stream's writes (one per row or deleted id), registers acked
/// rows and deletes with the oracle, and checks the engine agrees on every
/// id's membership once the stream is over.
void settle_writes(const std::vector<WriteRound>& rounds, const WritePlan& plan,
                   DistributedAnnEngine& engine, Oracle& oracle, Report& rep) {
  std::size_t membership_errors = 0;
  for (const WriteRound& w : rounds) {
    rep.attempted += w.ids.size();
    if (!w.acked) {
      rep.failed += w.ids.size();
      continue;
    }
    for (std::size_t j = 0; j < w.ids.size(); ++j) {
      if (w.insert) {
        oracle.add(w.ids[j], plan.inserts->row(w.rows[j]), w.sent_ms);
      } else {
        oracle.mark_deleted(w.ids[j], w.ack_ms);
      }
    }
  }
  for (const WriteRound& w : rounds) {
    if (!w.acked) continue;
    for (GlobalId id : w.ids) {
      if (engine.contains(id) != w.insert) ++membership_errors;
    }
  }
  if (membership_errors != 0) {
    rep.fail(std::to_string(membership_errors) +
             " acked writes disagree with engine membership after the stream");
  }
}

/// The write layers of a traced pass: latency as the writer saw it (due
/// time to ack) and each engine call's own time.
void add_write_layers(const WriteTimes& t, Pass& pass) {
  pass.layers.push_back({"client.write_p50_ms", percentile(t.all_ms, 50), "ms"});
  pass.layers.push_back({"client.write_p99_ms", percentile(t.all_ms, 99), "ms"});
  pass.layers.push_back({"core.insert_ms_p50", median(t.insert_ms), "ms"});
  pass.layers.push_back({"core.remove_ms_p50", median(t.remove_ms), "ms"});
  pass.layers.push_back({"core.compact_ms", median(t.compact_ms), "ms"});
}

/// The write layers of the read-only workloads' traced runs: a closed loop of
/// kProbeRounds write rounds against a small engine in churn's
/// configuration, run after the read phase so it does not disturb it.
void write_probe(const Options& opt, const Inputs& in, Report& rep, Pass& pass) {
  const Dataset base = in.base.slice(0, kProbeRows);
  EngineConfig cfg = engine_config(2, true, opt.work_dir + "/probe_wal");
  fs::remove_all(cfg.wal_dir);
  DistributedAnnEngine engine(&base, cfg);
  engine.build();
  WritePlan plan;
  plan.rounds = kProbeRounds;
  plan.compact_every = kProbeRounds / kCompactions;
  plan.replication = cfg.replication;
  plan.first_stream_id = kProbeRows;
  plan.inserts = &in.inserts;
  plan.delete_order = shuffled_ids(base.ids(), opt.seed * 31 + 5);
  plan.delete_total = std::size_t(kDeleteShare * double(kProbeRows));
  WriteTimes times;
  const auto rounds = write_stream(engine, plan, Clock::now(), times);
  Oracle oracle = base_oracle(base);
  settle_writes(rounds, plan, engine, oracle, rep);
  add_write_layers(times, pass);
}

/// Per-query CPU and allocations over a measured phase (traced runs).
struct ProcessMeter {
  double cpu0 = cpu_ms();
  std::uint64_t allocs0 = counters::now().allocs;

  void finish(std::size_t queries, std::vector<Metric>& layers) const {
    const double q = double(std::max<std::size_t>(queries, 1));
    layers.push_back({"process.cpu_ms_per_query", (cpu_ms() - cpu0) / q, "ms"});
    layers.push_back({"process.allocs_per_query",
                      double(counters::now().allocs - allocs0) / q, "count"});
  }
};

// ---- closed-loop batched reads (bulk-batch, churn) ----

/// One answer of a batched read, on the run clock.
struct BatchAnswer {
  std::size_t query = 0;  ///< index into the query pool
  double due_ms = 0.0, end_ms = 0.0, latency_ms = 0.0;
  std::vector<Neighbor> neighbors;
};

/// The pool cut into consecutive `batch`-sized slices.
std::vector<Dataset> batches(const Dataset& pool, std::size_t batch) {
  std::vector<Dataset> out;
  for (std::size_t b = 0; b + batch <= pool.size(); b += batch) {
    out.push_back(pool.slice(b, b + batch));
  }
  return out;
}

/// One search() of `batch`, the pool's queries from `first_query` on, due
/// at `due_ms` on the run clock; hands each answer to `on_answer`. A query's
/// latency runs from the due time to its completion callback. Returns the
/// time spent inside search(), in ms.
template <typename OnAnswer>
double read_batch(DistributedAnnEngine& engine, const Dataset& batch, std::size_t first_query,
                  Clock::time_point t0, double due_ms, OnAnswer&& on_answer) {
  std::vector<double> done(batch.size(), -1.0);
  const auto ts = Clock::now();
  auto res = engine.search(
      batch, kK, kEf, nullptr,
      [&](std::size_t qid, const std::vector<Neighbor>&, const annsim::core::QueryCoverage&) {
        done[qid] = ms_between(t0, Clock::now());
      });
  const auto te = Clock::now();
  for (std::size_t q = 0; q < batch.size(); ++q) {
    on_answer(BatchAnswer{first_query + q, due_ms, ms_between(t0, te),
                          done[q] < 0.0 ? -1.0 : done[q] - due_ms, std::move(res[q])});
  }
  return ms_between(ts, te);
}

/// Validates one batched answer (a missing completion callback fails it).
bool check_answer(const BatchAnswer& a, const Oracle& oracle, const Dataset& pool,
                  Report& rep) {
  ++rep.attempted;
  const auto why = a.latency_ms < 0.0
                       ? std::string("no completion reported")
                       : oracle.validate(pool.row(a.query), a.neighbors, kK, a.due_ms, a.end_ms);
  if (why.empty()) return true;
  ++rep.failed;
  rep.fail("batch query " + std::to_string(a.query) + ": " + why);
  return false;
}

// ---- the workloads ----

Pass serve_sparse(const Options& opt, const Inputs& in, bool traced, Report& rep) {
  Pass pass;
  Oracle& oracle = *(pass.oracle = std::make_unique<Oracle>(base_oracle(in.base)));
  pass.engine = set_up(opt, in, "pass", pass.setup_s);

  std::vector<Read> reads;
  {
    QueryServer server(pass.engine.get(), server_config());
    warm_up(server, in.pool, kSparseQps);
    const auto due = arrivals(kSparseQps, opt.seconds, opt.seed * 7 + 1);
    counters::count_allocations(traced);
    const ProcessMeter meter;
    reads = open_loop(server, in.pool, due, Clock::now());
    if (traced) meter.finish(reads.size(), pass.layers);
    counters::count_allocations(false);
  }
  for (const Read& r : reads) pass.lateness_ms.push_back(r.sent_ms - r.due_ms);
  plant(opt.plant, reads, oracle, in);
  const ReadScore s = score_reads(reads, oracle, in.pool, &in.truth, rep);
  add_read_metrics(s, traced, pass);
  const double recall = s.ok ? s.recall_sum / double(s.ok) : 0.0;
  pass.e2e.push_back({"recall_at_10", recall, "ratio"});
  check_recall(recall, kFloorServe, "serve-sparse", rep);
  if (traced) add_serve_layers(s, pass.layers);
  if (traced) write_probe(opt, in, rep, pass);
  return pass;
}

Pass bulk_batch(const Options& opt, const Inputs& in, bool traced, Report& rep) {
  Pass pass;
  const Oracle& oracle = *(pass.oracle = std::make_unique<Oracle>(base_oracle(in.base)));
  pass.engine = set_up(opt, in, "pass", pass.setup_s);
  for (std::size_t b = 0; b < in.pool.size(); b += kBulkBatch) {  // warm-up
    (void)pass.engine->search(in.pool.slice(b, b + kBulkBatch), kK, kEf);
  }

  std::vector<double> latency;
  double recall_sum = 0.0;
  counters::count_allocations(traced);
  const ProcessMeter meter;
  const auto slices = batches(in.pool, kBulkBatch);
  double busy_ms = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t b = 0; ms_between(t0, Clock::now()) < opt.seconds * 1e3; ++b) {
    const std::size_t slice = b % slices.size();
    busy_ms += read_batch(*pass.engine, slices[slice], slice * kBulkBatch, t0,
                          ms_between(t0, Clock::now()), [&](const BatchAnswer& a) {
                            if (!check_answer(a, oracle, in.pool, rep)) return;
                            latency.push_back(a.latency_ms);
                            recall_sum += recall_at(a.neighbors, in.truth[a.query], kK);
                          });
  }
  if (traced) meter.finish(latency.size(), pass.layers);
  counters::count_allocations(false);

  add_latency_metrics(latency, traced, pass);
  pass.e2e.push_back({"query_qps", busy_ms > 0 ? double(latency.size()) / (busy_ms / 1e3) : 0.0,
                      "queries/s"});
  const double recall = latency.empty() ? 0.0 : recall_sum / double(latency.size());
  pass.e2e.push_back({"recall_at_10", recall, "ratio"});
  check_recall(recall, kFloorBulk, opt.workload.c_str(), rep);
  if (traced) write_probe(opt, in, rep, pass);
  return pass;
}

Pass churn(const Options& opt, const Inputs& in, bool traced, Report& rep) {
  Pass pass;
  Oracle& oracle = *(pass.oracle = std::make_unique<Oracle>(base_oracle(in.base)));
  pass.engine = set_up(opt, in, "pass", pass.setup_s);

  WritePlan plan;
  plan.rounds = std::max<std::size_t>(2, std::size_t(std::llround(kChurnWriteHz * opt.seconds)));
  plan.compact_every = std::max<std::size_t>(1, plan.rounds / kCompactions);
  plan.replication = pass.engine->config().replication;
  plan.first_stream_id = in.base.size();
  plan.inserts = &in.inserts;
  plan.delete_order = shuffled_ids(in.base.ids(), opt.seed * 31 + 3);
  plan.delete_total = std::size_t(kDeleteShare * double(in.base.size()));
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    plan.due_ms.push_back(double(r) * 1e3 / kChurnWriteHz);
  }

  // One client thread runs the whole schedule: a 64-query read batch is due
  // halfway between every kRoundsPerRead-th write round and the next. Every
  // run then samples the delete ramp at the same points whatever the
  // machine's speed, and the answer buffer is sized from it up front, so the
  // benchmark's own memory does not move with speed either.
  (void)pass.engine->search(in.pool.slice(0, kChurnBatch), kK, kEf);  // warm-up
  const auto slices = batches(in.pool, kChurnBatch);
  std::vector<BatchAnswer> answers;
  answers.reserve(plan.rounds / kRoundsPerRead * kChurnBatch);
  double busy_ms = 0.0;
  WriteTimes times;
  counters::count_allocations(traced);
  const ProcessMeter meter;
  const auto t0 = pass.t0 = Clock::now();
  plan.after_round = [&](std::size_t r) {
    if ((r + 1) % kRoundsPerRead != 0) return;
    const double due = plan.due_ms[r] + 0.5e3 / kChurnWriteHz;
    sleep_until_ms(t0, due);
    pass.lateness_ms.push_back(ms_between(t0, Clock::now()) - due);
    const std::size_t slice = (r / kRoundsPerRead) % slices.size();
    busy_ms += read_batch(*pass.engine, slices[slice], slice * kChurnBatch, t0, due,
                          [&](BatchAnswer&& a) { answers.push_back(std::move(a)); });
  };
  const auto rounds = write_stream(*pass.engine, plan, t0, times);
  if (traced) meter.finish(answers.size(), pass.layers);
  counters::count_allocations(false);

  for (const WriteRound& w : rounds) pass.lateness_ms.push_back(w.sent_ms - w.due_ms);
  settle_writes(rounds, plan, *pass.engine, oracle, rep);
  std::vector<double> latency;
  for (const BatchAnswer& a : answers) {
    if (check_answer(a, oracle, in.pool, rep)) latency.push_back(a.latency_ms);
  }
  add_latency_metrics(latency, traced, pass);
  pass.e2e.push_back({"query_qps", busy_ms > 0 ? double(latency.size()) / (busy_ms / 1e3) : 0.0,
                      "queries/s"});

  // Final pass: the whole query set against the live set left by the stream.
  const auto live = oracle.live_ids();
  const auto exact = oracle.knn(live, in.pool, kK, oracle_threads());
  const auto res = pass.engine->search(in.pool, kK, kEf);
  double recall_sum = 0.0;
  for (std::size_t q = 0; q < in.pool.size(); ++q) {
    ++rep.attempted;
    const auto why =
        oracle.validate(in.pool.row(q), res[q], kK, Oracle::kNever, Oracle::kNever);
    if (!why.empty()) {
      ++rep.failed;
      rep.fail("final pass query " + std::to_string(q) + ": " + why);
      continue;
    }
    recall_sum += recall_at(res[q], exact[q], kK);
  }
  const double recall = recall_sum / double(in.pool.size());
  pass.e2e.push_back({"recall_at_10", recall, "ratio"});
  check_recall(recall, kFloorChurn, "churn", rep);
  if (traced) add_write_layers(times, pass);
  return pass;
}

}  // namespace

std::vector<GlobalId> shuffled_ids(std::span<const GlobalId> ids, std::uint64_t seed) {
  std::vector<GlobalId> out(ids.begin(), ids.end());
  std::mt19937_64 rng(seed);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

Inputs make_inputs(std::uint64_t seed) {
  // One fixed SIFT-like mixture. The built corpus is its first kBaseRows
  // rows for every seed, as a paper dataset is fixed; the seed draws the
  // query set and the rows the write stream inserts from the rest.
  const auto w = annsim::data::make_sift_like(kGenRows, kGenQueries, kRecipeSeed);
  std::mt19937_64 rng(seed);
  auto draw = [&](std::size_t first, std::size_t n, std::size_t k) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), first);
    std::shuffle(idx.begin(), idx.end(), rng);
    idx.resize(k);
    return idx;
  };
  Inputs in;
  in.base = w.base.slice(0, kBaseRows);
  in.inserts = w.base.subset(draw(kBaseRows, kGenRows - kBaseRows, kInsertPool));
  in.pool = w.queries.subset(draw(0, kGenQueries, kQueryPool));
  const Oracle oracle = base_oracle(in.base);
  std::vector<GlobalId> ids(in.base.ids().begin(), in.base.ids().end());
  in.truth = oracle.knn(ids, in.pool, kK, oracle_threads());
  return in;
}

void serve_probe(Pass& pass, const Inputs& in, double seconds, std::uint64_t seed,
                 Report& rep, std::vector<Metric>& layers) {
  const Oracle& oracle = *pass.oracle;
  QueryServer server(pass.engine.get(), server_config());
  warm_up(server, in.pool, kSparseQps);
  auto due = arrivals(kSparseQps, seconds, seed);
  const double now_ms = ms_between(pass.t0, Clock::now());
  for (double& d : due) d += now_ms;  // on the pass's clock, which the oracle uses
  const auto reads = open_loop(server, in.pool, due, pass.t0);
  add_serve_layers(score_reads(reads, oracle, in.pool, nullptr, rep), layers);
}

std::vector<double> setup_times(const Options& opt, const Inputs& in, std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    (void)set_up(opt, in, "setup" + std::to_string(i), out[i]);
  }
  return out;
}

Pass run_pass(const Options& opt, const Inputs& in, bool traced, Report& rep) {
  if (opt.workload == "serve-sparse") return serve_sparse(opt, in, traced, rep);
  if (opt.workload == "bulk-batch" || opt.workload == "bulk-segmented") {
    return bulk_batch(opt, in, traced, rep);
  }
  return churn(opt, in, traced, rep);
}

bool known_workload(const std::string& name) {
  return name == "serve-sparse" || name == "bulk-batch" || name == "bulk-segmented" ||
         name == "churn";
}

}  // namespace pb
