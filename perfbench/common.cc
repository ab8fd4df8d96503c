// Seeded inputs, statistics and tracing helpers shared by the workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "midas/datagen/workload.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/obs/metrics.h"
#include "perfbench.h"

namespace perfbench {

using namespace midas;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- statistics -----------------------------------------------------------

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double TailQuantileLevel(size_t n, double wanted) {
  if (n < 20) return 0.5;
  return std::min(wanted, 1.0 - 10.0 / static_cast<double>(n));
}

double Tail(RunResult* result, const std::string& prefix,
            const std::vector<double>& samples, double wanted) {
  const double level = TailQuantileLevel(samples.size(), wanted);
  result->stamp[prefix + "_n"] = std::to_string(samples.size());
  result->stamp[prefix + "_q"] = std::to_string(level);
  return Quantile(samples, level);
}

// --- workload inputs ------------------------------------------------------

MidasConfig EngineConfig() {
  MidasConfig cfg;
  cfg.fct.sup_min = 0.5;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 6;
  cfg.cluster.max_cluster_size = 200;
  cfg.budget.eta_min = 3;
  cfg.budget.eta_max = 8;
  cfg.budget.gamma = 16;
  cfg.walk.num_walks = 50;
  cfg.walk.walk_length = 15;
  // Trickle rounds measure graphlet distances up to ~6.8e-4 (worst of
  // 4 seeds x 960 rounds) and the first 20 drift rounds ~4e-4..2.3e-3, so
  // this ε keeps trickle minor-only and makes most drift rounds major.
  cfg.epsilon = 9e-4;
  cfg.kappa = 0.1;
  cfg.lambda = 0.1;
  cfg.sample_cap = 100;
  cfg.pcp_starts = 2;
  cfg.seed = kEngineSeed;
  return cfg;
}

MoleculeGenConfig DataConfig() {
  return MoleculeGenerator::PubchemLike(kDbSize);
}

GraphDatabase GenerateDatabase() {
  MoleculeGenerator gen(kDatabaseSeed);
  return gen.Generate(DataConfig());
}

namespace {

constexpr size_t kTrickleCount = kDbSize / 200;  // ±0.5% of |D|
// Beyond the host's queue capacity (64) plus the round in flight, so a
// graph is always published before a batch that deletes it is submitted.
constexpr size_t kServedDeleteLag = 80;
constexpr size_t kDriftCount = kDbSize / 50;     // 2% of |D|

// Distinct generator streams per workload, all derived from --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

PlannedBatch Apply(GraphDatabase* shadow, BatchUpdate batch) {
  PlannedBatch planned;
  planned.inserted_ids = shadow->ApplyBatch(batch);
  planned.batch = std::move(batch);
  return planned;
}

}  // namespace

std::vector<PlannedBatch> PlanTrickle(const GraphDatabase& db, uint64_t seed,
                                      size_t episode, size_t count,
                                      GraphDatabase* shadow_out) {
  MoleculeGenerator gen(StreamSeed(seed, 16 * episode + 1));
  const MoleculeGenConfig data = DataConfig();
  GraphDatabase shadow = db;
  std::vector<PlannedBatch> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    BatchUpdate b = gen.GenerateDeletions(shadow, kTrickleCount);
    BatchUpdate adds = gen.GenerateAdditions(shadow, data, kTrickleCount,
                                             /*new_family=*/false);
    b.insertions = std::move(adds.insertions);
    out.push_back(Apply(&shadow, std::move(b)));
  }
  if (shadow_out != nullptr) *shadow_out = std::move(shadow);
  return out;
}

std::vector<PlannedBatch> PlanDrift(const GraphDatabase& db, uint64_t seed,
                                    size_t episode, size_t count,
                                    GraphDatabase* shadow_out) {
  MoleculeGenerator gen(StreamSeed(seed, 16 * episode + 2));
  MoleculeGenConfig data = DataConfig();
  GraphDatabase shadow = db;
  std::vector<PlannedBatch> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // The novel scaffold is keyed by num_families, so bumping it gives every
    // batch a family no earlier batch used.
    ++data.num_families;
    BatchUpdate b = gen.GenerateDeletions(shadow, kDriftCount);
    BatchUpdate adds =
        gen.GenerateAdditions(shadow, data, kDriftCount, /*new_family=*/true);
    b.insertions = std::move(adds.insertions);
    out.push_back(Apply(&shadow, std::move(b)));
  }
  if (shadow_out != nullptr) *shadow_out = std::move(shadow);
  return out;
}

std::vector<PlannedBatch> PlanServed(const GraphDatabase& db, uint64_t seed,
                                     size_t count, GraphDatabase* shadow_out) {
  MoleculeGenerator gen(StreamSeed(seed, 3));
  const MoleculeGenConfig data = DataConfig();
  GraphDatabase shadow = db;
  // Graphs a batch may delete: the initial ones, plus those inserted at
  // least kServedDeleteLag batches earlier.
  std::vector<GraphId> deletable = db.Ids();
  std::vector<PlannedBatch> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i >= kServedDeleteLag) {
      const std::vector<GraphId>& old = out[i - kServedDeleteLag].inserted_ids;
      deletable.insert(deletable.end(), old.begin(), old.end());
    }
    BatchUpdate b = gen.GenerateAdditions(shadow, data, kTrickleCount,
                                          /*new_family=*/false);
    for (size_t k = 0; k < kTrickleCount && !deletable.empty(); ++k) {
      const size_t pick = static_cast<size_t>(gen.rng().UniformInt(
          0, static_cast<int64_t>(deletable.size()) - 1));
      b.deletions.push_back(deletable[pick]);
      deletable[pick] = deletable.back();
      deletable.pop_back();
    }
    out.push_back(Apply(&shadow, std::move(b)));
  }
  if (shadow_out != nullptr) *shadow_out = std::move(shadow);
  return out;
}

namespace {

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void AddGraph(const Graph& g) {
    Add(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) Add(g.label(v));
    for (const auto& [u, v] : g.Edges()) {
      Add(u);
      Add(v);
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

}  // namespace

std::string DigestDatabase(const GraphDatabase& db) {
  Fnv f;
  for (const auto& [id, g] : db.graphs()) {
    f.Add(id);
    f.AddGraph(g);
  }
  return f.Hex();
}

std::string DigestBatches(const std::vector<PlannedBatch>& batches) {
  Fnv f;
  for (const PlannedBatch& p : batches) {
    f.Add(p.batch.insertions.size());
    for (const Graph& g : p.batch.insertions) f.AddGraph(g);
    f.Add(p.batch.deletions.size());
    for (GraphId id : p.batch.deletions) f.Add(id);
  }
  return f.Hex();
}

std::vector<Graph> PanelQueries(const GraphDatabase& db,
                                const std::vector<GraphId>& recent,
                                uint64_t seed) {
  QueryGenConfig cfg;
  cfg.count = 4000;
  cfg.min_edges = 4;
  cfg.max_edges = 12;
  Rng rng(StreamSeed(seed, 4));
  return GenerateBalancedQueries(db, recent, cfg, rng);
}

double FullScov(const GraphDatabase& db, const PatternSet& patterns) {
  if (db.empty()) return 0.0;
  size_t covered = 0;
  for (const auto& [id, g] : db.graphs()) {
    for (const auto& [pid, p] : patterns.patterns()) {
      if (ContainsSubgraph(p.graph, g)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(db.size());
}

std::vector<GraphId> RecentInsertions(const std::vector<PlannedBatch>& batches,
                                      size_t upto, size_t window,
                                      const GraphDatabase& db) {
  std::vector<GraphId> ids;
  upto = std::min(upto, batches.size());
  for (size_t i = upto > window ? upto - window : 0; i < upto; ++i) {
    for (GraphId id : batches[i].inserted_ids) {
      if (db.Contains(id)) ids.push_back(id);
    }
  }
  return ids;
}

// --- tracing --------------------------------------------------------------

namespace {

const char* const kCounters[] = {
    "midas_graph_iso_nodes_visited_total",
    "midas_cache_hit_total",
    "midas_cache_miss_total",
    "midas_cache_evict_total",
    "midas_graph_ged_nodes_expanded_total",
    "midas_mining_trees_emitted_total",
    "midas_mining_extensions_tried_total",
    "midas_cluster_splits_total",
    "midas_journal_bytes_written_total",
    "midas_maintain_major_rounds_total",
    "midas_maintain_candidates_total",
    "midas_maintain_swaps_total",
    "midas_view_delta_rows_total",
    "midas_view_rescan_rows_total",
};

}  // namespace

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snap;
  for (const char* name : kCounters) snap[name] = 0;
  // Read through the exporter listing, so the benchmark never registers an
  // instrument the program has not.
  for (const obs::Counter* c : obs::MetricsRegistry::Current().counters()) {
    auto it = snap.find(c->name());
    if (it != snap.end()) it->second = c->Value();
  }
  return snap;
}

CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after) {
  CounterSnapshot d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    const uint64_t b = it == before.end() ? 0 : it->second;
    d[name] = v >= b ? v - b : 0;
  }
  return d;
}

void Accumulate(CounterSnapshot* into, const CounterSnapshot& delta) {
  for (const auto& [name, v] : delta) (*into)[name] += v;
}

std::string WriteSpans(const Options& options, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":\"" << s.id
        << "\",\"parent\":\"" << s.parent << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms;
    for (const auto& [k, v] : s.attrs) out << ",\"" << k << "\":" << v;
    out << "}\n";
  }
  out.flush();
  return out ? path : "";
}

void LayerTotals::AddRound(const MaintenanceStats& stats, double span) {
  ++rounds;
  span_ms += span;
#define PERFBENCH_ADD_PHASE(field) phase_ms[#field] += stats.field;
  MIDAS_MAINTENANCE_PHASES(PERFBENCH_ADD_PHASE)
#undef PERFBENCH_ADD_PHASE
  major += stats.major ? 1 : 0;
  candidates += static_cast<uint64_t>(stats.candidates);
  swaps += static_cast<uint64_t>(stats.swaps);
  delta_rows += static_cast<uint64_t>(stats.view_delta_rows);
  rescan_rows += static_cast<uint64_t>(stats.view_rescan_rows);
}

double LayerTotals::PhaseSum() const {
  double sum = 0.0;
  for (const auto& [name, ms] : phase_ms) sum += ms;
  return sum;
}

double LayerTotals::GapPct() const {
  return span_ms > 0.0 ? 100.0 * (span_ms - PhaseSum()) / span_ms : 0.0;
}

void EmitLayerMetrics(const LayerTotals& t, RunResult* result) {
  const double rounds = static_cast<double>(std::max<size_t>(1, t.rounds));
  auto counter = [&](const char* name) {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto phase = [&](const char* name) {
    auto it = t.phase_ms.find(name);
    return it == t.phase_ms.end() ? 0.0 : it->second / rounds;
  };

  const double hits = counter("midas_cache_hit_total");
  const double misses = counter("midas_cache_miss_total");
  result->Set("graph.iso_nodes_per_round",
              counter("midas_graph_iso_nodes_visited_total") / rounds, "count");
  result->Set("graph.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  result->Set("graph.cache_evictions_per_round",
              counter("midas_cache_evict_total") / rounds, "count");
  result->Set("graph.ged_expansions_per_round",
              counter("midas_graph_ged_nodes_expanded_total") / rounds,
              "count");
  result->Set("mining.fct_ms_per_round", phase("fct_ms"), "ms");
  result->Set("mining.trees_per_extension",
              ratio(counter("midas_mining_trees_emitted_total"),
                    counter("midas_mining_extensions_tried_total")),
              "ratio");
  result->Set("cluster.cluster_ms_per_round", phase("cluster_ms"), "ms");
  result->Set("cluster.csg_ms_per_round", phase("csg_ms"), "ms");
  result->Set("cluster.splits_per_round",
              counter("midas_cluster_splits_total") / rounds, "count");
  result->Set("index.index_ms_per_round", phase("index_ms"), "ms");
  result->Set("view.refresh_ms_per_round", phase("refresh_ms"), "ms");
  result->Set("view.delta_row_share",
              ratio(static_cast<double>(t.delta_rows),
                    static_cast<double>(t.delta_rows + t.rescan_rows)),
              "ratio");
  result->Set("select.candidate_ms_per_round", phase("candidate_ms"), "ms");
  result->Set("select.candidates_per_major_round",
              ratio(static_cast<double>(t.candidates),
                    static_cast<double>(t.major)),
              "count");
  result->Set("maintain.swap_ms_per_round", phase("swap_ms"), "ms");
  result->Set("maintain.swaps_per_candidate",
              ratio(static_cast<double>(t.swaps),
                    static_cast<double>(t.candidates)),
              "ratio");
  result->Set("maintain.apply_ms_per_round", phase("apply_ms"), "ms");
  result->Set("maintain.major_share", static_cast<double>(t.major) / rounds,
              "ratio");
  result->Set("maintain.phase_gap_pct", t.GapPct(), "%");
  result->Set("maintain.scratch_over_pmt", 0.0, "ratio");
  for (const char* name :
       {"serve.round_ms_p50", "serve.queue_wait_ms_p95",
        "serve.host_overhead_ms_p50", "serve.generator_late_ms_max"}) {
    result->Set(name, 0.0, "ms");
  }
  result->Set("serve.journal_bytes_per_batch", 0.0, "bytes");
  result->Set("serve.snapshot_read_us_p99", 0.0, "us");
  for (const char* name :
       {"serve.checkpoints", "serve.coalesced", "serve.shed"}) {
    result->Set(name, 0.0, "count");
  }
}

void StampHost(RunResult* result, const Options& options) {
  const unsigned hw = std::thread::hardware_concurrency();
  result->stamp["nproc"] = std::to_string(hw == 0 ? 1 : hw);
  result->stamp["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef MIDAS_FAILPOINTS
  result->stamp["failpoints"] = "compiled_in";
#else
  result->stamp["failpoints"] = "compiled_out";
#endif
  result->stamp["engine_threads"] =
      std::to_string(EngineConfig().num_threads);
  result->stamp["seed"] = std::to_string(options.seed);
  result->stamp["workload"] = options.workload;
  result->stamp["trace"] = std::to_string(options.trace ? 1 : 0);
}

}  // namespace perfbench
