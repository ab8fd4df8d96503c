// Shared pieces of the perfbench harness: options, seeded inputs, the
// per-run result (end-to-end metrics, per-layer metrics, output checks) and
// the small statistics and tracing helpers every workload uses.
//
// The harness drives the library only through its public entry points
// (MidasEngine::Initialize/ApplyUpdate, RunFromScratch, serve::EngineHost);
// nothing here reaches into src/ internals.

#ifndef MIDAS_PERFBENCH_PERFBENCH_H_
#define MIDAS_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "midas/datagen/molecule_gen.h"
#include "midas/maintain/midas.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for scratch state: the
  /// served workload's engine directory and the traced runs' span files.
  std::string work_dir = ".bench_build/perfbench-run";
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics on an
/// untraced run and the per-layer metrics on a traced run; `stamp` holds
/// host facts and input digests printed on their own line before the result.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = every check passed
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> stamp;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// --- statistics -----------------------------------------------------------

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);

/// The tail percentile the benchmark reports: `wanted` (e.g. 0.95) when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// still has ten samples beyond it (the median when n < 20).
double TailQuantileLevel(size_t n, double wanted);

/// Records `<prefix>_n` and `<prefix>_q` stamps for a tail metric and
/// returns its value.
double Tail(RunResult* result, const std::string& prefix,
            const std::vector<double>& samples, double wanted);

// --- workload inputs ------------------------------------------------------

/// Engine configuration shared by every workload: the experiment defaults
/// (η 3..8, γ 16, sup_min 0.5, FCTs up to 3 edges) with fine-clustering at
/// N = 200 so Initialize stays near one second at |D| = 2000, and ε set
/// between trickle's and drift's graphlet distances. num_threads stays at
/// the library default. The engine's own seed is fixed: the program gets
/// only the generated inputs, never the benchmark's --seed.
constexpr uint64_t kEngineSeed = 42;
midas::MidasConfig EngineConfig();

/// The PubChem-like dataset configuration at the benchmark's |D|.
midas::MoleculeGenConfig DataConfig();
constexpr size_t kDbSize = 2000;

/// One pre-generated batch plus the ids the shadow database gave its
/// insertions (the engine assigns the same ids: same start, same order).
struct PlannedBatch {
  midas::BatchUpdate batch;
  std::vector<midas::GraphId> inserted_ids;
};

/// The initial database. It is the same for every --seed: across seeds the
/// cost of a round varied by up to 40% with the generated database alone
/// (cluster structure, FCT pool size), far beyond any useful bound, so the
/// seed picks the update stream and the queries, not the base data.
constexpr uint64_t kDatabaseSeed = 2021;
midas::GraphDatabase GenerateDatabase();

/// trickle: each batch inserts 0.5% of |D| from the existing families and
/// deletes as many uniformly chosen live graphs, generated against a shadow
/// copy of `db`. `episode` selects an independent stream of the same seed.
std::vector<PlannedBatch> PlanTrickle(const midas::GraphDatabase& db,
                                      uint64_t seed, size_t episode,
                                      size_t count,
                                      midas::GraphDatabase* shadow_out);

/// drift: each batch inserts 2% of |D| from a never-seen scaffold family
/// and deletes as many uniformly chosen live graphs.
std::vector<PlannedBatch> PlanDrift(const midas::GraphDatabase& db,
                                    uint64_t seed, size_t episode, size_t count,
                                    midas::GraphDatabase* shadow_out);

/// served: trickle-shaped batches whose deletions never name a graph that
/// may still sit in the host's queue (Submit validates deletions against the
/// last published snapshot).
std::vector<PlannedBatch> PlanServed(const midas::GraphDatabase& db,
                                     uint64_t seed, size_t count,
                                     midas::GraphDatabase* shadow_out);

/// FNV-1a digest of a database / a batch list (hex), printed so runs of two
/// commits can be shown to have seen the same inputs.
std::string DigestDatabase(const midas::GraphDatabase& db);
std::string DigestBatches(const std::vector<PlannedBatch>& batches);

/// The seeded balanced query set of panel_mp_pct: 4000 queries, half drawn
/// from `recent_ids` (recent Δ⁺ still live in `db`).
std::vector<midas::Graph> PanelQueries(const midas::GraphDatabase& db,
                                       const std::vector<midas::GraphId>& recent,
                                       uint64_t seed);

/// Share of the graphs of `db` that contain at least one panel pattern —
/// scov over the whole database, not the engine's sampled universe.
double FullScov(const midas::GraphDatabase& db,
                const midas::PatternSet& patterns);

/// Live ids inserted by the last `window` batches before `upto` (exclusive).
std::vector<midas::GraphId> RecentInsertions(
    const std::vector<PlannedBatch>& batches, size_t upto, size_t window,
    const midas::GraphDatabase& db);

// --- tracing --------------------------------------------------------------

/// Values of every registry counter the per-layer metrics read.
using CounterSnapshot = std::map<std::string, uint64_t>;
CounterSnapshot SnapshotCounters();
/// after - before, per counter.
CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after);
void Accumulate(CounterSnapshot* into, const CounterSnapshot& delta);

/// A traced run traces every other round (or batch); the untraced ones are
/// the baseline of obs.trace_overhead_pct.
inline bool TracedIndex(size_t i) { return i % 2 == 1; }

/// One benchmark-side span, kept in memory and written out when the run
/// ends. Spans of one batch share `id`; `parent` names the causing span.
struct Span {
  std::string name;
  std::string id;
  std::string parent;
  double start_ms = 0.0;  ///< since the run's measurement start
  double end_ms = 0.0;
  std::map<std::string, double> attrs;
};

/// Writes spans as JSONL (one object per line) under options.work_dir.
/// Returns the path written, or "" on I/O failure.
std::string WriteSpans(const Options& options, const std::vector<Span>& spans);

/// Per-layer totals over the traced rounds of a run, from which every
/// per-layer metric is derived the same way on every workload.
struct LayerTotals {
  size_t rounds = 0;
  /// Wall time of the rounds as the caller saw them: the benchmark's own
  /// ApplyUpdate span on the engine workloads, the host's round time on
  /// served. maintain.phase_gap_pct compares the phase sum against it.
  double span_ms = 0.0;
  std::map<std::string, double> phase_ms;  ///< MaintenanceStats phase -> ms
  uint64_t major = 0;
  uint64_t candidates = 0;
  uint64_t swaps = 0;
  uint64_t delta_rows = 0;
  uint64_t rescan_rows = 0;
  CounterSnapshot counters;  ///< registry counter deltas over the rounds

  void AddRound(const midas::MaintenanceStats& stats, double span);
  double PhaseSum() const;
  double GapPct() const;
};

/// Emits the graph/mining/cluster/index/view/select/maintain metrics from
/// `totals`, and every serve.* metric as 0 (the served workload overrides
/// them with its own measurements).
void EmitLayerMetrics(const LayerTotals& totals, RunResult* result);

/// Phase-sum check shared by every workload: the MaintenanceStats phases
/// must cover the round span to within this share.
constexpr double kMaxPhaseGapPct = 5.0;

// --- workloads ------------------------------------------------------------

RunResult RunTrickle(const Options& options);
RunResult RunDrift(const Options& options);
RunResult RunServed(const Options& options);

/// Host facts every result is stamped with.
void StampHost(RunResult* result, const Options& options);

}  // namespace perfbench

#endif  // MIDAS_PERFBENCH_PERFBENCH_H_
