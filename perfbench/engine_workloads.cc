// trickle and drift: closed loops of pre-generated batches straight into
// MidasEngine::ApplyUpdate. The next batch is due the moment the previous
// round returns, and the round's result is readable at that same moment, so
// on these workloads publish latency is the ApplyUpdate span itself.

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <set>

#include "midas/maintain/verify.h"
#include "midas/queryform/formulation.h"
#include "perfbench.h"

namespace perfbench {

using namespace midas;

namespace {

/// A run is `episodes` independent runs of `rounds` rounds, each from a
/// freshly initialized engine. The work is fixed per (seed, --seconds) and
/// sized to measure about --seconds on a 4-core x86 host, so every run of a
/// seed replays exactly the same rounds, whatever the speed of the code.
struct EngineWorkload {
  size_t episodes;
  size_t rounds;
  std::vector<PlannedBatch> (*plan)(const GraphDatabase&, uint64_t, size_t,
                                    size_t, GraphDatabase*);
};

constexpr size_t kMinSetups = 3;

/// Everything the rounds of all episodes leave behind.
struct Rounds {
  std::vector<double> ms, traced_ms, untraced_ms;
  std::vector<MaintenanceStats> stats;
  LayerTotals traced;
  std::vector<Span> spans;
  std::vector<double> scov, mp_pct;
  double loop_ms = 0.0;
};

/// Runs one episode's batches through `engine`, then checks its outputs.
void RunEpisode(const Options& options, size_t episode,
                const std::vector<PlannedBatch>& batches, MidasEngine* engine,
                Rounds* out, RunResult* result) {
  std::set<GraphId> expected_ids;
  for (GraphId id : engine->db().Ids()) expected_ids.insert(id);

  const Clock::time_point start = Clock::now();
  for (size_t r = 0; r < batches.size(); ++r) {
    const bool trace = options.trace && TracedIndex(r);
    CounterSnapshot before;
    if (trace) before = SnapshotCounters();

    const Clock::time_point t0 = Clock::now();
    MaintenanceStats st;
    ++result->attempted;
    try {
      st = engine->ApplyUpdate(batches[r].batch);
    } catch (const std::exception& e) {
      ++result->failed;
      result->Check(false, std::string("ApplyUpdate threw: ") + e.what());
      return;
    }
    const double ms = MsBetween(t0, Clock::now());

    if (st.truncated) ++result->failed;
    out->ms.push_back(ms);
    out->stats.push_back(st);
    for (GraphId id : batches[r].batch.deletions) expected_ids.erase(id);
    for (GraphId id : batches[r].inserted_ids) expected_ids.insert(id);
    if (!options.trace) continue;

    (trace ? out->traced_ms : out->untraced_ms).push_back(ms);
    if (!trace) continue;
    out->traced.AddRound(st, ms);
    Accumulate(&out->traced.counters, Delta(before, SnapshotCounters()));
    Span span;
    span.name = "ApplyUpdate";
    span.id = std::to_string(episode) + "-" + std::to_string(r + 1);
    span.start_ms = out->loop_ms + MsBetween(start, t0);
    span.end_ms = span.start_ms + ms;
    span.attrs = {{"major", st.major ? 1.0 : 0.0},
                  {"phase_sum_ms", st.PhaseSumMs()},
                  {"total_ms", st.total_ms},
                  {"swaps", static_cast<double>(st.swaps)},
                  {"candidates", static_cast<double>(st.candidates)}};
#define PERFBENCH_SPAN_PHASE(field) span.attrs[#field] = st.field;
    MIDAS_MAINTENANCE_PHASES(PERFBENCH_SPAN_PHASE)
#undef PERFBENCH_SPAN_PHASE
    out->spans.push_back(std::move(span));
  }
  out->loop_ms += MsBetween(start, Clock::now());

  // --- output checks and panel quality (outside the clock) ---------------
  const std::vector<GraphId> live = engine->db().Ids();
  result->Check(std::equal(live.begin(), live.end(), expected_ids.begin(),
                           expected_ids.end()),
                "engine database differs from the planned batches");
  const size_t panel = engine->patterns().size();
  result->Check(panel > 0 && panel <= engine->config().budget.gamma,
                "panel size outside (0, gamma]");
  IntegrityReport report;
  VerifyEngineDeep(*engine, VerifyOptions(), &report);
  result->Check(report.clean() && !report.deep_truncated,
                "VerifyEngineDeep: " + report.Describe());
  out->scov.push_back(FullScov(engine->db(), engine->patterns()));
  const std::vector<Graph> queries = PanelQueries(
      engine->db(),
      RecentInsertions(batches, batches.size(), /*window=*/40, engine->db()),
      options.seed + episode);
  out->mp_pct.push_back(MissedPercentage(queries, engine->patterns()));
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

RunResult RunEngineWorkload(const Options& options, const EngineWorkload& w) {
  RunResult result;
  StampHost(&result, options);
  const MidasConfig cfg = EngineConfig();
  const size_t episodes = w.episodes;
  const size_t rounds = w.rounds;
  const size_t setups = std::max(kMinSetups, episodes);

  // Set-up is generate -> Initialize; setup_s is the median over `setups`
  // of them. Each episode runs on its own fresh engine (every set-up builds
  // the same one); surplus set-ups only feed the median.
  std::vector<double> setup_s;
  std::vector<PlannedBatch> all_batches;
  Rounds out;
  std::unique_ptr<MidasEngine> engine;
  for (size_t s = 0; s < setups; ++s) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<MidasEngine>(GenerateDatabase(), cfg);
    engine->Initialize();
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (s == 0) {
      result.stamp["db_size"] = std::to_string(engine->db().size());
      result.stamp["db_digest"] = DigestDatabase(engine->db());
    }
    if (s + episodes < setups) continue;
    const size_t episode = s + episodes - setups;
    std::vector<PlannedBatch> batches =
        w.plan(engine->db(), options.seed, episode, rounds, nullptr);
    const double loop_before = out.loop_ms;
    RunEpisode(options, episode, batches, engine.get(), &out, &result);
    std::string& episode_ms = result.stamp["episode_mean_ms"];
    if (!episode_ms.empty()) episode_ms.push_back(' ');
    episode_ms.append(std::to_string((out.loop_ms - loop_before) /
                                     static_cast<double>(rounds)));
    for (PlannedBatch& b : batches) all_batches.push_back(std::move(b));
  }
  result.stamp["episodes"] = std::to_string(episodes);
  result.stamp["rounds"] = std::to_string(out.ms.size());
  result.stamp["inputs_digest"] = DigestBatches(all_batches);
  result.stamp["measured_s"] = std::to_string(out.loop_ms / 1000.0);

  LayerTotals all;
  for (size_t i = 0; i < out.stats.size(); ++i) {
    all.AddRound(out.stats[i], out.ms[i]);
  }
  result.Check(std::abs(all.GapPct()) <= kMaxPhaseGapPct,
               "MaintenanceStats phases differ from the ApplyUpdate span by " +
                   std::to_string(all.GapPct()) + "%");
  result.stamp["major_rounds"] = std::to_string(all.major);

  if (!options.trace) {
    result.Set("setup_s", Quantile(setup_s, 0.5), "s");
    const double p50 = Quantile(out.ms, 0.5);
    const double p95 = Tail(&result, "round_p95", out.ms, 0.95);
    result.Set("round_p50_ms", p50, "ms");
    result.Set("round_p95_ms", p95, "ms");
    result.Set("rounds_per_s",
               out.loop_ms > 0.0
                   ? 1000.0 * static_cast<double>(out.ms.size()) / out.loop_ms
                   : 0.0,
               "1/s");
    result.Set("publish_p50_ms", p50, "ms");
    result.Set("publish_p95_ms", p95, "ms");
    result.Set("ok_frac",
               result.attempted == 0
                   ? 0.0
                   : static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    result.Set("panel_scov", Mean(out.scov), "ratio");
    result.Set("panel_mp_pct", Mean(out.mp_pct), "%");
    return result;
  }

  EmitLayerMetrics(out.traced, &result);
  // The paper's ratio (Figs 14-16): CATAPULT++ from scratch on the last
  // episode's final database over the mean maintenance round (PMT).
  const FromScratchResult scratch =
      RunFromScratch(engine->db(), cfg, /*plus_plus=*/true, cfg.seed);
  const double pmt = Mean(out.ms);
  result.Set("maintain.scratch_over_pmt",
             pmt > 0.0 ? scratch.total_ms / pmt : 0.0, "ratio");
  result.stamp["scratch_ms"] = std::to_string(scratch.total_ms);
  const double untraced = Quantile(out.untraced_ms, 0.5);
  result.Set("obs.trace_overhead_pct",
             untraced > 0.0
                 ? 100.0 * (Quantile(out.traced_ms, 0.5) - untraced) / untraced
                 : 0.0,
             "%");
  result.stamp["spans_file"] = WriteSpans(options, out.spans);
  return result;
}

}  // namespace

// trickle: one engine, 32 rounds per second (~30 ms a round).
RunResult RunTrickle(const Options& options) {
  const size_t rounds = static_cast<size_t>(std::ceil(options.seconds * 32.0));
  return RunEngineWorkload(options, EngineWorkload{1, rounds, &PlanTrickle});
}

// drift: one 20-round episode per 5 seconds (~250 ms a round). Each episode
// restarts from a fresh engine because the stream of novel families
// saturates the database: over the first 100 rounds the median graphlet
// distance falls about threefold and the rounds stop being major.
RunResult RunDrift(const Options& options) {
  const size_t episodes = std::max<size_t>(
      1, static_cast<size_t>(std::lround(options.seconds / 5.0)));
  return RunEngineWorkload(options, EngineWorkload{episodes, 20, &PlanDrift});
}

}  // namespace perfbench
