// served: an open loop of trickle-shaped batches into serve::EngineHost at a
// fixed rate, with one GUI reader thread polling snapshot() beside the
// writer. The only workload that exercises the queue, the journal fsync,
// snapshot publication and periodic checkpoints.
//
// Threads: this one (the generator), the reader, and the host's writer.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "midas/queryform/formulation.h"
#include "midas/serve/engine_host.h"
#include "perfbench.h"

namespace perfbench {

using namespace midas;

namespace {

/// About a third of the writer's saturation: a batch costs the writer
/// 30-40 ms on a 4-core x86 host at |D| = 2000 (round, journal, publish),
/// so it saturates near 25-33 batches/s. Staying well below half keeps
/// queueing from amplifying swings in the host's speed.
constexpr double kRatePerSecond = 8.0;
constexpr int kSetupRepeats = 3;
/// The reader's poll period — a fast GUI render loop. Far below the round
/// time, so every published snapshot is observed.
constexpr auto kPollPeriod = std::chrono::milliseconds(1);

struct Published {
  uint64_t seq = 0;
  Clock::time_point created_at;
};

/// Polls the host's current snapshot until stopped; records every newly
/// observed round and the latency of each snapshot() call.
struct Reader {
  const serve::EngineHost* host = nullptr;
  std::atomic<bool> stop{false};
  std::vector<Published> published;
  std::vector<double> read_us;

  void Run() {
    uint64_t last = host->snapshot()->round_seq;
    while (!stop.load(std::memory_order_acquire)) {
      const Clock::time_point t0 = Clock::now();
      serve::PanelSnapshotPtr snap = host->snapshot();
      read_us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
      // A skipped round is attributed the later snapshot's publish time: an
      // upper bound, and rare at this poll period.
      for (uint64_t seq = last + 1; seq <= snap->round_seq; ++seq) {
        published.push_back(Published{seq, snap->created_at});
      }
      last = std::max(last, snap->round_seq);
      std::this_thread::sleep_for(kPollPeriod);
    }
  }
};

}  // namespace

RunResult RunServed(const Options& options) {
  RunResult result;
  StampHost(&result, options);
  const MidasConfig cfg = EngineConfig();
  const size_t count = std::max<size_t>(
      20, static_cast<size_t>(std::floor(options.seconds * kRatePerSecond)));

  serve::HostConfig host_cfg;
  // Large enough to keep a flight record of every batch of the run.
  host_cfg.flight.capacity = count + 64;

  // Set-up: generate -> Initialize -> Start, repeated; the median is
  // setup_s and the last host serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<serve::EngineHost> host;
  std::string engine_dir;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (host != nullptr) host->Stop();
    host.reset();
    if (!engine_dir.empty()) std::filesystem::remove_all(engine_dir);
    engine_dir = options.work_dir + "/served-engine-" + std::to_string(i);
    std::filesystem::remove_all(engine_dir);
    std::filesystem::create_directories(options.work_dir);
    const Clock::time_point t0 = Clock::now();
    auto engine =
        std::make_unique<MidasEngine>(GenerateDatabase(), cfg);
    host = std::make_unique<serve::EngineHost>(std::move(engine), engine_dir,
                                               host_cfg);
    std::string error;
    if (!host->Start(&error)) {
      result.Check(false, "EngineHost::Start failed: " + error);
      std::filesystem::remove_all(engine_dir);
      return result;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }

  const GraphDatabase initial = GenerateDatabase();
  result.stamp["db_size"] = std::to_string(initial.size());
  result.stamp["db_digest"] = DigestDatabase(initial);
  GraphDatabase expected;
  std::vector<PlannedBatch> batches =
      PlanServed(initial, options.seed, count, &expected);
  result.stamp["batches_planned"] = std::to_string(batches.size());
  result.stamp["inputs_digest"] = DigestBatches(batches);
  result.stamp["rate_per_s"] = std::to_string(kRatePerSecond);

  const uint64_t base_seq = host->snapshot()->round_seq;
  const serve::HostStats stats_before = host->stats();
  const CounterSnapshot counters_before = SnapshotCounters();

  Reader reader;
  reader.host = host.get();
  reader.read_us.reserve(static_cast<size_t>(options.seconds * 1200) + 1000);
  std::thread reader_thread([&reader] { reader.Run(); });

  // --- the open loop ------------------------------------------------------
  std::vector<Clock::time_point> due(count);
  std::vector<serve::SubmitResult> submits(count);
  std::vector<double> late_ms(count, 0.0);
  std::vector<Span> spans;
  std::vector<size_t> submit_order;  // accepted batch indices, in order
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerSecond));
  for (size_t i = 0; i < count; ++i) {
    due[i] = start + period * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point sent = Clock::now();
    late_ms[i] = MsBetween(due[i], sent);
    const bool trace = options.trace && TracedIndex(i);
    CounterSnapshot before;
    if (trace) before = SnapshotCounters();
    submits[i] = host->Submit(std::move(batches[i].batch));
    if (trace) {
      Span span;
      span.name = "Submit";
      span.id = submits[i].trace_id;
      span.start_ms = MsBetween(start, sent);
      span.end_ms = MsBetween(start, Clock::now());
      for (const auto& [name, v] : Delta(before, SnapshotCounters())) {
        if (v != 0) span.attrs[name] = static_cast<double>(v);
      }
      spans.push_back(std::move(span));
    }
    if (submits[i].accepted()) submit_order.push_back(i);
  }
  const bool idle = host->WaitIdle(std::chrono::seconds(60));
  // Let the reader observe the last publication.
  const uint64_t want_seq = base_seq + submit_order.size();
  for (int spin = 0; spin < 5000 && host->snapshot()->round_seq < want_seq;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(kPollPeriod * 5);
  reader.stop.store(true, std::memory_order_release);
  reader_thread.join();

  const serve::HostStats stats_after = host->stats();
  const CounterSnapshot counters = Delta(counters_before, SnapshotCounters());
  const serve::PanelSnapshotPtr final_snap = host->snapshot();
  std::map<std::string, std::shared_ptr<const obs::FlightRecord>> flights;
  for (const auto& rec : host->flights().Snapshot()) flights[rec->trace_id] = rec;
  const bool dead = host->dead();
  host->Stop();
  host.reset();
  std::filesystem::remove_all(engine_dir);

  // --- per-batch outcomes (outside the clock) ----------------------------
  std::map<uint64_t, Clock::time_point> published_at;
  for (const Published& p : reader.published) published_at.emplace(p.seq, p.created_at);
  std::vector<double> publish_ms, publish_traced, publish_untraced;
  std::vector<double> round_ms, queue_wait_ms, overhead_ms;
  LayerTotals layers;
  size_t never_published = 0;
  Clock::time_point last_publish = start;
  for (size_t j = 0; j < submit_order.size(); ++j) {
    const size_t i = submit_order[j];
    auto pub = published_at.find(base_seq + j + 1);
    auto fl = flights.find(submits[i].trace_id);
    const bool flown = fl != flights.end() && fl->second->outcome == "ok" &&
                       !fl->second->truncated;
    if (pub == published_at.end() || !flown) {
      ++never_published;
      continue;
    }
    const obs::FlightRecord& rec = *fl->second;
    const double ms = MsBetween(due[i], pub->second);
    last_publish = std::max(last_publish, pub->second);
    publish_ms.push_back(ms);
    (TracedIndex(i) ? publish_traced : publish_untraced).push_back(ms);
    round_ms.push_back(rec.total_ms);
    queue_wait_ms.push_back(rec.queue_wait_ms);
    overhead_ms.push_back(ms - rec.queue_wait_ms - rec.total_ms);
    ++layers.rounds;
    layers.span_ms += rec.total_ms;
    for (const auto& [phase, phase_ms] : rec.phase_ms) {
      layers.phase_ms[phase] += phase_ms;
    }
    if (options.trace) {
      Span span;
      span.name = "publish";
      span.id = rec.trace_id;
      span.parent = TracedIndex(i) ? rec.trace_id : "";
      span.start_ms = MsBetween(start, due[i]);
      span.end_ms = MsBetween(start, pub->second);
      span.attrs = {{"seq", static_cast<double>(rec.seq)},
                    {"queue_wait_ms", rec.queue_wait_ms},
                    {"round_ms", rec.total_ms}};
      spans.push_back(std::move(span));
    }
  }
  result.attempted = count;
  result.failed = (count - submit_order.size()) + never_published;
  result.stamp["rounds"] = std::to_string(publish_ms.size());
  const double measured_ms = MsBetween(start, last_publish);
  result.stamp["measured_s"] = std::to_string(measured_ms / 1000.0);

  // --- output checks ------------------------------------------------------
  result.Check(idle, "host did not drain within 60 s");
  result.Check(!dead, "host writer died");
  result.Check(final_snap->round_seq - base_seq == submit_order.size(),
               "accepted batches (" + std::to_string(submit_order.size()) +
                   ") != published round_seq advance (" +
                   std::to_string(final_snap->round_seq - base_seq) + ")");
  result.Check(final_snap->live_ids != nullptr &&
                   *final_snap->live_ids == expected.Ids(),
               "published database differs from the planned batches");
  result.Check(std::abs(layers.GapPct()) <= kMaxPhaseGapPct,
               "flight phases differ from the round time by " +
                   std::to_string(layers.GapPct()) + "%");

  if (!options.trace) {
    result.Set("setup_s", Quantile(setup_s, 0.5), "s");
    result.Set("round_p50_ms", Quantile(round_ms, 0.5), "ms");
    result.Set("round_p95_ms", Tail(&result, "round_p95", round_ms, 0.95),
               "ms");
    result.Set("rounds_per_s",
               measured_ms > 0.0
                   ? 1000.0 * static_cast<double>(publish_ms.size()) /
                         measured_ms
                   : 0.0,
               "1/s");
    result.Set("publish_p50_ms", Quantile(publish_ms, 0.5), "ms");
    result.Set("publish_p95_ms",
               Tail(&result, "publish_p95", publish_ms, 0.95), "ms");
    result.Set("ok_frac",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
    result.Set("panel_scov", FullScov(expected, final_snap->patterns), "ratio");
    const std::vector<Graph> queries = PanelQueries(
        expected, RecentInsertions(batches, count, /*window=*/40, expected),
        options.seed);
    result.Set("panel_mp_pct", MissedPercentage(queries, final_snap->patterns),
               "%");
    return result;
  }

  layers.major = counters.at("midas_maintain_major_rounds_total");
  layers.candidates = counters.at("midas_maintain_candidates_total");
  layers.swaps = counters.at("midas_maintain_swaps_total");
  layers.delta_rows = counters.at("midas_view_delta_rows_total");
  layers.rescan_rows = counters.at("midas_view_rescan_rows_total");
  layers.counters = counters;
  EmitLayerMetrics(layers, &result);
  const double rounds = static_cast<double>(std::max<size_t>(1, layers.rounds));
  result.Set("serve.round_ms_p50", Quantile(round_ms, 0.5), "ms");
  result.Set("serve.queue_wait_ms_p95",
             Tail(&result, "queue_wait_p95", queue_wait_ms, 0.95), "ms");
  result.Set("serve.host_overhead_ms_p50", Quantile(overhead_ms, 0.5), "ms");
  result.Set("serve.journal_bytes_per_batch",
             static_cast<double>(
                 counters.at("midas_journal_bytes_written_total")) /
                 rounds,
             "bytes");
  result.Set("serve.checkpoints",
             static_cast<double>(stats_after.checkpoints -
                                 stats_before.checkpoints),
             "count");
  result.Set("serve.snapshot_read_us_p99",
             Tail(&result, "snapshot_read_p99", reader.read_us, 0.99), "us");
  result.Set("serve.generator_late_ms_max",
             *std::max_element(late_ms.begin(), late_ms.end()), "ms");
  result.Set("serve.coalesced",
             static_cast<double>(stats_after.coalesced - stats_before.coalesced),
             "count");
  result.Set("serve.shed",
             static_cast<double>(stats_after.shed_overload -
                                 stats_before.shed_overload),
             "count");
  const double untraced = Quantile(publish_untraced, 0.5);
  result.Set("obs.trace_overhead_pct",
             untraced > 0.0
                 ? 100.0 * (Quantile(publish_traced, 0.5) - untraced) / untraced
                 : 0.0,
             "%");
  result.stamp["spans_file"] = WriteSpans(options, spans);
  return result;
}

}  // namespace perfbench
