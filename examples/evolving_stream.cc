// A repository evolving over many "days": mixed insert/delete batches keep
// arriving, MIDAS maintains the panel, and the MaintenanceHistory telemetry
// shows what a deployment would chart — per-round PMT, major/minor mix,
// and swap volume — while the panel keeps serving the current workload.
// Every round is also appended to a JSONL maintenance event log
// (evolving_stream.events.jsonl), and the closing report includes the
// Prometheus metrics dump — the full observability surface in one run.
//
//   $ ./evolving_stream              # default 50ms round SLO
//   $ ./evolving_stream --slo_ms=10  # tighter deadline, more degradation
//   $ ./evolving_stream --slo_ms=0   # no deadline: rounds run to completion
//   $ ./evolving_stream --telemetry_port=0   # + live /metrics & /spans
//   $ ./evolving_stream --threads=0  # parallel maintenance (all cores)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>

#include "midas/common/budget.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/datagen/workload.h"
#include "midas/maintain/midas.h"
#include "midas/maintain/report.h"
#include "midas/obs/event_log.h"
#include "midas/obs/export.h"
#include "midas/obs/flight.h"
#include "midas/obs/lineage.h"
#include "midas/obs/metrics.h"
#include "midas/obs/profile.h"
#include "midas/obs/telemetry_server.h"
#include "midas/obs/trace.h"
#include "midas/queryform/formulation.h"

int main(int argc, char** argv) {
  using namespace midas;

  double slo_ms = 50.0;
  int telemetry_port = -1;  // -1 off, 0 ephemeral
  int threads = 1;          // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--slo_ms=", 9) == 0) {
      slo_ms = std::atof(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--telemetry_port=", 17) == 0) {
      telemetry_port = std::atoi(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--slo_ms=<double>] [--telemetry_port=<int>]"
                   " [--threads=<int>]\n";
      return 2;
    }
  }

  // Per-day flight records (obs/flight.h): each round runs under its own
  // TraceContext, so its cost lands on /traces and as histogram exemplars
  // even without an EngineHost in front.
  obs::FlightRecorderConfig flight_cfg;
  flight_cfg.slo_ms = slo_ms;
  obs::FlightRecorder flights(flight_cfg);

  // Standalone telemetry (no EngineHost here): /metrics + /spans over the
  // process-wide registry and span profiler, live while the stream runs.
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (telemetry_port >= 0) {
    obs::SpanProfiler::Current().set_enabled(true);
    telemetry = std::make_unique<obs::TelemetryServer>();
    telemetry->Handle("/metrics", [](const obs::HttpRequest&) {
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::ExportPrometheus(obs::MetricsRegistry::Current());
      return resp;
    });
    telemetry->Handle("/spans", [](const obs::HttpRequest& req) {
      obs::HttpResponse resp;
      obs::SpanProfiler& prof = obs::SpanProfiler::Current();
      resp.body = req.QueryParam("fmt") == "folded" ? prof.ExportFolded()
                                                    : prof.ExportTopTable();
      return resp;
    });
    obs::InstallTraceRoutes(telemetry.get(), &flights);
    std::string terr;
    if (!telemetry->Start(telemetry_port, &terr)) {
      std::cerr << "telemetry server failed: " << terr << "\n";
      return 1;
    }
    std::cout << "telemetry on " << telemetry->BaseUrl() << " — try:\n"
              << "  curl -s " << telemetry->BaseUrl() << "/metrics\n"
              << "  curl -s " << telemetry->BaseUrl() << "/traces\n"
              << "  curl -s '" << telemetry->BaseUrl()
              << "/spans?fmt=folded'\n";
    std::cout.flush();  // scrapers parse the port from redirected stdout
  }

  MoleculeGenerator gen(4242);
  MoleculeGenConfig data = MoleculeGenerator::PubchemLike(150);

  MidasConfig cfg;
  cfg.budget = {3, 8, 14};
  cfg.fct.sup_min = 0.5;
  cfg.epsilon = 0.004;
  cfg.sample_cap = 0;
  cfg.seed = 17;
  // Latency SLO (--slo_ms, default 50): each maintenance round gets this
  // much wall clock. Rounds that would run longer degrade gracefully
  // (mining/GED/swap stop early, the panel stays valid) and report it via
  // stats.truncated, the midas_maintain_truncated_rounds_total metric and
  // the event log's truncated/degrade_reason fields.
  cfg.round_deadline_ms = slo_ms;
  // Maintenance parallelism (--threads, default 1 = serial reference;
  // 0 resolves to the machine's hardware concurrency). With unlimited
  // budgets the stream's outputs are identical at any thread count; under
  // an SLO more threads simply fit more work before the deadline.
  cfg.num_threads = threads;

  MidasEngine engine(gen.Generate(data), cfg);

  const char* event_path = "evolving_stream.events.jsonl";
  std::remove(event_path);  // FileSink appends; start each run fresh
  obs::MaintenanceEventLog event_log;
  event_log.set_sink(obs::FileSink(event_path));
  engine.SetEventLog(&event_log);

  engine.Initialize();
  std::cout << "day 0: " << engine.db().size() << " graphs, "
            << engine.patterns().size() << " canned patterns\n\n";
  std::cout << std::left << std::setw(5) << "day" << std::setw(8) << "|D|"
            << std::setw(8) << "delta" << std::setw(8) << "type"
            << std::setw(8) << "swaps" << std::setw(10) << "PMT(ms)"
            << std::setw(10) << "MP%" << std::setw(7) << "trunc" << "\n";

  Rng chaos(99);
  for (int day = 1; day <= 10; ++day) {
    // Weekday mix: mostly in-family growth; every third day a new family
    // arrives; occasional cleanup deletions.
    bool novel = day % 3 == 0;
    size_t adds = static_cast<size_t>(chaos.UniformInt(5, 25));
    GraphDatabase copy = engine.db();
    BatchUpdate delta = gen.GenerateAdditions(copy, data, adds, novel);
    if (day % 4 == 0) {
      BatchUpdate deletions = gen.GenerateDeletions(engine.db(), 5);
      delta.deletions = deletions.deletions;
    }

    // The day's batch flies under its own causal trace: phases, cache
    // lookups and worker chunks all account into it (see obs/trace.h).
    obs::TraceContext trace(obs::MintTraceId());
    MaintenanceStats stats;
    {
      obs::ScopedTraceContext scope(&trace);
      stats = engine.ApplyUpdate(delta);
    }
    auto record = std::make_shared<obs::FlightRecord>();
    record->trace_id = trace.id().ToHex();
    record->seq = engine.round_seq();
    record->additions = delta.insertions.size();
    record->deletions = delta.deletions.size();
    record->total_ms = stats.total_ms;
#define MIDAS_X(field) record->phase_ms.emplace_back(#field, stats.field);
    MIDAS_MAINTENANCE_PHASES(MIDAS_X)
#undef MIDAS_X
    record->truncated = stats.truncated;
    record->budget_steps = trace.budget_steps();
    record->cache_hits = trace.cache_hits();
    record->cache_misses = trace.cache_misses();
    record->degrade_reason = std::string(ExecBudget::CauseName(
        static_cast<ExecBudget::Cause>(trace.degrade_cause())));
    record->slo_violation = slo_ms > 0.0 && stats.total_ms > slo_ms;
    bool slow = record->slo_violation;
    std::string slow_trace = record->trace_id;
    flights.Record(std::move(record));
    if (slow) {
      std::cout << "  slow round (>" << slo_ms << "ms): trace " << slow_trace
                << (telemetry != nullptr
                        ? "  (curl " + telemetry->BaseUrl() + "/traces/" +
                              slow_trace + ")"
                        : std::string())
                << "\n";
    }

    // Today's workload: queries biased towards recent graphs.
    QueryGenConfig qcfg;
    qcfg.count = 40;
    qcfg.min_edges = 4;
    qcfg.max_edges = 14;
    Rng qrng(1000 + day);
    std::vector<Graph> queries = GenerateQueries(engine.db(), qcfg, qrng);
    double mp = MissedPercentage(queries, engine.patterns());

    std::cout << std::left << std::setw(5) << day << std::setw(8)
              << engine.db().size() << std::setw(8)
              << ("+" + std::to_string(adds)) << std::setw(8)
              << (stats.major ? "major" : "minor") << std::setw(8)
              << stats.swaps << std::setw(10) << std::fixed
              << std::setprecision(1) << stats.total_ms << std::setw(10)
              << mp << std::setw(7) << (stats.truncated ? "yes" : "-")
              << "\n";

    // The why behind each swap, straight from the provenance ledger: the
    // rationale was captured at the decision site, not reconstructed.
    for (const obs::LineageEvent& e :
         engine.lineage().SwapInsAt(engine.round_seq())) {
      std::cout << "      swap: pattern " << e.pattern << " displaced "
                << (e.has_other ? std::to_string(e.other) : std::string("?"))
                << " (margin " << std::setprecision(3) << e.rationale.margin
                << ", dominant " << e.rationale.dominant_term << ")\n";
    }
  }

  std::cout << "\n" << RenderEngineReport(engine);

  MaintenanceHistory::Summary s = engine.history().Summarize();
  std::cout << "\n10-day summary: " << s.rounds << " rounds, "
            << s.major_rounds << " major, " << s.total_swaps
            << " total swaps, mean PMT " << s.mean_pmt_ms << " ms (max "
            << s.max_pmt_ms << " ms)\n";
  size_t truncated_rounds = 0;
  for (const MaintenanceStats& st : engine.history().entries()) {
    if (st.truncated) ++truncated_rounds;
  }
  std::cout << truncated_rounds << " of " << s.rounds << " rounds hit the "
            << slo_ms << "ms deadline and degraded gracefully\n";
  std::cout << "event log: " << event_log.size() << " JSONL records in "
            << event_path << "\n";
  return 0;
}
