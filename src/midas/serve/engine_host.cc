#include "midas/serve/engine_host.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "midas/common/budget.h"
#include "midas/common/failpoint.h"
#include "midas/graph/compute_cache.h"
#include "midas/graph/graph_io.h"
#include "midas/maintain/snapshot.h"
#include "midas/obs/export.h"
#include "midas/obs/json.h"
#include "midas/obs/metrics.h"
#include "midas/obs/profile.h"

namespace midas {
namespace serve {

namespace fs = std::filesystem;

namespace {

void Count(const char* name, uint64_t n = 1) {
  auto& reg = obs::MetricsRegistry::Current();
  if (!reg.enabled()) return;
  reg.GetCounter(name)->Increment(n);
}

/// One queue item flattened to a single ΔD plus the (private) dictionary
/// its labels resolve through — self-contained, so the batch stays
/// serializable and re-mappable no matter what happens to the engine.
struct CanonicalBatch {
  BatchUpdate batch;
  LabelDictionary labels;
};

CanonicalBatch Canonicalize(BoundedUpdateQueue::Item&& item,
                            const LabelDictionary& engine_labels) {
  CanonicalBatch out;
  out.labels = engine_labels;  // frozen copy; Intern below mutates only it
  for (auto& part : item.parts) {
    BatchUpdate remapped;
    if (part.labels != nullptr) {
      remapped.insertions.reserve(part.batch.insertions.size());
      for (const Graph& g : part.batch.insertions) {
        remapped.insertions.push_back(
            RemapLabels(g, *part.labels, out.labels));
      }
      remapped.deletions = std::move(part.batch.deletions);
    } else {
      // No rider dictionary: ids are engine-consistent, and out.labels
      // started as a copy of the engine dictionary.
      remapped = std::move(part.batch);
    }
    MergeBatches(&out.batch, std::move(remapped));
  }
  return out;
}

/// Translates the canonical batch into the live engine dictionary. Re-run
/// before every attempt: recovery may hand back an engine whose dictionary
/// lacks labels a previous attempt interned.
BatchUpdate RemapInto(const CanonicalBatch& canon, LabelDictionary& target) {
  BatchUpdate out;
  out.deletions = canon.batch.deletions;
  out.insertions.reserve(canon.batch.insertions.size());
  for (const Graph& g : canon.batch.insertions) {
    out.insertions.push_back(RemapLabels(g, canon.labels, target));
  }
  return out;
}

}  // namespace

EngineHost::EngineHost(std::unique_ptr<MidasEngine> engine,
                       std::string engine_dir, HostConfig config)
    : engine_dir_(std::move(engine_dir)),
      quarantine_dir_(fs::path(config.quarantine_subdir).is_absolute()
                          ? config.quarantine_subdir
                          : engine_dir_ + "/" + config.quarantine_subdir),
      config_(std::move(config)),
      engine_(std::move(engine)),
      drift_(config_.sli),
      flights_(config_.flight),
      admission_ctrl_(config_.overload.admission),
      breaker_(config_.overload.breaker),
      ladder_(config_.overload.ladder),
      queue_(config_.queue_capacity, config_.overflow) {}

EngineHost::~EngineHost() { Stop(); }

bool EngineHost::Start(std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) return true;
  if (engine_ == nullptr) return fail("EngineHost: no engine");

  std::string mkdir_err;
  if (!io::Resolve(config_.fs).CreateDirs(engine_dir_, &mkdir_err)) {
    return fail(mkdir_err);
  }

  if (config_.num_threads >= 0) engine_->SetNumThreads(config_.num_threads);
  try {
    if (!engine_->initialized()) engine_->Initialize();
  } catch (const std::exception& e) {
    return fail(std::string("engine Initialize: ") + e.what());
  }
  base_deadline_ms_ = engine_->config().round_deadline_ms;
  base_step_limit_ = engine_->config().round_step_limit;

  // Memory watchdog: the budget is measured over *tracked* structures (a
  // pure function of engine state, so pressure — and the ladder driven by
  // it — replays deterministically); RSS is observability-only. Samplers
  // run on the writer thread via WatchdogTick.
  memory_.set_budget_bytes(config_.overload.memory_budget_bytes);
  memory_.set_sample_rss(config_.overload.sample_rss);
  memory_.Register("database", [this] {
    return engine_ != nullptr ? engine_->db().ApproxBytes() : 0;
  });
  memory_.Register("cache",
                   [] { return ComputeCache::Global().ApproxBytes(); });
  memory_.Register("queue", [this] { return queue_.ApproxBytes(); });
  memory_.Register("flight_recorder",
                   [this] { return flights_.ApproxBytes(); });

  // Recovery baseline: snapshot the as-started engine so RecoverEngine has
  // a floor even before the first checkpointed round.
  std::string err;
  if (!SaveCheckpoint(*engine_, engine_dir_, &err, config_.fs)) {
    return fail("baseline checkpoint: " + err);
  }
  if (!journal_.Open(engine_dir_ + "/journal.log", &err, config_.fs)) {
    return fail("open journal: " + err);
  }
  // Anything left in the journal predates the baseline we just saved.
  if (!journal_.Reset(&err)) return fail("reset journal: " + err);
  engine_->SetJournal(&journal_);
  if (event_log_ != nullptr) engine_->SetEventLog(event_log_);
  if (config_.sli_enabled) engine_->SetDriftDetector(&drift_);
  rounds_since_checkpoint_ = 0;

  if (config_.history_enabled) {
    history_ = std::make_unique<obs::MetricHistory>(config_.history);
    alerter_ = std::make_unique<obs::BurnRateAlerter>(config_.alerts);
    // Pre-register the alert metrics so a healthy host exports them at 0
    // — dashboards must distinguish "quiet" from "absent".
    auto& reg = obs::MetricsRegistry::Current();
    if (reg.enabled()) {
      for (const obs::BurnRateAlerter::AlertState& s : alerter_->States(0.0)) {
        if (s.enabled) reg.GetGauge("midas_alert_" + s.name)->Set(0.0);
      }
      reg.GetCounter("midas_alert_transitions_total");
    }
  }
  history_epoch_ = std::chrono::steady_clock::now();

  PublishSnapshot();

  if (config_.telemetry_port >= 0) {
    if (telemetry_ == nullptr) {
      telemetry_ = std::make_unique<obs::TelemetryServer>();
    }
    InstallTelemetryRoutes();
    if (config_.profile_spans) {
      obs::SpanProfiler::Current().set_enabled(true);
    }
    if (!telemetry_->Start(config_.telemetry_port, &err)) {
      return fail("telemetry server: " + err);
    }
  }

  scrub_phase_ = 0;
  scrub_cursor_ = 0;
  scrub_cycle_ = IntegrityReport{};
  logged_rung_ = RepairRung::kNone;
  integrity_failed_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    last_integrity_report_ = IntegrityReport{};
    integrity_cause_.clear();
    integrity_verified_seq_ = 0;
  }

  dead_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  writer_ = std::thread([this] { WriterLoop(); });
  return true;
}

void EngineHost::Stop() {
  queue_.Close();
  if (writer_.joinable()) writer_.join();
  if (telemetry_ != nullptr) telemetry_->Stop();
  running_.store(false, std::memory_order_release);
}

SubmitResult EngineHost::Submit(BatchUpdate batch) {
  return SubmitInternal(std::move(batch), nullptr);
}

SubmitResult EngineHost::Submit(BatchUpdate batch,
                                const LabelDictionary& labels) {
  return SubmitInternal(std::move(batch),
                        std::make_shared<const LabelDictionary>(labels));
}

SubmitResult EngineHost::SubmitInternal(
    BatchUpdate batch, std::shared_ptr<const LabelDictionary> labels) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_serve_submitted_total");

  SubmitResult result;
  if (!running_.load(std::memory_order_acquire) || queue_.closed()) {
    result.status = SubmitStatus::kRejectedStopped;
    return result;
  }

  // Mint the batch's causal identity up front: even a rejected batch gets a
  // (short) flight record, so the submitter's trace id is always resolvable.
  std::shared_ptr<obs::TraceContext> trace;
  if (config_.tracing_enabled) {
    trace = std::make_shared<obs::TraceContext>(obs::MintTraceId());
    result.trace_id = trace->id().ToHex();
  }
  // Keyed off result.trace_id, not `trace`: the overflow path runs after
  // Push consumed the context.
  auto record_reject = [&](const char* verdict, size_t adds, size_t dels) {
    if (result.trace_id.empty()) return;
    auto record = std::make_shared<obs::FlightRecord>();
    record->trace_id = result.trace_id;
    record->additions = adds;
    record->deletions = dels;
    record->admission = verdict;
    record->outcome = verdict;
    RecordFlight(std::move(record));
  };

  PanelSnapshotPtr snap = snapshot();
  static const std::vector<GraphId> kNoIds;
  const std::vector<GraphId>& live =
      (snap != nullptr && snap->live_ids != nullptr) ? *snap->live_ids
                                                     : kNoIds;
  const size_t raw_adds = batch.insertions.size();
  const size_t raw_dels = batch.deletions.size();
  BatchValidation v = ValidateBatch(batch, live, config_.admission);
  result.diagnostics = std::move(v.diagnostics);
  if (!v.admissible) {
    rejected_validation_.fetch_add(1, std::memory_order_relaxed);
    Count("midas_serve_admission_rejects_total");
    result.status = SubmitStatus::kRejectedValidation;
    record_reject("rejected_validation", raw_adds, raw_dels);
    return result;
  }

  // Overload gating, in escalation order: lame-duck ladder rung, open
  // breaker, then the adaptive admission controller. All pass-through in a
  // healthy host, so the layer costs three atomic loads on the hot path.
  auto shed = [&](const char* reason, double retry_after_ms) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    Count("midas_serve_shed_overload_total");
    result.status = SubmitStatus::kShedOverload;
    result.retry_after_ms = retry_after_ms;
    result.shed_reason = reason;
    record_reject("shed_overload", raw_adds, raw_dels);
    return result;
  };
  if (integrity_failed_.load(std::memory_order_acquire)) {
    // Repair ladder exhausted: the durable state cannot be trusted, so no
    // new batch may mutate it. Reads keep serving the last verified panel.
    return shed("integrity", config_.overload.admission.interval_ms);
  }
  if (ladder_.state() == OverloadState::kLameDuck) {
    // No principled hint for lame-duck: the rung lifts when pressure drops.
    // The initial CoDel interval is the layer's "a while from now" unit.
    return shed("ladder", config_.overload.admission.interval_ms);
  }
  if (breaker_.state() == CircuitBreaker::State::kOpen) {
    return shed("breaker",
                std::max(breaker_.RetryAfterMs(),
                         config_.overload.admission.retry_after_floor_ms));
  }
  size_t delta_edges = v.normalized.deletions.size();
  for (const Graph& g : v.normalized.insertions) delta_edges += g.NumEdges();
  AdmissionDecision decision = admission_ctrl_.Admit(delta_edges);
  if (!decision.admit) {
    return shed(decision.reason, decision.retry_after_ms);
  }

  const auto block_timeout = std::chrono::milliseconds(
      config_.submit_timeout_ms > 0.0
          ? static_cast<int64_t>(config_.submit_timeout_ms)
          : 0);
  switch (queue_.Push(std::move(v.normalized), std::move(labels),
                      std::move(trace), block_timeout)) {
    case BoundedUpdateQueue::PushOutcome::kQueued:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      result.status = SubmitStatus::kAccepted;
      break;
    case BoundedUpdateQueue::PushOutcome::kCoalesced:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      Count("midas_serve_coalesced_total");
      result.status = SubmitStatus::kAccepted;
      result.coalesced = true;
      break;
    case BoundedUpdateQueue::PushOutcome::kRejectedFull:
      rejected_overflow_.fetch_add(1, std::memory_order_relaxed);
      Count("midas_serve_overflow_rejects_total");
      result.status = SubmitStatus::kRejectedOverflow;
      record_reject("rejected_overflow", raw_adds, raw_dels);
      break;
    case BoundedUpdateQueue::PushOutcome::kRejectedClosed:
    case BoundedUpdateQueue::PushOutcome::kRejectedDraining:
      result.status = SubmitStatus::kRejectedStopped;
      break;
    case BoundedUpdateQueue::PushOutcome::kRejectedTimeout:
      submit_timeouts_.fetch_add(1, std::memory_order_relaxed);
      Count("midas_serve_submit_timeouts_total");
      result.status = SubmitStatus::kRejectedTimeout;
      // The queue stayed full for the whole wait; hint a backoff in the
      // same unit rather than inviting an immediate identical wait.
      result.retry_after_ms = config_.submit_timeout_ms;
      record_reject("rejected_timeout", raw_adds, raw_dels);
      break;
  }
  UpdateGauges();
  return result;
}

void EngineHost::WriterLoop() {
  for (;;) {
    // Circuit-breaker gate: while open, stop consuming — admission sheds
    // upstream and the queue holds what was already admitted. AllowAttempt
    // flips open -> half-open itself once the cooldown elapses (the next
    // batch is the probe). Ignored once the queue closes so Stop() can
    // always drain.
    if (!queue_.closed() && !breaker_.AllowAttempt()) {
      NoteBreakerState("cooldown");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      WatchdogTick();
      HistoryTick();
      UpdateGauges();
      continue;
    }
    NoteBreakerState("cooldown elapsed");
    BoundedUpdateQueue::Item item;
    if (queue_.Pop(&item, std::chrono::milliseconds(50))) {
      const uint64_t batches = item.parts.size();
      if (dead_.load(std::memory_order_acquire)) {
        // The writer gave up on this engine; record the evidence instead of
        // silently dropping admitted work.
        if (config_.tracing_enabled) {
          for (const auto& part : item.parts) {
            if (part.trace == nullptr) continue;
            auto record = std::make_shared<obs::FlightRecord>();
            record->trace_id = part.trace->id().ToHex();
            record->ticket = item.ticket;
            record->additions = part.batch.insertions.size();
            record->deletions = part.batch.deletions.size();
            record->admission = "dead_drop";
            record->outcome = "dead_drop";
            record->error = "host dead";
            RecordFlight(std::move(record));
          }
        }
        PanelSnapshotPtr snap = snapshot();
        CanonicalBatch canon = Canonicalize(
            std::move(item), snap != nullptr && snap->labels != nullptr
                                 ? *snap->labels
                                 : LabelDictionary());
        Quarantine(canon.batch, canon.labels, 0, 0, "host dead");
      } else {
        RunBatch(std::move(item));
      }
      drained_.fetch_add(batches, std::memory_order_release);
    } else if (queue_.closed()) {
      break;  // closed and drained
    } else {
      // Idle tick: no batch arrived within the Pop timeout — spend the
      // slack verifying our own durable state.
      ScrubTick();
    }
    WatchdogTick();
    HistoryTick();
    UpdateGauges();
  }
}

void EngineHost::RunBatch(BoundedUpdateQueue::Item item) {
  // Causal bookkeeping before Canonicalize consumes the item: the first
  // traced part is the round's primary identity, the remaining (coalesced)
  // parts become its links — a merged batch stays attributable to every
  // submitter. The context is installed thread-locally for the whole
  // attempt loop, so engine phases, TaskPool workers and cache lookups all
  // account into it.
  const auto popped_at = std::chrono::steady_clock::now();
  // Every part's queue wait feeds the CoDel controller — the coalesced
  // parts too, since each was a separately admitted batch.
  for (const auto& part : item.parts) {
    admission_ctrl_.ObserveSojourn(
        std::chrono::duration<double, std::milli>(popped_at -
                                                  part.enqueued_at)
            .count());
  }
  std::shared_ptr<obs::TraceContext> trace;
  std::shared_ptr<obs::FlightRecord> record;
  if (config_.tracing_enabled) {
    record = std::make_shared<obs::FlightRecord>();
    record->ticket = item.ticket;
    record->coalesced_parts = item.coalesced();
    for (const auto& part : item.parts) {
      if (part.trace == nullptr) continue;
      if (trace == nullptr) {
        trace = part.trace;
        record->queue_wait_ms =
            std::chrono::duration<double, std::milli>(popped_at -
                                                      part.enqueued_at)
                .count();
      } else {
        record->links.push_back(part.trace->id().ToHex());
      }
    }
    if (trace != nullptr) {
      record->trace_id = trace->id().ToHex();
      if (record->coalesced_parts > 0) record->admission = "coalesced";
    } else {
      record = nullptr;  // untraced item (tracing flipped on mid-stream)
    }
  }
  obs::ScopedTraceContext trace_scope(trace.get());
  PanelSnapshotPtr pre_snapshot = snapshot();

  CanonicalBatch canon = Canonicalize(std::move(item), engine_->db().labels());
  if (record != nullptr) {
    record->additions = canon.batch.insertions.size();
    record->deletions = canon.batch.deletions.size();
  }

  // Authoritative re-validation: the Submit-side check ran against a
  // snapshot that trails the engine by the queued batches (e.g. an id this
  // batch deletes may have been deleted by the batch before it).
  {
    BatchValidation v = ValidateBatch(canon.batch, engine_->db(),
                                      config_.admission);
    if (!v.admissible) {
      writer_rejected_.fetch_add(1, std::memory_order_relaxed);
      Count("midas_serve_writer_rejects_total");
      AppendServeEvent("writer_reject", engine_->round_seq() + 1,
                       v.Describe());
      if (record != nullptr) {
        record->outcome = "writer_rejected";
        record->error = v.Describe();
        RecordFlight(std::move(record));
      }
      return;
    }
    canon.batch = std::move(v.normalized);
  }

  std::string last_error = "never attempted";
  uint64_t attempted = 0;
  const int max_attempts = std::max(1, config_.max_attempts);
  int attempt = 0;
  for (attempt = 1; attempt <= max_attempts; ++attempt) {
    if (engine_ == nullptr && !RecoverInProcess(last_error)) {
      last_error = "in-process recovery failed (" + last_error + ")";
      continue;  // try recovery again on the next attempt, if any
    }
    attempted = engine_->round_seq() + 1;

    // Budget: attempt 1 runs under the engine's own limits (tightened to
    // the degraded caps when the ladder says so); each retry gets a
    // geometrically tighter deadline so a poison batch cannot monopolize
    // the writer.
    double eff_deadline_ms = 0.0;
    uint64_t eff_step_limit = 0;
    EffectiveBaseLimits(&eff_deadline_ms, &eff_step_limit);
    if (attempt == 1) {
      engine_->SetRoundLimits(eff_deadline_ms, eff_step_limit);
    } else {
      double deadline =
          config_.retry_deadline_ms *
          std::pow(config_.retry_budget_factor, attempt - 2);
      deadline = std::max(deadline, config_.retry_deadline_floor_ms);
      if (eff_deadline_ms > 0.0) deadline = std::min(deadline,
                                                     eff_deadline_ms);
      engine_->SetRoundLimits(deadline, eff_step_limit);
    }

    try {
      MIDAS_FAILPOINT_ABORT("serve.round.before_apply");
      BatchUpdate attempt_batch = RemapInto(canon, engine_->labels());
      MaintenanceStats round_stats =
          engine_->ApplyUpdate(attempt_batch, config_.mode);
      MIDAS_FAILPOINT_ABORT("serve.round.before_publish");
      engine_->SetRoundLimits(base_deadline_ms_, base_step_limit_);
      {
        std::lock_guard<std::mutex> lock(last_stats_mu_);
        last_stats_ = round_stats;
        has_last_stats_ = true;
      }
      rounds_ok_.fetch_add(1, std::memory_order_relaxed);
      Count("midas_serve_rounds_total");
      size_t round_edges = canon.batch.deletions.size();
      for (const Graph& g : canon.batch.insertions) {
        round_edges += g.NumEdges();
      }
      admission_ctrl_.ObserveRound(round_edges, round_stats.total_ms);
      if (breaker_.RecordSuccess(round_stats.total_ms)) {
        NoteBreakerState("round committed");
      }
      ++rounds_since_checkpoint_;
      MaybeCheckpoint();
      PublishSnapshot();
      ObserveRoundForAlerts(round_stats);
      if (record != nullptr) {
        record->seq = engine_->round_seq();
        record->attempts = attempt;
        record->retries = attempt - 1;
        record->total_ms = round_stats.total_ms;
#define MIDAS_X(field) \
  record->phase_ms.emplace_back(#field, round_stats.field);
        MIDAS_MAINTENANCE_PHASES(MIDAS_X)
#undef MIDAS_X
        record->truncated = round_stats.truncated;
        FinishFlight(std::move(record), trace.get(), pre_snapshot);
      }
      return;
    } catch (const std::exception& e) {
      last_error = e.what();
      if (breaker_.RecordFailure()) NoteBreakerState(last_error.c_str());
      if (attempt < max_attempts) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        Count("midas_serve_retries_total");
      }
      if (RecoverInProcess(last_error) &&
          engine_->round_seq() >= attempted) {
        // The failure struck *after* the journal commit — the round is
        // durable and recovery replayed it. Publishing it (instead of
        // retrying) avoids applying the batch twice.
        rounds_ok_.fetch_add(1, std::memory_order_relaxed);
        Count("midas_serve_rounds_total");
        if (breaker_.RecordSuccess(0.0)) {
          NoteBreakerState("recovery replayed committed round");
        }
        PublishSnapshot();
        if (record != nullptr) {
          record->seq = engine_->round_seq();
          record->attempts = attempt;
          record->retries = attempt - 1;
          record->recovered = true;
          record->error = last_error;
          FinishFlight(std::move(record), trace.get(), pre_snapshot);
        }
        return;
      }
      if (record != nullptr) record->recovered = true;
      if (attempt < max_attempts) {
        double sleep_ms = config_.backoff_initial_ms *
                          std::pow(config_.backoff_multiplier, attempt - 1);
        sleep_ms = std::min(sleep_ms, config_.backoff_max_ms);
        if (sleep_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(sleep_ms));
        }
      }
    }
  }

  Quarantine(canon.batch, canon.labels, attempted, max_attempts, last_error);
  if (record != nullptr) {
    record->seq = attempted;
    record->attempts = max_attempts;
    record->retries = max_attempts - 1;
    record->outcome = "quarantined";
    record->error = last_error;
    FinishFlight(std::move(record), trace.get(), pre_snapshot);
  }
  if (engine_ == nullptr) {
    // Recovery never came back: stop applying, keep serving the last
    // published snapshot, quarantine whatever else arrives. Producers
    // blocked on a full queue are woken (kRejectedDraining) — nobody
    // should wait on a writer that will never drain another slot.
    dead_.store(true, std::memory_order_release);
    queue_.SetDrainOnly();
    AppendServeEvent("host_dead", attempted, last_error);
  }
}

void EngineHost::AttachEngine(MidasEngine* engine) {
  engine->SetJournal(&journal_);
  if (event_log_ != nullptr) engine->SetEventLog(event_log_);
  if (config_.sli_enabled) engine->SetDriftDetector(&drift_);
  engine->SetRoundLimits(base_deadline_ms_, base_step_limit_);
  if (config_.num_threads >= 0) engine->SetNumThreads(config_.num_threads);
  // A recovered engine must come back inside the ladder's current posture,
  // not at full quality while the host is shedding.
  if (ladder_.AtLeast(OverloadState::kShedWork)) {
    engine->SetShedMode(true, config_.overload.shed_candidate_cap);
  }
}

bool EngineHost::RecoverInProcess(const std::string& why) {
  engine_.reset();  // drop the torn engine before rebuilding from disk
  std::string detail;
  try {
    RecoverInfo info;
    std::unique_ptr<MidasEngine> fresh =
        RecoverEngine(engine_dir_, &info, config_.fs);
    if (fresh == nullptr) {
      detail = info.error.empty() ? "RecoverEngine failed" : info.error;
    } else {
      AttachEngine(fresh.get());
      // Mandatory re-baseline: a failed round leaves stale uncommitted
      // records (and possibly seqs above where we resume) in the journal;
      // the checkpoint truncates them so the retry's appends cannot read
      // back as a seq regression.
      std::string err;
      if (!SaveCheckpoint(*fresh, engine_dir_, &err, config_.fs)) {
        detail = "post-recovery checkpoint: " + err;
      } else {
        engine_ = std::move(fresh);
        rounds_since_checkpoint_ = 0;
        recoveries_.fetch_add(1, std::memory_order_relaxed);
        Count("midas_serve_recoveries_total");
        AppendServeEvent("recovered", engine_->round_seq(), why);
        return true;
      }
    }
  } catch (const std::exception& e) {
    detail = e.what();
  }
  recovery_failures_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_serve_recovery_failures_total");
  AppendServeEvent("recovery_failed", 0, detail);
  return false;
}

void EngineHost::PublishSnapshot() {
  auto snap = std::make_shared<PanelSnapshot>();
  snap->round_seq = engine_->round_seq();
  snap->db_size = engine_->db().size();
  snap->patterns = engine_->patterns();
  snap->small_panel = engine_->small_panel();
  snap->quality = engine_->CurrentQuality();
  snap->live_ids =
      std::make_shared<const std::vector<GraphId>>(engine_->db().Ids());
  snap->labels =
      std::make_shared<const LabelDictionary>(engine_->db().labels());
  // Deep copy of the ledger: the engine keeps mutating its own, readers
  // (/patternz, /lineage/<id>) walk this frozen one lock-free.
  snap->lineage =
      std::make_shared<const obs::PatternLedger>(engine_->lineage());
  snap->created_at = std::chrono::steady_clock::now();

  // Readers' view of completed rounds never regresses, even if recovery
  // resumed from an older committed state (see docs/robustness.md).
  PanelSnapshotPtr current = snapshot_.load(std::memory_order_acquire);
  if (current != nullptr && snap->round_seq < current->round_seq) return;
  snapshot_.store(std::move(snap), std::memory_order_release);
  Count("midas_serve_snapshots_published_total");
  UpdateGauges();
}

void EngineHost::Quarantine(const BatchUpdate& batch,
                            const LabelDictionary& labels, uint64_t seq,
                            int attempts, const std::string& reason) {
  QuarantinedBatch q;
  q.seq = seq;
  q.attempts = attempts;
  q.reason = reason;
  q.batch = batch;
  std::string path;
  std::string err;
  std::string detail;
  if (WriteQuarantineFile(q, labels, quarantine_dir_, &path, &err,
                          config_.fs)) {
    detail = reason + " file=" + path;
  } else {
    // The write itself failed; the event-log record is the only evidence.
    Count("midas_serve_quarantine_write_failures_total");
    detail = reason + " (quarantine write failed: " + err + ")";
  }
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_quarantined_batches");
  AppendServeEvent("quarantine", seq, detail);
}

void EngineHost::FinishFlight(std::shared_ptr<obs::FlightRecord> record,
                              const obs::TraceContext* trace,
                              const PanelSnapshotPtr& pre) {
  if (trace != nullptr) {
    record->budget_steps = trace->budget_steps();
    record->cache_hits = trace->cache_hits();
    record->cache_misses = trace->cache_misses();
    record->degrade_reason = std::string(ExecBudget::CauseName(
        static_cast<ExecBudget::Cause>(trace->degrade_cause())));
  }
  record->slo_violation = config_.flight.slo_ms > 0.0 &&
                          record->total_ms > config_.flight.slo_ms;
  record->drift_coincident = quality_drifted();
  PanelSnapshotPtr post = snapshot();
  if (pre != nullptr && post != nullptr) {
    record->scov_delta = post->quality.scov - pre->quality.scov;
    record->lcov_delta = post->quality.lcov - pre->quality.lcov;
    record->div_delta = post->quality.div - pre->quality.div;
    record->cog_delta = post->quality.cog_avg - pre->quality.cog_avg;
  }
  RecordFlight(std::move(record));
}

void EngineHost::RecordFlight(
    std::shared_ptr<const obs::FlightRecord> record) {
  Count("midas_serve_traces_total");
  if (event_log_ != nullptr) {
    // `trace_event` JSONL record, interleaved with the per-round
    // maintenance records so one grep reconstructs a batch's whole story.
    event_log_->AppendRaw("{\"trace_event\":" + record->ToJson() + "}");
  }
  flights_.Record(std::move(record));
}

void EngineHost::AppendServeEvent(const std::string& kind, uint64_t seq,
                                  const std::string& detail) {
  if (event_log_ == nullptr) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("serve_event").Value(kind);
  w.Key("seq").Value(seq);
  w.Key("detail").Value(detail);
  w.EndObject();
  event_log_->AppendRaw(w.str());
}

void EngineHost::MaybeCheckpoint() {
  if (config_.checkpoint_every == 0) return;
  if (rounds_since_checkpoint_ < config_.checkpoint_every) return;
  std::string err;
  if (SaveCheckpoint(*engine_, engine_dir_, &err, config_.fs)) {
    rounds_since_checkpoint_ = 0;
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    Count("midas_serve_checkpoints_total");
  } else {
    // Not fatal: the journal keeps every round since the last checkpoint,
    // it just grows until a later checkpoint succeeds.
    AppendServeEvent("checkpoint_failed", engine_->round_seq(), err);
  }
}

const char* EngineHost::RepairRungName(RepairRung rung) {
  switch (rung) {
    case RepairRung::kNone: return "none";
    case RepairRung::kRebuildViews: return "rebuild_views";
    case RepairRung::kRestoreSnapshot: return "restore_snapshot";
    case RepairRung::kRunFromScratch: return "run_from_scratch";
    case RepairRung::kRefuseServe: return "refuse_serve";
  }
  return "unknown";
}

void EngineHost::ScrubTick() {
  if (!config_.scrub.enabled || dead_.load(std::memory_order_acquire)) {
    return;
  }
  if (integrity_failed_.load(std::memory_order_acquire)) {
    // Refused: retry at a gentle cadence (every ~20 idle ticks, roughly a
    // second) instead of burning the writer re-verifying a known-bad state
    // on every Pop timeout. A cleared fault still lifts the refusal, just
    // not instantly.
    if (++refused_backoff_ticks_ < 20) return;
    refused_backoff_ticks_ = 0;
  }
  if (engine_ == nullptr) {
    // A failed restore rung left the host engineless. Keep retrying the
    // ladder so a cleared fault lifts the refusal without a restart.
    if (integrity_failed_.load(std::memory_order_acquire) &&
        config_.scrub.repair) {
      RunRepairLadder("engine lost during repair");
    }
    return;
  }
  scrub_ticks_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_integrity_scrub_ticks_total");

  IntegrityReport tick;
  bool lap_done = false;
  if (scrub_phase_ == 0) {
    // Disk tiers: manifest CRCs + journal chain in one slice (cheap —
    // bounded by snapshot size, not panel size).
    VerifyOptions opt;
    opt.level = IntegrityTier::kJournal;
    opt.fs = config_.fs;
    tick = VerifyEngineDir(engine_dir_, opt);
    scrub_phase_ = 1;
    scrub_cursor_ = 0;
  } else {
    scrub_cursor_ = VerifyPatternsSlice(*engine_, scrub_cursor_,
                                        config_.scrub.tick_budget_ms, &tick);
    if (scrub_cursor_ == 0) {
      PanelSnapshotPtr snap = snapshot();
      if (snap != nullptr) {
        VerifyPanelAgreement(*engine_, snap->patterns, snap->round_seq,
                             &tick);
      }
      scrub_phase_ = 0;
      lap_done = true;
    }
  }
  Count("midas_integrity_checks_total", tick.checks);
  scrub_cycle_.Merge(tick);

  if (!tick.clean()) {
    integrity_violations_.fetch_add(tick.violations.size(),
                                    std::memory_order_relaxed);
    Count("midas_integrity_violations_total", tick.violations.size());
    if (breaker_.RecordFailure()) NoteBreakerState("integrity violation");
    SetIntegrityReport(scrub_cycle_, 0);
    const std::string detail = tick.Describe();
    AppendServeEvent("integrity_violation", engine_->round_seq(), detail);
    RecordIntegrityEvent("integrity_violation", detail);
    if (config_.scrub.repair) {
      RunRepairLadder(detail);
    } else {
      auto& reg = obs::MetricsRegistry::Current();
      if (reg.enabled()) reg.GetGauge("midas_integrity_status")->Set(1.0);
    }
    // Restart the scan from the disk tier: whatever the ladder did (or a
    // detect-only host left alone), the next lap measures the new state.
    scrub_phase_ = 0;
    scrub_cursor_ = 0;
    scrub_cycle_ = IntegrityReport{};
    return;
  }

  if (lap_done) {
    // Full clean lap: every tier verified against the live engine — this
    // seq becomes the verified watermark.
    SetIntegrityReport(scrub_cycle_, engine_->round_seq());
    scrub_cycle_ = IntegrityReport{};
    if (integrity_failed_.exchange(false, std::memory_order_acq_rel)) {
      // The fault cleared between refusal and this lap (e.g. a transient
      // device error): the state verifies clean end to end, so serving
      // resumes.
      LogOverloadTransition("integrity", RepairRungName(logged_rung_),
                            RepairRungName(RepairRung::kNone),
                            "clean verification lap");
      logged_rung_ = RepairRung::kNone;
    }
  }
}

bool EngineHost::RunRepairLadder(const std::string& cause) {
  auto transition = [this](RepairRung to, const std::string& why) {
    LogOverloadTransition("integrity", RepairRungName(logged_rung_),
                          RepairRungName(to), why);
    logged_rung_ = to;
  };
  auto& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) reg.GetGauge("midas_integrity_status")->Set(1.0);

  struct Step {
    RepairRung rung;
    bool (EngineHost::*fn)(std::string*);
  };
  static constexpr Step kLadder[] = {
      {RepairRung::kRebuildViews, &EngineHost::RepairRebuildViews},
      {RepairRung::kRestoreSnapshot, &EngineHost::RepairRestoreSnapshot},
      {RepairRung::kRunFromScratch, &EngineHost::RepairRunFromScratch},
  };
  std::string why = cause;
  for (const Step& step : kLadder) {
    transition(step.rung, why);
    std::string err;
    if (!(this->*step.fn)(&err)) {
      why = std::string(RepairRungName(step.rung)) + " failed: " + err;
      AppendServeEvent("integrity_repair_failed",
                       engine_ != nullptr ? engine_->round_seq() : 0, why);
      continue;
    }
    IntegrityReport proof;
    if (!VerifyAfterRepair(&proof)) {
      why = std::string(RepairRungName(step.rung)) +
            " did not verify: " + proof.Describe();
      AppendServeEvent("integrity_repair_failed",
                       engine_ != nullptr ? engine_->round_seq() : 0, why);
      continue;
    }
    // Healed and proven: publish the repaired (deep-verified) panel.
    integrity_repairs_.fetch_add(1, std::memory_order_relaxed);
    Count("midas_integrity_repairs_total");
    if (breaker_.RecordSuccess(0.0)) NoteBreakerState("integrity repaired");
    const uint64_t seq = engine_->round_seq();
    SetIntegrityReport(proof, seq);
    integrity_failed_.store(false, std::memory_order_release);
    const std::string healed =
        std::string("repaired at ") + RepairRungName(step.rung);
    transition(RepairRung::kNone, healed);
    AppendServeEvent("integrity_repaired", seq, healed + " (" + cause + ")");
    RecordIntegrityEvent("integrity_repaired", healed);
    PublishSnapshot();
    if (reg.enabled()) reg.GetGauge("midas_integrity_status")->Set(0.0);
    return true;
  }

  // Every rung failed: the durable state cannot be trusted. Refuse new
  // batches (typed shed reason "integrity", /healthz 503) but keep serving
  // the last published — still verified — panel to readers.
  transition(RepairRung::kRefuseServe, why);
  integrity_refusals_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_integrity_refusals_total");
  integrity_failed_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    integrity_cause_ = why;
  }
  AppendServeEvent("integrity_refused",
                   engine_ != nullptr ? engine_->round_seq() : 0, why);
  RecordIntegrityEvent("integrity_refused", why);
  if (reg.enabled()) reg.GetGauge("midas_integrity_status")->Set(2.0);
  return false;
}

bool EngineHost::RepairRebuildViews(std::string* error) {
  if (engine_ == nullptr) {
    *error = "no engine";
    return false;
  }
  try {
    engine_->RebuildDerivedState();
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  // Rewriting the checkpoint from the rebuilt engine also heals disk rot:
  // a flipped bit in the snapshot is overwritten with fresh, CRC'd bytes.
  if (!SaveCheckpoint(*engine_, engine_dir_, error, config_.fs)) {
    return false;
  }
  rounds_since_checkpoint_ = 0;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_serve_checkpoints_total");
  return true;
}

bool EngineHost::RepairRestoreSnapshot(std::string* error) {
  // Unlike RecoverInProcess this keeps the current engine alive until the
  // restore succeeds: the live database is the RunFromScratch rung's only
  // input, so it must survive a failed restore.
  std::unique_ptr<MidasEngine> fresh;
  RecoverInfo info;
  try {
    fresh = RecoverEngine(engine_dir_, &info, config_.fs);
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  if (fresh == nullptr) {
    *error = info.error.empty() ? "RecoverEngine failed" : info.error;
    return false;
  }
  AttachEngine(fresh.get());
  if (!SaveCheckpoint(*fresh, engine_dir_, error, config_.fs)) return false;
  engine_ = std::move(fresh);
  rounds_since_checkpoint_ = 0;
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  Count("midas_serve_recoveries_total");
  AppendServeEvent("recovered", engine_->round_seq(), "integrity repair");
  return true;
}

bool EngineHost::RepairRunFromScratch(std::string* error) {
  if (engine_ == nullptr) {
    *error = "no engine to rebuild from";
    return false;
  }
  try {
    const uint64_t seq = engine_->round_seq();
    GraphDatabase db = engine_->db();  // deep copy, fresh epoch
    auto fresh =
        std::make_unique<MidasEngine>(std::move(db), engine_->config());
    if (config_.num_threads >= 0) fresh->SetNumThreads(config_.num_threads);
    fresh->Initialize();  // full from-scratch pipeline, selection included
    fresh->RestoreRoundSeq(seq);
    AttachEngine(fresh.get());
    if (!SaveCheckpoint(*fresh, engine_dir_, error, config_.fs)) {
      return false;
    }
    engine_ = std::move(fresh);
    rounds_since_checkpoint_ = 0;
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

bool EngineHost::VerifyAfterRepair(IntegrityReport* report) {
  VerifyOptions opt;
  opt.level = IntegrityTier::kJournal;
  opt.fs = config_.fs;
  *report = VerifyEngineDir(engine_dir_, opt);
  if (engine_ != nullptr) {
    VerifyOptions deep;
    deep.fs = config_.fs;  // unbounded: a repair is rare enough to prove
    VerifyEngineDeep(*engine_, deep, report);
  }
  return report->clean();
}

void EngineHost::SetIntegrityReport(const IntegrityReport& report,
                                    uint64_t verified_seq) {
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    last_integrity_report_ = report;
    if (verified_seq > 0) integrity_verified_seq_ = verified_seq;
  }
  auto& reg = obs::MetricsRegistry::Current();
  if (reg.enabled() && verified_seq > 0) {
    reg.GetGauge("midas_integrity_last_verified_seq")
        ->Set(static_cast<double>(verified_seq));
    reg.GetGauge("midas_integrity_status")->Set(0.0);
  }
}

void EngineHost::RecordIntegrityEvent(const char* outcome,
                                      const std::string& detail) {
  if (!config_.tracing_enabled) return;
  auto record = std::make_shared<obs::FlightRecord>();
  record->trace_id = obs::MintTraceId().ToHex();
  record->seq = engine_ != nullptr ? engine_->round_seq() : 0;
  record->admission = "scrub";
  record->outcome = outcome;
  record->error = detail;
  RecordFlight(std::move(record));
}

IntegrityReport EngineHost::last_integrity_report() const {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  return last_integrity_report_;
}

uint64_t EngineHost::integrity_verified_seq() const {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  return integrity_verified_seq_;
}

void EngineHost::WatchdogTick() {
  if (config_.overload.memory_budget_bytes == 0 ||
      !config_.overload.ladder.enabled) {
    return;
  }
  const MemoryBudget::Sample sample = memory_.SampleNow();
  const OverloadState before = ladder_.state();
  const OverloadState after = ladder_.Evaluate(sample.pressure);
  if (after == before) return;
  ApplyRungActions(before, after);
  char reason[48];
  std::snprintf(reason, sizeof(reason), "pressure=%.3f", sample.pressure);
  LogOverloadTransition("ladder", OverloadStateName(before),
                        OverloadStateName(after), reason);
}

void EngineHost::ApplyRungActions(OverloadState from, OverloadState to) {
  // The ladder moves one rung per evaluation, so `from` and `to` are
  // adjacent: exactly one rung's action engages (up) or reverts (down).
  const bool up = static_cast<int>(to) > static_cast<int>(from);
  const OverloadState rung = up ? to : from;
  switch (rung) {
    case OverloadState::kHealthy:
      break;
    case OverloadState::kTrimCache:
      if (up) {
        // One-shot trim: the cache refills afterwards, and re-entering the
        // rung trims again. Nothing to revert.
        ComputeCache& cache = ComputeCache::Global();
        cache.TrimTo(static_cast<size_t>(
            static_cast<double>(cache.size()) *
            config_.overload.cache_trim_fraction));
      }
      break;
    case OverloadState::kTightenBudgets:
      // Applied per attempt via EffectiveBaseLimits; no sticky state.
      break;
    case OverloadState::kCoalesceOnly:
      if (up) {
        queue_.SetPolicyOverride(OverflowPolicy::kCoalesce);
      } else {
        queue_.ClearPolicyOverride();
      }
      break;
    case OverloadState::kShedWork:
      if (engine_ != nullptr) {
        engine_->SetShedMode(up, up ? config_.overload.shed_candidate_cap
                                    : 0);
      }
      break;
    case OverloadState::kLameDuck:
      // Enforced at Submit (reject-all); the queue keeps draining.
      break;
  }
  applied_rung_ = to;
}

void EngineHost::LogOverloadTransition(const char* source,
                                       const std::string& from,
                                       const std::string& to,
                                       const std::string& reason) {
  OverloadTransition t;
  t.source = source;
  t.from = from;
  t.to = to;
  t.eval = ladder_.evals();
  t.reason = reason;
  overload_log_.Append(std::move(t));
  AppendServeEvent("overload_transition",
                   engine_ != nullptr ? engine_->round_seq() : 0,
                   std::string(source) + " " + from + " -> " + to + " (" +
                       reason + ")");
}

void EngineHost::NoteBreakerState(const char* reason) {
  const CircuitBreaker::State now = breaker_.state();
  if (now == logged_breaker_state_) return;
  const CircuitBreaker::State prev = logged_breaker_state_;
  logged_breaker_state_ = now;
  LogOverloadTransition("breaker", CircuitBreaker::StateName(prev),
                        CircuitBreaker::StateName(now), reason);
  auto& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetGauge("midas_breaker_state")
        ->Set(static_cast<double>(static_cast<int>(now)));
  }
}

void EngineHost::EffectiveBaseLimits(double* deadline_ms,
                                     uint64_t* step_limit) const {
  *deadline_ms = base_deadline_ms_;
  *step_limit = base_step_limit_;
  if (!ladder_.AtLeast(OverloadState::kTightenBudgets)) return;
  const double cap_ms = config_.overload.degraded_deadline_ms;
  const uint64_t cap_steps = config_.overload.degraded_step_limit;
  if (cap_ms > 0.0) {
    *deadline_ms = base_deadline_ms_ > 0.0 ? std::min(base_deadline_ms_,
                                                      cap_ms)
                                           : cap_ms;
  }
  if (cap_steps > 0) {
    *step_limit = base_step_limit_ > 0 ? std::min(base_step_limit_,
                                                  cap_steps)
                                       : cap_steps;
  }
}

void EngineHost::UpdateGauges() {
  auto& reg = obs::MetricsRegistry::Current();
  if (!reg.enabled()) return;
  reg.GetGauge("midas_serve_queue_depth")
      ->Set(static_cast<double>(queue_.depth()));
  PanelSnapshotPtr snap = snapshot();
  if (snap != nullptr) {
    reg.GetGauge("midas_serve_snapshot_age_ms")->Set(snap->AgeMs());
  }
}

double EngineHost::HistoryNowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - history_epoch_)
      .count();
}

void EngineHost::HistoryTick() {
  if (history_ == nullptr) return;
  const double now = HistoryNowMs();
  history_->Sample(now, obs::MetricsRegistry::Current());
  DrainAlertTransitions(now);
}

void EngineHost::ObserveRoundForAlerts(const MaintenanceStats& stats) {
  if (alerter_ == nullptr) return;
  const double now = HistoryNowMs();
  alerter_->ObserveRound(now, config_.flight.slo_ms > 0.0 &&
                                  stats.total_ms > config_.flight.slo_ms);
  PanelSnapshotPtr snap = snapshot();
  if (snap != nullptr) {
    alerter_->ObserveQuality(now, snap->quality.scov, snap->quality.lcov);
  }
  DrainAlertTransitions(now);
}

void EngineHost::DrainAlertTransitions(double now_ms) {
  if (alerter_ == nullptr) return;
  std::vector<obs::BurnRateAlerter::Transition> transitions =
      alerter_->Tick(now_ms);
  if (transitions.empty()) return;
  auto& reg = obs::MetricsRegistry::Current();
  for (const obs::BurnRateAlerter::Transition& t : transitions) {
    if (reg.enabled()) {
      reg.GetGauge("midas_alert_" + t.alert)->Set(t.firing ? 1.0 : 0.0);
      reg.GetCounter("midas_alert_transitions_total")->Increment();
    }
    if (event_log_ != nullptr) {
      obs::JsonWriter w;
      w.BeginObject();
      w.Key("alert_event").Value(t.alert);
      w.Key("state").Value(t.firing ? "firing" : "resolved");
      w.Key("at_ms").Value(t.at_ms);
      w.Key("fast_rate").Value(t.fast_rate);
      w.Key("slow_rate").Value(t.slow_rate);
      w.EndObject();
      event_log_->AppendRaw(w.str());
    }
  }
}

bool EngineHost::WaitIdle(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (drained_.load(std::memory_order_acquire) == queue_.admitted() &&
        queue_.depth() == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool EngineHost::LastRoundStats(MaintenanceStats* out) const {
  std::lock_guard<std::mutex> lock(last_stats_mu_);
  if (!has_last_stats_) return false;
  if (out != nullptr) *out = last_stats_;
  return true;
}

void EngineHost::InstallTelemetryRoutes() {
  telemetry_->Handle("/metrics", [](const obs::HttpRequest& req) {
    // Content negotiation: OpenMetrics scrapers (exemplar-aware) ask via
    // Accept; everyone else gets the 0.0.4 dialect, where exemplar
    // suffixes would be a syntax error, stripped.
    const obs::MetricsTextFormat format =
        req.Header("accept").find("application/openmetrics-text") !=
                std::string::npos
            ? obs::MetricsTextFormat::kOpenMetrics
            : obs::MetricsTextFormat::kPrometheus0_0_4;
    obs::HttpResponse resp;
    resp.content_type = obs::MetricsContentType(format);
    resp.body = obs::ExportPrometheus(obs::MetricsRegistry::Current(),
                                      format);
    return resp;
  });

  telemetry_->Handle("/varz", [](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = obs::ExportJson(obs::MetricsRegistry::Current());
    return resp;
  });

  telemetry_->Handle("/healthz", [this](const obs::HttpRequest&) {
    const bool is_running = running();
    const bool is_dead = dead();
    const bool drift = quality_drifted();
    const bool integrity = integrity_failed();
    const bool healthy = is_running && !is_dead && !drift && !integrity;

    obs::JsonWriter w;
    w.BeginObject();
    w.Key("status").Value(healthy ? "ok" : "degraded");
    if (!healthy) {
      // Typed cause, most severe first: a prober branches on one field
      // instead of re-deriving precedence from the booleans.
      w.Key("cause").Value(integrity     ? "integrity"
                           : is_dead     ? "dead"
                           : drift       ? "quality_drift"
                                         : "stopped");
    }
    w.Key("running").Value(is_running);
    w.Key("dead").Value(is_dead);
    w.Key("quality_drift").Value(drift);
    w.Key("integrity_failed").Value(integrity);
    if (integrity) {
      std::lock_guard<std::mutex> lock(integrity_mu_);
      w.Key("integrity_cause").Value(integrity_cause_);
    }
    w.Key("queue_depth").Value(static_cast<uint64_t>(queue_.depth()));
    w.Key("rounds_ok").Value(rounds_ok_.load(std::memory_order_relaxed));
    PanelSnapshotPtr snap = snapshot();
    if (snap != nullptr) {
      w.Key("round_seq").Value(snap->round_seq);
      w.Key("snapshot_age_ms").Value(snap->AgeMs());
    }
    w.EndObject();

    obs::HttpResponse resp;
    resp.status = healthy ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = w.str();
    return resp;
  });

  telemetry_->Handle("/statusz", [this](const obs::HttpRequest&) {
    HostStats s = stats();
    PanelSnapshotPtr snap = snapshot();
    obs::DriftFinding drift = drift_.last_finding();

    obs::JsonWriter w;
    w.BeginObject();
    w.Key("running").Value(running());
    w.Key("dead").Value(dead());
    w.Key("engine_dir").Value(engine_dir_);
    w.Key("queue_depth").Value(static_cast<uint64_t>(queue_.depth()));
    if (snap != nullptr) {
      w.Key("snapshot").BeginObject();
      w.Key("round_seq").Value(snap->round_seq);
      w.Key("db_size").Value(static_cast<uint64_t>(snap->db_size));
      w.Key("patterns").Value(static_cast<uint64_t>(snap->patterns.size()));
      w.Key("age_ms").Value(snap->AgeMs());
      w.Key("quality").BeginObject();
      w.Key("scov").Value(snap->quality.scov);
      w.Key("lcov").Value(snap->quality.lcov);
      w.Key("div").Value(snap->quality.div);
      w.Key("cog_avg").Value(snap->quality.cog_avg);
      w.Key("cog_max").Value(snap->quality.cog_max);
      w.EndObject();
      w.EndObject();
    }
    w.Key("stats").BeginObject();
    w.Key("submitted").Value(s.submitted);
    w.Key("admitted").Value(s.admitted);
    w.Key("rejected_validation").Value(s.rejected_validation);
    w.Key("rejected_overflow").Value(s.rejected_overflow);
    w.Key("coalesced").Value(s.coalesced);
    w.Key("writer_rejected").Value(s.writer_rejected);
    w.Key("rounds_ok").Value(s.rounds_ok);
    w.Key("retries").Value(s.retries);
    w.Key("recoveries").Value(s.recoveries);
    w.Key("recovery_failures").Value(s.recovery_failures);
    w.Key("quarantined").Value(s.quarantined);
    w.Key("checkpoints").Value(s.checkpoints);
    w.Key("shed_overload").Value(s.shed_overload);
    w.Key("submit_timeouts").Value(s.submit_timeouts);
    w.EndObject();
    w.Key("overload").BeginObject();
    w.Key("state").Value(OverloadStateName(ladder_.state()));
    w.Key("pressure").Value(memory_.last_pressure());
    w.Key("tracked_bytes")
        .Value(static_cast<uint64_t>(memory_.last_total_bytes()));
    w.Key("budget_bytes")
        .Value(static_cast<uint64_t>(memory_.budget_bytes()));
    w.Key("breaker").Value(CircuitBreaker::StateName(breaker_.state()));
    w.Key("breaker_trips").Value(breaker_.trips());
    w.Key("admission_shedding").Value(admission_ctrl_.shedding());
    w.Key("admission_shed_total").Value(admission_ctrl_.shed_total());
    w.Key("queue_policy")
        .Value(OverflowPolicyName(queue_.effective_policy()));
    w.Key("transitions_total").Value(overload_log_.total());
    w.Key("transitions").BeginArray();
    auto transitions = overload_log_.Snapshot();
    const size_t first = transitions.size() > 16 ? transitions.size() - 16
                                                 : 0;
    for (size_t i = first; i < transitions.size(); ++i) {
      const OverloadTransition& t = transitions[i];
      w.BeginObject();
      w.Key("source").Value(t.source);
      w.Key("from").Value(t.from);
      w.Key("to").Value(t.to);
      w.Key("eval").Value(t.eval);
      w.Key("reason").Value(t.reason);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("drift").BeginObject();
    w.Key("enabled").Value(config_.sli_enabled);
    w.Key("drifted").Value(drift.drifted);
    w.Key("rounds").Value(drift_.rounds());
    w.Key("baseline_frozen").Value(drift_.baseline_frozen());
    if (drift.drifted) {
      w.Key("metric").Value(drift.metric);
      w.Key("ks_statistic").Value(drift.ks_statistic);
      w.Key("p_value").Value(drift.p_value);
      w.Key("baseline_mean").Value(drift.baseline_mean);
      w.Key("window_mean").Value(drift.window_mean);
    }
    w.EndObject();
    w.EndObject();

    // Compact flight-record table: the newest few traces, so /statusz alone
    // answers "what just flew through here" (full records on /traces).
    obs::JsonWriter tw;
    tw.BeginArray();
    auto records = flights_.Snapshot();
    if (records.size() > 8) records.resize(8);
    for (const auto& r : records) r->AppendSummary(tw);
    tw.EndArray();

    // Splice the last committed round's MaintenanceStats (already a JSON
    // object via ToJson) and the traces table in before the closing brace —
    // JsonWriter has no raw-value API.
    std::string body = w.str();
    MaintenanceStats last;
    std::string last_json =
        LastRoundStats(&last) ? last.ToJson() : std::string("null");
    body.insert(body.size() - 1, ",\"last_round\":" + last_json +
                                     ",\"traces\":" + tw.str());

    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = body;
    return resp;
  });

  telemetry_->Handle("/integrityz", [this](const obs::HttpRequest&) {
    IntegrityReport report;
    std::string cause;
    uint64_t verified_seq = 0;
    {
      std::lock_guard<std::mutex> lock(integrity_mu_);
      report = last_integrity_report_;
      cause = integrity_cause_;
      verified_seq = integrity_verified_seq_;
    }
    const bool refused = integrity_failed();

    obs::JsonWriter w;
    w.BeginObject();
    w.Key("scrub_enabled").Value(config_.scrub.enabled);
    w.Key("status").Value(refused          ? "refused"
                          : report.clean() ? "ok"
                                           : "violations");
    w.Key("refusal_cause").Value(cause);
    w.Key("last_verified_seq").Value(verified_seq);
    w.Key("scrub_ticks")
        .Value(scrub_ticks_.load(std::memory_order_relaxed));
    w.Key("violations_total")
        .Value(integrity_violations_.load(std::memory_order_relaxed));
    w.Key("repairs_total")
        .Value(integrity_repairs_.load(std::memory_order_relaxed));
    w.Key("refusals_total")
        .Value(integrity_refusals_.load(std::memory_order_relaxed));
    w.EndObject();
    // Splice the report (already JSON via ToJson) before the closing brace.
    std::string body = w.str();
    body.insert(body.size() - 1, ",\"report\":" + report.ToJson());

    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = body;
    return resp;
  });

  telemetry_->Handle("/patternz", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    PanelSnapshotPtr snap = snapshot();
    if (snap == nullptr || snap->lineage == nullptr) {
      resp.status = 503;
      resp.body = "{\"error\":\"no snapshot published yet\"}";
      return resp;
    }
    resp.body = snap->lineage->PanelJson(snap->round_seq);
    return resp;
  });

  telemetry_->HandlePrefix("/lineage/", [this](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    PanelSnapshotPtr snap = snapshot();
    if (snap == nullptr || snap->lineage == nullptr) {
      resp.status = 503;
      resp.body = "{\"error\":\"no snapshot published yet\"}";
      return resp;
    }
    const std::string suffix = req.path.substr(std::string("/lineage/").size());
    PatternId id = 0;
    std::istringstream in(suffix);
    if (suffix.empty() || !(in >> id) || !in.eof()) {
      resp.status = 400;
      resp.body = "{\"error\":\"usage: /lineage/<numeric pattern id>\"}";
      return resp;
    }
    std::string body = snap->lineage->LineageJson(id);
    if (body.empty()) {
      resp.status = 404;
      resp.body = "{\"error\":\"no lineage for pattern " + suffix + "\"}";
      return resp;
    }
    resp.body = std::move(body);
    return resp;
  });

  telemetry_->Handle("/historyz", [this](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    if (history_ == nullptr) {
      resp.status = 404;
      resp.body = "{\"error\":\"metric history disabled "
                  "(HostConfig::history_enabled)\"}";
      return resp;
    }
    const std::string metric = req.QueryParam("metric");
    double window_s = 60.0;
    size_t buckets = 60;
    if (const std::string w = req.QueryParam("window"); !w.empty()) {
      std::istringstream in(w);
      in >> window_s;
    }
    if (const std::string b = req.QueryParam("buckets"); !b.empty()) {
      std::istringstream in(b);
      in >> buckets;
    }
    if (window_s <= 0.0) window_s = 60.0;
    if (buckets == 0 || buckets > 10000) buckets = 60;
    resp.body = history_->QueryJson(metric, HistoryNowMs(),
                                    window_s * 1000.0, buckets);
    return resp;
  });

  telemetry_->Handle("/alertz", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    if (alerter_ == nullptr) {
      resp.body = "{\"enabled\":false}";
      return resp;
    }
    resp.body = alerter_->ToJson(HistoryNowMs());
    return resp;
  });

  telemetry_->Handle("/spans", [](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    obs::SpanProfiler& prof = obs::SpanProfiler::Current();
    if (req.QueryParam("fmt") == "folded") {
      resp.body = prof.ExportFolded();
    } else if (!prof.enabled() && prof.size() == 0) {
      resp.body = "span profiler disabled (HostConfig::profile_spans)\n";
    } else {
      resp.body = prof.ExportTopTable();
    }
    return resp;
  });

  obs::InstallTraceRoutes(telemetry_.get(), &flights_);
}

HostStats EngineHost::stats() const {
  HostStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_validation = rejected_validation_.load(std::memory_order_relaxed);
  s.rejected_overflow = rejected_overflow_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.writer_rejected = writer_rejected_.load(std::memory_order_relaxed);
  s.rounds_ok = rounds_ok_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.recovery_failures = recovery_failures_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  s.submit_timeouts = submit_timeouts_.load(std::memory_order_relaxed);
  s.scrub_ticks = scrub_ticks_.load(std::memory_order_relaxed);
  s.integrity_violations =
      integrity_violations_.load(std::memory_order_relaxed);
  s.integrity_repairs = integrity_repairs_.load(std::memory_order_relaxed);
  s.integrity_refusals = integrity_refusals_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace serve
}  // namespace midas
