#ifndef MIDAS_OBS_FLIGHT_H_
#define MIDAS_OBS_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "midas/obs/trace.h"

namespace midas {
namespace obs {

class JsonWriter;
class TelemetryServer;

/// Complete causal record of one update batch's flight through the serving
/// host: admission, queue wait, retry/recovery attempts, the per-phase cost
/// breakdown of the maintenance round that applied it, the kernel work it
/// was charged for (budget steps, cache traffic), and the quality-SLI deltas
/// it caused. Immutable once published to the FlightRecorder.
struct FlightRecord {
  std::string trace_id;             ///< 32-hex TraceId
  /// Traces of batches coalesced into this round beyond the first — the
  /// merged parents' causal links.
  std::vector<std::string> links;
  uint64_t seq = 0;                 ///< engine round seq (0 = never applied)
  uint64_t ticket = 0;              ///< queue admission order
  size_t additions = 0;             ///< |Δ⁺| after canonicalization
  size_t deletions = 0;             ///< |Δ⁻| after canonicalization
  size_t coalesced_parts = 0;       ///< batches merged beyond the first

  /// Admission verdict: "admitted", "coalesced", "rejected_validation",
  /// "rejected_overflow", "writer_rejected" or "dead_drop".
  std::string admission = "admitted";
  double queue_wait_ms = 0.0;       ///< Push -> writer Pop

  int attempts = 0;                 ///< ApplyUpdate tries
  int retries = 0;                  ///< attempts beyond the first
  bool recovered = false;           ///< in-process recovery ran for it
  /// "ok", "rejected_validation", "rejected_overflow", "writer_rejected",
  /// "quarantined" or "dead_drop".
  std::string outcome = "ok";
  std::string error;                ///< last failure message (retried rounds)

  double total_ms = 0.0;            ///< committed round's wall time
  /// Per-phase (name, wall ms) in MaintenanceStats order. Phases partition
  /// the round (they never nest), so wall == self per phase; the round's own
  /// self time is total_ms minus their sum.
  std::vector<std::pair<std::string, double>> phase_ms;

  uint64_t budget_steps = 0;        ///< ExecBudget steps the round consumed
  bool truncated = false;           ///< budget exhausted mid-round
  std::string degrade_reason = "none";  ///< ExecBudget::CauseName spelling
  uint64_t cache_hits = 0;          ///< ComputeCache lookups, this trace
  uint64_t cache_misses = 0;

  bool slo_violation = false;       ///< total_ms exceeded the configured SLO
  bool drift_coincident = false;    ///< quality drift active after the round
  /// Quality-SLI deltas (post-round minus pre-round panel).
  double scov_delta = 0.0;
  double lcov_delta = 0.0;
  double div_delta = 0.0;
  double cog_delta = 0.0;

  /// Name and wall time of the most expensive phase ("" when no round ran).
  std::string SlowestPhase(double* ms = nullptr) const;

  /// Approximate resident bytes of this record (strings + vectors).
  size_t ApproxBytes() const;

  /// Full single-line JSON object (the /traces/<id> body).
  std::string ToJson() const;
  /// Compact summary row (trace_id, seq, outcome, total_ms, queue_wait_ms,
  /// slowest phase, flags) — the /traces listing and /statusz table entry.
  void AppendSummary(JsonWriter& w) const;

  /// Folded-stacks exposition of this record's phase tree (one
  /// `midas_round;<phase> <self-microseconds>` line per phase plus the
  /// round's own self time) — flamegraph one bad batch in isolation.
  std::string ToFolded() const;
};

struct FlightRecorderConfig {
  size_t capacity = 256;            ///< recent ring (all recorded traces)
  size_t retained_capacity = 64;    ///< ring of always-kept "interesting" ones
  /// Round-latency SLO in ms; total_ms above it flags slo_violation and
  /// makes the record retention-interesting. 0 disables the SLO flag.
  double slo_ms = 50.0;
  /// Tail-based sampling of boring records: every Nth uninteresting record
  /// enters the recent ring, the rest only bump a counter. 1 = keep all
  /// (the default); interesting records are always recorded regardless.
  uint64_t sample_every = 1;
};

/// Fixed-size lock-free ring of completed FlightRecords.
///
/// Writers (the host writer thread, plus Submit callers recording rejected
/// batches) publish immutable records with an atomic slot store; readers
/// (telemetry handlers paging /traces) load slots wait-free — the same
/// epoch-pointer idiom as PanelSnapshot, so a scrape never blocks a round.
///
/// Tail-based retention: records that matter for debugging (SLO violations,
/// degraded/truncated rounds, retries, recoveries, quarantines, rejects,
/// drift-coincident rounds) are additionally written to a separate retained
/// ring, so a burst of healthy traffic cannot evict the evidence of the one
/// bad batch. Boring records can be sampled down (sample_every).
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = FlightRecorderConfig());

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publishes one completed record (tail-based retention + sampling).
  void Record(std::shared_ptr<const FlightRecord> record);

  /// The record of `trace_id_hex` (newest wins on id reuse); nullptr when
  /// evicted or never recorded.
  std::shared_ptr<const FlightRecord> Find(std::string_view trace_id_hex) const;

  /// Every currently retained record, newest first, deduplicated by trace id
  /// across the two rings.
  std::vector<std::shared_ptr<const FlightRecord>> Snapshot() const;

  /// True when the record trips tail-based retention (always kept).
  static bool Interesting(const FlightRecord& record);

  const FlightRecorderConfig& config() const { return config_; }
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Boring records dropped by sampling (never entered any ring).
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes of everything currently held in both rings
  /// — the memory watchdog's "flight_recorder" component. Wait-free (loads
  /// the same atomic slots the telemetry readers do).
  size_t ApproxBytes() const;

 private:
  using Slot = std::atomic<std::shared_ptr<const FlightRecord>>;

  FlightRecorderConfig config_;
  std::vector<Slot> recent_;
  std::vector<Slot> retained_;
  std::atomic<uint64_t> recent_next_{0};
  std::atomic<uint64_t> retained_next_{0};
  std::atomic<uint64_t> boring_seen_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> sampled_out_{0};
};

/// Registers `/traces` (JSON listing, `?n=` caps the rows) and `/traces/<id>`
/// (full record; `?fmt=folded` for the flamegraph exposition) on a telemetry
/// server. `recorder` must outlive the server; handlers only touch the
/// recorder's lock-free rings.
void InstallTraceRoutes(TelemetryServer* server, const FlightRecorder* recorder);

}  // namespace obs
}  // namespace midas

#endif  // MIDAS_OBS_FLIGHT_H_
