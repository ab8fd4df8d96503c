#include "midas/obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "midas/obs/json.h"
#include "midas/obs/telemetry_server.h"

namespace midas {
namespace obs {

namespace {

void AppendFull(JsonWriter& w, const FlightRecord& r) {
  w.BeginObject();
  w.Key("trace_id").Value(r.trace_id);
  if (!r.links.empty()) {
    w.Key("links").BeginArray();
    for (const auto& link : r.links) w.Value(link);
    w.EndArray();
  }
  w.Key("seq").Value(r.seq);
  w.Key("ticket").Value(r.ticket);
  w.Key("additions").Value(static_cast<uint64_t>(r.additions));
  w.Key("deletions").Value(static_cast<uint64_t>(r.deletions));
  w.Key("coalesced_parts").Value(static_cast<uint64_t>(r.coalesced_parts));
  w.Key("admission").Value(r.admission);
  w.Key("queue_wait_ms").Value(r.queue_wait_ms);
  w.Key("attempts").Value(r.attempts);
  w.Key("retries").Value(r.retries);
  w.Key("recovered").Value(r.recovered);
  w.Key("outcome").Value(r.outcome);
  if (!r.error.empty()) w.Key("error").Value(r.error);
  w.Key("total_ms").Value(r.total_ms);
  w.Key("phases").BeginObject();
  for (const auto& [name, ms] : r.phase_ms) w.Key(name).Value(ms);
  w.EndObject();
  double slowest_ms = 0.0;
  std::string slowest = r.SlowestPhase(&slowest_ms);
  if (!slowest.empty()) {
    w.Key("slowest_phase").Value(slowest);
    w.Key("slowest_phase_ms").Value(slowest_ms);
  }
  w.Key("budget_steps").Value(r.budget_steps);
  w.Key("truncated").Value(r.truncated);
  w.Key("degrade_reason").Value(r.degrade_reason);
  w.Key("cache_hits").Value(r.cache_hits);
  w.Key("cache_misses").Value(r.cache_misses);
  w.Key("slo_violation").Value(r.slo_violation);
  w.Key("drift_coincident").Value(r.drift_coincident);
  w.Key("quality_delta").BeginObject();
  w.Key("scov").Value(r.scov_delta);
  w.Key("lcov").Value(r.lcov_delta);
  w.Key("div").Value(r.div_delta);
  w.Key("cog").Value(r.cog_delta);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string FlightRecord::SlowestPhase(double* ms) const {
  std::string best;
  double best_ms = -1.0;
  for (const auto& [name, phase_wall] : phase_ms) {
    if (phase_wall > best_ms) {
      best_ms = phase_wall;
      best = name;
    }
  }
  if (ms != nullptr) *ms = best_ms < 0.0 ? 0.0 : best_ms;
  return best;
}

size_t FlightRecord::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  bytes += trace_id.size() + admission.size() + outcome.size() +
           error.size() + degrade_reason.size();
  for (const std::string& link : links) bytes += sizeof(std::string) +
                                                 link.size();
  for (const auto& [name, ms] : phase_ms) {
    (void)ms;
    bytes += sizeof(std::pair<std::string, double>) + name.size();
  }
  return bytes;
}

std::string FlightRecord::ToJson() const {
  JsonWriter w;
  AppendFull(w, *this);
  return w.str();
}

void FlightRecord::AppendSummary(JsonWriter& w) const {
  w.BeginObject();
  w.Key("trace_id").Value(trace_id);
  w.Key("seq").Value(seq);
  w.Key("outcome").Value(outcome);
  w.Key("admission").Value(admission);
  w.Key("total_ms").Value(total_ms);
  w.Key("queue_wait_ms").Value(queue_wait_ms);
  double slowest_ms = 0.0;
  std::string slowest = SlowestPhase(&slowest_ms);
  if (!slowest.empty()) {
    w.Key("slowest_phase").Value(slowest);
    w.Key("slowest_phase_ms").Value(slowest_ms);
  }
  w.Key("retries").Value(retries);
  w.Key("truncated").Value(truncated);
  w.Key("slo_violation").Value(slo_violation);
  w.Key("drift_coincident").Value(drift_coincident);
  w.EndObject();
}

std::string FlightRecord::ToFolded() const {
  // Phases partition the round, so each phase's wall time is its self time;
  // whatever the round spent outside phase spans is the root's own self
  // time. Durations are emitted in integer microseconds (folded-stack
  // "sample" counts must be integral for flamegraph.pl).
  std::string out;
  char line[160];
  double phases_total = 0.0;
  for (const auto& [name, ms] : phase_ms) {
    phases_total += ms;
    std::snprintf(line, sizeof(line), "midas_round;%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(ms * 1000.0 + 0.5));
    out += line;
  }
  double self = total_ms - phases_total;
  if (self < 0.0) self = 0.0;
  std::snprintf(line, sizeof(line), "midas_round %llu\n",
                static_cast<unsigned long long>(self * 1000.0 + 0.5));
  out += line;
  return out;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config),
      recent_(std::max<size_t>(config.capacity, 1)),
      retained_(std::max<size_t>(config.retained_capacity, 1)) {}

bool FlightRecorder::Interesting(const FlightRecord& record) {
  return record.slo_violation || record.truncated ||
         record.degrade_reason != "none" || record.retries > 0 ||
         record.recovered || record.drift_coincident || record.outcome != "ok";
}

void FlightRecorder::Record(std::shared_ptr<const FlightRecord> record) {
  if (record == nullptr) return;
  const bool interesting = Interesting(*record);
  if (!interesting && config_.sample_every > 1) {
    uint64_t n = boring_seen_.fetch_add(1, std::memory_order_relaxed);
    if (n % config_.sample_every != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  uint64_t slot = recent_next_.fetch_add(1, std::memory_order_relaxed);
  recent_[slot % recent_.size()].store(record, std::memory_order_release);
  if (interesting) {
    uint64_t rslot = retained_next_.fetch_add(1, std::memory_order_relaxed);
    retained_[rslot % retained_.size()].store(std::move(record),
                                              std::memory_order_release);
  }
}

size_t FlightRecorder::ApproxBytes() const {
  // Records shared between the two rings are counted twice; the watchdog
  // only needs an upper-ish bound that moves with retention, not a census.
  size_t bytes = sizeof(*this);
  auto sum = [&bytes](const std::vector<Slot>& ring) {
    for (const Slot& slot : ring) {
      auto record = slot.load(std::memory_order_acquire);
      if (record != nullptr) bytes += record->ApproxBytes();
    }
  };
  sum(recent_);
  sum(retained_);
  return bytes;
}

std::shared_ptr<const FlightRecord> FlightRecorder::Find(
    std::string_view trace_id_hex) const {
  // Newest-first scan (Snapshot order) so an id reused across ring wraps
  // resolves to the most recent flight.
  for (const auto& record : Snapshot()) {
    if (record->trace_id == trace_id_hex) return record;
  }
  return nullptr;
}

std::vector<std::shared_ptr<const FlightRecord>> FlightRecorder::Snapshot()
    const {
  std::vector<std::shared_ptr<const FlightRecord>> out;
  out.reserve(recent_.size() + retained_.size());
  std::unordered_set<std::string> seen;
  auto drain = [&](const std::vector<Slot>& ring,
                   const std::atomic<uint64_t>& next) {
    uint64_t head = next.load(std::memory_order_acquire);
    const size_t n = ring.size();
    // Walk backwards from the most recently written slot.
    for (size_t i = 0; i < n; ++i) {
      uint64_t idx = (head + n - 1 - i) % n;
      auto record = ring[idx].load(std::memory_order_acquire);
      if (record == nullptr) continue;
      if (!seen.insert(record->trace_id).second) continue;
      out.push_back(std::move(record));
    }
  };
  drain(recent_, recent_next_);
  drain(retained_, retained_next_);
  // Interleave the two rings into one newest-first listing. Ring order is
  // only approximate under concurrent writers; seq (then ticket) is the
  // authoritative commit order.
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     if (a->seq != b->seq) return a->seq > b->seq;
                     return a->ticket > b->ticket;
                   });
  return out;
}

void InstallTraceRoutes(TelemetryServer* server,
                        const FlightRecorder* recorder) {
  server->Handle("/traces", [recorder](const HttpRequest& request) {
    size_t limit = recorder->config().capacity;
    const std::string n = request.QueryParam("n");
    if (!n.empty()) {
      limit = static_cast<size_t>(std::strtoull(n.c_str(), nullptr, 10));
      if (limit == 0) limit = 1;
    }
    auto records = recorder->Snapshot();
    if (records.size() > limit) records.resize(limit);
    JsonWriter w;
    w.BeginObject();
    w.Key("recorded").Value(recorder->recorded());
    w.Key("sampled_out").Value(recorder->sampled_out());
    w.Key("traces").BeginArray();
    for (const auto& record : records) record->AppendSummary(w);
    w.EndArray();
    w.EndObject();
    HttpResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = w.str();
    return response;
  });
  server->HandlePrefix("/traces/", [recorder](const HttpRequest& request) {
    const std::string id = request.path.substr(std::string("/traces/").size());
    HttpResponse response;
    auto record = recorder->Find(id);
    if (record == nullptr) {
      response.status = 404;
      response.body = "no such trace (evicted or never recorded)\n";
      return response;
    }
    if (request.QueryParam("fmt") == "folded") {
      response.body = record->ToFolded();
      return response;
    }
    response.content_type = "application/json; charset=utf-8";
    response.body = record->ToJson();
    return response;
  });
}

}  // namespace obs
}  // namespace midas
