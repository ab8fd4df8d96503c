#include "midas/maintain/verify.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "midas/common/budget.h"
#include "midas/common/checksum.h"
#include "midas/common/parallel.h"
#include "midas/maintain/journal.h"
#include "midas/maintain/snapshot.h"
#include "midas/obs/json.h"

namespace midas {

namespace {

constexpr double kMetricEpsilon = 1e-9;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-pattern deep checks: one RefreshPatternMetrics recomputation covers
/// coverage + scov/lcov/cog; the FCT-index TP column is compared against a
/// fresh feature count of the pattern graph.
void CheckPattern(const MidasEngine& engine, const CannedPattern& p,
                  std::vector<IntegrityViolation>* out) {
  CannedPattern recomputed = p;
  RefreshPatternMetrics(recomputed, engine.evaluator(), engine.fcts());

  if (!(recomputed.coverage == p.coverage)) {
    out->push_back(
        {IntegrityViolationKind::kCoverageMismatch, IntegrityTier::kDeep,
         "pattern " + std::to_string(p.id),
         "stored coverage has " + std::to_string(p.coverage.size()) +
             " graphs, recomputed has " +
             std::to_string(recomputed.coverage.size())});
  }
  auto off = [](double a, double b) {
    return std::abs(a - b) > kMetricEpsilon;
  };
  if (off(recomputed.scov, p.scov) || off(recomputed.lcov, p.lcov) ||
      off(recomputed.cog, p.cog)) {
    std::ostringstream detail;
    detail << "stored scov/lcov/cog " << p.scov << "/" << p.lcov << "/"
           << p.cog << ", recomputed " << recomputed.scov << "/"
           << recomputed.lcov << "/" << recomputed.cog;
    out->push_back({IntegrityViolationKind::kPatternMetricMismatch,
                    IntegrityTier::kDeep,
                    "pattern " + std::to_string(p.id), detail.str()});
  }
  // The lcov numerator must match a from-scratch re-union exactly (it is an
  // integer — no epsilon).
  if (recomputed.lcov_count != p.lcov_count) {
    out->push_back(
        {IntegrityViolationKind::kPatternMetricMismatch, IntegrityTier::kDeep,
         "pattern " + std::to_string(p.id),
         "stored lcov_count " + std::to_string(p.lcov_count) +
             ", recomputed " + std::to_string(recomputed.lcov_count)});
  }

  auto expected = engine.fct_index().FeatureCounts(p.graph);
  auto stored = engine.fct_index().PatternCounts(p.id);
  std::sort(expected.begin(), expected.end());
  std::sort(stored.begin(), stored.end());
  if (expected != stored) {
    out->push_back(
        {IntegrityViolationKind::kFctIndexMismatch, IntegrityTier::kDeep,
         "pattern " + std::to_string(p.id),
         "TP column has " + std::to_string(stored.size()) +
             " feature entries, recomputed feature counts have " +
             std::to_string(expected.size())});
  }
}

/// Patterns in id order (the map's order) as stable pointers.
std::vector<const CannedPattern*> PatternsInOrder(const MidasEngine& engine) {
  std::vector<const CannedPattern*> out;
  out.reserve(engine.patterns().size());
  for (const auto& [id, p] : engine.patterns().patterns()) {
    out.push_back(&p);
  }
  return out;
}

}  // namespace

const char* IntegrityTierName(IntegrityTier tier) {
  switch (tier) {
    case IntegrityTier::kManifest:
      return "manifest";
    case IntegrityTier::kJournal:
      return "journal";
    case IntegrityTier::kDeep:
      return "deep";
  }
  return "unknown";
}

const char* IntegrityViolationKindName(IntegrityViolationKind kind) {
  switch (kind) {
    case IntegrityViolationKind::kSnapshotMissing:
      return "snapshot_missing";
    case IntegrityViolationKind::kManifestMissing:
      return "manifest_missing";
    case IntegrityViolationKind::kManifestMalformed:
      return "manifest_malformed";
    case IntegrityViolationKind::kFileMissing:
      return "file_missing";
    case IntegrityViolationKind::kChecksumMismatch:
      return "checksum_mismatch";
    case IntegrityViolationKind::kConfigInvalid:
      return "config_invalid";
    case IntegrityViolationKind::kJournalUnreadable:
      return "journal_unreadable";
    case IntegrityViolationKind::kJournalTornTail:
      return "journal_torn_tail";
    case IntegrityViolationKind::kJournalGap:
      return "journal_gap";
    case IntegrityViolationKind::kRestoreFailed:
      return "restore_failed";
    case IntegrityViolationKind::kCoverageMismatch:
      return "coverage_mismatch";
    case IntegrityViolationKind::kPatternMetricMismatch:
      return "pattern_metric_mismatch";
    case IntegrityViolationKind::kFctIndexMismatch:
      return "fct_index_mismatch";
    case IntegrityViolationKind::kPanelDisagreement:
      return "panel_disagreement";
  }
  return "unknown";
}

void IntegrityReport::Add(IntegrityTier tier, IntegrityViolationKind kind,
                          const std::string& object,
                          const std::string& detail) {
  violations.push_back({kind, tier, object, detail});
}

void IntegrityReport::Merge(const IntegrityReport& other) {
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  checks += other.checks;
  tiers_run |= other.tiers_run;
  deep_truncated = deep_truncated || other.deep_truncated;
}

std::string IntegrityReport::Describe() const {
  std::ostringstream out;
  out << "integrity: " << (clean() ? "CLEAN" : "VIOLATIONS") << " ("
      << checks << " checks";
  for (IntegrityTier tier : {IntegrityTier::kManifest, IntegrityTier::kJournal,
                             IntegrityTier::kDeep}) {
    if (RanTier(tier)) out << ", " << IntegrityTierName(tier);
  }
  if (deep_truncated) out << ", deep tier truncated";
  out << ")\n";
  for (const IntegrityViolation& v : violations) {
    out << "  [" << IntegrityTierName(v.tier) << "/"
        << IntegrityViolationKindName(v.kind) << "] " << v.object << ": "
        << v.detail << "\n";
  }
  return out.str();
}

std::string IntegrityReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("clean").Value(clean());
  w.Key("checks").Value(static_cast<uint64_t>(checks));
  w.Key("deep_truncated").Value(deep_truncated);
  w.Key("tiers_run").BeginArray();
  for (IntegrityTier tier : {IntegrityTier::kManifest, IntegrityTier::kJournal,
                             IntegrityTier::kDeep}) {
    if (RanTier(tier)) w.Value(IntegrityTierName(tier));
  }
  w.EndArray();
  w.Key("violations").BeginArray();
  for (const IntegrityViolation& v : violations) {
    w.BeginObject();
    w.Key("kind").Value(IntegrityViolationKindName(v.kind));
    w.Key("tier").Value(IntegrityTierName(v.tier));
    w.Key("object").Value(v.object);
    w.Key("detail").Value(v.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

IntegrityReport VerifySnapshotDir(const std::string& snapshot_dir,
                                  const VerifyOptions& options) {
  io::FileSystem& fs = io::Resolve(options.fs);
  IntegrityReport report;
  report.tiers_run |= 1 << static_cast<int>(IntegrityTier::kManifest);

  ++report.checks;
  if (!fs.Exists(snapshot_dir)) {
    report.Add(IntegrityTier::kManifest,
               IntegrityViolationKind::kSnapshotMissing, snapshot_dir,
               "snapshot directory does not exist");
    return report;
  }

  std::string manifest_text, read_error;
  ++report.checks;
  if (fs.Read(snapshot_dir + "/MANIFEST", &manifest_text, &read_error) !=
      io::ReadStatus::kOk) {
    report.Add(IntegrityTier::kManifest,
               IntegrityViolationKind::kManifestMissing,
               snapshot_dir + "/MANIFEST", read_error);
    return report;
  }
  SnapshotManifest manifest;
  std::string parse_error;
  ++report.checks;
  if (!ParseSnapshotManifest(manifest_text, &manifest, &parse_error)) {
    report.Add(IntegrityTier::kManifest,
               IntegrityViolationKind::kManifestMalformed,
               snapshot_dir + "/MANIFEST", parse_error);
    return report;
  }

  std::string cfg_text;
  for (const char* name : {"config.ini", "database.gspan", "patterns.gspan"}) {
    if (report.violations.size() >= options.max_violations) break;
    ++report.checks;
    auto it = manifest.file_crc.find(name);
    if (it == manifest.file_crc.end()) {
      report.Add(IntegrityTier::kManifest,
                 IntegrityViolationKind::kManifestMalformed,
                 snapshot_dir + "/MANIFEST",
                 std::string("no checksum entry for ") + name);
      continue;
    }
    std::string content, file_error;
    if (fs.Read(snapshot_dir + "/" + name, &content, &file_error) !=
        io::ReadStatus::kOk) {
      report.Add(IntegrityTier::kManifest, IntegrityViolationKind::kFileMissing,
                 snapshot_dir + "/" + name, file_error);
      continue;
    }
    std::string actual = Crc32Hex(Crc32(content));
    if (actual != it->second) {
      report.Add(IntegrityTier::kManifest,
                 IntegrityViolationKind::kChecksumMismatch,
                 snapshot_dir + "/" + name,
                 "manifest " + it->second + ", actual " + actual);
      continue;
    }
    if (std::string(name) == "config.ini") cfg_text = content;
  }

  // lineage.ledger is optional (absent from pre-lineage snapshots), but a
  // manifest that names it promises an intact, parseable ledger.
  if (manifest.file_crc.count("lineage.ledger") != 0 &&
      report.violations.size() < options.max_violations) {
    ++report.checks;
    const std::string path = snapshot_dir + "/lineage.ledger";
    std::string content, file_error;
    if (fs.Read(path, &content, &file_error) != io::ReadStatus::kOk) {
      report.Add(IntegrityTier::kManifest, IntegrityViolationKind::kFileMissing,
                 path, file_error);
    } else {
      std::string actual = Crc32Hex(Crc32(content));
      const std::string& expected = manifest.file_crc.at("lineage.ledger");
      if (actual != expected) {
        report.Add(IntegrityTier::kManifest,
                   IntegrityViolationKind::kChecksumMismatch, path,
                   "manifest " + expected + ", actual " + actual);
      } else {
        obs::PatternLedger ledger;
        std::string ledger_error;
        if (!ledger.Deserialize(content, &ledger_error)) {
          report.Add(IntegrityTier::kManifest,
                     IntegrityViolationKind::kManifestMalformed, path,
                     "unparseable lineage ledger: " + ledger_error);
        }
      }
    }
  }

  if (!cfg_text.empty()) {
    ++report.checks;
    MidasConfig config;
    std::istringstream in(cfg_text);
    if (!ReadConfig(in, &config)) {
      report.Add(IntegrityTier::kManifest,
                 IntegrityViolationKind::kConfigInvalid,
                 snapshot_dir + "/config.ini", "malformed config");
    } else {
      for (const std::string& problem : ValidateConfig(config)) {
        if (problem.rfind("warning:", 0) != 0) {
          report.Add(IntegrityTier::kManifest,
                     IntegrityViolationKind::kConfigInvalid,
                     snapshot_dir + "/config.ini", problem);
        }
      }
    }
  }
  return report;
}

IntegrityReport VerifyJournal(const std::string& journal_path,
                              uint64_t snapshot_seq,
                              const VerifyOptions& options) {
  IntegrityReport report;
  report.tiers_run |= 1 << static_cast<int>(IntegrityTier::kJournal);

  LabelDictionary scratch;
  ++report.checks;
  JournalReadResult result = ReadJournal(journal_path, scratch, options.fs);
  if (!result.ok) {
    report.Add(IntegrityTier::kJournal,
               IntegrityViolationKind::kJournalUnreadable, journal_path,
               result.error);
    return report;
  }
  if (result.tail_truncated) {
    report.Add(IntegrityTier::kJournal,
               IntegrityViolationKind::kJournalTornTail, journal_path,
               result.error);
  }
  // Continuity: committed rounds beyond the snapshot must advance one round
  // at a time — a gap means records were lost while later ones survived,
  // which no crash interleaving of an append-only fsync'd log produces.
  uint64_t expected = snapshot_seq;
  for (const JournalRound& round : result.rounds) {
    if (!round.committed || round.seq <= snapshot_seq) continue;
    ++report.checks;
    if (round.seq != expected + 1) {
      report.Add(IntegrityTier::kJournal, IntegrityViolationKind::kJournalGap,
                 journal_path,
                 "committed round seq " + std::to_string(round.seq) +
                     " follows seq " + std::to_string(expected));
    }
    expected = round.seq;
  }
  return report;
}

IntegrityReport VerifyEngineDir(const std::string& engine_dir,
                                const VerifyOptions& options) {
  io::FileSystem& fs = io::Resolve(options.fs);
  const std::string snapshot = engine_dir + "/snapshot";

  // Honor RestoreEngine's resolution order: a dirty primary with a clean
  // .tmp/.old fallback still restores, so only the best candidate's report
  // is the verdict. The clean candidate's manifest also provides the
  // journal-continuity baseline.
  IntegrityReport disk;
  uint64_t snapshot_seq = 0;
  bool first = true;
  for (const std::string& candidate :
       {snapshot, snapshot + ".tmp", snapshot + ".old"}) {
    if (!fs.Exists(candidate) && !first) continue;
    first = false;
    IntegrityReport attempt = VerifySnapshotDir(candidate, options);
    if (attempt.clean()) {
      std::string manifest_text, ignored;
      SnapshotManifest manifest;
      if (fs.Read(candidate + "/MANIFEST", &manifest_text, &ignored) ==
              io::ReadStatus::kOk &&
          ParseSnapshotManifest(manifest_text, &manifest, &ignored)) {
        snapshot_seq = manifest.snapshot_seq;
      }
      attempt.checks += disk.checks;
      disk = std::move(attempt);
      break;
    }
    if (disk.tiers_run == 0) {
      disk = std::move(attempt);  // primary's violations are the verdict
    } else {
      disk.checks += attempt.checks;
    }
  }

  if (static_cast<int>(options.level) >=
      static_cast<int>(IntegrityTier::kJournal)) {
    disk.Merge(VerifyJournal(engine_dir + "/journal.log", snapshot_seq,
                             options));
  }
  return disk;
}

void VerifyEngineDeep(const MidasEngine& engine, const VerifyOptions& options,
                      IntegrityReport* report) {
  report->tiers_run |= 1 << static_cast<int>(IntegrityTier::kDeep);
  std::vector<const CannedPattern*> patterns = PatternsInOrder(engine);
  const size_t n = patterns.size();
  if (n == 0) return;

  // One shared budget across the pool's workers: Charge() with the full
  // deadline stride forces a wall-clock check per pattern, so overshoot is
  // bounded by a single pattern's verification cost.
  ExecBudget budget = options.deep_deadline_ms > 0.0
                          ? ExecBudget::TimeLimitMs(options.deep_deadline_ms)
                          : ExecBudget::Unlimited();
  std::vector<std::vector<IntegrityViolation>> found(n);
  std::vector<char> checked(n, 0);
  ParallelFor(engine.pool(), n, [&](size_t i) {
    if (!budget.Charge(ExecBudget::kDeadlineStride)) return;
    checked[i] = 1;
    CheckPattern(engine, *patterns[i], &found[i]);
  });

  for (size_t i = 0; i < n; ++i) {
    if (!checked[i]) {
      report->deep_truncated = true;
      continue;
    }
    report->checks += 3;  // coverage, metrics, index membership
    for (IntegrityViolation& v : found[i]) {
      if (report->violations.size() >= options.max_violations) break;
      report->violations.push_back(std::move(v));
    }
  }
}

size_t VerifyPatternsSlice(const MidasEngine& engine, size_t cursor,
                           double deadline_ms, IntegrityReport* report) {
  report->tiers_run |= 1 << static_cast<int>(IntegrityTier::kDeep);
  std::vector<const CannedPattern*> patterns = PatternsInOrder(engine);
  const double start_ms = NowMs();
  if (cursor >= patterns.size()) cursor = 0;
  size_t i = cursor;
  for (; i < patterns.size(); ++i) {
    if (deadline_ms > 0.0 && i > cursor && NowMs() - start_ms > deadline_ms) {
      return i;  // resume here next tick
    }
    std::vector<IntegrityViolation> found;
    CheckPattern(engine, *patterns[i], &found);
    report->checks += 3;
    for (IntegrityViolation& v : found) {
      report->violations.push_back(std::move(v));
    }
  }
  return 0;  // full lap complete
}

void VerifyPanelAgreement(const MidasEngine& engine,
                          const PatternSet& published, uint64_t published_seq,
                          IntegrityReport* report) {
  // A published panel from an earlier round is reader lag, not corruption.
  if (published_seq != engine.round_seq()) return;
  report->tiers_run |= 1 << static_cast<int>(IntegrityTier::kDeep);
  ++report->checks;
  if (published.size() != engine.patterns().size()) {
    report->Add(IntegrityTier::kDeep,
                IntegrityViolationKind::kPanelDisagreement, "panel",
                "published panel has " + std::to_string(published.size()) +
                    " patterns, engine has " +
                    std::to_string(engine.patterns().size()));
    return;
  }
  for (const auto& [id, p] : engine.patterns().patterns()) {
    const CannedPattern* pub = published.Find(id);
    if (pub == nullptr) {
      report->Add(IntegrityTier::kDeep,
                  IntegrityViolationKind::kPanelDisagreement,
                  "pattern " + std::to_string(id),
                  "present in engine, missing from published panel");
      continue;
    }
    if (!(pub->coverage == p.coverage)) {
      report->Add(IntegrityTier::kDeep,
                  IntegrityViolationKind::kPanelDisagreement,
                  "pattern " + std::to_string(id),
                  "published coverage diverges from engine coverage");
    }
  }
}

IntegrityReport VerifyEngineState(const std::string& engine_dir,
                                  const VerifyOptions& options) {
  IntegrityReport report = VerifyEngineDir(engine_dir, options);
  if (static_cast<int>(options.level) <
      static_cast<int>(IntegrityTier::kDeep)) {
    return report;
  }
  RecoverInfo info;
  auto engine = RecoverEngine(engine_dir, &info, options.fs);
  ++report.checks;
  if (engine == nullptr) {
    report.tiers_run |= 1 << static_cast<int>(IntegrityTier::kDeep);
    report.Add(IntegrityTier::kDeep, IntegrityViolationKind::kRestoreFailed,
               engine_dir, info.error);
    return report;
  }
  VerifyEngineDeep(*engine, options, &report);
  return report;
}

}  // namespace midas
