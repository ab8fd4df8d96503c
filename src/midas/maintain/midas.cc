#include "midas/maintain/midas.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "midas/common/failpoint.h"
#include "midas/maintain/journal.h"
#include "midas/obs/json.h"
#include "midas/obs/metrics.h"
#include "midas/obs/sli.h"
#include "midas/obs/trace.h"

namespace midas {

// Trips when MaintenanceStats gains (or loses) a field without the
// MIDAS_MAINTENANCE_PHASES list / ToJson / FromJson being updated: the
// struct is exactly total_ms + the 8 phase doubles + graphlet_distance +
// 2 bools + 4 ints (padded) on the LP64 ABIs CI builds on.
static_assert(sizeof(MaintenanceStats) ==
                  10 * sizeof(double) + 24 /* 2 bools + 4 ints + padding */,
              "MaintenanceStats layout changed: update "
              "MIDAS_MAINTENANCE_PHASES, ToJson/FromJson and "
              "docs/observability.md");

namespace {

// 0 = hardware_concurrency (at least 1 if the runtime reports 0).
int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

std::vector<std::string> ValidateConfig(const MidasConfig& config) {
  std::vector<std::string> problems;
  if (config.budget.eta_min <= 2) {
    problems.push_back(
        "budget.eta_min must be > 2 (Definition 3.1); patterns of size <= 2 "
        "are served by the SmallPatternPanel instead");
  }
  if (config.budget.eta_max < config.budget.eta_min) {
    problems.push_back("budget.eta_max is below budget.eta_min");
  }
  if (config.budget.gamma == 0) {
    problems.push_back("budget.gamma is 0: no patterns would be displayed");
  }
  if (config.fct.sup_min <= 0.0 || config.fct.sup_min > 1.0) {
    problems.push_back("fct.sup_min must be a fraction in (0, 1]");
  }
  if (config.fct.max_edges == 0) {
    problems.push_back("fct.max_edges is 0: no trees can be mined");
  }
  if (config.epsilon < 0.0) {
    problems.push_back("epsilon must be non-negative");
  }
  if (config.kappa < 0.0 || config.lambda < 0.0) {
    problems.push_back("swapping thresholds kappa/lambda must be >= 0");
  }
  if (config.cluster.num_coarse == 0) {
    problems.push_back("cluster.num_coarse must be >= 1");
  }
  if (config.cluster.max_cluster_size == 0) {
    problems.push_back("cluster.max_cluster_size must be >= 1");
  }
  if (config.walk.num_walks <= 0 || config.walk.walk_length <= 0) {
    problems.push_back("walk.num_walks and walk.walk_length must be >= 1");
  }
  if (config.round_deadline_ms < 0.0) {
    problems.push_back("round_deadline_ms must be >= 0 (0 = unlimited)");
  }
  if (config.num_threads < 0) {
    problems.push_back(
        "num_threads must be >= 0 (0 = hardware concurrency, 1 = serial)");
  }
  // Legal but dubious.
  if (config.fct.sup_min < 0.1) {
    problems.push_back(
        "warning: fct.sup_min < 0.1 can explode the FCT pool; check "
        "|FCT|/|D| (docs/tuning.md)");
  }
  if (config.kappa > 1.0) {
    problems.push_back(
        "warning: kappa > 1 makes sw1 nearly unsatisfiable; the panel will "
        "rarely update");
  }
  if (config.sample_cap > 0 && config.sample_cap < 20) {
    problems.push_back(
        "warning: sample_cap < 20 makes scov estimates very noisy");
  }
  if (config.round_deadline_ms > 0.0 && config.round_deadline_ms < 5.0) {
    problems.push_back(
        "warning: round_deadline_ms < 5 truncates nearly every phase; the "
        "panel will mostly coast on stale patterns");
  }
  return problems;
}

MidasEngine::MidasEngine(GraphDatabase db, const MidasConfig& config)
    : config_(config),
      rng_(config.seed),
      pool_(std::make_unique<TaskPool>(ResolveNumThreads(config.num_threads))),
      db_(std::move(db)),
      history_(config.history_capacity) {
  // Keep the swap thresholds in sync with the top-level κ/λ knobs.
  config_.swap.kappa = config_.kappa;
  config_.swap.lambda = config_.lambda;
}

MidasEngine::~MidasEngine() = default;

void MidasEngine::Initialize() {
  census_ = GraphletCensus(db_, pool_.get());
  fcts_ = FctSet::Mine(db_, config_.fct, pool_.get());
  clusters_ = ClusterSet::Build(db_, fcts_, config_.cluster, rng_,
                                pool_.get());
  RebuildCsgsFromClusters();
  fct_index_ = FctIndex::Build(db_, fcts_);
  ife_index_ = IfeIndex::Build(db_, fcts_);
  ged_ = HybridGed(GedFeatureTrees(fcts_), &round_budget_);
  eval_ = std::make_unique<CoverageEvaluator>(db_, config_.sample_cap, rng_,
                                              &fct_index_, &ife_index_);
  eval_->set_pool(pool_.get());

  CatapultConfig select;
  select.budget = config_.budget;
  select.walk = config_.walk;
  select.pcp_starts = config_.pcp_starts;
  select.sample_cap = config_.sample_cap;
  select.pool = pool_.get();
  patterns_ = SelectCannedPatterns(db_, fcts_, csgs_, select, rng_,
                                   &fct_index_, &ife_index_);
  SyncPatternColumns();
  small_panel_ = SmallPatternPanel(config_.small_panel);
  small_panel_.Refresh(fcts_);
  // Ledger births for the initial selection (seq 0). Suppressed during
  // recovery: the restored ledger already carries these patterns' history.
  if (!lineage_replay_) {
    ledger_.Clear();
    for (const auto& [pid, p] : patterns_.patterns()) {
      ledger_.RecordInitial(pid, p.scov, p.lcov, p.div, p.cog, p.score);
    }
  }
  initialized_ = true;
}

void MidasEngine::SetNumThreads(int num_threads) {
  config_.num_threads = num_threads;
  pool_ = std::make_unique<TaskPool>(ResolveNumThreads(num_threads));
  if (eval_ != nullptr) eval_->set_pool(pool_.get());
}

void MidasEngine::RestoreRoundSeq(uint64_t seq) {
  round_seq_ = std::max(round_seq_, seq);
}

void MidasEngine::LoadPatterns(PatternSet set) {
  // A loaded panel replaces the current one wholesale, and its pattern ids
  // mean different graphs than the ids already registered (restore loads a
  // snapshot panel over the one Initialize just selected — the id spaces
  // collide). SyncPatternColumns dedups by id, so stale columns must be
  // dropped explicitly or they silently keep the old panel's counts.
  for (PatternId pid : indexed_patterns_) {
    fct_index_.RemovePattern(pid);
    ife_index_.RemovePattern(pid);
  }
  indexed_patterns_.clear();
  patterns_ = std::move(set);
  RefreshAllPatternMetrics();
  RefreshDiversityAndScores(patterns_, ged_, pool_.get());
  SyncPatternColumns();
  // Square the ledger with the externally installed panel: synthesizes
  // kRestored/kRemoved events for ids the ledger did not know about. A
  // no-op when the panel's history was restored verbatim (recovery applies
  // journaled deltas under lineage_replay_ and reconciles afterwards).
  if (!lineage_replay_) {
    ledger_.Reconcile(patterns_, round_seq_);
  }
}

void MidasEngine::RebuildCsgsFromClusters() {
  csgs_.clear();
  // CSG builds are independent per cluster; build in parallel, insert in
  // ascending cluster-id order.
  std::vector<std::pair<ClusterId, const Cluster*>> rows;
  rows.reserve(clusters_.clusters().size());
  for (const auto& [cid, cluster] : clusters_.clusters()) {
    rows.emplace_back(cid, &cluster);
  }
  std::vector<Csg> built(rows.size());
  ParallelFor(pool_.get(), rows.size(), [&](size_t i) {
    built[i] = Csg::Build(db_, rows[i].second->members);
  });
  for (size_t i = 0; i < rows.size(); ++i) {
    csgs_.emplace(rows[i].first, std::move(built[i]));
  }
}

void MidasEngine::RebuildDerivedState() {
  if (!initialized_) {
    Initialize();
    return;
  }
  // Initialize()'s derivation pipeline minus pattern selection: every view
  // is a pure function of the base database (plus the rng for cluster
  // seeding), so a corrupted census/index/bitset is simply recomputed. The
  // panel survives; LoadPatterns re-registers its index columns and
  // refreshes its metrics against the fresh structures.
  census_ = GraphletCensus(db_, pool_.get());
  fcts_ = FctSet::Mine(db_, config_.fct, pool_.get());
  clusters_ =
      ClusterSet::Build(db_, fcts_, config_.cluster, rng_, pool_.get());
  RebuildCsgsFromClusters();
  fct_index_ = FctIndex::Build(db_, fcts_);
  ife_index_ = IfeIndex::Build(db_, fcts_);
  ged_ = HybridGed(GedFeatureTrees(fcts_), &round_budget_);
  eval_ = std::make_unique<CoverageEvaluator>(db_, config_.sample_cap, rng_,
                                              &fct_index_, &ife_index_);
  eval_->set_pool(pool_.get());
  // The rebuilt indices start with no pattern columns; forget the stale
  // registrations so SyncPatternColumns re-adds every panel pattern.
  indexed_patterns_.clear();
  LoadPatterns(std::move(patterns_));
  small_panel_ = SmallPatternPanel(config_.small_panel);
  small_panel_.Refresh(fcts_);
}

void MidasEngine::RefreshAllPatternMetrics() {
  // Each row writes only its own pattern; CoverageOf degrades to its serial
  // inner loop on worker threads (nested parallelism), so the coarse
  // per-pattern grain wins here.
  std::vector<CannedPattern*> rows;
  rows.reserve(patterns_.patterns().size());
  for (auto& [pid, p] : patterns_.patterns()) rows.push_back(&p);
  ParallelFor(pool_.get(), rows.size(), [&](size_t i) {
    RefreshPatternMetrics(*rows[i], *eval_, fcts_);
  });
}

std::map<ClusterId, Csg> MidasEngine::AffectedCsgView(
    const std::vector<ClusterId>& affected) const {
  std::map<ClusterId, Csg> view;
  for (ClusterId cid : affected) {
    auto it = csgs_.find(cid);
    if (it != csgs_.end()) view.emplace(cid, it->second);
  }
  return view;
}

void MidasEngine::ReconcileCsgs() {
  // Drop CSGs of clusters that vanished.
  for (auto it = csgs_.begin(); it != csgs_.end();) {
    if (clusters_.clusters().count(it->first) == 0) {
      it = csgs_.erase(it);
    } else {
      ++it;
    }
  }
  // (Re)build CSGs whose membership diverged (fine splits, new clusters).
  // The rebuilds are independent, so they fan out over the pool; results
  // are inserted in ascending cluster-id order.
  std::vector<std::pair<ClusterId, const Cluster*>> stale;
  for (const auto& [cid, cluster] : clusters_.clusters()) {
    auto it = csgs_.find(cid);
    if (it == csgs_.end() || !(it->second.members() == cluster.members)) {
      stale.emplace_back(cid, &cluster);
    }
  }
  std::vector<Csg> rebuilt(stale.size());
  ParallelFor(pool_.get(), stale.size(), [&](size_t i) {
    rebuilt[i] = Csg::Build(db_, stale[i].second->members);
  });
  for (size_t i = 0; i < stale.size(); ++i) {
    csgs_.insert_or_assign(stale[i].first, std::move(rebuilt[i]));
  }
}

void MidasEngine::SyncPatternColumns() {
  std::set<PatternId> current;
  for (const auto& [pid, p] : patterns_.patterns()) current.insert(pid);
  for (PatternId pid : indexed_patterns_) {
    if (current.count(pid) == 0) {
      fct_index_.RemovePattern(pid);
      ife_index_.RemovePattern(pid);
    }
  }
  for (const auto& [pid, p] : patterns_.patterns()) {
    if (indexed_patterns_.count(pid) == 0) {
      fct_index_.AddPattern(pid, p.graph);
      ife_index_.AddPattern(pid, p.graph);
    }
  }
  indexed_patterns_ = std::move(current);
}

MaintenanceStats MidasEngine::ApplyUpdate(const BatchUpdate& raw_delta,
                                          MaintenanceMode mode) {
  // Deletion hygiene: ids absent from the database are rejected up front
  // (not silently ignored by GraphDatabase::Remove deep in the round), and
  // ids repeated within one batch are deduped before anything is journaled.
  // Serving paths pre-validate with serve::ValidateBatch for per-item
  // diagnostics; this is the engine's own backstop.
  const BatchUpdate* effective = &raw_delta;
  BatchUpdate deduped;
  {
    std::set<GraphId> seen;
    bool duplicates = false;
    for (GraphId id : raw_delta.deletions) {
      if (!db_.Contains(id)) {
        throw std::invalid_argument("ApplyUpdate refused: deletion id " +
                                    std::to_string(id) +
                                    " is not in the database");
      }
      if (!seen.insert(id).second) duplicates = true;
    }
    if (duplicates) {
      deduped.insertions = raw_delta.insertions;
      seen.clear();
      for (GraphId id : raw_delta.deletions) {
        if (seen.insert(id).second) deduped.deletions.push_back(id);
      }
      effective = &deduped;
    }
  }
  const BatchUpdate& delta = *effective;

  // Write-ahead intent: the batch must be durable before any state changes.
  // On append failure we refuse the round with the engine untouched — the
  // caller retries or runs unjournaled, but never diverges from the log.
  uint64_t seq = round_seq_ + 1;
  if (journal_ != nullptr) {
    std::string journal_error;
    if (!journal_->AppendBatch(seq, delta, db_.labels(), &journal_error)) {
      throw std::runtime_error("ApplyUpdate refused: journal batch append "
                               "failed: " +
                               journal_error);
    }
  }

  // Open the ledger's round buffer: swap decisions and rescores pend here
  // and apply only at commit, so a thrown round leaves no lineage trace
  // (the next BeginRound discards stale pendings). Replay applies the
  // journaled @L deltas instead of re-recording.
  if (!lineage_replay_) {
    ledger_.BeginRound(seq);
  }

  // Arm the shared round budget (unlimited when no limit is configured;
  // round_budget_ stays a valid target either way because the HybridGed
  // closure holds its address).
  if (config_.round_deadline_ms > 0.0 || config_.round_step_limit > 0) {
    round_budget_.Reset(config_.round_deadline_ms > 0.0
                            ? Deadline::AfterMs(config_.round_deadline_ms)
                            : Deadline::Infinite(),
                        config_.round_step_limit);
  } else {
    round_budget_.ResetUnlimited();
  }

  MaintenanceStats stats;
  obs::TraceSpan total_span("midas_maintain_total_ms", &stats.total_ms);

  size_t num_additions = delta.insertions.size();
  std::vector<double> psi_before;
  std::vector<double> psi_after;
  std::vector<GraphId> added;
  std::vector<std::pair<GraphId, ClusterId>> deletion_clusters;
  {
    obs::TraceSpan span("midas_maintain_apply_ms", &stats.apply_ms);
    // Deterministic slow-down hook for tracing tests: stalls the apply
    // phase of exactly the armed round without touching any maintenance
    // decision, so a trace's "slow phase dominates self time" claim can be
    // proven end to end.
    if (MIDAS_FAILPOINT("midas.apply_update.slow_apply")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    psi_before = census_.Distribution();

    // Record cluster membership of deletions before they disappear.
    for (GraphId id : delta.deletions) {
      int cid = clusters_.ClusterOf(id);
      if (cid >= 0) {
        deletion_clusters.emplace_back(id, static_cast<ClusterId>(cid));
      }
    }

    // Apply ΔD to the database and the graphlet census (ESU counts of the
    // added graphs fan out over the pool).
    for (GraphId id : delta.deletions) census_.Remove(id);
    added = db_.ApplyBatch(delta);
    census_.AddBatch(db_, added, pool_.get());
    psi_after = census_.Distribution();
  }
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_apply");

  // Lines 1-2: cluster assignment / removal. The span pauses across FCT
  // maintenance and resumes for line 6's fine splitting, so the two
  // non-contiguous cluster regions are accumulated exactly once.
  obs::TraceSpan cluster_span("midas_maintain_cluster_ms", &stats.cluster_ms);
  std::vector<ClusterId> c_plus = clusters_.AssignGraphs(db_, added);
  std::vector<GraphId> removed_ids(delta.deletions);
  std::vector<ClusterId> c_minus = clusters_.RemoveGraphs(removed_ids);
  cluster_span.Pause();

  // Line 5: FCT maintenance.
  {
    obs::TraceSpan span("midas_maintain_fct_ms", &stats.fct_ms);
    if (!removed_ids.empty()) fcts_.MaintainDelete(removed_ids, db_.size());
    if (!added.empty()) {
      fcts_.MaintainAdd(db_, added, &round_budget_, pool_.get());
    }
  }
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_fct");

  // Line 6: fine clustering of oversized clusters.
  cluster_span.Resume();
  std::vector<ClusterId> created =
      clusters_.SplitOversized(db_, rng_, pool_.get());
  cluster_span.Stop();
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_cluster");

  // Line 7: CSG maintenance — incremental adds/removes, then reconcile the
  // clusters whose membership was rearranged by splitting.
  {
    obs::TraceSpan span("midas_maintain_csg_ms", &stats.csg_ms);
    for (const auto& [gid, cid] : deletion_clusters) {
      auto it = csgs_.find(cid);
      if (it != csgs_.end()) it->second.RemoveGraph(gid);
    }
    for (GraphId id : added) {
      int cid = clusters_.ClusterOf(id);
      const Graph* g = db_.Find(id);
      if (cid >= 0 && g != nullptr) {
        auto it = csgs_.find(static_cast<ClusterId>(cid));
        if (it != csgs_.end()) {
          it->second.AddGraph(id, *g);
        }
      }
    }
    ReconcileCsgs();
  }
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_csg");

  // Line 12 (part 1): graph-side index maintenance. Feature rows are synced
  // against the maintained FCT universe; columns follow ΔD. The span pauses
  // until the pattern-side column sync after swapping (part 2).
  obs::TraceSpan index_span("midas_maintain_index_ms", &stats.index_ms);
  for (GraphId id : removed_ids) {
    fct_index_.RemoveGraph(id);
    ife_index_.RemoveGraph(id);
  }
  for (GraphId id : added) {
    const Graph* g = db_.Find(id);
    if (g == nullptr) continue;
    fct_index_.AddGraph(id, *g);
    ife_index_.AddGraph(id, *g);
  }
  fct_index_.SyncFeatures(db_, fcts_);
  ife_index_.SyncEdges(db_, fcts_);
  // The feature rows just changed; the evaluator's per-pattern FeatureCounts
  // memo is keyed only by pattern content, so it must be dropped here.
  eval_->InvalidateFeatureCounts();
  index_span.Pause();
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_index");

  // Refresh the evaluation universe, the diversity estimator (the FCT
  // universe may have changed) and the cached pattern metrics; then
  // classify (lines 8-11). The span resumes for the companion-panel
  // refresh after swapping.
  obs::TraceSpan refresh_span("midas_maintain_refresh_ms", &stats.refresh_ms);
  ged_ = HybridGed(GedFeatureTrees(fcts_), &round_budget_);
  eval_->Resample(rng_);
  RefreshAllPatternMetrics();
  stats.view_rescan_rows = static_cast<int>(patterns_.size());
  // Shed mode (overload ladder): the pairwise-GED diversity refresh is the
  // round's most expendable expense — skipping it leaves diversity/score
  // columns stale but every structural invariant intact.
  if (!config_.shed_diversity_refresh) {
    RefreshDiversityAndScores(patterns_, ged_, pool_.get());
  }

  ModificationReport report =
      ClassifyModification(psi_before, psi_after, config_.epsilon,
                           config_.distance_measure);
  stats.graphlet_distance = report.distance;
  stats.major = report.type == ModificationType::kMajor;
  refresh_span.Pause();
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_refresh");

  if (stats.major && mode != MaintenanceMode::kNoMaintain &&
      patterns_.size() > 0) {
    // Candidate generation from affected CSGs only (Section 5).
    std::vector<Graph> candidates;
    {
      obs::TraceSpan span("midas_maintain_candidate_ms", &stats.candidate_ms);
      std::vector<ClusterId> affected;
      affected.insert(affected.end(), c_plus.begin(), c_plus.end());
      affected.insert(affected.end(), c_minus.begin(), c_minus.end());
      affected.insert(affected.end(), created.begin(), created.end());
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()),
                     affected.end());

      CandidateGenConfig gen;
      gen.budget = config_.budget;
      gen.walk = config_.walk;
      gen.kappa = config_.kappa;
      gen.pcp_starts = config_.pcp_starts;
      gen.max_candidates =
          config_.shed_candidate_cap > 0
              ? std::min(config_.max_candidates, config_.shed_candidate_cap)
              : config_.max_candidates;
      gen.pool = pool_.get();
      std::map<ClusterId, Csg> affected_csgs = AffectedCsgView(affected);
      candidates = GeneratePromisingCandidates(
          db_, fcts_, affected_csgs, patterns_, eval_->universe(), gen, rng_);
      stats.candidates = static_cast<int>(candidates.size());
    }
    MIDAS_FAILPOINT_ABORT("midas.apply_update.after_candidates");

    {
      obs::TraceSpan span("midas_maintain_swap_ms", &stats.swap_ms);
      // The rationale is captured at the decision site itself: the observer
      // runs synchronously on the (serial) decision loop, so the pend order
      // is thread-count-invariant and the ledger stays deterministic.
      SwapObserver observer;
      if (!lineage_replay_) {
        observer = [this](const SwapDecision& d) {
          obs::SwapRationale r;
          r.winner_score = d.winner_score;
          r.loser_score = d.loser_score;
          r.margin = d.winner_score - d.loser_score;
          r.coverage_gain = d.coverage_gain;
          r.coverage_loss = d.coverage_loss;
          r.kappa = d.kappa;
          r.div_before = d.div_before;
          r.div_after = d.div_after;
          r.cog_before = d.cog_before;
          r.cog_after = d.cog_after;
          r.lcov_before = d.lcov_before;
          r.lcov_after = d.lcov_after;
          r.random = d.random;
          r.dominant_term = obs::DominantTerm(r);
          ledger_.PendDeath(d.loser_id, d.winner_id, /*has_winner=*/true, &r,
                            d.loser_scov, d.loser_lcov, d.loser_div,
                            d.loser_cog, d.loser_score);
          ledger_.PendBirth(d.winner_id, obs::LineageEventKind::kSwapIn,
                            d.loser_id, /*has_loser=*/true, &r, d.winner_scov,
                            d.winner_lcov, d.div_after, d.winner_cog,
                            d.winner_score);
        };
      }
      if (mode == MaintenanceMode::kMidas) {
        SwapConfig swap_config = config_.swap;
        swap_config.budget = &round_budget_;
        swap_config.pool = pool_.get();
        swap_config.observer = observer;
        SwapStats sw = MultiScanSwap(patterns_, candidates, *eval_, fcts_,
                                     swap_config, ged_);
        stats.swaps = sw.swaps;
      } else {  // kRandomSwap
        stats.swaps =
            RandomSwap(patterns_, candidates, *eval_, fcts_, rng_, observer);
      }
      if (!config_.shed_diversity_refresh) {
        RefreshDiversityAndScores(patterns_, ged_, pool_.get());
      }
    }
  }
  MIDAS_FAILPOINT_ABORT("midas.apply_update.after_swap");

  // The η <= 2 companion panel follows the maintained FCT pool directly.
  refresh_span.Resume();
  small_panel_.Refresh(fcts_);
  refresh_span.Stop();

  // Line 12 (part 2): pattern-side index maintenance after swaps.
  index_span.Resume();
  SyncPatternColumns();
  index_span.Stop();

  total_span.Stop();

  // Read the budget verdict before disarming it; the budget returns to
  // unlimited between rounds so out-of-round estimator calls never degrade.
  stats.truncated = round_budget_.exhausted();
  ExecBudget::Cause budget_cause = round_budget_.cause();
  uint64_t budget_steps = round_budget_.steps_used();
  round_budget_.ResetUnlimited();

  // Attribute the round's kernel cost to the owning batch's causal trace
  // (installed thread-locally by the serving host; absent in direct engine
  // use). Read-only with respect to maintenance state.
  if (obs::TraceContext* trace = obs::TraceContext::Current()) {
    trace->AddBudgetSteps(budget_steps);
    trace->SetDegradeCause(static_cast<int>(budget_cause));
  }

  // Close the ledger round: one rescore per surviving pattern (sorted map
  // order — deterministic), then stamp the causal trace so replayed lineage
  // keeps its flight-record cross-links.
  if (!lineage_replay_) {
    for (const auto& [pid, p] : patterns_.patterns()) {
      ledger_.PendRescore(pid, p.scov, p.lcov, p.div, p.cog, p.score);
    }
    if (obs::TraceContext* trace = obs::TraceContext::Current()) {
      ledger_.StampTrace(trace->id().ToHex());
    }
  }

  // Commit: the round's outcome (including the exact panel) is durable
  // before the round counter advances. A crash before this append leaves
  // the batch record without a commit — recovery replays up to the previous
  // round and drops this one as in-flight, which matches the in-memory
  // state never having been observed by a caller.
  ++round_seq_;
  if (journal_ != nullptr) {
    std::string journal_error;
    // The @L record precedes @C so a committed round always carries its
    // lineage delta. An append failure is surfaced, not thrown: recovery
    // then reconciles this round's lineage synthetically.
    if (!lineage_replay_ &&
        !journal_->AppendLineage(seq, ledger_.SerializeDelta(
                                          patterns_.next_id()),
                                 &journal_error)) {
      obs::MetricsRegistry& mreg = obs::MetricsRegistry::Current();
      if (mreg.enabled()) {
        mreg.GetCounter("midas_journal_lineage_failures_total")->Increment();
      }
    }
    if (!journal_->AppendCommit(seq, patterns_, db_.labels(),
                                &journal_error)) {
      // The in-memory round is complete and valid; losing the commit record
      // only means recovery would re-run this round. Surface, don't throw.
      obs::MetricsRegistry& mreg = obs::MetricsRegistry::Current();
      if (mreg.enabled()) {
        mreg.GetCounter("midas_journal_commit_failures_total")->Increment();
      }
    }
  }
  if (!lineage_replay_) {
    ledger_.Commit();
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetCounter("midas_maintain_rounds_total")->Increment();
    if (stats.major) {
      reg.GetCounter("midas_maintain_major_rounds_total")->Increment();
    }
    if (stats.truncated) {
      reg.GetCounter("midas_maintain_truncated_rounds_total")->Increment();
    }
    reg.GetCounter("midas_maintain_swaps_total")
        ->Increment(static_cast<uint64_t>(stats.swaps));
    reg.GetCounter("midas_maintain_candidates_total")
        ->Increment(static_cast<uint64_t>(stats.candidates));
    reg.GetGauge("midas_maintain_db_size")
        ->Set(static_cast<double>(db_.size()));
    reg.GetGauge("midas_maintain_patterns")
        ->Set(static_cast<double>(patterns_.size()));
    reg.GetGauge("midas_maintain_graphlet_distance")
        ->Set(stats.graphlet_distance);
  }

  history_.Record(stats);

  // Quality SLIs (Definition 2.1 components on the post-round panel):
  // exported as midas_quality_* gauges, fed to the drift detector, and
  // recorded in the event log. Skipped entirely when nobody is listening,
  // so the metrics-off bench path stays unchanged.
  if (reg.enabled() || event_log_ != nullptr || drift_ != nullptr) {
    PatternQuality q = CurrentQuality();
    if (reg.enabled()) {
      reg.GetGauge("midas_quality_coverage")->Set(q.scov);
      reg.GetGauge("midas_quality_label_coverage")->Set(q.lcov);
      reg.GetGauge("midas_quality_diversity")->Set(q.div);
      reg.GetGauge("midas_quality_cognitive_load")->Set(q.cog_avg);
      reg.GetGauge("midas_quality_cognitive_load_max")->Set(q.cog_max);
    }

    obs::DriftFinding drift;
    if (drift_ != nullptr) {
      drift = drift_->Observe(
          obs::QualitySample{q.scov, q.lcov, q.div, q.cog_avg});
    }

    if (event_log_ != nullptr) {
      obs::MaintenanceEvent event;
      event.seq = round_seq_;
      event.additions = num_additions;
      event.deletions = delta.deletions.size();
      event.db_size = db_.size();
      event.patterns = patterns_.size();
      event.major = stats.major;
      event.graphlet_distance = stats.graphlet_distance;
      event.epsilon = config_.epsilon;
      event.candidates = stats.candidates;
      event.swaps = stats.swaps;
      event.truncated = stats.truncated;
      event.degrade_reason = std::string(ExecBudget::CauseName(budget_cause));
      event.budget_steps = budget_steps;
      event.phase_ms.emplace_back("total_ms", stats.total_ms);
#define MIDAS_EVENT_PHASE(field) \
  event.phase_ms.emplace_back(#field, stats.field);
      MIDAS_MAINTENANCE_PHASES(MIDAS_EVENT_PHASE)
#undef MIDAS_EVENT_PHASE
      event.scov = q.scov;
      event.lcov = q.lcov;
      event.div = q.div;
      event.cog_avg = q.cog_avg;
      event.cog_max = q.cog_max;
      event_log_->Append(event);

      // One structured line per drift transition, interleaved with the
      // per-round records (consumers split on the `quality_event` key).
      if (drift.newly_drifted || drift.recovered) {
        obs::JsonWriter w;
        w.BeginObject();
        w.Key("quality_event")
            .Value(drift.newly_drifted ? "quality_drift" : "quality_recovered");
        w.Key("seq").Value(round_seq_);
        w.Key("metric").Value(drift.metric);
        w.Key("ks_statistic").Value(drift.ks_statistic);
        w.Key("p_value").Value(drift.p_value);
        w.Key("baseline_mean").Value(drift.baseline_mean);
        w.Key("window_mean").Value(drift.window_mean);
        w.EndObject();
        event_log_->AppendRaw(w.str());
      }
    }
  }
  return stats;
}

double MaintenanceStats::PhaseSumMs() const {
  double sum = 0.0;
#define MIDAS_SUM_PHASE(field) sum += field;
  MIDAS_MAINTENANCE_PHASES(MIDAS_SUM_PHASE)
#undef MIDAS_SUM_PHASE
  return sum;
}

std::string MaintenanceStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("total_ms").Value(total_ms);
#define MIDAS_JSON_PHASE(field) w.Key(#field).Value(field);
  MIDAS_MAINTENANCE_PHASES(MIDAS_JSON_PHASE)
#undef MIDAS_JSON_PHASE
  w.Key("graphlet_distance").Value(graphlet_distance);
  w.Key("major").Value(major);
  w.Key("truncated").Value(truncated);
  w.Key("candidates").Value(candidates);
  w.Key("swaps").Value(swaps);
  w.Key("view_delta_rows").Value(view_delta_rows);
  w.Key("view_rescan_rows").Value(view_rescan_rows);
  w.EndObject();
  return w.str();
}

MaintenanceStats MaintenanceStats::FromJson(std::string_view json, bool* ok) {
  MaintenanceStats stats;
  obs::FlatJson parsed = obs::ParseFlatJson(json);
  bool complete = parsed.ok;
  auto number = [&](const char* key, double* out) {
    auto it = parsed.numbers.find(key);
    if (it == parsed.numbers.end()) {
      complete = false;
      return;
    }
    *out = it->second;
  };
  number("total_ms", &stats.total_ms);
#define MIDAS_PARSE_PHASE(field) number(#field, &stats.field);
  MIDAS_MAINTENANCE_PHASES(MIDAS_PARSE_PHASE)
#undef MIDAS_PARSE_PHASE
  number("graphlet_distance", &stats.graphlet_distance);
  auto bit = parsed.bools.find("major");
  if (bit == parsed.bools.end()) {
    complete = false;
  } else {
    stats.major = bit->second;
  }
  auto tit = parsed.bools.find("truncated");
  if (tit == parsed.bools.end()) {
    complete = false;
  } else {
    stats.truncated = tit->second;
  }
  double value = 0.0;
  number("candidates", &value);
  stats.candidates = static_cast<int>(value);
  number("swaps", &value);
  stats.swaps = static_cast<int>(value);
  number("view_delta_rows", &value);
  stats.view_delta_rows = static_cast<int>(value);
  number("view_rescan_rows", &value);
  stats.view_rescan_rows = static_cast<int>(value);
  if (!complete) stats = MaintenanceStats();
  if (ok != nullptr) *ok = complete;
  return stats;
}

void MaintenanceHistory::Record(const MaintenanceStats& stats) {
  entries_.push_back(stats);
  if (capacity_ > 0) {
    while (entries_.size() > capacity_) entries_.pop_front();
  }
  ++recorded_;
  if (stats.major) ++major_rounds_;
  total_swaps_ += stats.swaps;
  total_pmt_ms_ += stats.total_ms;
  max_pmt_ms_ = std::max(max_pmt_ms_, stats.total_ms);
}

MaintenanceHistory::Summary MaintenanceHistory::Summarize() const {
  // Lifetime accumulators, not the retained window: evicted rounds keep
  // counting.
  Summary s;
  s.rounds = recorded_;
  s.major_rounds = major_rounds_;
  s.total_swaps = total_swaps_;
  s.total_pmt_ms = total_pmt_ms_;
  s.max_pmt_ms = max_pmt_ms_;
  if (s.rounds > 0) {
    s.mean_pmt_ms = s.total_pmt_ms / static_cast<double>(s.rounds);
  }
  return s;
}

PatternQuality MidasEngine::CurrentQuality() const {
  PatternQuality q = EvaluateQuality(patterns_, eval_->universe().size());
  return q;
}

PatternQuality EvaluateQuality(const PatternSet& set, size_t universe_size) {
  PatternQuality q;
  q.scov = set.FScov(universe_size);
  q.lcov = set.FLcov();
  q.div = set.FDiv();
  double sum_cog = 0.0;
  for (const auto& [pid, p] : set.patterns()) {
    sum_cog += p.cog;
    q.cog_max = std::max(q.cog_max, p.cog);
  }
  q.cog_avg = set.size() == 0 ? 0.0 : sum_cog / static_cast<double>(set.size());
  return q;
}

FromScratchResult RunFromScratch(const GraphDatabase& db,
                                 const MidasConfig& config, bool plus_plus,
                                 uint64_t seed) {
  FromScratchResult result;
  obs::TraceSpan total_span("midas_scratch_total_ms", &result.total_ms);
  Rng rng(seed);
  TaskPool pool(ResolveNumThreads(config.num_threads));

  CatapultConfig select;
  select.budget = config.budget;
  select.walk = config.walk;
  select.pcp_starts = config.pcp_starts;
  select.sample_cap = config.sample_cap;
  select.pool = &pool;

  if (plus_plus) {
    // CATAPULT++: FCT features + FCT-/IFE-indices.
    FctSet fcts = [&] {
      obs::TraceSpan span("midas_scratch_mine_ms", &result.mine_ms);
      return FctSet::Mine(db, config.fct, &pool);
    }();

    obs::TraceSpan cluster_span("midas_scratch_cluster_ms",
                                &result.cluster_ms);
    ClusterSet clusters =
        ClusterSet::Build(db, fcts, config.cluster, rng, &pool);
    std::map<ClusterId, Csg> csgs;
    for (const auto& [cid, c] : clusters.clusters()) {
      csgs.emplace(cid, Csg::Build(db, c.members));
    }
    cluster_span.Stop();

    obs::TraceSpan index_span("midas_scratch_index_ms", &result.index_ms);
    FctIndex fct_index = FctIndex::Build(db, fcts);
    IfeIndex ife_index = IfeIndex::Build(db, fcts);
    index_span.Stop();

    obs::TraceSpan select_span("midas_scratch_select_ms", &result.select_ms);
    result.patterns = SelectCannedPatterns(db, fcts, csgs, select, rng,
                                           &fct_index, &ife_index);
    select_span.Stop();
  } else {
    // Plain CATAPULT: frequent (non-closed) subtree features, no indices.
    obs::TraceSpan mine_span("midas_scratch_mine_ms", &result.mine_ms);
    TreeMinerConfig miner;
    miner.min_support = config.fct.sup_min;
    miner.max_edges = config.fct.max_edges;
    miner.pool = &pool;
    GraphView view = MakeView(db);
    std::vector<MinedTree> trees = MineFrequentTrees(view, miner);
    // The paper still selects from CSGs whose weights need edge occurrence
    // lists; reuse the FctSet container for those (mining cost dominated by
    // the frequent-subtree pass above).
    FctSet fcts = FctSet::Mine(db, config.fct, &pool);
    mine_span.Stop();

    obs::TraceSpan cluster_span("midas_scratch_cluster_ms",
                                &result.cluster_ms);
    std::vector<Graph> feature_trees;
    std::vector<IdSet> occurrences;
    for (MinedTree& t : trees) {
      feature_trees.push_back(std::move(t.tree));
      occurrences.push_back(std::move(t.occurrences));
    }
    ClusterSet clusters = ClusterSet::Build(
        db, FeatureSpace(std::move(feature_trees), std::move(occurrences)),
        config.cluster, rng, &pool);
    std::map<ClusterId, Csg> csgs;
    for (const auto& [cid, c] : clusters.clusters()) {
      csgs.emplace(cid, Csg::Build(db, c.members));
    }
    cluster_span.Stop();

    obs::TraceSpan select_span("midas_scratch_select_ms", &result.select_ms);
    result.patterns =
        SelectCannedPatterns(db, fcts, csgs, select, rng, nullptr, nullptr);
    select_span.Stop();
  }
  total_span.Stop();  // before the return copies/moves result.total_ms
  return result;
}

}  // namespace midas
