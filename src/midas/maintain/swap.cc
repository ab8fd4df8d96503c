#include "midas/maintain/swap.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>

#include "midas/common/stats.h"
#include "midas/graph/ged.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

namespace midas {

GedEstimator DefaultGedEstimator() {
  return [](const Graph& a, const Graph& b) {
    return static_cast<double>(GedLowerBound(a, b));
  };
}

namespace {

// Working view of the swap: evaluated patterns + candidates with helpers
// for hypothetical set metrics.
class SwapEngine {
 public:
  SwapEngine(PatternSet& set, const CoverageEvaluator& eval,
             const FctSet& fcts, const SwapConfig& config,
             const GedEstimator& ged)
      : set_(set), eval_(eval), fcts_(fcts), config_(config), ged_(ged) {}

  SwapStats Run(const std::vector<Graph>& candidate_graphs) {
    SwapStats stats;
    ExecBudget* budget = config_.budget;
    // Evaluate candidates once (coverage, lcov, cog are set-independent).
    // Candidates not evaluated before exhaustion simply never compete.
    {
      std::vector<CannedPattern> evaluated(candidate_graphs.size());
      std::vector<uint8_t> done(candidate_graphs.size(), 0);
      ParallelFor(
          config_.pool, candidate_graphs.size(),
          [&](size_t i) {
            evaluated[i].graph = candidate_graphs[i];
            RefreshPatternMetrics(evaluated[i], eval_, fcts_);
            done[i] = 1;
          },
          budget);
      for (size_t i = 0; i < evaluated.size(); ++i) {
        if (done[i] == 0) continue;
        candidates_.push_back(std::move(evaluated[i]));
        ++stats.candidates_evaluated;
      }
    }
    RefreshLabelCoverageSets();

    double kappa = config_.kappa;
    double sigma = config_.sigma0;
    std::vector<bool> used(candidates_.size(), false);
    for (int scan = 0;
         scan < config_.max_scans && !BudgetExhausted(budget); ++scan) {
      ++stats.scans;
      int swaps = RunScan(kappa, used);
      stats.swaps += swaps;
      stats.kappa_final = kappa;
      if (swaps == 0) break;
      if (config_.use_swap_alpha_schedule) {
        if (sigma >= 0.5) break;       // approximation ratio target reached
        kappa = 1.0 - 2.0 * sigma;     // Lemma 6.3
        sigma = 0.25 / (1.0 - sigma);
      }
    }
    stats.truncated = BudgetExhausted(budget);

    FinalizeScores();
    return stats;
  }

 private:
  // Label-coverage id-sets per live pattern id (for the f_lcov criterion).
  void RefreshLabelCoverageSets() {
    label_cov_.clear();
    for (const auto& [id, p] : set_.patterns()) {
      label_cov_[id] = LabelCoverageSet(p.graph);
    }
  }

  IdSet LabelCoverageSet(const Graph& g) const {
    IdSet covered;
    const auto& edge_occ = fcts_.edge_occurrences();
    for (const EdgeLabelPair& lp : g.DistinctEdgeLabels()) {
      auto it = edge_occ.find(lp);
      if (it != edge_occ.end()) covered.UnionWith(it->second);
    }
    return covered;
  }

  // Memoized pairwise distance. Keys: pattern ids for set members, the
  // candidate's address for candidates (graphs are immutable during the
  // swap). Unordered pair -> one cache entry. This per-call memo is the only
  // one that can hold candidate pairs; across rounds, pattern pairs are
  // served by the estimator's own content-keyed ComputeCache entry.
  double Dist(uint64_t ka, const Graph& a, uint64_t kb,
              const Graph& b) const {
    if (ka > kb) return Dist(kb, b, ka, a);
    {
      std::lock_guard<std::mutex> lock(dist_mu_);
      auto it = dist_cache_.find({ka, kb});
      if (it != dist_cache_.end()) return it->second;
    }
    // Computed outside the lock: a pair may be estimated twice under
    // contention, but ged_ is deterministic so both writers agree.
    double d = ged_(a, b);
    std::lock_guard<std::mutex> lock(dist_mu_);
    dist_cache_.emplace(std::make_pair(ka, kb), d);
    return d;
  }

  static uint64_t PatternKey(PatternId id) { return id; }
  static uint64_t GraphKey(const Graph* g) {
    return 0x8000000000000000ULL | reinterpret_cast<uint64_t>(g);
  }

  // Minimum pairwise distance of the member to the rest of the set, with an
  // optional exclusion and an optional extra member.
  double DivOf(uint64_t key, const Graph& g, PatternId self,
               PatternId excluded, const Graph* extra) const {
    double best = std::numeric_limits<double>::max();
    for (const auto& [id, p] : set_.patterns()) {
      if (id == self || id == excluded) continue;
      best = std::min(best, Dist(key, g, PatternKey(id), p.graph));
    }
    if (extra != nullptr) {
      best = std::min(best, Dist(key, g, GraphKey(extra), *extra));
    }
    return best == std::numeric_limits<double>::max()
               ? static_cast<double>(g.NumEdges())
               : best;
  }

  // f_div of the hypothetical set (P \ excluded) ∪ {extra}.
  double SetDiversity(PatternId excluded, const Graph* extra) const {
    double best = std::numeric_limits<double>::max();
    for (const auto& [id, p] : set_.patterns()) {
      if (id == excluded) continue;
      best = std::min(best, DivOf(PatternKey(id), p.graph, id, excluded,
                                   extra));
    }
    if (extra != nullptr) {
      best = std::min(best, DivOf(GraphKey(extra), *extra,
                                   static_cast<PatternId>(-1), excluded,
                                   nullptr));
    }
    return best == std::numeric_limits<double>::max() ? 0.0 : best;
  }

  double SetCog(PatternId excluded, const Graph* extra) const {
    double worst = 0.0;
    for (const auto& [id, p] : set_.patterns()) {
      if (id == excluded) continue;
      worst = std::max(worst, p.cog);
    }
    if (extra != nullptr) worst = std::max(worst, extra->CognitiveLoad());
    return worst;
  }

  double SetLcov(PatternId excluded, const IdSet* extra_cov) const {
    IdSet all;
    for (const auto& [id, cov] : label_cov_) {
      if (id == excluded) continue;
      all.UnionWith(cov);
    }
    if (extra_cov != nullptr) all.UnionWith(*extra_cov);
    size_t db_size = eval_.db().size();
    return db_size == 0 ? 0.0
                        : static_cast<double>(all.size()) /
                              static_cast<double>(db_size);
  }

  std::vector<double> SizesWithSwap(PatternId excluded,
                                    const Graph* extra) const {
    std::vector<double> sizes;
    for (const auto& [id, p] : set_.patterns()) {
      if (id == excluded) continue;
      sizes.push_back(static_cast<double>(p.graph.NumEdges()));
    }
    if (extra != nullptr) sizes.push_back(static_cast<double>(extra->NumEdges()));
    return sizes;
  }

  // Query-log boost factor (1 when no log is attached); memoized per key
  // since the log scan is a VF2 pass over the whole window.
  double LogBoost(uint64_t key, const Graph& g) const {
    if (config_.query_log == nullptr || config_.query_log->empty()) {
      return 1.0;
    }
    {
      std::lock_guard<std::mutex> lock(boost_mu_);
      auto it = log_boost_cache_.find(key);
      if (it != log_boost_cache_.end()) return it->second;
    }
    double boost =
        1.0 + config_.log_boost * config_.query_log->PatternWeight(g);
    std::lock_guard<std::mutex> lock(boost_mu_);
    log_boost_cache_.emplace(key, boost);
    return boost;
  }

  // s'_p of an existing pattern under the current set (log-boosted when a
  // query log is attached — the Section 3.5 extension).
  double ScoreOf(const CannedPattern& p) const {
    double div = DivOf(PatternKey(p.id), p.graph, p.id,
                       static_cast<PatternId>(-1), nullptr);
    double s = p.cog > 0.0 ? p.scov * p.lcov * div / p.cog : 0.0;
    return s * LogBoost(PatternKey(p.id), p.graph);
  }

  // s'_{p_c} of a candidate against the current set.
  double CandidateScore(const CannedPattern& c) const {
    double div = DivOf(GraphKey(&c.graph), c.graph,
                       static_cast<PatternId>(-1),
                       static_cast<PatternId>(-1), nullptr);
    double s = c.cog > 0.0 ? c.scov * c.lcov * div / c.cog : 0.0;
    return s * LogBoost(GraphKey(&c.graph), c.graph);
  }

  int RunScan(double kappa, std::vector<bool>& used) {
    int swaps = 0;
    // Candidate priority queue, best score first. Scoring prefills the
    // pairwise-distance cache, so it fans out over the pool; the swap loop
    // below then runs serially on a warm cache.
    std::vector<size_t> live;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (!used[i]) live.push_back(i);
    }
    std::vector<std::pair<double, size_t>> cq(live.size());
    ParallelFor(config_.pool, live.size(), [&](size_t k) {
      size_t i = live[k];
      cq[k] = {-CandidateScore(candidates_[i]), i};
    });
    std::sort(cq.begin(), cq.end());

    for (const auto& [neg_score, ci] : cq) {
      (void)neg_score;  // queue order is fixed at scan start, as in the paper
      if (set_.size() == 0) break;
      // Anytime cut: each completed iteration is a committed one-for-one
      // swap (or a no-op), so stopping between candidates is always safe.
      if (BudgetExhausted(config_.budget)) break;
      CannedPattern& cand = candidates_[ci];
      // Scores are re-evaluated against the *current* set: earlier swaps in
      // this scan change diversity terms.
      double cand_score = CandidateScore(cand);

      // Weakest existing pattern by s'_p.
      PatternId worst_id = 0;
      double worst_score = std::numeric_limits<double>::max();
      for (const auto& [id, p] : set_.patterns()) {
        double s = ScoreOf(p);
        if (s < worst_score) {
          worst_score = s;
          worst_id = id;
        }
      }
      // sw2 doubles as the scan terminator (Section 6.2).
      if (cand_score < (1.0 + config_.lambda) * worst_score) break;

      // sw1: benefit vs loss on union subgraph coverage.
      IdSet cov_union = set_.CoverageUnion();
      double benefit =
          static_cast<double>(cand.coverage.DifferenceSize(cov_union));
      double loss = static_cast<double>(set_.UniqueCoverage(worst_id));
      if (benefit < (1.0 + kappa) * loss) continue;

      // Size-distribution similarity (Kolmogorov-Smirnov).
      if (!KsSimilar(set_.SizeDistribution(),
                     SizesWithSwap(worst_id, &cand.graph),
                     config_.ks_alpha)) {
        continue;
      }

      // sw3-sw5: set-level quality must not regress.
      double div_before = SetDiversity(static_cast<PatternId>(-1), nullptr);
      double div_after = SetDiversity(worst_id, &cand.graph);
      if (div_after < div_before) continue;
      double cog_before = SetCog(static_cast<PatternId>(-1), nullptr);
      double cog_after = SetCog(worst_id, &cand.graph);
      if (cog_after > cog_before) continue;
      IdSet cand_label_cov = LabelCoverageSet(cand.graph);
      double lcov_before =
          SetLcov(static_cast<PatternId>(-1), nullptr);
      double lcov_after = SetLcov(worst_id, &cand_label_cov);
      if (lcov_after < lcov_before) continue;

      // Swap. The loser's metrics are captured before it leaves the set —
      // the decision record is the only place they survive.
      const CannedPattern* loser = set_.Find(worst_id);
      SwapDecision decision;
      decision.loser_id = worst_id;
      decision.winner_score = cand_score;
      decision.loser_score = worst_score;
      decision.coverage_gain = benefit;
      decision.coverage_loss = loss;
      decision.kappa = kappa;
      decision.div_before = div_before;
      decision.div_after = div_after;
      decision.cog_before = cog_before;
      decision.cog_after = cog_after;
      decision.lcov_before = lcov_before;
      decision.lcov_after = lcov_after;
      decision.winner_scov = cand.scov;
      decision.winner_lcov = cand.lcov;
      decision.winner_cog = cand.cog;
      if (loser != nullptr) {
        decision.loser_scov = loser->scov;
        decision.loser_lcov = loser->lcov;
        decision.loser_div = loser->div;
        decision.loser_cog = loser->cog;
      }
      set_.Remove(worst_id);
      label_cov_.erase(worst_id);
      CannedPattern fresh = cand;
      PatternId new_id = set_.Add(std::move(fresh));
      label_cov_[new_id] = cand_label_cov;
      used[ci] = true;
      ++swaps;
      if (config_.observer) {
        decision.winner_id = new_id;
        config_.observer(decision);
      }
    }
    return swaps;
  }

  void FinalizeScores() {
    auto& patterns = set_.patterns();
    for (auto& [id, p] : patterns) {
      p.div = DivOf(PatternKey(id), p.graph, id,
                    static_cast<PatternId>(-1), nullptr);
      p.score = p.cog > 0.0 ? p.scov * p.lcov * p.div / p.cog : 0.0;
    }
  }

  PatternSet& set_;
  const CoverageEvaluator& eval_;
  const FctSet& fcts_;
  const SwapConfig& config_;
  const GedEstimator& ged_;
  std::vector<CannedPattern> candidates_;
  std::map<PatternId, IdSet> label_cov_;
  mutable std::mutex dist_mu_;
  mutable std::map<std::pair<uint64_t, uint64_t>, double> dist_cache_;
  mutable std::mutex boost_mu_;
  mutable std::map<uint64_t, double> log_boost_cache_;
};

}  // namespace

SwapStats MultiScanSwap(PatternSet& set, const std::vector<Graph>& candidates,
                        const CoverageEvaluator& eval, const FctSet& fcts,
                        const SwapConfig& config, const GedEstimator& ged) {
  obs::TraceSpan span("midas_maintain_swap_scan_ms");
  SwapEngine engine(set, eval, fcts, config, ged);
  SwapStats stats = engine.Run(candidates);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetCounter("midas_maintain_swap_scans_total")
        ->Increment(static_cast<uint64_t>(stats.scans));
    reg.GetCounter("midas_maintain_swap_candidates_total")
        ->Increment(static_cast<uint64_t>(stats.candidates_evaluated));
    if (stats.truncated) {
      reg.GetCounter("midas_maintain_swap_truncated_total")->Increment();
    }
  }
  return stats;
}

int RandomSwap(PatternSet& set, const std::vector<Graph>& candidates,
               const CoverageEvaluator& eval, const FctSet& fcts, Rng& rng,
               const SwapObserver& observer) {
  int swaps = 0;
  for (const Graph& g : candidates) {
    if (set.size() == 0) break;
    if (!rng.Bernoulli(0.5)) continue;
    std::vector<PatternId> ids;
    for (const auto& [id, p] : set.patterns()) ids.push_back(id);
    PatternId victim =
        ids[static_cast<size_t>(rng.UniformInt(0, ids.size() - 1))];
    SwapDecision decision;
    decision.random = true;
    decision.loser_id = victim;
    if (const CannedPattern* loser = set.Find(victim)) {
      decision.loser_score = loser->score;
      decision.loser_scov = loser->scov;
      decision.loser_lcov = loser->lcov;
      decision.loser_div = loser->div;
      decision.loser_cog = loser->cog;
    }
    set.Remove(victim);
    CannedPattern c;
    c.graph = g;
    RefreshPatternMetrics(c, eval, fcts);
    decision.winner_scov = c.scov;
    decision.winner_lcov = c.lcov;
    decision.winner_cog = c.cog;
    decision.winner_id = set.Add(std::move(c));
    ++swaps;
    if (observer) observer(decision);
  }
  return swaps;
}

}  // namespace midas
