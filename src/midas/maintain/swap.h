#ifndef MIDAS_MAINTAIN_SWAP_H_
#define MIDAS_MAINTAIN_SWAP_H_

#include <functional>
#include <vector>

#include "midas/queryform/query_log.h"
#include "midas/select/pattern.h"

namespace midas {

/// Multi-scan swap-based pattern maintenance (Section 6.2).
///
/// Candidates and existing patterns are ranked by the adapted score
/// s'_p = scov * lcov * div / cog; the best candidate challenges the weakest
/// pattern under criteria sw1-sw5 plus a Kolmogorov-Smirnov check that the
/// pattern-size distribution is not significantly disturbed. A scan
/// terminates when sw2 fails (the remaining candidates cannot beat anyone);
/// subsequent scans run with κ updated by the SWAP_α schedule of Lemma 6.3,
/// which drives the coverage approximation ratio towards 1/2.
struct SwapConfig {
  double kappa = 0.1;       ///< sw1 benefit/loss threshold (first scan)
  double lambda = 0.1;      ///< sw2 score-dominance threshold
  double ks_alpha = 0.05;   ///< size-distribution similarity significance
  int max_scans = 3;
  /// Update κ between scans per Lemma 6.3 (κ_t = 1 - 2σ_{t-1},
  /// σ_t = 0.25 / (1 - σ_{t-1})); otherwise κ stays fixed.
  bool use_swap_alpha_schedule = true;
  double sigma0 = 0.25;     ///< initial approximation-ratio lower bound

  /// Optional query log (Section 3.5 extension): when set, pattern scores
  /// are boosted by their log frequency, s''_p = s'_p * (1 + log_boost *
  /// weight(p)), so patterns users actually formulate resist eviction and
  /// candidates matching the workload are preferred. Non-owning; must
  /// outlive the swap call.
  const QueryLog* query_log = nullptr;
  double log_boost = 1.0;

  /// Optional execution budget (non-owning; nullptr = unlimited). The swap
  /// is *anytime*: it checks the budget between candidate evaluations and
  /// between swap attempts, and on exhaustion stops with whatever swaps
  /// were already applied. Every swap is a one-for-one replacement that
  /// passed sw1-sw5, so any prefix leaves a valid panel of unchanged size —
  /// PatternBudget is never violated by truncation.
  ExecBudget* budget = nullptr;

  /// Optional task pool (non-owning; nullptr = serial). Parallelizes the
  /// upfront candidate metric evaluation and the pairwise-distance prefill
  /// at the start of each scan; the swap decisions themselves remain
  /// sequential, so the outcome is thread-count-invariant.
  TaskPool* pool = nullptr;

  /// Optional swap-decision observer (see SwapObserver below); empty =
  /// no capture.
  std::function<void(const struct SwapDecision&)> observer;
};

struct SwapStats {
  int swaps = 0;
  int scans = 0;
  int candidates_evaluated = 0;
  double kappa_final = 0.0;
  bool truncated = false;  ///< stopped early on budget exhaustion
};

/// Default diversity estimator for swapping: the label lower bound GED_l
/// (fast; Lemma 6.1 with n = 0). The engine passes the same HybridGed
/// estimator it uses for reporting, so sw3's non-regression guarantee holds
/// in the reported metric. (GedEstimator itself is declared in pattern.h.)
GedEstimator DefaultGedEstimator();

/// One accepted swap decision, emitted from the decision site itself with
/// every term the sw1–sw5 criteria weighed — the raw material of the
/// provenance ledger (obs/lineage.h). `winner` metrics are the candidate's
/// at acceptance time; `loser_*` are the displaced pattern's.
struct SwapDecision {
  PatternId winner_id = 0;
  PatternId loser_id = 0;
  double winner_score = 0.0;  ///< candidate s'_p against the current set
  double loser_score = 0.0;   ///< the displaced (worst) pattern's score
  double coverage_gain = 0.0; ///< sw1 benefit
  double coverage_loss = 0.0; ///< sw1 loss (loser's unique coverage)
  double kappa = 0.0;         ///< κ of the accepting scan
  double div_before = 0.0, div_after = 0.0;
  double cog_before = 0.0, cog_after = 0.0;
  double lcov_before = 0.0, lcov_after = 0.0;
  /// Winner/loser pattern metrics at decision time.
  double winner_scov = 0.0, winner_lcov = 0.0, winner_cog = 0.0;
  double loser_scov = 0.0, loser_lcov = 0.0, loser_div = 0.0,
         loser_cog = 0.0;
  bool random = false;  ///< true when RandomSwap (baseline mode) decided
};

/// Observer invoked synchronously, on the decision thread, for every swap
/// that executes. The decision loop is serial, so the callback order is
/// thread-count-invariant.
using SwapObserver = std::function<void(const SwapDecision&)>;

/// Runs the multi-scan swap. `set` is updated in place; candidate metrics
/// are evaluated with `eval`/`fcts`. After the call every pattern's cached
/// scov/lcov/cog/div/score reflect the final set (div under `ged`).
SwapStats MultiScanSwap(PatternSet& set, const std::vector<Graph>& candidates,
                        const CoverageEvaluator& eval, const FctSet& fcts,
                        const SwapConfig& config,
                        const GedEstimator& ged = DefaultGedEstimator());

/// Baseline: random swapping (the `Random` competitor of Section 7.1).
/// Each candidate replaces a uniformly random existing pattern with
/// probability 1/2, without any quality checks. The observer (optional)
/// sees each executed swap with `random = true` and no criterion terms.
int RandomSwap(PatternSet& set, const std::vector<Graph>& candidates,
               const CoverageEvaluator& eval, const FctSet& fcts, Rng& rng,
               const SwapObserver& observer = SwapObserver());

}  // namespace midas

#endif  // MIDAS_MAINTAIN_SWAP_H_
