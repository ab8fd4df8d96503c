#ifndef MIDAS_SELECT_PATTERN_H_
#define MIDAS_SELECT_PATTERN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "midas/common/budget.h"
#include "midas/common/id_set.h"
#include "midas/common/parallel.h"
#include "midas/common/rng.h"
#include "midas/graph/graph_database.h"
#include "midas/index/fct_index.h"
#include "midas/index/ife_index.h"
#include "midas/mining/fct_set.h"

namespace midas {

/// Stable id of a canned pattern on the GUI.
using PatternId = uint32_t;

/// A canned pattern with cached quality metrics (Section 2.2).
struct CannedPattern {
  PatternId id = 0;
  Graph graph;
  /// Data graphs (within the evaluation universe) containing the pattern.
  IdSet coverage;
  double scov = 0.0;  ///< subgraph coverage |G_p| / |D_s|
  double lcov = 0.0;  ///< label coverage of the pattern's edges
  /// lcov numerator |∪_e L(e, D)| (lcov = lcov_count / |D|); the deep fsck
  /// tier checks it exactly, with no float epsilon.
  size_t lcov_count = 0;
  double cog = 0.0;   ///< cognitive load |E_p| * density
  double div = 0.0;   ///< min estimated GED to the rest of the set
  double score = 0.0; ///< s'_p = scov * lcov * div / cog
};

/// The canned pattern set P displayed on the GUI.
class PatternSet {
 public:
  PatternSet() = default;

  /// Adds a pattern, assigning a fresh id (returned).
  PatternId Add(CannedPattern p);
  /// Adds a pattern under a caller-chosen id (restore paths: snapshot /
  /// journal panels keep their on-disk ids so provenance stays addressable
  /// across recovery). Advances the allocator past `id`; replaces any
  /// existing pattern with the same id.
  PatternId AddWithId(PatternId id, CannedPattern p);
  bool Remove(PatternId id);

  /// Id the next Add() would assign. Persisted in the snapshot MANIFEST so
  /// post-recovery swap-ins allocate the same ids an uninterrupted run
  /// would (dead patterns may hold ids above every live one).
  PatternId next_id() const { return next_id_; }
  /// Never lowers the allocator.
  void RestoreNextId(PatternId next_id) {
    if (next_id > next_id_) next_id_ = next_id;
  }

  const CannedPattern* Find(PatternId id) const;
  CannedPattern* FindMutable(PatternId id);

  size_t size() const { return patterns_.size(); }
  const std::map<PatternId, CannedPattern>& patterns() const {
    return patterns_;
  }
  std::map<PatternId, CannedPattern>& patterns() { return patterns_; }

  /// Pattern sizes |E_p| as doubles (for the KS size-distribution test).
  std::vector<double> SizeDistribution() const;

  /// Union of all pattern coverage sets.
  IdSet CoverageUnion() const;
  /// Coverage of p not provided by any other pattern
  /// (|G_scov(p) \ ∪_{p'≠p} G_scov(p')| of Definition 5.5).
  size_t UniqueCoverage(PatternId id) const;
  /// Smallest unique coverage over the set (RHS baseline of Equation 2).
  size_t MinUniqueCoverage() const;

  /// --- set-level objectives (Section 2.2) -------------------------------
  double FScov(size_t universe_size) const;
  double FLcov() const;  ///< min over patterns is not used; union-based, cached lcov inputs
  double FDiv() const;   ///< min cached div
  double FCog() const;   ///< max cached cog
  /// s'_P = f_scov * f_lcov * f_div / f_cog.
  double SetScore(size_t universe_size) const;

 private:
  std::map<PatternId, CannedPattern> patterns_;
  PatternId next_id_ = 0;
};

/// Evaluates pattern coverage against a (lazily sampled) database universe,
/// optionally accelerated by the FCT-/IFE-indices (Section 6.1).
///
/// The paper computes scov over a sampled database D_s when D is large; the
/// evaluator fixes the sample once so all comparisons are consistent.
class CoverageEvaluator {
 public:
  /// sample_cap = 0 disables sampling. Indices may be null (CATAPULT mode:
  /// plain VF2 scans).
  CoverageEvaluator(const GraphDatabase& db, size_t sample_cap, Rng& rng,
                    const FctIndex* fct_index = nullptr,
                    const IfeIndex* ife_index = nullptr);

  /// Ids of universe graphs containing the pattern.
  IdSet CoverageOf(const Graph& pattern) const;

  /// Label coverage of the pattern's edge labels over the full database:
  /// |∪_e L(e, D)| / |D|.
  double LabelCoverageOf(const Graph& pattern, const FctSet& fcts) const;

  /// The lcov numerator |∪_e L(e, D)|.
  size_t LabelCoverageCount(const Graph& pattern, const FctSet& fcts) const;

  const IdSet& universe() const { return universe_; }
  const GraphDatabase& db() const { return *db_; }

  /// Re-attaches indices (e.g., after they were rebuilt).
  void SetIndices(const FctIndex* fct_index, const IfeIndex* ife_index) {
    fct_index_ = fct_index;
    ife_index_ = ife_index;
    InvalidateFeatureCounts();
  }

  /// Refreshes the sampled universe after database evolution.
  void Resample(Rng& rng);

  /// Drops the per-pattern FCT feature-count memo. Must be called whenever
  /// the FCT index's feature rows change (SyncFeatures after mining
  /// maintenance) — counts are a function of the pattern graph and the live
  /// feature rows only, so graph-column churn does not invalidate them.
  void InvalidateFeatureCounts();

  /// Attaches a task pool: CoverageOf then runs its per-graph VF2 checks in
  /// parallel (nullptr = serial reference path). Results are merged in
  /// ascending-id order, so the returned IdSet is thread-count-invariant.
  void set_pool(TaskPool* pool) { pool_ = pool; }

 private:
  /// Memoized FctIndex::FeatureCounts(pattern), keyed by the pattern's
  /// content code: one computation per distinct pattern graph between
  /// feature-row syncs, no matter how many CoverageOf calls a
  /// round issues. Thread-safe (CoverageOf runs on pool workers); values
  /// are deterministic, so racing writers agree.
  std::vector<std::pair<uint32_t, int32_t>> FctCountsFor(
      const Graph& pattern, const std::string& content_code) const;

  const GraphDatabase* db_;
  size_t sample_cap_;
  IdSet universe_;
  const FctIndex* fct_index_;
  const IfeIndex* ife_index_;
  TaskPool* pool_ = nullptr;
  mutable std::mutex feature_memo_mu_;
  mutable std::map<std::string, std::vector<std::pair<uint32_t, int32_t>>>
      feature_counts_memo_;
};

/// Recomputes scov/lcov/cog for one pattern (coverage included).
void RefreshPatternMetrics(CannedPattern& p, const CoverageEvaluator& eval,
                           const FctSet& fcts);

/// Distance measure used for all diversity computations. One estimator is
/// used consistently across selection, swapping (criterion sw3) and
/// reporting, so the "diversity never regresses" guarantee is visible in
/// the reported metrics.
using GedEstimator = std::function<double(const Graph&, const Graph&)>;

/// The plain label lower bound GED_l — O((V+E) log) per pair.
GedEstimator LabelBoundGed();

/// Hybrid estimator: GED_l, refined by the PF-matrix-tightened GED'_l /
/// exact GED machinery (Section 6.1) only when the cheap bound cannot
/// discriminate (distance <= 1), keeping the common case fast.
///
/// `budget` (optional, non-owning — must outlive the returned estimator;
/// the engine keeps one per-round ExecBudget member for this) bounds the
/// exact-GED refinement: on exhaustion the estimate degrades to the cheap
/// bound / anytime upper bound instead of blocking the round.
GedEstimator HybridGed(std::vector<Graph> feature_trees,
                       ExecBudget* budget = nullptr);

/// Recomputes div (min pairwise distance under `ged`) and score for every
/// pattern in the set. With a pool, the per-pattern min-GED rows run in
/// parallel (each row writes only its own pattern — deterministic).
void RefreshDiversityAndScores(PatternSet& set, const GedEstimator& ged,
                               TaskPool* pool = nullptr);

/// Convenience overload using HybridGed over the given feature trees.
void RefreshDiversityAndScores(PatternSet& set,
                               const std::vector<Graph>& feature_trees,
                               TaskPool* pool = nullptr);

/// Feature trees (FCTs + frequent + infrequent edges) for GED tightening.
std::vector<Graph> GedFeatureTrees(const FctSet& fcts);

}  // namespace midas

#endif  // MIDAS_SELECT_PATTERN_H_
