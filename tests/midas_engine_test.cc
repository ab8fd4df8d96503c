#include "midas/maintain/midas.h"

#include <gtest/gtest.h>

#include <limits>

#include "midas/datagen/molecule_gen.h"
#include "midas/obs/event_log.h"
#include "midas/obs/json.h"
#include "midas/obs/metrics.h"
#include "test_util.h"

namespace midas {
namespace {

MidasConfig SmallEngineConfig() {
  MidasConfig cfg;
  cfg.fct.sup_min = 0.4;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 3;
  cfg.cluster.max_cluster_size = 25;
  cfg.budget.eta_min = 3;
  cfg.budget.eta_max = 6;
  cfg.budget.gamma = 8;
  cfg.walk.num_walks = 40;
  cfg.walk.walk_length = 12;
  cfg.sample_cap = 0;
  cfg.epsilon = 0.03;
  cfg.seed = 5;
  return cfg;
}

struct EngineFixture {
  MoleculeGenerator gen{500};
  MoleculeGenConfig data_cfg = MoleculeGenerator::EmolLike(40);
  std::unique_ptr<MidasEngine> engine;

  EngineFixture() {
    GraphDatabase db = gen.Generate(data_cfg);
    engine = std::make_unique<MidasEngine>(std::move(db), SmallEngineConfig());
    engine->Initialize();
  }
};

TEST(MidasEngineTest, InitializeBuildsEverything) {
  EngineFixture f;
  EXPECT_GT(f.engine->patterns().size(), 0u);
  EXPECT_GT(f.engine->fcts().FrequentClosedTrees().size(), 0u);
  EXPECT_GT(f.engine->clusters().size(), 0u);
  EXPECT_EQ(f.engine->csgs().size(), f.engine->clusters().size());
  EXPECT_GT(f.engine->fct_index().NumFeatures(), 0u);
}

TEST(MidasEngineTest, CsgsMirrorClusters) {
  EngineFixture f;
  for (const auto& [cid, cluster] : f.engine->clusters().clusters()) {
    auto it = f.engine->csgs().find(cid);
    ASSERT_NE(it, f.engine->csgs().end());
    EXPECT_TRUE(it->second.members() == cluster.members);
  }
}

TEST(MidasEngineTest, MinorUpdateKeepsPatterns) {
  EngineFixture f;
  std::vector<PatternId> before;
  for (const auto& [pid, p] : f.engine->patterns().patterns()) {
    before.push_back(pid);
  }
  // A tiny in-family addition: graphlet distribution barely moves. The
  // delta is generated against a copy of the database; label ids stay valid
  // because MoleculeGenerator interns its alphabet in a fixed order.
  BatchUpdate delta;
  {
    MoleculeGenerator gen2(501);
    GraphDatabase db_copy = f.engine->db();
    delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 1, false);
  }
  MaintenanceStats stats = f.engine->ApplyUpdate(delta);
  if (!stats.major) {
    std::vector<PatternId> after;
    for (const auto& [pid, p] : f.engine->patterns().patterns()) {
      after.push_back(pid);
    }
    EXPECT_EQ(before, after);
    EXPECT_EQ(stats.swaps, 0);
  }
  // Structures are maintained regardless.
  EXPECT_EQ(f.engine->db().size(), 41u);
  EXPECT_EQ(f.engine->fcts().database_size(), 41u);
}

TEST(MidasEngineTest, MajorUpdateTriggersMaintenance) {
  EngineFixture f;
  GraphDatabase db_copy = f.engine->db();
  MoleculeGenerator gen2(502);
  BatchUpdate delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 25, true);
  MaintenanceStats stats = f.engine->ApplyUpdate(delta);
  EXPECT_TRUE(stats.major);
  EXPECT_GT(stats.graphlet_distance, 0.0);
  EXPECT_GE(stats.candidates, 0);
  EXPECT_GT(stats.total_ms, 0.0);
}

TEST(MidasEngineTest, DeletionsMaintainStructures) {
  EngineFixture f;
  std::vector<GraphId> ids = f.engine->db().Ids();
  BatchUpdate delta;
  delta.deletions = {ids[0], ids[1], ids[2]};
  f.engine->ApplyUpdate(delta);
  EXPECT_EQ(f.engine->db().size(), 37u);
  EXPECT_EQ(f.engine->fcts().database_size(), 37u);
  for (GraphId id : delta.deletions) {
    EXPECT_EQ(f.engine->clusters().ClusterOf(id), -1);
  }
  // CSGs reconciled with cluster membership.
  for (const auto& [cid, cluster] : f.engine->clusters().clusters()) {
    EXPECT_TRUE(f.engine->csgs().at(cid).members() == cluster.members);
  }
}

TEST(MidasEngineTest, QualityNeverRegressesUnderMidasMode) {
  EngineFixture f;
  PatternQuality before = f.engine->CurrentQuality();
  GraphDatabase db_copy = f.engine->db();
  MoleculeGenerator gen2(503);
  BatchUpdate delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 25, true);
  MaintenanceStats stats = f.engine->ApplyUpdate(delta);
  PatternQuality after = f.engine->CurrentQuality();
  if (stats.major && stats.swaps > 0) {
    // sw4: cognitive load must not increase through swapping.
    EXPECT_LE(after.cog_max, before.cog_max + 1e-9);
  }
  EXPECT_GE(after.scov, 0.0);
}

TEST(MidasEngineTest, NoMaintainModeFreezesPatterns) {
  EngineFixture f;
  std::vector<std::string> sigs_before;
  for (const auto& [pid, p] : f.engine->patterns().patterns()) {
    sigs_before.push_back(std::to_string(pid));
  }
  GraphDatabase db_copy = f.engine->db();
  MoleculeGenerator gen2(504);
  BatchUpdate delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 25, true);
  f.engine->ApplyUpdate(delta, MaintenanceMode::kNoMaintain);
  std::vector<std::string> sigs_after;
  for (const auto& [pid, p] : f.engine->patterns().patterns()) {
    sigs_after.push_back(std::to_string(pid));
  }
  EXPECT_EQ(sigs_before, sigs_after);
}

TEST(MidasEngineTest, PhaseSpansSumToTotal) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  EngineFixture f;
  GraphDatabase db_copy = f.engine->db();
  MoleculeGenerator gen2(506);
  BatchUpdate delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 25, true);
  MaintenanceStats stats = f.engine->ApplyUpdate(delta);
  // The spans partition the round: per-phase times must account for the
  // whole wall time (within 5% + a fixed floor for span overhead).
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_NEAR(stats.PhaseSumMs(), stats.total_ms,
              0.05 * stats.total_ms + 0.5);
  // And the histograms observed exactly this one round.
  EXPECT_EQ(reg.GetHistogram("midas_maintain_total_ms")->Count(), 1u);
  EXPECT_EQ(reg.GetHistogram("midas_maintain_apply_ms")->Count(), 1u);
  EXPECT_EQ(reg.GetCounter("midas_maintain_rounds_total")->Value(), 1u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("midas_maintain_db_size")->Value(),
                   static_cast<double>(f.engine->db().size()));
}

TEST(MidasEngineTest, StatsJsonRoundTrips) {
  MaintenanceStats s;
  s.total_ms = 12.5;
  s.apply_ms = 1.0;
  s.fct_ms = 2.0;
  s.cluster_ms = 3.0;
  s.csg_ms = 0.5;
  s.index_ms = 0.25;
  s.refresh_ms = 1.75;
  s.candidate_ms = 2.5;
  s.swap_ms = 1.5;
  s.graphlet_distance = 0.125;
  s.major = true;
  s.candidates = 7;
  s.swaps = 3;
  bool ok = false;
  MaintenanceStats back = MaintenanceStats::FromJson(s.ToJson(), &ok);
  ASSERT_TRUE(ok) << s.ToJson();
  EXPECT_EQ(back.ToJson(), s.ToJson());
  EXPECT_DOUBLE_EQ(back.PhaseSumMs(), s.PhaseSumMs());
  EXPECT_TRUE(back.major);
  EXPECT_EQ(back.candidates, 7);
  EXPECT_EQ(back.swaps, 3);

  MaintenanceStats bad = MaintenanceStats::FromJson("{broken", &ok);
  EXPECT_FALSE(ok);
  EXPECT_DOUBLE_EQ(bad.total_ms, 0.0);
}

TEST(MidasEngineTest, StatsFromJsonRejectsTruncatedInput) {
  MaintenanceStats s;
  s.total_ms = 12.5;
  s.major = true;
  std::string json = s.ToJson();
  // Every proper prefix is incomplete: ok must be false and the result must
  // stay default-initialized, never a half-filled struct treated as valid.
  for (size_t len : {size_t{0}, size_t{1}, json.size() / 2, json.size() - 1}) {
    bool ok = true;
    MaintenanceStats back = MaintenanceStats::FromJson(json.substr(0, len),
                                                       &ok);
    EXPECT_FALSE(ok) << "prefix length " << len;
    (void)back;
  }
}

TEST(MidasEngineTest, StatsFromJsonRejectsNonFiniteNumbers) {
  MaintenanceStats s;
  s.total_ms = std::numeric_limits<double>::quiet_NaN();
  s.swap_ms = std::numeric_limits<double>::infinity();
  // ToJson serializes non-finite doubles as quoted sentinels ("NaN"/"Inf"),
  // which are deliberately NOT parseable back as numbers.
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"NaN\""), std::string::npos);
  EXPECT_NE(json.find("\"Inf\""), std::string::npos);
  bool ok = true;
  MaintenanceStats back = MaintenanceStats::FromJson(json, &ok);
  EXPECT_FALSE(ok);
  EXPECT_DOUBLE_EQ(back.total_ms, 0.0);

  // Raw (unquoted) non-finite tokens from a foreign writer are malformed
  // JSON and must not parse either.
  ok = true;
  MaintenanceStats raw = MaintenanceStats::FromJson(
      "{\"total_ms\": NaN, \"apply_ms\": Infinity}", &ok);
  EXPECT_FALSE(ok);
  EXPECT_DOUBLE_EQ(raw.total_ms, 0.0);
  EXPECT_DOUBLE_EQ(raw.apply_ms, 0.0);
}

TEST(MidasEngineTest, StatsFromJsonToleratesUnknownKeys) {
  MaintenanceStats s;
  s.total_ms = 4.0;
  s.candidates = 2;
  std::string json = s.ToJson();
  // A newer writer may add fields; an older reader must still accept the
  // record as long as every field it knows about is present.
  ASSERT_EQ(json.front(), '{');
  std::string extended =
      "{\"future_field\":123,\"another\":\"text\"," + json.substr(1);
  bool ok = false;
  MaintenanceStats back = MaintenanceStats::FromJson(extended, &ok);
  EXPECT_TRUE(ok) << extended;
  EXPECT_DOUBLE_EQ(back.total_ms, 4.0);
  EXPECT_EQ(back.candidates, 2);

  // A record written before the incremental views were removed carries
  // view_delta, view_fallback and view_strategy; event logs and /statusz
  // dumps from that era must still parse.
  const std::string legacy =
      "{\"total_ms\":4,\"apply_ms\":0,\"fct_ms\":0,\"cluster_ms\":0,"
      "\"csg_ms\":0,\"index_ms\":0,\"refresh_ms\":1.5,\"candidate_ms\":0,"
      "\"swap_ms\":0,\"graphlet_distance\":0,\"major\":true,"
      "\"truncated\":false,\"candidates\":2,\"swaps\":1,"
      "\"view_delta\":false,\"view_fallback\":true,\"view_delta_rows\":0,"
      "\"view_rescan_rows\":8,\"view_strategy\":\"rescan\"}";
  ok = false;
  back = MaintenanceStats::FromJson(legacy, &ok);
  EXPECT_TRUE(ok) << legacy;
  EXPECT_DOUBLE_EQ(back.total_ms, 4.0);
  EXPECT_DOUBLE_EQ(back.refresh_ms, 1.5);
  EXPECT_TRUE(back.major);
  EXPECT_EQ(back.candidates, 2);
  EXPECT_EQ(back.swaps, 1);
  EXPECT_EQ(back.view_rescan_rows, 8);
}

TEST(MidasEngineTest, EventLogRecordsEveryRound) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  EngineFixture f;
  obs::MaintenanceEventLog log;
  f.engine->SetEventLog(&log);

  GraphDatabase db_copy = f.engine->db();
  MoleculeGenerator gen2(507);
  BatchUpdate delta = gen2.GenerateAdditions(db_copy, f.data_cfg, 5, false);
  MaintenanceStats stats = f.engine->ApplyUpdate(delta);

  std::vector<GraphId> ids = f.engine->db().Ids();
  BatchUpdate deletions;
  deletions.deletions = {ids[0], ids[1]};
  f.engine->ApplyUpdate(deletions);

  ASSERT_EQ(log.size(), 2u);
  obs::FlatJson first = obs::ParseFlatJson(log.lines()[0]);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_DOUBLE_EQ(first.numbers.at("seq"), 1.0);
  EXPECT_DOUBLE_EQ(first.numbers.at("additions"), 5.0);
  EXPECT_DOUBLE_EQ(first.numbers.at("deletions"), 0.0);
  EXPECT_DOUBLE_EQ(first.numbers.at("db_size"), 45.0);
  EXPECT_EQ(first.bools.at("major"), stats.major);
  EXPECT_NEAR(first.numbers.at("phases.total_ms"), stats.total_ms, 1e-9);
  EXPECT_NEAR(first.numbers.at("epsilon"), f.engine->config().epsilon, 1e-12);
  EXPECT_TRUE(first.Has("quality.scov"));

  obs::FlatJson second = obs::ParseFlatJson(log.lines()[1]);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_DOUBLE_EQ(second.numbers.at("seq"), 2.0);
  EXPECT_DOUBLE_EQ(second.numbers.at("deletions"), 2.0);
  EXPECT_DOUBLE_EQ(second.numbers.at("db_size"), 43.0);

  // Detaching stops the stream.
  f.engine->SetEventLog(nullptr);
  BatchUpdate more;
  more.deletions = {ids[2]};
  f.engine->ApplyUpdate(more);
  EXPECT_EQ(log.size(), 2u);
}

TEST(RunFromScratchTest, BothModesProducePatterns) {
  MoleculeGenerator gen(505);
  GraphDatabase db = gen.Generate(MoleculeGenerator::EmolLike(30));
  MidasConfig cfg = SmallEngineConfig();
  FromScratchResult plain = RunFromScratch(db, cfg, false, 1);
  FromScratchResult plus = RunFromScratch(db, cfg, true, 1);
  EXPECT_GT(plain.patterns.size(), 0u);
  EXPECT_GT(plus.patterns.size(), 0u);
  EXPECT_GT(plain.total_ms, 0.0);
  EXPECT_GT(plus.total_ms, 0.0);
}

TEST(EvaluateQualityTest, AggregatesCorrectly) {
  LabelDictionary d;
  PatternSet set;
  CannedPattern a;
  a.graph = testing_util::Path(d, {"C", "O"});
  a.coverage = IdSet{0, 1};
  a.scov = 0.5;
  a.lcov = 0.8;
  a.cog = 1.0;
  a.div = 2.0;
  CannedPattern b;
  b.graph = testing_util::Path(d, {"C", "S"});
  b.coverage = IdSet{2};
  b.scov = 0.25;
  b.lcov = 0.6;
  b.cog = 3.0;
  b.div = 4.0;
  set.Add(std::move(a));
  set.Add(std::move(b));

  PatternQuality q = EvaluateQuality(set, 4);
  EXPECT_DOUBLE_EQ(q.scov, 0.75);  // 3 of 4 covered
  EXPECT_DOUBLE_EQ(q.div, 2.0);
  EXPECT_DOUBLE_EQ(q.cog_max, 3.0);
  EXPECT_DOUBLE_EQ(q.cog_avg, 2.0);
}

}  // namespace
}  // namespace midas
