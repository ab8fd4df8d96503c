// fsck-style verifier + background scrubber + self-healing repair ladder:
// the seeded corruption matrix (every durable file x bit offsets), journal
// chain checks, scrub-and-repair inside a live host, escalation to typed
// refusal, and the same-seed determinism of the repair transitions.

#include "midas/maintain/verify.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "midas/common/failpoint.h"
#include "midas/common/io.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/maintain/journal.h"
#include "midas/maintain/midas.h"
#include "midas/maintain/snapshot.h"
#include "midas/serve/engine_host.h"

namespace midas {
namespace {

namespace stdfs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((stdfs::temp_directory_path() / name).string()) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~TempDir() { stdfs::remove_all(path); }
  std::string path;
};

struct FailpointGuard {
  FailpointGuard() { fail::DisarmAll(); }
  ~FailpointGuard() { fail::DisarmAll(); }
};

MidasConfig TestConfig() {
  MidasConfig cfg;
  cfg.budget = {3, 7, 9};
  cfg.fct.sup_min = 0.45;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 3;
  cfg.epsilon = 0.0;
  cfg.sample_cap = 0;
  cfg.seed = 1234;
  return cfg;
}

std::unique_ptr<MidasEngine> MakeEngine(MoleculeGenerator& gen,
                                        MoleculeGenConfig& data) {
  auto engine =
      std::make_unique<MidasEngine>(gen.Generate(data), TestConfig());
  engine->Initialize();
  return engine;
}

// Waits until `pred` holds or `budget` elapses; returns pred's final value.
template <typename Pred>
bool Eventually(Pred pred, milliseconds budget = milliseconds(30000)) {
  const auto deadline = steady_clock::now() + budget;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

// Integrity-sourced transitions as "from->to" strings, up to and including
// the first terminal entry (refuse_serve or a return to none).
std::vector<std::string> IntegrityTransitions(const serve::EngineHost& host) {
  std::vector<std::string> out;
  for (const serve::OverloadTransition& t :
       host.overload_transitions().Snapshot()) {
    if (t.source != "integrity") continue;
    out.push_back(t.from + "->" + t.to);
    if (t.to == "refuse_serve" || t.to == "none") break;
  }
  return out;
}

// --- Verifier unit coverage --------------------------------------------------

TEST(VerifyTest, CleanCheckpointVerifiesAtEveryLevel) {
  TempDir dir("midas_verify_clean");
  MoleculeGenerator gen(11);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  std::string err;
  ASSERT_TRUE(SaveCheckpoint(*engine, dir.path, &err)) << err;

  VerifyOptions opt;  // deep by default
  IntegrityReport report = VerifyEngineState(dir.path, opt);
  EXPECT_TRUE(report.clean()) << report.Describe();
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.RanTier(IntegrityTier::kManifest));
  EXPECT_TRUE(report.RanTier(IntegrityTier::kJournal));
  EXPECT_TRUE(report.RanTier(IntegrityTier::kDeep));
  EXPECT_FALSE(report.deep_truncated);
}

TEST(VerifyTest, DeepTierAgainstLiveEngineIsClean) {
  // Two inputs: a freshly initialized engine, and one that has run a
  // 10-round stream of in-family growth, periodic new-family arrivals and
  // periodic deletions.
  for (int stream_rounds : {0, 10}) {
    SCOPED_TRACE("stream rounds " + std::to_string(stream_rounds));
    MoleculeGenerator gen(13);
    MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
    auto engine = MakeEngine(gen, data);
    for (int round = 0; round < stream_rounds; ++round) {
      const bool new_family = round % 4 == 0;
      GraphDatabase copy = engine->db();
      BatchUpdate delta =
          gen.GenerateAdditions(copy, data, new_family ? 6 : 3, new_family);
      if (round % 3 == 2) {
        delta.deletions = gen.GenerateDeletions(engine->db(), 2).deletions;
      }
      engine->ApplyUpdate(delta);
    }

    IntegrityReport report;
    VerifyOptions opt;
    VerifyEngineDeep(*engine, opt, &report);
    EXPECT_TRUE(report.clean()) << report.Describe();
    EXPECT_EQ(report.checks, engine->patterns().size() * 3);

    // The sliced variant converges to the same verdict: laps end at
    // cursor 0.
    IntegrityReport sliced;
    size_t cursor = 0;
    int slices = 0;
    do {
      cursor = VerifyPatternsSlice(*engine, cursor, /*deadline_ms=*/1e9,
                                   &sliced);
      ++slices;
      ASSERT_LT(slices, 1000);
    } while (cursor != 0);
    EXPECT_TRUE(sliced.clean()) << sliced.Describe();
  }
}

TEST(VerifyTest, JournalSeqGapIsTyped) {
  TempDir dir("midas_verify_gap");
  MoleculeGenerator gen(17);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  const std::string path = dir.path + "/journal.log";

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path));
  GraphDatabase copy = engine->db();
  BatchUpdate batch = gen.GenerateAdditions(copy, data, 2, false);
  ASSERT_TRUE(journal.AppendBatch(1, batch, engine->db().labels()));
  ASSERT_TRUE(
      journal.AppendCommit(1, engine->patterns(), engine->db().labels()));
  // Seq 2 never happened: the chain jumps 1 -> 3.
  ASSERT_TRUE(journal.AppendBatch(3, batch, engine->db().labels()));
  ASSERT_TRUE(
      journal.AppendCommit(3, engine->patterns(), engine->db().labels()));

  VerifyOptions opt;
  IntegrityReport report = VerifyJournal(path, /*snapshot_seq=*/0, opt);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].kind, IntegrityViolationKind::kJournalGap);
}

// --- Seeded corruption matrix ------------------------------------------------

// Every durable file x a spread of bit offsets: after at-rest rot, the
// verifier must report a typed violation, and recovery must either refuse
// with a diagnosis or come back deep-verified — never silently serve rot.
TEST(IntegrityMatrixTest, BitRotIsDetectedThenRepairedOrRefused) {
  FailpointGuard guard;
  MoleculeGenerator gen(23);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  TempDir base("midas_matrix_base");
  std::string err;
  ASSERT_TRUE(SaveCheckpoint(*engine, base.path, &err)) << err;
  // A journal tail past the snapshot, so journal rot has bytes to chew.
  {
    UpdateJournal journal;
    ASSERT_TRUE(journal.Open(base.path + "/journal.log"));
    GraphDatabase copy = engine->db();
    BatchUpdate batch = gen.GenerateAdditions(copy, data, 2, false);
    ASSERT_TRUE(journal.AppendBatch(1, batch, copy.labels()));
    ASSERT_TRUE(journal.AppendCommit(1, engine->patterns(), copy.labels()));
  }

  const std::vector<std::string> files = {
      "snapshot/MANIFEST", "snapshot/config.ini", "snapshot/database.gspan",
      "snapshot/patterns.gspan", "journal.log"};
  const std::vector<uint64_t> bits = {7, 301, 5003};

  for (const std::string& rel : files) {
    for (uint64_t bit : bits) {
      SCOPED_TRACE(rel + " bit " + std::to_string(bit));
      TempDir cell("midas_matrix_cell");
      stdfs::copy(base.path, cell.path,
                  stdfs::copy_options::recursive |
                      stdfs::copy_options::overwrite_existing);

      io::FaultyFileSystem ffs;
      ASSERT_TRUE(ffs.CorruptOnDisk(cell.path + "/" + rel, bit, &err))
          << err;

      VerifyOptions opt;
      opt.fs = &ffs;
      IntegrityReport report = VerifyEngineState(cell.path, opt);

      RecoverInfo info;
      std::unique_ptr<MidasEngine> recovered =
          RecoverEngine(cell.path, &info, &ffs);
      if (recovered == nullptr) {
        // Typed refusal: the rot was detected, named, and nothing served.
        EXPECT_FALSE(report.clean()) << "refused but fsck saw nothing";
        EXPECT_FALSE(info.error.empty());
      } else {
        // Recovery absorbed the rot (e.g. a torn journal tail, or a flip
        // in journal padding): the state it serves must verify deep-clean.
        IntegrityReport proof;
        VerifyOptions deep;
        VerifyEngineDeep(*recovered, deep, &proof);
        EXPECT_TRUE(proof.clean()) << proof.Describe();
      }
    }
  }
}

// --- Scrubber + repair ladder in a live host --------------------------------

serve::HostConfig ScrubHostConfig(io::FileSystem* fs) {
  serve::HostConfig cfg;
  cfg.queue_capacity = 4;
  cfg.fs = fs;
  cfg.scrub.enabled = true;
  cfg.scrub.tick_budget_ms = 50.0;
  cfg.checkpoint_every = 0;  // only integrity-driven checkpoint rewrites
  return cfg;
}

TEST(ScrubberTest, DetectsDiskRotAndSelfHeals) {
  FailpointGuard guard;
  TempDir dir("midas_scrub_heal");
  io::FaultyFileSystem ffs;
  MoleculeGenerator gen(31);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  serve::EngineHost host(std::move(engine), dir.path, ScrubHostConfig(&ffs));
  std::string err;
  ASSERT_TRUE(host.Start(&err)) << err;

  // Let the scrubber complete at least one clean lap first.
  ASSERT_TRUE(Eventually([&] { return host.stats().scrub_ticks > 3; }));
  EXPECT_EQ(host.stats().integrity_violations, 0u);

  // Rot at rest in the checkpoint the host would recover from.
  ASSERT_TRUE(ffs.CorruptOnDisk(dir.path + "/snapshot/patterns.gspan", 1001,
                                &err))
      << err;

  // The scrubber's next disk-tier pass flags it; rung 1 (rebuild views +
  // checkpoint rewrite) heals it, because the in-memory engine is fine.
  ASSERT_TRUE(Eventually([&] {
    serve::HostStats s = host.stats();
    return s.integrity_violations > 0 && s.integrity_repairs >= 1;
  }));
  EXPECT_FALSE(host.integrity_failed());

  // The healed checkpoint verifies clean offline too.
  host.Stop();
  VerifyOptions opt;
  opt.fs = &ffs;
  IntegrityReport report = VerifyEngineState(dir.path, opt);
  EXPECT_TRUE(report.clean()) << report.Describe();

  std::vector<std::string> transitions = IntegrityTransitions(host);
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.front(), "none->rebuild_views");
  EXPECT_EQ(transitions.back(), "rebuild_views->none");
}

TEST(ScrubberTest, LadderExhaustionRefusesThenRecovers) {
  FailpointGuard guard;
  TempDir dir("midas_scrub_refuse");
  io::FaultyFileSystem ffs;
  MoleculeGenerator gen(37);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  GraphDatabase base = engine->db();

  serve::EngineHost host(std::move(engine), dir.path, ScrubHostConfig(&ffs));
  std::string err;
  ASSERT_TRUE(host.Start(&err)) << err;
  ASSERT_TRUE(Eventually([&] { return host.stats().scrub_ticks > 2; }));

  // Rot the only checkpoint AND break every snapshot write: rung 1 cannot
  // rewrite, rung 2 cannot restore (the rot refuses it), rung 3 cannot
  // checkpoint its rebuilt engine. The ladder must end in a typed refusal.
  ASSERT_TRUE(ffs.CorruptOnDisk(dir.path + "/snapshot/patterns.gspan", 77,
                                &err))
      << err;
  fail::Arm("io.write_file.error", 0, 1000000);

  ASSERT_TRUE(Eventually([&] { return host.integrity_failed(); }));
  EXPECT_GE(host.stats().integrity_refusals, 1u);

  // Refusal is typed end to end: Submit sheds with reason "integrity".
  GraphDatabase copy = base;
  BatchUpdate batch = gen.GenerateAdditions(copy, data, 2, false);
  serve::SubmitResult shed = host.Submit(std::move(batch), copy.labels());
  EXPECT_EQ(shed.status, serve::SubmitStatus::kShedOverload);
  EXPECT_EQ(shed.shed_reason, "integrity");
  EXPECT_GT(shed.retry_after_ms, 0.0);

  // The transition sequence climbed every rung in order before refusing.
  std::vector<std::string> expected = {
      "none->rebuild_views", "rebuild_views->restore_snapshot",
      "restore_snapshot->run_from_scratch", "run_from_scratch->refuse_serve"};
  EXPECT_EQ(IntegrityTransitions(host), expected);

  // The fault clears (disk writes work again): the next ladder retry's
  // rung 1 rewrites a fresh checkpoint and the refusal lifts.
  fail::DisarmAll();
  ASSERT_TRUE(Eventually([&] { return !host.integrity_failed(); }));
  GraphDatabase copy2 = base;
  BatchUpdate batch2 = gen.GenerateAdditions(copy2, data, 2, false);
  EXPECT_TRUE(Eventually([&] {
    GraphDatabase c = base;
    BatchUpdate b = gen.GenerateAdditions(c, data, 1, false);
    return host.Submit(std::move(b), c.labels()).accepted();
  }));
  host.Stop();
}

TEST(ScrubberTest, SameSeedFaultRunsProduceIdenticalTransitions) {
  auto run_once = [](unsigned seed) {
    FailpointGuard guard;
    TempDir dir("midas_scrub_det_" + std::to_string(seed));
    io::FaultyFileSystem ffs;
    MoleculeGenerator gen(seed);
    MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
    auto engine =
        std::make_unique<MidasEngine>(gen.Generate(data), TestConfig());
    engine->Initialize();

    serve::EngineHost host(std::move(engine), dir.path,
                           ScrubHostConfig(&ffs));
    std::string err;
    EXPECT_TRUE(host.Start(&err)) << err;
    EXPECT_TRUE(Eventually([&] { return host.stats().scrub_ticks > 1; }));
    EXPECT_TRUE(ffs.CorruptOnDisk(dir.path + "/snapshot/patterns.gspan",
                                  4099, &err))
        << err;
    fail::Arm("io.write_file.error", 0, 1000000);
    EXPECT_TRUE(Eventually([&] { return host.integrity_failed(); }));
    host.Stop();
    return IntegrityTransitions(host);
  };

  std::vector<std::string> first = run_once(20260809);
  std::vector<std::string> second = run_once(20260809);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace midas
