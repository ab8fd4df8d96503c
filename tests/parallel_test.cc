#include "midas/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "midas/common/budget.h"
#include "midas/obs/metrics.h"
#include "midas/obs/profile.h"
#include "midas/obs/trace.h"

namespace midas {
namespace {

TEST(SplitSeedTest, DeterministicAndWellSpread) {
  EXPECT_EQ(SplitSeed(42, 7), SplitSeed(42, 7));
  EXPECT_NE(SplitSeed(42, 7), SplitSeed(42, 8));
  EXPECT_NE(SplitSeed(42, 7), SplitSeed(43, 7));
  // No collisions over a modest index range (splitmix64 is a bijection of
  // its 64-bit input, so collisions here would indicate a mixing bug).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 4096; ++i) seen.insert(SplitSeed(5, i));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(TaskPoolTest, SerialPoolSpawnsNothing) {
  TaskPool pool(1);
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskPoolTest, ZeroAndNegativeThreadsAreSerial) {
  EXPECT_TRUE(TaskPool(0).serial());
  EXPECT_TRUE(TaskPool(-3).serial());
}

TEST(TaskPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  EXPECT_FALSE(pool.serial());
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_GE(pool.tasks_executed(), 1u);
}

TEST(TaskPoolTest, ParallelMapIsIndexOrdered) {
  TaskPool pool(4);
  std::vector<int> out = pool.ParallelMap<int>(
      257, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(TaskPoolTest, EmptyRangeIsANoOp) {
  TaskPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TaskPoolTest, FirstExceptionIsRethrownAfterQuiesce) {
  TaskPool pool(4);
  auto run = [&] {
    pool.ParallelFor(200, [&](size_t i) {
      if (i == 37) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The pool must be fully usable after an exceptional batch.
  std::atomic<size_t> count{0};
  pool.ParallelFor(100, [&](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(TaskPoolTest, ExhaustedBudgetSkipsRemainingWork) {
  TaskPool pool(4);
  ExecBudget budget = ExecBudget::StepLimit(1);
  budget.Charge(8);  // trips the latch
  ASSERT_TRUE(budget.exhausted());
  std::atomic<size_t> count{0};
  pool.ParallelFor(
      1000,
      [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); },
      &budget);
  EXPECT_EQ(count.load(), 0u);
}

TEST(TaskPoolTest, MidBatchExhaustionCancelsCooperatively) {
  TaskPool pool(4);
  ExecBudget budget = ExecBudget::StepLimit(1u << 30);
  std::atomic<size_t> count{0};
  pool.ParallelFor(
      10000,
      [&](size_t) {
        if (count.fetch_add(1, std::memory_order_relaxed) == 50) {
          // Burn the whole budget from inside a task; every later index's
          // pre-check sees the latched exhaustion and is skipped.
          budget.Charge(1u << 31);
        }
      },
      &budget);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_LT(count.load(), 10000u);
}

TEST(TaskPoolTest, NestedParallelForRunsInlineOnWorkers) {
  TaskPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t o) {
    ParallelFor(&pool, kInner, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(TaskPoolTest, OnWorkerThreadIsTrueOnlyInsidePoolTasks) {
  EXPECT_FALSE(TaskPool::OnWorkerThread());
  TaskPool pool(4);
  std::atomic<int> on_worker{0};
  std::atomic<int> off_worker{0};
  pool.ParallelFor(64, [&](size_t) {
    if (TaskPool::OnWorkerThread()) {
      on_worker.fetch_add(1, std::memory_order_relaxed);
    } else {
      off_worker.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // The caller participates too, so both populations can be non-empty, but
  // spawned workers must self-identify (64 indices across 3 workers +
  // caller makes an all-caller run virtually impossible only in theory —
  // so just assert totals and that the flag is consistent outside).
  EXPECT_EQ(on_worker.load() + off_worker.load(), 64);
  EXPECT_FALSE(TaskPool::OnWorkerThread());
}

TEST(TaskPoolTest, FreeHelperToleratesNullPool) {
  std::vector<int> order;
  ParallelFor(nullptr, 4, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TaskPoolTest, FreeHelperChecksBudgetInSerialPath) {
  ExecBudget budget = ExecBudget::StepLimit(1);
  budget.Charge(8);
  size_t count = 0;
  ParallelFor(nullptr, 100, [&](size_t) { ++count; }, &budget);
  EXPECT_EQ(count, 0u);
}

TEST(TaskPoolTest, ExportsPoolMetricsToCurrentRegistry) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  TaskPool pool(4);
  pool.ParallelFor(512, [](size_t) {});
  EXPECT_GT(registry.GetCounter("midas_parallel_tasks_total")->Value(), 0u);
  // Queue depth is a point-in-time gauge; after the batch it must be back
  // to zero (all chunks drained).
  EXPECT_EQ(registry.GetGauge("midas_parallel_queue_depth")->Value(), 0.0);
}

// Satellite: spans opened inside pool tasks must fold under the span that
// was live on the submitting thread, not appear as orphan roots.
TEST(TaskPoolTest, WorkerSpansInheritSubmitterPath) {
  obs::SpanProfiler profiler;
  profiler.set_enabled(true);
  obs::ScopedSpanProfiler scope(profiler);
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry metrics_scope(registry);

  TaskPool pool(4);
  {
    obs::TraceSpan outer("outer");
    pool.ParallelFor(32, [](size_t) { obs::TraceSpan task("task"); });
  }

  uint64_t nested = 0;
  bool orphan_task = false;
  for (const auto& [path, stats] : profiler.Snapshot()) {
    if (path == "outer;task") nested = stats.count;
    if (path == "task") orphan_task = true;
  }
  EXPECT_EQ(nested, 32u);
  EXPECT_FALSE(orphan_task);
}

TEST(TaskPoolTest, ParallelMapSkipsBudgetExhaustedIndices) {
  TaskPool pool(2);
  ExecBudget budget = ExecBudget::StepLimit(1);
  budget.Charge(8);
  std::vector<int> out =
      pool.ParallelMap<int>(10, [](size_t) { return 7; }, &budget);
  for (int v : out) EXPECT_EQ(v, 0);  // default-constructed slots
}


// Completion-handshake stress: many short back-to-back batches, each with a
// fresh stack-allocated Batch at (usually) the same address. If the last
// worker could still touch a finished batch after the submitter returned,
// the next call's Batch would be constructed under it — TSan reports that
// as a race on the batch's mutex/condvar, and plain builds hang or crash.
// The `tsan` ctest label runs this case on its own.
size_t RunTinyBatch(TaskPool& pool, size_t n) {
  std::atomic<size_t> count{0};
  pool.ParallelFor(n, [&](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  return count.load();
}

TEST(TaskPoolStressTest, ParallelForHandshakeAtTwoFourEightThreads) {
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TaskPool pool(threads);
    for (int rep = 0; rep < 2000; ++rep) {
      const size_t n = 2 + static_cast<size_t>(rep % 31);
      ASSERT_EQ(RunTinyBatch(pool, n), n) << "rep " << rep;
    }
  }
}

}  // namespace
}  // namespace midas
