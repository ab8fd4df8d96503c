#include "midas/common/parallel.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "midas/obs/metrics.h"
#include "midas/obs/profile.h"
#include "midas/obs/trace.h"

namespace midas {

namespace {

/// Set while a thread is inside TaskPool::WorkerLoop; nested ParallelFor
/// detects it and runs inline instead of blocking a worker on a sub-batch.
thread_local TaskPool* t_worker_pool = nullptr;

/// Live `midas_parallel_queue_depth`: published at every deal and every
/// chunk pop, so a /metrics scrape mid-batch sees the actual backlog
/// (batch-end-only flushing always read 0). Chunks are coarse (~4 per
/// executor per batch), so one registry lookup per pop is cold.
void PublishQueueDepth(uint64_t depth) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (!reg.enabled()) return;
  reg.GetGauge("midas_parallel_queue_depth")->Set(static_cast<double>(depth));
}

}  // namespace

uint64_t SplitSeed(uint64_t base, uint64_t index) {
  // splitmix64 finalizer over base advanced by the golden-ratio increment;
  // adjacent indices map to statistically independent streams.
  uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct TaskPool::Batch {
  const std::function<void(size_t)>* body = nullptr;
  ExecBudget* budget = nullptr;
  std::string span_prefix;
  /// Submitter's causal trace, inherited by whichever thread runs a chunk —
  /// kernel work is attributed to the owning batch even when stolen. The
  /// submitter outlives the batch (it blocks on done_cv), so the raw
  /// pointer is safe.
  obs::TraceContext* trace = nullptr;

  std::atomic<size_t> remaining{0};    ///< indices not yet finished/skipped
  std::atomic<bool> cancelled{false};  ///< a task threw: skip remaining work

  std::mutex err_mu;
  std::exception_ptr error;

  std::mutex done_mu;
  std::condition_variable done_cv;
};

TaskPool::TaskPool(int num_threads) {
  int spawn = std::max(0, num_threads - 1);
  queues_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool TaskPool::OnWorkerThread() { return t_worker_pool != nullptr; }

void TaskPool::SerialFor(size_t n, const std::function<void(size_t)>& body,
                         ExecBudget* budget) {
  for (size_t i = 0; i < n; ++i) {
    if (budget != nullptr && budget->exhausted()) break;
    body(i);
  }
}

void TaskPool::RunChunk(const Chunk& c) {
  Batch* b = c.batch;
  const bool on_worker = t_worker_pool != nullptr;
  std::string prev_prefix;
  obs::TraceContext* prev_trace = nullptr;
  if (on_worker) {
    prev_prefix = obs::SpanProfiler::SetInheritedPrefix(b->span_prefix);
    prev_trace = obs::TraceContext::Exchange(b->trace);
  }
  auto start = std::chrono::steady_clock::now();
  for (size_t i = c.begin; i < c.end; ++i) {
    if (b->cancelled.load(std::memory_order_relaxed)) break;
    if (b->budget != nullptr && b->budget->exhausted()) break;
    try {
      (*b->body)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(b->err_mu);
        if (!b->error) b->error = std::current_exception();
      }
      b->cancelled.store(true, std::memory_order_relaxed);
      break;
    }
  }
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  busy_us_.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
  tasks_.fetch_add(1, std::memory_order_relaxed);
  if (on_worker) {
    obs::SpanProfiler::SetInheritedPrefix(std::move(prev_prefix));
    obs::TraceContext::Exchange(prev_trace);
  }
  // Decrement and notify under done_mu: the submitter re-checks
  // `remaining` only while holding it, so it cannot see 0, return and
  // destroy the stack Batch until this thread has released the lock and
  // stopped touching the batch.
  size_t span = c.end - c.begin;
  std::lock_guard<std::mutex> lock(b->done_mu);
  if (b->remaining.fetch_sub(span, std::memory_order_acq_rel) == span) {
    b->done_cv.notify_all();
  }
}

bool TaskPool::TryRunOneChunk(size_t preferred, bool count_steal) {
  size_t nq = queues_.size();
  if (preferred < nq) {
    WorkerQueue& wq = *queues_[preferred];
    std::unique_lock<std::mutex> lock(wq.mu);
    if (!wq.chunks.empty()) {
      Chunk c = wq.chunks.back();  // owner pops LIFO (cache-warm end)
      wq.chunks.pop_back();
      lock.unlock();
      PublishQueueDepth(queued_chunks_.fetch_sub(1,
                                                 std::memory_order_relaxed) -
                        1);
      RunChunk(c);
      return true;
    }
  }
  for (size_t off = 0; off < nq; ++off) {
    size_t qi = preferred < nq ? (preferred + 1 + off) % nq : off;
    if (qi == preferred) continue;
    WorkerQueue& wq = *queues_[qi];
    std::unique_lock<std::mutex> lock(wq.mu);
    if (!wq.chunks.empty()) {
      Chunk c = wq.chunks.front();  // thieves pop FIFO (opposite end)
      wq.chunks.pop_front();
      lock.unlock();
      PublishQueueDepth(queued_chunks_.fetch_sub(1,
                                                 std::memory_order_relaxed) -
                        1);
      if (count_steal) steals_.fetch_add(1, std::memory_order_relaxed);
      RunChunk(c);
      return true;
    }
  }
  return false;
}

void TaskPool::WorkerLoop(size_t self) {
  t_worker_pool = this;
  for (;;) {
    if (TryRunOneChunk(self, /*count_steal=*/true)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stop_ || queued_chunks_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_) return;  // ~TaskPool only runs with no batch in flight
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                           ExecBudget* budget) {
  if (n == 0) return;
  if (serial() || OnWorkerThread() || n == 1) {
    SerialFor(n, body, budget);
    return;
  }

  Batch batch;
  batch.body = &body;
  batch.budget = budget;
  batch.remaining.store(n, std::memory_order_relaxed);
  batch.span_prefix = obs::SpanProfiler::CurrentPath();
  batch.trace = obs::TraceContext::Current();

  // ~4 chunks per executor balances steal traffic against load balance.
  size_t target_chunks = static_cast<size_t>(num_threads()) * 4;
  size_t chunk = std::max<size_t>(1, (n + target_chunks - 1) / target_chunks);
  size_t dealt = 0;
  size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  for (size_t begin = 0; begin < n; begin += chunk) {
    Chunk c{&batch, begin, std::min(begin + chunk, n)};
    WorkerQueue& wq = *queues_[q];
    {
      std::lock_guard<std::mutex> lock(wq.mu);
      wq.chunks.push_back(c);
    }
    q = (q + 1) % queues_.size();
    ++dealt;
  }
  queued_chunks_.fetch_add(dealt, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetGauge("midas_parallel_queue_depth")
        ->Set(static_cast<double>(
            queued_chunks_.load(std::memory_order_relaxed)));
  }

  // The submitter works too: steal from the front like any thief.
  while (TryRunOneChunk(queues_.size(), /*count_steal=*/false)) {
  }
  {
    std::unique_lock<std::mutex> lock(batch.done_mu);
    batch.done_cv.wait(lock, [&batch] {
      return batch.remaining.load(std::memory_order_acquire) == 0;
    });
  }

  if (reg.enabled()) {
    std::lock_guard<std::mutex> lock(flush_mu_);
    uint64_t tasks = tasks_.load(std::memory_order_relaxed);
    uint64_t steals = steals_.load(std::memory_order_relaxed);
    uint64_t busy_us = busy_us_.load(std::memory_order_relaxed);
    if (tasks > tasks_flushed_) {
      reg.GetCounter("midas_parallel_tasks_total")
          ->Increment(tasks - tasks_flushed_);
      tasks_flushed_ = tasks;
    }
    if (steals > steals_flushed_) {
      reg.GetCounter("midas_parallel_steal_total")
          ->Increment(steals - steals_flushed_);
      steals_flushed_ = steals;
    }
    uint64_t delta_ms = (busy_us - busy_us_flushed_) / 1000;
    if (delta_ms > 0) {
      reg.GetCounter("midas_parallel_worker_busy_ms")->Increment(delta_ms);
      busy_us_flushed_ += delta_ms * 1000;
    }
    reg.GetGauge("midas_parallel_queue_depth")
        ->Set(static_cast<double>(
            queued_chunks_.load(std::memory_order_relaxed)));
  }

  if (batch.error) std::rethrow_exception(batch.error);
}

void ParallelFor(TaskPool* pool, size_t n,
                 const std::function<void(size_t)>& body, ExecBudget* budget) {
  if (pool == nullptr || pool->serial() || TaskPool::OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) {
      if (budget != nullptr && budget->exhausted()) break;
      body(i);
    }
    return;
  }
  pool->ParallelFor(n, body, budget);
}

}  // namespace midas
