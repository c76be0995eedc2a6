// Unit tests for the execution-context layer: ThreadPool scheduling,
// exception propagation, nested-region serialization, Workspace reference
// stability, and ExecContext plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/exec_context.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace lu = lithogan::util;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  lu::ThreadPool pool(4);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 64, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  lu::ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, 10, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(7, 8, 10, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) total.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(total.load(), 7);
}

TEST(ThreadPool, NonZeroRangeStart) {
  lu::ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(100, 200, 7, [&](std::size_t b, std::size_t e, std::size_t) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  lu::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 10,
                        [&](std::size_t b, std::size_t, std::size_t) {
                          if (b >= 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 10, [&](std::size_t b, std::size_t e, std::size_t) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsSerialInline) {
  lu::ThreadPool pool(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_iters{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t, std::size_t worker) {
    outer_chunks.fetch_add(1);
    EXPECT_TRUE(lu::ThreadPool::in_parallel_region());
    // A nested region must not deadlock or redistribute work: it runs
    // inline on the calling worker.
    pool.parallel_for(0, 10, 2, [&](std::size_t b, std::size_t e, std::size_t w) {
      EXPECT_EQ(w, worker);
      inner_iters.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(outer_chunks.load(), 8);
  EXPECT_EQ(inner_iters.load(), 80);
  EXPECT_FALSE(lu::ThreadPool::in_parallel_region());
}

TEST(ThreadPool, SingleThreadRunsEverythingOnCaller) {
  lu::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  pool.parallel_for(0, 100, 10, [&](std::size_t, std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
  });
}

TEST(ThreadPool, WorkerIndexInRange) {
  lu::ThreadPool pool(4);
  pool.parallel_for(0, 1000, 1, [&](std::size_t, std::size_t, std::size_t worker) {
    EXPECT_LT(worker, pool.threads());
    EXPECT_EQ(worker, lu::ThreadPool::current_worker());
  });
}

TEST(ThreadPool, CostGateRunsSmallHintedJobsInlineOnCaller) {
  // A hinted job far below the dispatch threshold must never wake the pool:
  // every chunk runs on the calling thread as worker 0, whatever the
  // machine's core count.
  lu::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  bool on_caller = true;
  pool.parallel_for(0, 1000, 10, /*cost=*/100,
                    [&](std::size_t, std::size_t, std::size_t worker) {
                      ++chunks;  // inline execution: no synchronization needed
                      on_caller = on_caller && std::this_thread::get_id() == caller;
                      EXPECT_EQ(worker, 0u);
                    });
  EXPECT_EQ(chunks, 100);
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPool, CostGatePreservesChunkBoundaries) {
  // The gate may only move WHERE chunks run, never what they are: inline
  // and dispatched execution of the same range produce the same chunk set.
  lu::ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> inline_chunks;
  pool.parallel_for(3, 443, 17, /*cost=*/1,
                    [&](std::size_t b, std::size_t e, std::size_t) {
                      inline_chunks.emplace_back(b, e);
                    });

  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> dispatched_chunks;
  pool.parallel_for(3, 443, 17, [&](std::size_t b, std::size_t e, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    dispatched_chunks.emplace_back(b, e);
  });

  std::sort(inline_chunks.begin(), inline_chunks.end());
  std::sort(dispatched_chunks.begin(), dispatched_chunks.end());
  EXPECT_EQ(inline_chunks, dispatched_chunks);
}

TEST(ThreadPool, HintedJobAboveGateCoversEveryIndexOnce) {
  // Above the threshold the job dispatches on multicore hosts and runs
  // inline where concurrency() == 1; either way coverage is exact.
  lu::ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 64, /*cost=*/std::size_t{1} << 30,
                    [&](std::size_t b, std::size_t e, std::size_t) {
                      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
                    });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DispatchCostIsConfigurable) {
  lu::ThreadPool pool(2);
  pool.set_dispatch_cost(42);
  EXPECT_EQ(pool.dispatch_cost(), 42u);
  EXPECT_GE(pool.concurrency(), 1u);
  EXPECT_LE(pool.concurrency(), pool.threads());

  // With the gate effectively disabled (threshold 0), a hinted job on a
  // single-core host still runs inline (concurrency() == 1) — and on a
  // multicore host dispatches — so only coverage is asserted.
  pool.set_dispatch_cost(0);
  std::atomic<int> total{0};
  pool.parallel_for(0, 128, 16, /*cost=*/1,
                    [&](std::size_t b, std::size_t e, std::size_t) {
                      total.fetch_add(static_cast<int>(e - b));
                    });
  EXPECT_EQ(total.load(), 128);
}

// The dispatch gate is set only through set_dispatch_cost(); the
// environment has no say in it.
TEST(ThreadPool, DispatchCostIgnoresEnvironment) {
  ::setenv("LITHOGAN_DISPATCH_COST", "0", /*overwrite=*/1);
  const lu::ThreadPool pool(2);
  ::unsetenv("LITHOGAN_DISPATCH_COST");
  EXPECT_EQ(pool.dispatch_cost(), lu::ThreadPool::kDefaultDispatchCost);
}

TEST(Workspace, ReferencesSurviveHigherSlotCreation) {
  lu::Workspace ws;
  auto& a = ws.floats(0);
  a.assign(16, 1.5f);
  auto& b = ws.floats(7);  // would reallocate a vector-of-vectors
  b.assign(4, 2.0f);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a[15], 1.5f);
  EXPECT_EQ(&a, &ws.floats(0));
  auto& d0 = ws.doubles(0);
  d0.assign(8, 3.0);
  ws.doubles(5).assign(2, 0.0);
  EXPECT_EQ(d0[7], 3.0);
}

TEST(Workspace, RetainsCapacityAcrossAcquisitions) {
  lu::Workspace ws;
  ws.floats(0).resize(1 << 16);
  const auto cap = ws.floats(0).capacity();
  ws.floats(0).resize(8);
  EXPECT_GE(ws.floats(0).capacity(), cap);
  ws.clear();
  EXPECT_TRUE(ws.floats(0).empty());
}

TEST(ExecContext, ProvidesPerWorkerWorkspaces) {
  lu::ExecContext exec(4);
  EXPECT_EQ(exec.threads(), 4u);
  exec.parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e, lu::Workspace& ws) {
    auto& buf = ws.floats(0);
    buf.assign(32, static_cast<float>(b));
    // The workspace handed to a chunk is the current worker's workspace.
    EXPECT_EQ(&ws, &exec.workspace(lu::ThreadPool::current_worker()));
    for (std::size_t i = b; i < e; ++i) {
      EXPECT_EQ(buf[0], static_cast<float>(b));
    }
  });
}

TEST(ExecContext, GrainForTargetsMultipleChunksPerThread) {
  lu::ExecContext exec(4);
  const std::size_t grain = exec.grain_for(1000);
  EXPECT_GE(grain, 1u);
  EXPECT_LE(grain, 1000u);
  // ~4 chunks per thread keeps the tail balanced.
  EXPECT_LE((1000 + grain - 1) / grain, 4u * 4u + 1u);
  EXPECT_GE(exec.grain_for(10, 64), 10u);  // min_grain caps chunk count
}

TEST(ExecContext, CostHintedOverloadGatesToCallerWorkspace) {
  lu::ExecContext exec(4);
  // Far below the gate: inline on the caller, so every chunk sees worker
  // 0's workspace and the serial helper's fallback workspace stays unused.
  exec.parallel_for(0, 64, 8, /*cost=*/16,
                    [&](std::size_t, std::size_t, lu::Workspace& ws) {
                      EXPECT_EQ(&ws, &exec.workspace(0));
                    });

  lu::Workspace serial_ws;
  int calls = 0;
  lu::parallel_for(&exec, serial_ws, 0, 64, 8, /*cost=*/16,
                   [&](std::size_t, std::size_t, lu::Workspace& ws) {
                     ++calls;
                     EXPECT_EQ(&ws, &exec.workspace(0));
                   });
  EXPECT_EQ(calls, 8);
}

TEST(ExecContext, SerialHelperRunsWholeRangeOnce) {
  lu::Workspace ws;
  int calls = 0;
  std::size_t seen_b = 99, seen_e = 0;
  lu::parallel_for(nullptr, ws, 3, 17, 2,
                   [&](std::size_t b, std::size_t e, lu::Workspace& w) {
                     ++calls;
                     seen_b = b;
                     seen_e = e;
                     EXPECT_EQ(&w, &ws);
                   });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_b, 3u);
  EXPECT_EQ(seen_e, 17u);
}
