// ThreadPool suite, centered on the nesting guarantee of ParallelFor: a
// call made from one of the pool's own workers must complete (the caller
// helps drain its iteration range inline instead of parking on a worker
// slot). The 1-thread nested case is the historical deadlock: a lane that
// blocked in wait() while holding the only worker. Runs under the
// `parallel_build_smoke` CTest label together with the construction
// determinism suite, since the parallel build pipeline is what leans on
// these guarantees.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

TEST(ThreadPoolNestingTest, NestedParallelForOnSingleThreadPoolCompletes) {
  // The regression case: the outer ParallelFor occupies the only worker,
  // and each outer iteration fans out again. Before the caller-helps-drain
  // fix this deadlocked immediately.
  ThreadPool pool(1);
  std::atomic<int> visits{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(4, [&](std::size_t) { visits++; });
  });
  EXPECT_EQ(visits.load(), 16);
}

TEST(ThreadPoolNestingTest, NestedParallelForFromSubmittedTaskCompletes) {
  // Same hazard reached the way the build pipeline reaches it: a task
  // already running on a worker issues the nested fan-out.
  ThreadPool pool(1);
  std::atomic<int> visits{0};
  pool.Submit([&] {
        EXPECT_TRUE(pool.OnWorkerThread());
        pool.ParallelFor(8, [&](std::size_t) { visits++; });
      })
      .wait();
  EXPECT_EQ(visits.load(), 8);
}

TEST(ThreadPoolNestingTest, TripleNestingCompletesOnSmallPool) {
  // Three levels deep on two workers: one level deeper than the deepest
  // nesting in the tree (a pooled sharded multiply over blocked shards
  // runs shards -> blocks).
  ThreadPool pool(2);
  std::atomic<int> visits{0};
  pool.ParallelFor(3, [&](std::size_t) {
    pool.ParallelFor(3, [&](std::size_t) {
      pool.ParallelFor(3, [&](std::size_t) { visits++; });
    });
  });
  EXPECT_EQ(visits.load(), 27);
}

TEST(ThreadPoolNestingTest, EveryIndexVisitedExactlyOnceUnderNesting) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](std::size_t outer) {
    pool.ParallelFor(kInner, [&](std::size_t inner) {
      visits[outer * kInner + inner]++;
    });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolNestingTest, ConcurrentTopLevelParallelForsComplete) {
  // Two independent tasks each fanning out on the same pool must not
  // starve each other even when their helpers interleave in the queue.
  ThreadPool pool(2);
  std::atomic<int> visits{0};
  auto a = pool.Submit(
      [&] { pool.ParallelFor(32, [&](std::size_t) { visits++; }); });
  auto b = pool.Submit(
      [&] { pool.ParallelFor(32, [&](std::size_t) { visits++; }); });
  a.wait();
  b.wait();
  EXPECT_EQ(visits.load(), 64);
}

TEST(ThreadPoolNestingTest, ExceptionFromNestedCallPropagatesToOuterCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(4,
                       [&](std::size_t outer) {
                         pool.ParallelFor(4, [&](std::size_t inner) {
                           if (outer == 1 && inner == 2) {
                             throw Error("inner failure");
                           }
                         });
                       }),
      Error);
}

TEST(ThreadPoolNestingTest, ExceptionFailsFastWithoutHangingTheCaller) {
  // A throwing iteration must not leave the caller hanging: every index
  // is still accounted (claimed-and-running iterations complete), but
  // indices not yet started when the error lands are skipped, so the
  // rethrow does not wait for the whole range's work.
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                  completed++;
                                }),
               std::runtime_error);
  // Never the thrower itself, possibly fewer than all 63 survivors
  // (fail-fast may skip indices claimed but not yet checked); the exact
  // count is scheduling-dependent, the deterministic skip is pinned by
  // FailFastSkipsUnstartedIterations below.
  EXPECT_LE(completed.load(), 63);
}

TEST(ThreadPoolNestingTest, FailFastSkipsUnstartedIterations) {
  // Nested call on a 1-thread pool: the caller IS the only participant
  // (no free workers), so claims are strictly sequential and the skip is
  // deterministic -- index 0 throws, indices 1..999 must not run at all.
  ThreadPool pool(1);
  std::atomic<int> completed{0};
  pool.Submit([&] {
        EXPECT_THROW(pool.ParallelFor(1000,
                                      [&](std::size_t i) {
                                        if (i == 0) throw Error("first fails");
                                        completed++;
                                      }),
                     Error);
      })
      .wait();
  EXPECT_EQ(completed.load(), 0);
}

TEST(ThreadPoolExceptionTest, PropagationHammerFirstWinsAndNothingLeaks) {
  // Repeated rounds of a throwing ParallelFor, each on a fresh pool. Pins
  // three guarantees at once, across many schedules:
  //   1. first-wins: the exception that surfaces is one that was actually
  //      thrown by an iteration of THIS round (never lost, never stale);
  //   2. no abandoned claimed iterations: every iteration that entered the
  //      body either completed or threw -- entered == completed + thrown
  //      after the caller returns, so nothing is still running behind the
  //      caller's back;
  //   3. no leaked helpers: the pool destructor at the end of each round
  //      joins every worker; a helper still parked on the dead state would
  //      hang the round (caught by the test timeout).
  constexpr int kRounds = 40;
  constexpr std::size_t kRange = 96;
  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(3);
    std::atomic<int> entered{0};
    std::atomic<int> completed{0};
    std::mutex mu;
    std::set<std::size_t> thrown;
    std::string caught;
    try {
      pool.ParallelFor(kRange, [&](std::size_t i) {
        entered.fetch_add(1);
        // Several iterations throw, spread over the range, so which error
        // lands first depends on scheduling -- exactly what first-wins
        // must be robust to.
        if (i % 19 == 7) {
          {
            std::lock_guard<std::mutex> lock(mu);
            thrown.insert(i);
          }
          throw Error("iteration " + std::to_string(i));
        }
        completed.fetch_add(1);
      });
      FAIL() << "round " << round << ": no exception surfaced";
    } catch (const Error& e) {
      caught = e.what();
    }
    // 1. The surfaced error names an iteration that really threw.
    bool matched = false;
    for (std::size_t i : thrown) {
      if (caught == "iteration " + std::to_string(i)) matched = true;
    }
    EXPECT_TRUE(matched) << "round " << round << ": caught '" << caught
                         << "' which no iteration threw";
    // 2. Every entered iteration is accounted: completed or thrown. Taking
    //    the counters AFTER ParallelFor returned also pins that no claimed
    //    iteration is still running once the caller resumes.
    EXPECT_EQ(entered.load(),
              completed.load() + static_cast<int>(thrown.size()))
        << "round " << round;
    // Fail-fast must have skipped at least the unclaimed tail in SOME
    // rounds, but never more than the full range minus the thrower.
    EXPECT_LE(completed.load(), static_cast<int>(kRange) - 1);
  }
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPools) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.OnWorkerThread());  // the test thread is no worker
  bool on_own = false;
  bool on_other = true;
  pool.Submit([&] {
        on_own = pool.OnWorkerThread();
        on_other = other.OnWorkerThread();
      })
      .wait();
  EXPECT_TRUE(on_own);
  EXPECT_FALSE(on_other);
}

TEST(ThreadPoolTest, ParallelForStillCoversPlainRanges) {
  // The rewrite must not regress the basic contract (the historical
  // util_test cases cover zero/one/exception; this pins a larger range
  // with more indices than workers).
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(997);
  pool.ParallelFor(visits.size(), [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace gcm
