// Tests for the coordination-based applications: leader election and mutual
// exclusion built from register-only consensus (the paper's §1 motivation).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "runtime/mutex.h"

namespace cil {
namespace {

TEST(ConsensusArena, AllCallersGetTheSameWinner) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rt::ConsensusArena arena(3, /*max_value=*/10, seed);
    Value results[3] = {kNoValue, kNoValue, kNoValue};
    {
      std::vector<std::jthread> threads;
      for (ProcessId p = 0; p < 3; ++p) {
        threads.emplace_back(
            [&arena, &results, p] { results[p] = arena.decide(p, p + 5); });
      }
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[1], results[2]);
    EXPECT_GE(results[0], 5);
    EXPECT_LE(results[0], 7);
  }
}

TEST(ConsensusArena, ThreadsReleasedTogetherNeverDisagree) {
  // Two threads write their own register and then read the other's, at
  // the same instant. The paper's registers are atomic, so at least one
  // of them must see the other's write. Acquire/release atomics do not
  // promise that: a store may wait in the CPU's store buffer while the
  // next load runs, both threads then read the initial value, and each
  // decides its own input. Thousands of simultaneous starts make that
  // window show up.
  constexpr int kTrials = 10000;
  int disagreements = 0;
  for (int t = 0; t < kTrials; ++t) {
    rt::ConsensusArena arena(2, /*max_value=*/1,
                             static_cast<std::uint64_t>(t) + 1);
    Value results[2] = {kNoValue, kNoValue};
    std::atomic<int> arrived{0};
    {
      std::vector<std::jthread> threads;
      for (ProcessId p = 0; p < 2; ++p) {
        threads.emplace_back([&, p] {
          arrived.fetch_add(1);
          while (arrived.load() < 2) std::this_thread::yield();
          results[p] = arena.decide(p, p);
        });
      }
    }
    if (results[0] != results[1]) ++disagreements;
  }
  EXPECT_EQ(disagreements, 0) << "of " << kTrials << " trials";
}

TEST(ConsensusArena, SoloCallerDecidesOwnValue) {
  rt::ConsensusArena arena(3, 10, 1);
  EXPECT_EQ(arena.decide(1, 9), 9);  // wait-free: no one else ever shows up
}

TEST(LeaderElection, ElectsOneOfTheParticipants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rt::LeaderElection election(4, seed);
    ProcessId leaders[4];
    {
      std::vector<std::jthread> threads;
      for (ProcessId p = 0; p < 4; ++p) {
        threads.emplace_back(
            [&election, &leaders, p] { leaders[p] = election.elect(p); });
      }
    }
    for (int i = 1; i < 4; ++i) EXPECT_EQ(leaders[i], leaders[0]);
    EXPECT_GE(leaders[0], 0);
    EXPECT_LT(leaders[0], 4);
  }
}

TEST(CoordinationMutex, MutualExclusionUnderContention) {
  constexpr int kThreads = 3;
  constexpr int kItersEach = 40;
  rt::CoordinationMutex mutex(kThreads, /*max_rounds=*/kThreads * kItersEach + 8);

  int counter = 0;        // protected by the mutex
  int in_section = 0;     // ditto; must never exceed 1
  std::atomic<int> max_seen{0};
  {
    std::vector<std::jthread> threads;
    for (ProcessId me = 0; me < kThreads; ++me) {
      threads.emplace_back([&, me] {
        for (int i = 0; i < kItersEach; ++i) {
          mutex.lock(me);
          ++in_section;
          max_seen.store(std::max(max_seen.load(), in_section));
          ++counter;
          --in_section;
          mutex.unlock(me);
        }
      });
    }
  }
  EXPECT_EQ(counter, kThreads * kItersEach);
  EXPECT_EQ(max_seen.load(), 1);
}

TEST(CoordinationMutex, UnlockByNonHolderIsRejected) {
  rt::CoordinationMutex mutex(2, 4);
  mutex.lock(0);
  EXPECT_THROW(mutex.unlock(1), ContractViolation);
  mutex.unlock(0);
}

TEST(CoordinationMutex, RoundsAdvancePerAcquisition) {
  rt::CoordinationMutex mutex(2, 10);
  for (int i = 0; i < 3; ++i) {
    mutex.lock(1);
    mutex.unlock(1);
  }
  EXPECT_EQ(mutex.rounds_used(), 3);
}

}  // namespace
}  // namespace cil
