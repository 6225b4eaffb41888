#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace byz::util {
namespace {

using Chunks = std::set<std::pair<std::uint64_t, std::uint64_t>>;

Chunks chunks_of(std::uint64_t count, unsigned cap, std::uint64_t grain) {
  std::mutex mu;
  Chunks seen;
  parallel_for(count, cap, grain, [&](std::uint64_t first, std::uint64_t last) {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.emplace(first, last).second);
  });
  return seen;
}

void spin_for(std::chrono::microseconds d) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < d) {
  }
}

TEST(ParallelFor, RunsEveryIndexOnceInGrainAlignedChunks) {
  for (const std::uint64_t count : {1u, 2u, 63u, 64u, 65u, 1000u}) {
    for (const std::uint64_t grain : {1u, 3u, 64u}) {
      for (const unsigned cap : {0u, 1u, 2u, 4u}) {
        std::vector<std::atomic<int>> hits(count);
        parallel_for(count, cap, grain,
                     [&](std::uint64_t first, std::uint64_t last) {
                       EXPECT_EQ(first % grain, 0u);
                       EXPECT_EQ(last, std::min(count, first + grain));
                       for (auto i = first; i < last; ++i) hits[i]++;
                     });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      }
    }
  }
}

TEST(ParallelFor, ChunkBoundariesDoNotDependOnTheCap) {
  const Chunks serial = chunks_of(1000, 1, 37);
  EXPECT_EQ(serial.size(), (1000u + 36u) / 37u);
  for (const unsigned cap : {0u, 2u, 4u, 8u}) {
    EXPECT_EQ(chunks_of(1000, cap, 37), serial) << "cap " << cap;
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  bool ran = false;
  parallel_for(0, 0, 1, [&](std::uint64_t, std::uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, RethrowsAfterRunningChunksFinish) {
  std::atomic<int> running{0};
  EXPECT_THROW(parallel_for(64, 0, 1,
                            [&](std::uint64_t first, std::uint64_t) {
                              running++;
                              spin_for(std::chrono::microseconds(50));
                              running--;
                              if (first == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  // The pool is still usable afterwards.
  std::atomic<int> hits{0};
  parallel_for(16, 0, 1, [&](std::uint64_t, std::uint64_t) { hits++; });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ParallelFor, NeverExceedsTheCap) {
  for (const unsigned cap : {1u, 2u, 3u}) {
    std::atomic<unsigned> inside{0};
    std::atomic<unsigned> peak{0};
    parallel_for(48, cap, 1, [&](std::uint64_t, std::uint64_t) {
      const unsigned now = ++inside;
      unsigned seen = peak.load();
      while (seen < now && !peak.compare_exchange_weak(seen, now)) {
      }
      spin_for(std::chrono::microseconds(100));
      --inside;
    });
    EXPECT_LE(peak.load(), cap);
  }
}

TEST(ParallelFor, NestedLoopsStayWithinThePool) {
  // Trials x kernel: every level may ask for the whole pool, yet only the
  // caller and the pool's workers ever run a body, and nothing deadlocks.
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<std::uint64_t> inner_items{0};
  parallel_for(8, 0, 1, [&](std::uint64_t, std::uint64_t) {
    parallel_for(256, 0, 16, [&](std::uint64_t first, std::uint64_t last) {
      EXPECT_EQ(parallel_depth(), 2u);
      inner_items += last - first;
      spin_for(std::chrono::microseconds(20));
      const std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    });
  });
  EXPECT_EQ(inner_items.load(), 8u * 256u);
  EXPECT_LE(threads.size(), pool_size());
}

TEST(ParallelFor, DepthCountsEnclosingLoopsOnEveryThread) {
  EXPECT_EQ(parallel_depth(), 0u);
  std::atomic<int> wrong{0};
  parallel_for(32, 0, 1, [&](std::uint64_t, std::uint64_t) {
    if (parallel_depth() != 1) wrong++;
    spin_for(std::chrono::microseconds(20));
  });
  parallel_for(4, 1, 1, [&](std::uint64_t, std::uint64_t) {
    if (parallel_depth() != 1) wrong++;
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(parallel_depth(), 0u);
}

TEST(ParallelFor, ParticipantCapKeepsLoopsOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  {
    const ParticipantCap cap(1);
    parallel_for(64, 0, 1, [&](std::uint64_t, std::uint64_t) {
      if (std::this_thread::get_id() != caller) elsewhere++;
      spin_for(std::chrono::microseconds(20));
    });
  }
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ParallelFor, BalancedGrainGivesAboutFourChunksPerParticipant) {
  EXPECT_EQ(balanced_grain(1600, 4), 100u);
  EXPECT_EQ(balanced_grain(3, 4), 1u);
  EXPECT_EQ(balanced_grain(0, 2), 1u);
  EXPECT_EQ(balanced_grain(1000, 0), balanced_grain(1000, pool_size()));
}

}  // namespace
}  // namespace byz::util
