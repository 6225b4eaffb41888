#include "protocols/refine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/categories.hpp"
#include "protocols/color.hpp"
#include "protocols/fastpath.hpp"
#include "util/stats.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n = 2048, std::uint32_t d = 8, std::uint64_t seed = 3) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(RefinedEstimate, ClosedForm) {
  // l_{i-2} = log2 d + (i-2) log2(d-1).
  EXPECT_NEAR(refined_log_estimate(5, 8), ell(8, 3), 1e-12);
  EXPECT_NEAR(refined_log_estimate(2, 8), ell(8, 0), 1e-12);
  EXPECT_NEAR(refined_log_estimate(1, 8), ell(8, 0), 1e-12);  // clamped
  EXPECT_EQ(refined_log_estimate(0, 8), 0.0);                 // no estimate
}

TEST(RefinedEstimate, MonotoneInPhase) {
  for (std::uint32_t i = 3; i < 20; ++i) {
    EXPECT_GT(refined_log_estimate(i + 1, 8), refined_log_estimate(i, 8));
  }
}

TEST(RefineRun, NearUnityRatioOnCleanRuns) {
  // The whole point: raw ratios sit near 1/log2(d-1) ≈ 0.36; refined
  // ratios must sit near 1 with small spread, across scales.
  for (const NodeId n : {1024u, 4096u, 16384u}) {
    const Overlay o = sample(n, 8, n);
    const auto run = run_basic_counting(o, 7);
    const std::vector<bool> byz(n, false);
    const auto refined = refine_run(run, 8);
    const auto acc = summarize_refined(refined, byz, n);
    EXPECT_EQ(acc.with_estimate, n);
    EXPECT_GT(acc.mean_ratio, 0.85) << "n=" << n;
    EXPECT_LT(acc.mean_ratio, 1.45) << "n=" << n;
    EXPECT_LT(acc.stddev_ratio, 0.25) << "n=" << n;
  }
}

TEST(RefineRun, SkipsCrashedAndUndecided) {
  RunResult run;
  run.status = {NodeStatus::kDecided, NodeStatus::kCrashed,
                NodeStatus::kUndecided, NodeStatus::kByzantine};
  run.estimate = {5, 0, 0, 0};
  const auto refined = refine_run(run, 8);
  EXPECT_GT(refined[0], 0.0);
  EXPECT_EQ(refined[1], 0.0);
  EXPECT_EQ(refined[2], 0.0);
  EXPECT_EQ(refined[3], 0.0);
}

TEST(Smoothing, CollapsesSpread) {
  const NodeId n = 4096;
  const Overlay o = sample(n, 8, 17);
  const auto run = run_basic_counting(o, 23);
  const std::vector<bool> byz(n, false);
  const auto refined = refine_run(run, 8);
  const auto before = summarize_refined(refined, byz, n);
  const auto smoothed = smooth_estimates(o, byz, refined, EstimateLie::kHonest);
  const auto after = summarize_refined(smoothed, byz, n);
  EXPECT_LE(after.stddev_ratio, before.stddev_ratio);
  EXPECT_NEAR(after.mean_ratio, before.mean_ratio, 0.2);
}

TEST(Smoothing, MedianShrugsOffInflatingByzantine) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 19);
  util::Xoshiro256 rng(21);
  const auto byz = graph::random_byzantine_mask(n, 45, rng);  // n^0.5
  const auto run = run_basic_counting(o, 29);
  const auto refined = refine_run(run, 8);
  const auto smoothed =
      smooth_estimates(o, byz, refined, EstimateLie::kInflate);
  const auto acc = summarize_refined(smoothed, byz, n);
  // Byzantine minorities cannot drag the neighborhood median to 10^6.
  EXPECT_LT(acc.max_ratio, 3.0);
  EXPECT_GT(acc.mean_ratio, 0.5);
}

TEST(Smoothing, DeflationEquallyHarmless) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 23);
  util::Xoshiro256 rng(25);
  const auto byz = graph::random_byzantine_mask(n, 45, rng);
  const auto run = run_basic_counting(o, 31);
  const auto refined = refine_run(run, 8);
  const auto smoothed =
      smooth_estimates(o, byz, refined, EstimateLie::kDeflate);
  const auto acc = summarize_refined(smoothed, byz, n);
  EXPECT_GT(acc.min_ratio, 0.3);
}

/// smooth_estimates as it was before the in-place median: copy each
/// window and take util::median of it.
std::vector<double> reference_smooth(const Overlay& overlay,
                                     const std::vector<bool>& byz,
                                     const std::vector<double>& estimates,
                                     EstimateLie lie,
                                     std::vector<std::size_t>& sizes) {
  std::vector<double> smoothed(overlay.num_nodes(), 0.0);
  for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
    if (byz[v]) continue;
    std::vector<double> window;
    if (estimates[v] > 0.0) window.push_back(estimates[v]);
    for (const NodeId w : overlay.g().neighbors(v)) {
      if (byz[w]) {
        if (lie == EstimateLie::kHonest && estimates[w] > 0.0) {
          window.push_back(estimates[w]);
        } else if (lie == EstimateLie::kInflate) {
          window.push_back(1e6);
        } else if (lie == EstimateLie::kDeflate) {
          window.push_back(0.0);
        }
      } else if (estimates[w] > 0.0) {
        window.push_back(estimates[w]);
      }
    }
    sizes.push_back(window.size());
    if (!window.empty()) smoothed[v] = util::median(window);
  }
  return smoothed;
}

TEST(Smoothing, BitwiseEqualsCopyAndSortMedian) {
  const NodeId n = 2048;
  const Overlay o = sample(n, 8, 37);
  util::Xoshiro256 rng(43);
  const auto byz = graph::random_byzantine_mask(n, 200, rng);
  // Refined estimates (heavy ties) with a random tenth zeroed (silent
  // nodes), and a continuous variant without ties.
  auto refined = refine_run(run_basic_counting(o, 47), 8);
  std::vector<double> continuous(n);
  for (NodeId v = 0; v < n; ++v) {
    if (rng.below(10) == 0) refined[v] = 0.0;
    continuous[v] = rng.below(10) == 0
                        ? 0.0
                        : std::ldexp(static_cast<double>(rng() >> 11), -45);
  }
  std::vector<std::size_t> sizes;
  for (const auto& estimates : {refined, continuous}) {
    for (const auto lie : {EstimateLie::kHonest, EstimateLie::kInflate,
                           EstimateLie::kDeflate}) {
      const auto want = reference_smooth(o, byz, estimates, lie, sizes);
      const auto got = smooth_estimates(o, byz, estimates, lie);
      ASSERT_EQ(got.size(), want.size());
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[v]),
                  std::bit_cast<std::uint64_t>(want[v]))
            << "v=" << v << " lie=" << static_cast<int>(lie);
      }
    }
  }
  std::size_t odd = 0;
  for (const auto size : sizes) odd += size % 2;
  EXPECT_GT(odd, 0u);             // both window parities were exercised
  EXPECT_LT(odd, sizes.size());
}

TEST(Smoothing, SizeMismatchThrows) {
  const Overlay o = sample(64, 6, 29);
  EXPECT_THROW((void)smooth_estimates(o, std::vector<bool>(3, false),
                                      std::vector<double>(64, 1.0),
                                      EstimateLie::kHonest),
               std::invalid_argument);
}

TEST(SummarizeRefined, IgnoresByzantineAndZeroes) {
  std::vector<double> est{10.0, 0.0, 12.0, 99.0};
  std::vector<bool> byz{false, false, false, true};
  const auto acc = summarize_refined(est, byz, 1024);  // log2 = 10
  EXPECT_EQ(acc.with_estimate, 2u);
  EXPECT_NEAR(acc.mean_ratio, (1.0 + 1.2) / 2.0, 1e-12);
  EXPECT_NEAR(acc.min_ratio, 1.0, 1e-12);
  EXPECT_NEAR(acc.max_ratio, 1.2, 1e-12);
}

}  // namespace
}  // namespace byz::proto
