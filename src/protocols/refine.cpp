#include "protocols/refine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "protocols/color.hpp"
#include "util/stats.hpp"

namespace byz::proto {

using graph::NodeId;

double refined_log_estimate(std::uint32_t decided_phase, std::uint32_t d) {
  if (decided_phase == 0) return 0.0;
  const std::uint32_t r = decided_phase > 2 ? decided_phase - 2 : 0;
  return ell(d, r);
}

std::vector<double> refine_run(const RunResult& result, std::uint32_t d) {
  std::vector<double> refined(result.estimate.size(), 0.0);
  for (std::size_t v = 0; v < result.estimate.size(); ++v) {
    if (result.status[v] == NodeStatus::kDecided) {
      refined[v] = refined_log_estimate(result.estimate[v], d);
    }
  }
  return refined;
}

std::vector<double> smooth_estimates(const graph::Overlay& overlay,
                                     const std::vector<bool>& byz_mask,
                                     const std::vector<double>& estimates,
                                     EstimateLie lie) {
  const NodeId n = overlay.num_nodes();
  if (byz_mask.size() != n || estimates.size() != n) {
    throw std::invalid_argument("smooth_estimates: size mismatch");
  }
  std::vector<double> smoothed(n, 0.0);
  std::vector<double> window;
  for (NodeId v = 0; v < n; ++v) {
    if (byz_mask[v]) continue;
    window.clear();
    if (estimates[v] > 0.0) window.push_back(estimates[v]);  // self
    for (const NodeId w : overlay.g().neighbors(v)) {
      if (byz_mask[w]) {
        switch (lie) {
          case EstimateLie::kHonest:
            // A plausible lie is indistinguishable from an honest report;
            // model it as the Byzantine node's own (honest) estimate slot,
            // or silence if it has none.
            if (estimates[w] > 0.0) window.push_back(estimates[w]);
            break;
          case EstimateLie::kInflate:
            window.push_back(1e6);
            break;
          case EstimateLie::kDeflate:
            window.push_back(0.0);
            break;
        }
      } else if (estimates[w] > 0.0) {
        window.push_back(estimates[w]);
      }
    }
    if (window.empty()) continue;
    smoothed[v] = util::median_in_place(window);
  }
  return smoothed;
}

RefinedAccuracy summarize_refined(const std::vector<double>& estimates,
                                  const std::vector<bool>& byz_mask,
                                  std::uint64_t true_n) {
  if (estimates.size() != byz_mask.size()) {
    throw std::invalid_argument("summarize_refined: size mismatch");
  }
  RefinedAccuracy acc;
  const double log_n = std::log2(static_cast<double>(true_n));
  util::OnlineStats stats;
  for (std::size_t v = 0; v < estimates.size(); ++v) {
    if (byz_mask[v] || estimates[v] <= 0.0) continue;
    stats.add(estimates[v] / log_n);
  }
  acc.with_estimate = stats.count();
  acc.mean_ratio = stats.mean();
  acc.min_ratio = stats.count() ? stats.min() : 0.0;
  acc.max_ratio = stats.count() ? stats.max() : 0.0;
  acc.stddev_ratio = stats.stddev();
  return acc;
}

}  // namespace byz::proto
