#include "rollup.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double Rollup::ms(const std::string& name, bool self) const {
  const auto it = by_name.find(name);
  if (it == by_name.end()) return 0.0;
  const auto us = self ? it->second.self_us : it->second.inclusive_us;
  return static_cast<double>(us) / 1000.0;
}

bool Rollup::check() const {
  std::uint64_t sum = unattributed_us;
  for (const auto& [name, totals] : by_name) sum += totals.self_us;
  return sum == wall_us;
}

Rollup rollup(const std::vector<byz::obs::TraceEvent>& events,
              const std::string& root,
              const std::vector<std::string>& nesting) {
  const byz::obs::TraceEvent* top = nullptr;
  for (const auto& e : events) {
    if (e.name == root && (top == nullptr || e.ts_us >= top->ts_us)) top = &e;
  }
  if (top == nullptr) {
    throw std::runtime_error("rollup: no span named " + root);
  }
  const std::uint64_t end = top->ts_us + top->dur_us;

  const auto rank = [&](const std::string& name) {
    return std::find(nesting.begin(), nesting.end(), name) - nesting.begin();
  };
  // Spans of the root's thread inside its interval, parents before their
  // children: by start, then longest first, then outermost by `nesting`
  // (spans recorded within the same microsecond tie on both).
  std::vector<const byz::obs::TraceEvent*> inside;
  for (const auto& e : events) {
    if (&e == top || e.tid != top->tid) continue;
    if (e.ts_us >= top->ts_us && e.ts_us + e.dur_us <= end) {
      inside.push_back(&e);
    }
  }
  std::sort(inside.begin(), inside.end(), [&](const auto* a, const auto* b) {
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
    return rank(a->name) < rank(b->name);
  });

  struct Open {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t covered = 0;
    SpanTotals* totals = nullptr;  ///< null for the root
  };
  Rollup out;
  out.wall_us = top->dur_us;
  std::vector<Open> stack{{top->ts_us, end, 0, nullptr}};
  const auto close = [&] {
    const Open& o = stack.back();
    const std::uint64_t self = o.end - o.start - o.covered;
    (o.totals == nullptr ? out.unattributed_us : o.totals->self_us) += self;
    stack.pop_back();
  };
  for (const auto* e : inside) {
    while (stack.size() > 1 && stack.back().end <= e->ts_us) close();
    // Same-thread spans nest properly, so a child never outlives its
    // parent; clip anyway so a malformed trace cannot break the sum.
    const std::uint64_t e_end =
        std::min(e->ts_us + e->dur_us, stack.back().end);
    stack.back().covered += e_end - e->ts_us;
    auto& totals = out.by_name[e->name];
    ++totals.count;
    totals.inclusive_us += e_end - e->ts_us;
    stack.push_back({e->ts_us, e_end, 0, &totals});
  }
  while (!stack.empty()) close();
  return out;
}

}  // namespace perfbench
