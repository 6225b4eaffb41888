// Self-time rollup of one traced operation. A span's self time is its
// duration minus the part of its interval covered by its child spans; the
// root span's self time is the operation's unattributed time (wall time no
// layer span covers). Because every child interval is clipped to its
// parent, the self times of all spans in the tree add up to the root's
// duration exactly, which check() verifies.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t inclusive_us = 0;  ///< sum of durations (nested repeats too)
  std::uint64_t self_us = 0;       ///< sum of durations minus covered children
};

struct Rollup {
  std::uint64_t wall_us = 0;          ///< the root span's duration
  std::uint64_t unattributed_us = 0;  ///< the root span's self time
  std::map<std::string, SpanTotals> by_name;  ///< every span below the root

  [[nodiscard]] double ms(const std::string& name, bool self) const;
  /// Sum of all self times plus the unattributed time equals wall_us.
  [[nodiscard]] bool check() const;
};

/// Rolls up the spans nested in the last span called `root` on that span's
/// thread. `nesting` lists span names from outermost to innermost; it only
/// decides which of two spans with identical intervals is the parent.
/// Throws std::runtime_error if there is no such span.
[[nodiscard]] Rollup rollup(const std::vector<byz::obs::TraceEvent>& events,
                            const std::string& root,
                            const std::vector<std::string>& nesting);

}  // namespace perfbench
