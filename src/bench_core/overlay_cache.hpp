// Shared overlay cache for the orchestrator: scenarios that sweep the same
// (n, d, seed) grid reuse one immutable Overlay instead of re-sampling it.
// Keys carry the full OverlayParams INCLUDING the topology generation tag,
// so an epoch snapshot of an evolving overlay (generation != 0) can never
// alias the static sample with the same (n, d, seed). Concurrent requests
// for the same key build once — later callers block on the builder's
// shared_future. Overlays are handed out as shared_ptr<const Overlay>, so
// eviction never invalidates a live user.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "graph/small_world.hpp"

namespace byz::bench_core {

class OverlayCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::size_t entries = 0;
  };

  /// `max_bytes` bounds resident overlay memory (0 = unlimited); least
  /// recently used entries are evicted past the bound. Residency is each
  /// overlay's memory_bytes() as of the check, so a G materialized after
  /// insertion counts from the next insertion (or stats()) on.
  explicit OverlayCache(std::uint64_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// Returns the overlay for `params`, building it on a miss. Thread-safe;
  /// a concurrent miss on the same key builds exactly once. Throws
  /// std::invalid_argument when params.generation != 0: a snapshot of an
  /// evolving overlay cannot be re-derived from (n, d, seed) — it must be
  /// published with put().
  [[nodiscard]] std::shared_ptr<const graph::Overlay> get(
      const graph::OverlayParams& params);

  /// Publishes an already-built overlay (e.g. a MutableOverlay epoch
  /// snapshot) under its own params() key. If the key is already resident
  /// the existing entry wins and is returned instead. Throws
  /// std::invalid_argument when params().generation == 0 — static keys are
  /// reserved for overlays get() derives from (n, d, seed).
  std::shared_ptr<const graph::Overlay> put(
      std::shared_ptr<const graph::Overlay> overlay);

  /// Convenience overload for the common (n, d, seed) case (paper k).
  [[nodiscard]] std::shared_ptr<const graph::Overlay> get(graph::NodeId n,
                                                          std::uint32_t d,
                                                          std::uint64_t seed);

  [[nodiscard]] Stats stats();
  void clear();

 private:
  struct Key {
    graph::NodeId n;
    std::uint32_t d;
    std::uint32_t k;
    std::uint64_t seed;
    std::uint64_t generation;  ///< 0 = static sample; else snapshot build tag
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    std::shared_future<std::shared_ptr<const graph::Overlay>> overlay;
    std::list<Key>::iterator lru_pos;
    std::uint64_t bytes = 0;  ///< 0 until the build completes
  };

  void refresh_bytes_locked();
  void evict_locked(const Key& incoming);

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = most recently used
  std::uint64_t max_bytes_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace byz::bench_core
