#include "incremental/dirty_ball.hpp"

namespace byz::incremental {

DirtyBallTracker::DirtyBallTracker(MutableOverlay& overlay)
    : overlay_(&overlay), k_(overlay.k()) {
  overlay_->set_observer(this);
}

DirtyBallTracker::~DirtyBallTracker() {
  if (overlay_->observer() == this) overlay_->set_observer(nullptr);
}

void DirtyBallTracker::mark(NodeId stable) {
  if (stable >= dirty_.size()) dirty_.resize(stable + 1, 0);
  if (dirty_[stable] == 0) {
    dirty_[stable] = 1;
    ++dirty_count_;
  }
}

void DirtyBallTracker::on_splice(std::span<const NodeId> touched) {
  ++splices_;
  // Multi-source ball of radius k-1 in the post-op ring structure (the
  // witness-path prefix bound — see the header). Sources are the alive
  // touched endpoints; a departed node in `touched` is marked dirty
  // directly (so a consumer can drop its stored ball) but cannot seed the
  // walk — it has no edges left.
  std::vector<NodeId> sources;
  for (const NodeId t : touched) {
    if (overlay_->is_alive(t)) {
      sources.push_back(t);
    } else {
      mark(t);
    }
  }
  graph::ball(sources, k_ - 1, overlay_->id_bound(),
              overlay_->ring_neighbors(), ball_);
  for (const auto& e : ball_) mark(e.node);
}

void DirtyBallTracker::mark_all_dirty() {
  for (const NodeId v : overlay_->alive_nodes()) mark(v);
}

void DirtyBallTracker::clear() {
  dirty_.assign(dirty_.size(), 0);
  dirty_count_ = 0;
  splices_ = 0;
}

}  // namespace byz::incremental
