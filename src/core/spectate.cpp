#include "src/core/spectate.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/telemetry.h"

namespace rtct::core {

// ---- SpectatorBroadcastHub --------------------------------------------------

void SpectatorBroadcastHub::InputRing::clear(FrameNo new_base) {
  head_ = 0;
  count_ = 0;
  base_ = new_base;
}

void SpectatorBroadcastHub::InputRing::push_back(InputWord w) {
  if (count_ == buf_.size()) {
    std::vector<InputWord> next(buf_.empty() ? 256 : buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }
  buf_[(head_ + count_) & (buf_.size() - 1)] = w;
  ++count_;
}

void SpectatorBroadcastHub::InputRing::pop_front() {
  head_ = (head_ + 1) & (buf_.size() - 1);
  --count_;
  ++base_;
}

std::size_t SpectatorBroadcastHub::max_backlog() const {
  // Cap on feed kept only for catch-up: a joiner further behind than this
  // is given a fresh snapshot instead of a marathon of feed windows.
  return static_cast<std::size_t>(std::max(4 * cfg_.max_inputs_per_message, 512));
}

SpectatorBroadcastHub::ObserverId SpectatorBroadcastHub::add_observer(Time now) {
  observers_.push_back(Observer{.active = true, .last_heard = now});
  ++active_count_;
  ++stats_.observers_added;
  return static_cast<ObserverId>(observers_.size() - 1);
}

void SpectatorBroadcastHub::remove_observer(ObserverId id) {
  if (id >= observers_.size() || !observers_[id].active) return;
  observers_[id].active = false;
  --active_count_;
  ++stats_.observers_removed;
  trim_ring();  // its cursor no longer pins the ring
}

void SpectatorBroadcastHub::on_frame(FrameNo frame, InputWord merged) {
  last_executed_ = frame;
  if (snapshot_wire_ == nullptr) return;  // nobody ever joined yet
  if (frame == ring_.end()) {
    ring_.push_back(merged);
    feed_cache_.clear();  // existing windows may extend now
  }
  // frame < end: duplicate driver call, ignore. frame > end cannot happen
  // for a driver that reports every executed frame in order.
  trim_ring();
}

std::vector<SpectatorBroadcastHub::ObserverId> SpectatorBroadcastHub::remove_idle(
    Time now, Dur timeout) {
  std::vector<ObserverId> removed;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    Observer& o = observers_[i];
    if (!o.active || now - o.last_heard <= timeout) continue;
    o.active = false;
    --active_count_;
    ++stats_.observers_removed;
    ++stats_.observers_idle_removed;
    removed.push_back(static_cast<ObserverId>(i));
  }
  // One re-derivation after the batch: a dead cursor that was the slowest
  // reader no longer pins the trim watermark.
  if (!removed.empty()) trim_ring();
  return removed;
}

void SpectatorBroadcastHub::ingest(ObserverId id, const Message& msg, Time now) {
  if (id >= observers_.size() || !observers_[id].active) return;
  Observer& obs = observers_[id];
  obs.last_heard = now;  // any datagram proves the endpoint is alive
  if (const auto* join = std::get_if<JoinRequestMsg>(&msg)) {
    if (join->content_id != content_id_) return;  // wrong game, not ours
    ++stats_.join_requests_rcvd;
    // A fresh snapshot is needed when none exists (or idle trimming
    // retired it), or when this joiner would have to replay more than a
    // full backlog of feed to catch up from the shared one.
    const FrameNo behind = ring_.end() - snapshot_frame_ - 1;
    if (!snapshot_usable() ||
        (!obs.ack_ever && behind > static_cast<FrameNo>(max_backlog()))) {
      wants_snapshot_ = true;
    }
    return;
  }
  if (const auto* ack = std::get_if<FeedAckMsg>(&msg)) {
    ++stats_.acks_rcvd;
    if (obs.ack_ever && ack->frame <= obs.acked) return;
    // The first ack pins this observer to the feed path permanently: a
    // joined SpectatorClient ignores (but re-acks) every later snapshot,
    // so serving it one would never advance it.
    obs.ack_ever = true;
    obs.acked = std::max(obs.acked, ack->frame);
    trim_ring();
  }
}

void SpectatorBroadcastHub::trim_ring() {
  // Frames at or below every cursor's floor can never be served again. The
  // snapshot frame itself is a floor: never-acked observers and future
  // joiners replay from snapshot_frame_ + 1.
  constexpr FrameNo kInf = std::numeric_limits<FrameNo>::max();
  FrameNo floor = snapshot_usable() ? snapshot_frame_ : kInf;
  for (const Observer& o : observers_) {
    if (o.active && o.ack_ever) floor = std::min(floor, o.acked);
  }
  while (ring_.size() > 0 && ring_.base() <= floor) ring_.pop_front();

  // Bound what is kept only for future joiners: when the ring outgrows the
  // backlog cap and no active cursor pins it, retire the snapshot (the
  // next join triggers a fresh one) instead of holding an unbounded tail.
  if (ring_.size() > max_backlog()) {
    FrameNo ack_floor = kInf;
    for (const Observer& o : observers_) {
      if (!o.active) continue;
      ack_floor = std::min(ack_floor, o.ack_ever ? o.acked : snapshot_frame_);
    }
    FrameNo new_base = ring_.end() - static_cast<FrameNo>(max_backlog());
    if (ack_floor != kInf && ack_floor + 1 < new_base) new_base = ack_floor + 1;
    while (ring_.size() > 0 && ring_.base() < new_base) ring_.pop_front();
  }
}

void SpectatorBroadcastHub::provide_snapshot(FrameNo frame,
                                             std::span<const std::uint8_t> state) {
  auto buf = std::make_shared<std::vector<std::uint8_t>>();
  encode_snapshot_into(frame, state, *buf);
  ++stats_.snapshot_encodes;
  stats_.bytes_encoded += buf->size();
  const bool first = snapshot_wire_ == nullptr;
  snapshot_wire_ = Buffer(std::move(buf));
  snapshot_frame_ = frame;
  wants_snapshot_ = false;
  // First snapshot starts the shared ring; a refresh keeps it (acked
  // observers are still replaying out of it) unless recording lapsed.
  if (first || ring_.end() <= frame) ring_.clear(frame + 1);
  feed_cache_.clear();
  trim_ring();
}

SpectatorBroadcastHub::Buffer SpectatorBroadcastHub::make_message(ObserverId id,
                                                                  Time /*now*/) {
  if (id >= observers_.size() || !observers_[id].active) return nullptr;
  if (snapshot_wire_ == nullptr) return nullptr;
  Observer& obs = observers_[id];

  // Pre-ack observers get the shared snapshot. A cursor below the ring
  // base (possible only through a forged/rogue ack) is also re-seeded with
  // the snapshot: the client re-acks its real position and recovers.
  if (!obs.ack_ever || obs.acked + 1 < ring_.base()) {
    if (!snapshot_usable()) return nullptr;  // waiting for a fresh one
    ++stats_.snapshots_sent;
    stats_.bytes_sent += snapshot_wire_->size();
    return snapshot_wire_;
  }

  const FrameNo next = obs.acked + 1;
  if (next >= ring_.end()) return nullptr;  // caught up
  const auto count = std::min<std::size_t>(
      static_cast<std::size_t>(ring_.end() - next),
      static_cast<std::size_t>(cfg_.max_inputs_per_message));

  Buffer bytes;
  for (const FeedCacheEntry& e : feed_cache_) {
    if (e.first == next && e.count == count) {
      bytes = e.bytes;
      break;
    }
  }
  if (bytes == nullptr) {
    feed_inputs_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      feed_inputs_.push_back(ring_.at(next + static_cast<FrameNo>(i)));
    }
    auto encoded = idle_feed_buffer();
    encode_feed_into(next, feed_inputs_, *encoded);
    bytes = Buffer(std::move(encoded));
    feed_cache_.push_back(FeedCacheEntry{next, count, bytes});
    ++stats_.feed_encodes;
    stats_.bytes_encoded += bytes->size();
  }
  ++stats_.feed_messages_sent;
  stats_.inputs_fed += count;
  stats_.bytes_sent += bytes->size();
  return bytes;
}

std::shared_ptr<std::vector<std::uint8_t>> SpectatorBroadcastHub::idle_feed_buffer() {
  // A pooled buffer that no cache entry and no caller still holds is free
  // to re-encode, so a steady feed allocates nothing. The pool is capped:
  // a caller that keeps every buffer gets fresh ones past the cap.
  for (const auto& b : feed_buffers_) {
    if (b.use_count() == 1) return b;
  }
  auto b = std::make_shared<std::vector<std::uint8_t>>();
  if (feed_buffers_.size() < kMaxFeedBuffers) feed_buffers_.push_back(b);
  return b;
}

bool SpectatorBroadcastHub::all_caught_up() const {
  for (const Observer& o : observers_) {
    if (!o.active) continue;
    if (!o.ack_ever || o.acked < ring_.end() - 1) return false;
  }
  return true;
}

std::size_t SpectatorBroadcastHub::joined_count() const {
  std::size_t n = 0;
  for (const Observer& o : observers_) n += (o.active && o.ack_ever) ? 1 : 0;
  return n;
}

bool SpectatorBroadcastHub::observer_joined(ObserverId id) const {
  return id < observers_.size() && observers_[id].active && observers_[id].ack_ever;
}

FrameNo SpectatorBroadcastHub::acked_frame(ObserverId id) const {
  return id < observers_.size() ? observers_[id].acked : -2;
}

void SpectatorBroadcastHub::export_metrics(MetricsRegistry& reg) const {
  reg.counter("spectator.hub.join_requests_rcvd").set(stats_.join_requests_rcvd);
  reg.counter("spectator.hub.snapshots_sent").set(stats_.snapshots_sent);
  reg.counter("spectator.hub.feed_messages_sent").set(stats_.feed_messages_sent);
  reg.counter("spectator.hub.inputs_fed").set(stats_.inputs_fed);
  reg.counter("spectator.hub.acks_rcvd").set(stats_.acks_rcvd);
  reg.counter("spectator.hub.snapshot_encodes").set(stats_.snapshot_encodes);
  reg.counter("spectator.hub.feed_encodes").set(stats_.feed_encodes);
  reg.counter("spectator.hub.bytes_encoded").set(stats_.bytes_encoded);
  reg.counter("spectator.hub.bytes_sent").set(stats_.bytes_sent);
  reg.counter("spectator.hub.observers_added").set(stats_.observers_added);
  reg.counter("spectator.hub.observers_removed").set(stats_.observers_removed);
  reg.counter("spectator.hub.observers_idle_removed").set(stats_.observers_idle_removed);
  reg.gauge("spectator.hub.observers").set(static_cast<double>(active_count_));
  reg.gauge("spectator.hub.joined").set(static_cast<double>(joined_count()));
  reg.gauge("spectator.hub.backlog").set(static_cast<double>(ring_.size()));
  reg.gauge("spectator.hub.snapshot_frame").set(static_cast<double>(snapshot_frame_));
}

// ---- SpectatorClient ---------------------------------------------------------

std::optional<Message> SpectatorClient::make_message(Time now) {
  if (!joined_) {
    if (now < next_join_) return std::nullopt;
    next_join_ = now + milliseconds(50);
    ++stats_.join_requests_sent;
    // Built in place: moving a temporary Message into the optional makes
    // GCC's sanitize build report -Wmaybe-uninitialized on every alternative.
    return std::optional<Message>(std::in_place, std::in_place_type<JoinRequestMsg>,
                                  JoinRequestMsg{game_.content_id()});
  }
  if (ack_dirty_ || now >= next_keepalive_) {
    // Keepalive: a caught-up observer re-acks its position periodically so
    // the host's idle reaper (remove_idle) never mistakes "quiet because
    // caught up" for "gone".
    ack_dirty_ = false;
    next_keepalive_ = now + kKeepaliveInterval;
    ++stats_.acks_sent;
    return std::optional<Message>(std::in_place, std::in_place_type<FeedAckMsg>,
                                  FeedAckMsg{applied_frame_});
  }
  return std::nullopt;
}

void SpectatorClient::ingest(const Message& msg) {
  if (const auto* snap = std::get_if<SnapshotMsg>(&msg)) {
    ++stats_.snapshots_rcvd;
    if (joined_) {
      // Duplicate snapshot (our ack was lost): just re-ack.
      ack_dirty_ = true;
      return;
    }
    // The wire decoder already rejects pre-frame-0 snapshots; this guards
    // the in-process path too — an observer must never adopt state from
    // before the session's first frame.
    if (snap->frame < 0) return;
    if (!game_.load_state(snap->state)) return;  // corrupt — keep requesting
    joined_ = true;
    applied_frame_ = snap->frame;
    pending_base_ = snap->frame + 1;
    pending_.clear();
    ack_dirty_ = true;
    return;
  }
  if (const auto* feed = std::get_if<InputFeedMsg>(&msg)) {
    if (!joined_) return;  // retransmission will come after the snapshot
    ++stats_.feed_messages_rcvd;
    for (std::size_t i = 0; i < feed->inputs.size(); ++i) {
      const FrameNo f = feed->first_frame + static_cast<FrameNo>(i);
      const FrameNo idx = f - pending_base_;
      if (idx < 0) {
        ++stats_.stale_inputs_rcvd;
        ack_dirty_ = true;  // stale retransmission: re-ack so the host trims
        continue;
      }
      if (static_cast<std::size_t>(idx) >= pending_.size()) {
        pending_.resize(static_cast<std::size_t>(idx) + 1);
      }
      pending_[static_cast<std::size_t>(idx)] = feed->inputs[i];
    }
  }
}

bool SpectatorClient::step_one() {
  if (pending_.empty() || !pending_.front().has_value()) return false;
  game_.step_frame(*pending_.front());
  pending_.pop_front();
  ++pending_base_;
  ++applied_frame_;
  ack_dirty_ = true;
  return true;
}

int SpectatorClient::step_available() {
  int advanced = 0;
  while (step_one()) ++advanced;
  return advanced;
}

void SpectatorClient::export_metrics(MetricsRegistry& reg) const {
  reg.counter("spectator.client.join_requests_sent").set(stats_.join_requests_sent);
  reg.counter("spectator.client.snapshots_rcvd").set(stats_.snapshots_rcvd);
  reg.counter("spectator.client.feed_messages_rcvd").set(stats_.feed_messages_rcvd);
  reg.counter("spectator.client.stale_inputs_rcvd").set(stats_.stale_inputs_rcvd);
  reg.counter("spectator.client.acks_sent").set(stats_.acks_sent);
  reg.gauge("spectator.client.joined").set(joined_ ? 1 : 0);
  reg.gauge("spectator.client.applied_frame").set(static_cast<double>(applied_frame_));
  reg.gauge("spectator.client.pending").set(static_cast<double>(pending_.size()));
}

}  // namespace rtct::core
