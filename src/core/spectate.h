// Spectator / late-join support — the journal-version extension the ICDCS
// paper defers in §6 ("how to support ... observers, how to accommodate
// late comers").
//
// Protocol: an observer sends JoinRequest (repeatedly, over the same
// lossy-datagram substrate as everything else). The host answers with a
// full machine snapshot taken at some frame F, then streams the merged
// input of every frame it executes after F as a go-back-N InputFeed
// window; the observer acks cumulatively. Because the game VM is
// deterministic, replaying the feed from the snapshot reproduces the
// session bit-exactly — the observer's replica is provably identical
// (state hashes), merely delayed by its own path latency.
//
// Both classes are sans-IO, in the same style as SyncPeer: the embedding
// driver moves Messages between them and supplies snapshots/time.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/wire.h"
#include "src/emu/game.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

/// Feed-protocol counters, observer side.
struct SpectatorClientStats {
  std::uint64_t join_requests_sent = 0;
  std::uint64_t snapshots_rcvd = 0;
  std::uint64_t feed_messages_rcvd = 0;
  std::uint64_t stale_inputs_rcvd = 0;  ///< entries at/below applied_frame
  std::uint64_t acks_sent = 0;
};

/// Feed-protocol counters, hub side. The bytes_encoded / bytes_sent pair is
/// the fan-out amortization measure: encode work is paid once per distinct
/// payload, send bytes once per observer, so bytes_sent / bytes_encoded ≈
/// observer count when cursors agree (see bench/spectator_scaling).
struct SpectatorHubStats {
  std::uint64_t join_requests_rcvd = 0;
  std::uint64_t snapshots_sent = 0;
  std::uint64_t feed_messages_sent = 0;
  std::uint64_t inputs_fed = 0;
  std::uint64_t acks_rcvd = 0;
  std::uint64_t snapshot_encodes = 0;  ///< snapshots actually serialized
  std::uint64_t feed_encodes = 0;      ///< feed windows actually serialized
  std::uint64_t bytes_encoded = 0;     ///< bytes produced by encode work
  std::uint64_t bytes_sent = 0;        ///< bytes handed out across observers
  std::uint64_t observers_added = 0;
  std::uint64_t observers_removed = 0;
  std::uint64_t observers_idle_removed = 0;  ///< subset removed by remove_idle
};

/// Multi-observer broadcast hub, the host side of the feed protocol; it
/// runs beside a playing site (typically the master). All observers share
/// ONE backlog ring of
/// merged inputs and ONE wire-encoded snapshot; each observer is just a
/// cumulative-ack cursor into the shared ring. Every outbound payload
/// (snapshot or feed window) is encoded exactly once and handed out as a
/// shared immutable buffer, so serving N observers costs N sends but O(1)
/// snapshot copies and O(distinct cursors) encodes per flush — per-client
/// fan-out cost is what lock-step broadcast lives or dies by.
///
/// An observer that has ever acked is served exclusively from the feed
/// ring — never a (newer) snapshot, which a joined client would
/// ignore-but-ack forever — so the ring is trimmed to
/// min(snapshot frame, every acked cursor).
class SpectatorBroadcastHub {
 public:
  using ObserverId = std::uint32_t;
  /// Encoded-datagram handle: immutable, shared across observers.
  using Buffer = std::shared_ptr<const std::vector<std::uint8_t>>;

  SpectatorBroadcastHub(std::uint64_t content_id, SyncConfig cfg)
      : content_id_(content_id), cfg_(cfg) {}

  /// Registers a new observer endpoint (driver maps transport address →
  /// id). Ids are never reused, so a late datagram from a removed
  /// observer cannot be misattributed. `now` seeds the liveness clock used
  /// by remove_idle().
  ObserverId add_observer(Time now = 0);
  void remove_observer(ObserverId id);

  /// Removes every active observer not heard from within `timeout` and
  /// returns their ids (the driver drops its address mapping). This is the
  /// slowest-reader unpin: a disconnected observer's stale cursor would
  /// otherwise hold the trim watermark forever, growing the ring without
  /// bound and keeping all_caught_up() false. Safe against false positives
  /// because SpectatorClient keepalive-acks even when idle — a wrongly
  /// removed live observer re-registers on its next datagram and is
  /// re-seeded from the snapshot/feed path.
  std::vector<ObserverId> remove_idle(Time now, Dur timeout);

  /// Driver calls this after every Transition with the frame just
  /// executed (0-based) and its merged input word.
  void on_frame(FrameNo frame, InputWord merged);

  /// Feeds a received observer message (JoinRequest / FeedAck). `now`
  /// refreshes the observer's liveness clock (see remove_idle).
  void ingest(ObserverId id, const Message& msg, Time now = 0);

  /// True when the driver must supply a machine snapshot via
  /// provide_snapshot() (first join, or a joiner found the shared snapshot
  /// too stale to catch up from).
  [[nodiscard]] bool wants_snapshot() const { return wants_snapshot_; }

  /// `frame` is the last executed frame; `state` the machine state at that
  /// point. Encoded to wire bytes once, served to every pre-ack observer.
  void provide_snapshot(FrameNo frame, std::span<const std::uint8_t> state);

  /// Next outbound datagram for this observer, already wire-encoded:
  /// the shared snapshot until the observer's first ack, then its unacked
  /// feed window. nullptr = nothing to send. Observers at the same cursor
  /// receive the very same buffer.
  Buffer make_message(ObserverId id, Time now);

  [[nodiscard]] std::size_t observer_count() const { return active_count_; }
  /// Observers that have acked something (loaded a snapshot, replaying).
  [[nodiscard]] std::size_t joined_count() const;
  [[nodiscard]] std::size_t backlog_size() const { return ring_.size(); }
  /// True when every active observer has acked everything recorded —
  /// the drivers' post-game drain-loop exit condition.
  [[nodiscard]] bool all_caught_up() const;
  [[nodiscard]] bool observer_joined(ObserverId id) const;
  /// Whether the id still names a live cursor (false after remove_observer
  /// / remove_idle — the driver should re-register the endpoint).
  [[nodiscard]] bool observer_active(ObserverId id) const {
    return id < observers_.size() && observers_[id].active;
  }
  [[nodiscard]] FrameNo acked_frame(ObserverId id) const;
  [[nodiscard]] const SpectatorHubStats& stats() const { return stats_; }

  /// Snapshots hub state into the registry ("spectator.hub.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  /// Growable ring of merged inputs for frames [base, base + size).
  class InputRing {
   public:
    [[nodiscard]] FrameNo base() const { return base_; }
    [[nodiscard]] FrameNo end() const { return base_ + static_cast<FrameNo>(count_); }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] InputWord at(FrameNo f) const {
      return buf_[(head_ + static_cast<std::size_t>(f - base_)) & (buf_.size() - 1)];
    }
    void clear(FrameNo new_base);
    void push_back(InputWord w);
    void pop_front();

   private:
    std::vector<InputWord> buf_;  ///< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    FrameNo base_ = 0;
  };

  struct Observer {
    bool active = false;
    bool ack_ever = false;   ///< has acked at least once — feed-only from then on
    FrameNo acked = -2;      ///< cumulative ack cursor
    Time last_heard = 0;     ///< liveness clock for remove_idle()
  };

  struct FeedCacheEntry {
    FrameNo first = 0;
    std::size_t count = 0;
    Buffer bytes;
  };

  [[nodiscard]] bool snapshot_usable() const {
    return snapshot_wire_ != nullptr && snapshot_frame_ + 1 >= ring_.base();
  }
  [[nodiscard]] std::size_t max_backlog() const;
  void trim_ring();
  /// A buffer to encode the next feed window into (see feed_buffers_).
  std::shared_ptr<std::vector<std::uint8_t>> idle_feed_buffer();

  std::uint64_t content_id_;
  SyncConfig cfg_;

  bool wants_snapshot_ = false;
  FrameNo snapshot_frame_ = -1;
  Buffer snapshot_wire_;  ///< encoded once, shared by every resend

  InputRing ring_;
  FrameNo last_executed_ = -1;
  std::vector<Observer> observers_;
  std::size_t active_count_ = 0;

  std::vector<FeedCacheEntry> feed_cache_;  ///< valid until the ring mutates
  std::vector<InputWord> feed_inputs_;      ///< reused gather buffer for encodes
  /// Encoded feed windows, re-encoded in place once no one holds them.
  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> feed_buffers_;
  static constexpr std::size_t kMaxFeedBuffers = 8;
  SpectatorHubStats stats_;
};

/// The observing side: owns (a reference to) its own replica machine.
class SpectatorClient {
 public:
  /// `game` must be a fresh machine of the same ROM as the host's.
  SpectatorClient(emu::IDeterministicGame& game, SyncConfig cfg)
      : game_(game), cfg_(cfg) {}

  /// Next outbound message: JoinRequest until the snapshot lands, then
  /// cumulative acks whenever progress was made — and, once joined, a
  /// keepalive re-ack every kKeepaliveInterval even without progress, so a
  /// caught-up observer stays visibly alive to the host's idle reaper
  /// (SpectatorBroadcastHub::remove_idle).
  std::optional<Message> make_message(Time now);

  /// How often a joined-but-idle client re-acks. Must be comfortably
  /// shorter than any host-side idle timeout.
  static constexpr Dur kKeepaliveInterval = milliseconds(500);

  /// Feeds a received host message (Snapshot / InputFeed).
  void ingest(const Message& msg);

  /// Applies the next input to the replica if it is available. Returns
  /// true when a frame was advanced (callers wanting per-frame hooks —
  /// rendering, hash recording — loop on this).
  bool step_one();

  /// Applies every contiguously-available input to the replica. Returns
  /// the number of frames advanced. The caller decides pacing (a UI would
  /// rate-limit to CFPS; tests drain greedily).
  int step_available();

  [[nodiscard]] bool joined() const { return joined_; }
  /// Last frame applied to the replica (-1 before the snapshot loads).
  [[nodiscard]] FrameNo applied_frame() const { return applied_frame_; }
  [[nodiscard]] const SpectatorClientStats& stats() const { return stats_; }

  /// Snapshots replay state into the registry ("spectator.client.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  emu::IDeterministicGame& game_;
  SyncConfig cfg_;

  bool joined_ = false;
  bool ack_dirty_ = false;
  Time next_join_ = 0;
  Time next_keepalive_ = 0;
  FrameNo applied_frame_ = -1;
  FrameNo pending_base_ = 0;
  std::deque<std::optional<InputWord>> pending_;  ///< inputs after applied_frame_
  SpectatorClientStats stats_;
};

}  // namespace rtct::core
