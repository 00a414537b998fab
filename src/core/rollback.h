// RollbackSession — speculative execution with rollback, the second
// consistency mode next to the paper's local-lag lockstep.
//
// The paper's Algorithm 2 stalls whenever a remote input is late: frame F
// cannot execute until both partial inputs for F have arrived, so every
// network hiccup becomes a frame-time spike ("Lock-step simulation is
// child's play" documents exactly this failure mode). Rollback decouples
// the frame clock from the network:
//
//   * the local input is delayed only `rollback_input_delay` frames — a
//     small fixed perceived latency, independent of RTT;
//   * the remote input for a not-yet-received frame is *predicted* by
//     holding its last known value (arcade inputs are runs of identical
//     words, so hold-last is right most of the time);
//   * every executed frame's machine state is snapshotted into a fixed
//     ring (save_state_into reuses each slot's buffer, no allocation in
//     steady state; traced at ~3 µs per 64 KiB agent86 snapshot);
//   * when an actual remote input arrives and disagrees with what was
//     used, the session restores the snapshot *before* the first
//     mispredicted frame and re-simulates forward with the corrected
//     inputs (using actuals where known, hold-last elsewhere).
//
// A frame becomes *confirmed* once it has executed with the actual remote
// input; confirmed frames are final — their merged inputs and v3 digests
// are the session's canonical history (what replays record, spectators
// see, and the desync tripwire compares). Speculation depth is bounded by
// the ring: execution may run at most `rollback_window - 2` frames past
// the confirmed watermark, which keeps the restore target resident.
//
// Transport: RollbackSession owns none. It borrows the driver's SyncPeer
// — the same Algorithm-2 state machine lockstep uses, so the SYNC traffic
// (cumulative acks, go-back-N or adaptive resend, RTT probe, hash
// tripwire) is byte-for-byte the same protocol. Local input goes in
// through submit_local (the input delay is the peer's lag), arrived remote
// inputs are read through remote_input(), each frame is popped once it is
// confirmed, and confirmed digests feed note_state_hash. Only the
// *consumption policy* differs, which is why the mode can be negotiated
// per session (HELLO capability bit + START flag, see kFlagRollback) with
// no wire change.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/sync_peer.h"
#include "src/emu/game.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

/// Rollback-specific counters (the transport counters live in the peer's
/// SyncPeerStats; these measure the speculation machinery itself).
struct RollbackStats {
  std::uint64_t frames_executed = 0;     ///< first-time speculative executions
  std::uint64_t frames_resimulated = 0;  ///< re-executions after a rollback
  std::uint64_t rollbacks = 0;           ///< restore events
  std::uint64_t predicted_frames = 0;    ///< executed with a predicted remote input
  std::uint64_t mispredicted_frames = 0; ///< prediction later proved wrong
  int max_rollback_depth = 0;            ///< deepest single restore, in frames
};

class RollbackSession {
 public:
  /// `cfg` must be the *effective* session config: the driver constructs
  /// this after the handshake, with `rollback_input_delay` set to
  /// SessionControl::rollback_delay(). `peer` must still be in its
  /// constructed state (SyncPeer::set_buf_frames adopts the input delay as
  /// its lag) and must outlive this session. Captures the game's current
  /// state as the pre-frame-0 restore point, so construct before executing
  /// any frame.
  RollbackSession(SyncPeer& peer, emu::IDeterministicGame& game, SyncConfig cfg);

  /// False when speculation has reached the ring bound (executing one more
  /// frame would evict the restore target); the driver must then drain the
  /// network and reconcile() until the confirmed watermark advances.
  [[nodiscard]] bool can_advance() const {
    return executed_ - confirmed_ < static_cast<FrameNo>(window_) - 1;
  }

  /// One frame of Algorithm-1 work under rollback: submits the local
  /// input for frame `current_frame() + delay` to the peer, reconciles any
  /// newly arrived remote inputs (rolling back if a prediction proved
  /// wrong), then executes the next frame speculatively and snapshots it.
  /// Returns the frame's speculative digest. Pre: can_advance().
  std::uint64_t advance_frame(InputWord local_input);

  /// Applies newly arrived remote inputs without executing a new frame:
  /// verifies predictions, rolls back and re-simulates on the first
  /// mismatch, and advances the confirmed watermark. FrameLoop calls it
  /// after a network wait (advance_frame also calls it).
  void reconcile();

  // ---- progress ----------------------------------------------------------
  /// Next frame to execute (== frames executed so far, speculative ones
  /// included).
  [[nodiscard]] FrameNo current_frame() const { return executed_; }
  /// Frames confirmed final: [0, confirmed_frames()).
  [[nodiscard]] FrameNo confirmed_frames() const { return confirmed_; }
  /// Canonical digest / merged input of a confirmed frame.
  [[nodiscard]] std::uint64_t confirmed_digest(FrameNo f) const {
    return confirmed_digests_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] InputWord confirmed_input(FrameNo f) const {
    return confirmed_inputs_[static_cast<std::size_t>(f)];
  }
  /// Machine state after the newest confirmed frame. Late-joining
  /// spectators must be seeded from this — the live machine state is
  /// speculative and may yet be rolled back. Pre: confirmed_frames() > 0.
  /// (The slot is always resident: can_advance() caps speculation at
  /// window - 2 frames past the watermark.)
  [[nodiscard]] std::span<const std::uint8_t> confirmed_state() const {
    return slot(confirmed_ - 1).state;
  }

  // ---- observability ------------------------------------------------------
  [[nodiscard]] int input_delay() const { return delay_; }
  [[nodiscard]] const RollbackStats& rollback_stats() const { return rstats_; }
  /// Exports the speculation counters ("rollback.*"; the peer exports
  /// "sync.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  struct Slot {
    FrameNo frame = -1;
    std::vector<std::uint8_t> state;  ///< machine state after `frame`
    std::uint64_t digest = 0;
    InputWord merged = 0;       ///< full input word the frame executed with
    InputWord remote_used = 0;  ///< the remote partials inside `merged`
    bool remote_actual = false; ///< remote_used is the real input, not a guess
  };

  Slot& slot(FrameNo f) { return ring_[static_cast<std::size_t>(f % window_)]; }
  [[nodiscard]] const Slot& slot(FrameNo f) const {
    return ring_[static_cast<std::size_t>(f % window_)];
  }
  /// Hold-last prediction: whatever we believe frame f-1's remote input
  /// was (actual when known, the previous prediction otherwise — the
  /// chain bottoms out at the last confirmed value / the all-zero init).
  [[nodiscard]] InputWord predicted_remote(FrameNo f) const {
    return f == 0 ? InputWord{0} : slot(f - 1).remote_used;
  }

  void execute_frame(FrameNo f);            ///< step + snapshot into slot(f)
  void rollback_and_resim(FrameNo from);    ///< restore before `from`, re-run
  void restore_state_after(FrameNo f);      ///< f == -1 restores genesis
  void advance_confirmed();                 ///< promote actual-input frames

  SyncPeer& peer_;
  emu::IDeterministicGame& game_;
  SyncConfig cfg_;
  int delay_;    ///< local input delay in frames
  int window_;   ///< snapshot ring capacity

  std::vector<Slot> ring_;
  std::vector<std::uint8_t> genesis_;  ///< state before frame 0

  FrameNo executed_ = 0;   ///< next frame to execute
  FrameNo confirmed_ = 0;  ///< next frame to confirm

  // Canonical history: the confirmed frames' digests and merged inputs.
  std::vector<std::uint64_t> confirmed_digests_;
  std::vector<InputWord> confirmed_inputs_;

  RollbackStats rstats_;
};

}  // namespace rtct::core
