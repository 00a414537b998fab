// FrameLoop — the paper's Algorithm 1 for one site, as a sans-IO state
// machine. Every driver runs this one loop: RealtimeSession on the wall
// clock over a socket, and the virtual-time testbed (two sites with a
// handshake, or an N-site mesh without one) on coroutines.
//
// Per frame it runs Algorithm 1's steps in order:
//
//   BeginFrameTiming (Algorithm 4) → sample the local input → SyncInput
//   (Algorithm 2: submit, then wait until ready) → Transition → digest →
//   record (replay, spectator feed, hash tripwire) → EndFrameTiming
//   (Algorithm 3) → sleep out the remainder (note_wake)
//
// and after the last frame one post-game phase: under rollback, a
// confirmation drain until every executed frame is confirmed (then the
// timeline's speculative digests are replaced by the confirmed ones); in
// both modes, a lame duck that keeps the site flushing until every peer
// has acked every input it will execute (and has been sent our acks of
// its last inputs), so a burst of loss on the last frames cannot strand
// a peer.
//
// Lockstep vs rollback is the consumption policy inside SyncInput: wait
// for peer.ready() and pop, or wait for rollback.can_advance() and
// speculate (decided by the handshake, see SessionControl). Two-site vs
// mesh is the site count; a mesh has no handshake (skip_handshake()).
//
// The loop performs no IO and reads no clock. step(now) advances as far
// as it can at `now` and says what it is waiting for: the network (no
// local deadline — the driver bounds the wait and decides when to give
// up), a sleep until a time, done, or failed. Datagrams go in through
// on_datagram() and out through session_datagram()/sync_datagram(),
// whenever the driver's flush schedule says so. step() also returns at
// every frame boundary (a sleep that has already elapsed, phase
// kFrameStart) and right after each Transition (phase kCompute), so a
// driver can inject a host stall before a frame, or render / charge the
// frame's modelled CPU cost, without the loop knowing about either.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/input_source.h"
#include "src/core/metrics.h"
#include "src/core/pacer.h"
#include "src/core/replay.h"
#include "src/core/rollback.h"
#include "src/core/session.h"
#include "src/core/spectate.h"
#include "src/core/sync_peer.h"
#include "src/emu/game.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

/// What a FrameLoop waits for before the next step().
struct LoopWait {
  enum class Kind {
    kNetwork,  ///< blocked until a datagram changes something
    kSleep,    ///< resume at `until` (already elapsed at frame boundaries)
    kDone,
    kFailed,   ///< the handshake failed (SessionControl::failure_reason)
  };
  Kind kind = Kind::kDone;
  Time until = 0;  ///< kSleep only
};

class FrameLoop {
 public:
  enum class Phase {
    kHandshake,   ///< waiting for SessionControl to reach kRunning
    kFrameStart,  ///< between frames: the next step() begins frame()
    kSync,        ///< SyncInput: waiting for ready() / can_advance()
    kCompute,     ///< frame() executed; the next step() ends it
    kPace,        ///< sleeping out the pacer's remainder
    kConfirm,     ///< post-game (rollback): confirming the tail
    kLameDuck,    ///< post-game: until every peer holds our inputs
  };

  /// `frames` frames of `game` at site `site` of `num_sites`, each frame's
  /// local input read once from `input`. `cfg` is this site's configured
  /// sync policy (the handshake may renegotiate lag, digest and mode).
  FrameLoop(SiteId site, int num_sites, emu::IDeterministicGame& game, InputSource& input,
            const SyncConfig& cfg, PacingPolicy pacing, int frames);
  // The RollbackSession borrows peer_: the loop stays where it was built.
  FrameLoop(const FrameLoop&) = delete;
  FrameLoop& operator=(const FrameLoop&) = delete;

  /// Starts without a handshake: every site shares the configuration by
  /// construction (the mesh testbed), so lockstep itself is the rendezvous.
  void skip_handshake();

  /// Advances as far as possible at `now`; see the header comment.
  LoopWait step(Time now);

  // ---- datagrams ----------------------------------------------------------
  /// Decodes and dispatches one received datagram: sync traffic to the
  /// peer (dropped until the handshake settled — reliability re-delivers
  /// it), session traffic to SessionControl. Malformed datagrams are
  /// dropped.
  void on_datagram(std::span<const std::uint8_t> payload, Time now);
  /// The handshake message to send now, if any (HELLO while connecting,
  /// START when the master must answer). Encoded into a reused buffer
  /// valid until the next call.
  std::optional<std::span<const std::uint8_t>> session_datagram(Time now);
  /// The sync message for `peer` on this flush tick, if it needs one.
  std::optional<std::span<const std::uint8_t>> sync_datagram(SiteId peer, Time now);
  /// Serves a pending spectator snapshot request: the live state between
  /// Transitions in lockstep, the newest confirmed state under rollback
  /// (never a pre-frame-0 state).
  void offer_spectator_snapshot();

  // ---- observability ------------------------------------------------------
  [[nodiscard]] Phase phase() const { return phase_; }
  /// When the current phase (the current frame's SyncInput wait, for
  /// kSync) began: drivers measure their give-up timeouts from here.
  [[nodiscard]] Time phase_since() const { return phase_since_; }
  /// The frame in progress (kCompute: the one that just executed).
  [[nodiscard]] const FrameRecord& record() const { return rec_; }
  [[nodiscard]] const FrameTimeline& timeline() const { return timeline_; }
  [[nodiscard]] const SyncPeer& peer() const { return peer_; }
  [[nodiscard]] const SessionControl& session() const { return session_; }
  /// Non-null iff the handshake settled on rollback.
  [[nodiscard]] const RollbackSession* rollback() const { return rollback_.get(); }
  [[nodiscard]] const Replay& replay() const { return replay_; }
  [[nodiscard]] Replay& replay() { return replay_; }
  [[nodiscard]] SpectatorBroadcastHub& spectators() { return spectators_; }
  [[nodiscard]] const SpectatorBroadcastHub& spectators() const { return spectators_; }

  /// Exports the peer, rollback, pacer, session, timeline and spectator
  /// hub state ("sync.*", "rollback.*", "pacer.*", "session.*",
  /// "timeline.*", "spectator.hub.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  [[nodiscard]] bool started() const { return !handshake_ || session_.running(); }
  /// Adopts the handshake's outcome before the first sync ingest, flush or
  /// frame: the negotiated lag, digest version and consistency mode.
  /// Idempotent.
  void adopt_session();
  void begin_frame(Time now);
  /// SyncInput's exit test; false while the consumption policy must wait.
  bool sync_ready();
  void execute();
  /// Rollback: feeds newly confirmed frames to the replay and the
  /// spectator hub (only confirmed frames are canonical).
  void record_confirmed();
  /// Post-game exit test: every peer holds every input it executes.
  [[nodiscard]] bool tail_settled() const;
  /// The phase after the handshake or a paced frame: the next frame, or
  /// the post-game phase once every frame has run.
  [[nodiscard]] Phase next_phase() const;
  /// Switches phase at `now`; a frame boundary returns to the driver, a
  /// post-game phase runs at once.
  LoopWait enter(Phase phase, Time now);

  SiteId site_;
  int num_sites_;
  emu::IDeterministicGame& game_;
  InputSource& input_;
  SyncConfig cfg_;
  int frames_;
  bool handshake_ = true;
  bool adopted_ = false;
  int digest_version_;

  SyncPeer peer_;
  FramePacer pacer_;
  SessionControl session_;
  std::unique_ptr<RollbackSession> rollback_;  ///< borrows peer_
  Replay replay_;
  SpectatorBroadcastHub spectators_;
  FrameTimeline timeline_;

  Phase phase_ = Phase::kHandshake;
  Time phase_since_ = -1;
  FrameNo frame_ = 0;
  FrameRecord rec_;
  InputWord local_ = 0;    ///< this frame's packed local input
  bool waited_ = false;    ///< a network wait ended since the last SyncInput test
  Time resume_at_ = 0;     ///< end of the pacer's sleep
  FrameNo recorded_ = 0;   ///< rollback: confirmed frames fed to replay/spectators

  // Reused buffers (no per-frame allocation).
  std::vector<std::uint8_t> wire_scratch_;
  std::vector<std::uint8_t> snapshot_scratch_;
};

}  // namespace rtct::core
