// Two-site experiment harness — the paper's §4 testbed in virtual time.
//
// Physical setup being modelled: two gaming PCs bridged through a Netem
// box, plus a LAN time server recording each site's frame begin times.
// Here both sites run as coroutine processes on one discrete-event
// simulator; the "time server" is the (exact) global virtual clock.
//
// Each site is one core::FrameLoop — Algorithm 1, the same object
// RealtimeSession drives on the wall clock — plus the processes of the
// paper's threaded implementation (§4.2) that feed it:
//   * the frame loop  — steps the FrameLoop, waiting on the virtual clock
//                       (and charging frame_compute_time per frame);
//   * a sender        — flushes the loop's sync messages every
//                       send_flush_period (the 20 ms outbound buffering)
//                       after an extra send_dispatch_delay (the ~5 ms
//                       thread handoff);
//   * a receiver      — hands datagrams to the loop the moment they arrive.
// The N-site mesh harness (mesh_experiment.h) runs the same sites over N
// endpoints without a handshake.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/common/types.h"
#include "src/emu/game.h"
#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/core/pacer.h"
#include "src/core/replay.h"
#include "src/core/rollback.h"
#include "src/core/sync_peer.h"
#include "src/net/netem.h"

namespace rtct::testbed {

/// A testbed run's abort deadline: `watchdog` when set, else scaled from
/// the run length (both harnesses).
[[nodiscard]] inline Dur watchdog_deadline(Dur watchdog, int frames,
                                           const core::SyncConfig& sync) {
  return watchdog > 0 ? watchdog : seconds(10) + frames * sync.frame_period() * 5;
}

struct ExperimentConfig {
  /// Which bundled game both sites load, resolved through the core
  /// registry (cores::make_game): bare names mean AC16 ("duel" ==
  /// "ac16:duel"), qualified names select another core ("agent86:pong",
  /// "native:cellwars").
  std::string game = "duel";
  /// When set, overrides `game`: produces each site's replica. Any
  /// IDeterministicGame works — including native C++ games with no
  /// emulator underneath (see games::make_cellwars), which is the
  /// transparency claim made concrete.
  std::function<std::unique_ptr<emu::IDeterministicGame>()> game_factory;
  int frames = 3600;          ///< per the paper: one minute at 60 FPS

  core::SyncConfig sync;                   ///< BufFrame, flush period, ...
  core::PacingPolicy pacing[2] = {core::PacingPolicy::kFull, core::PacingPolicy::kFull};

  net::NetemConfig net_a_to_b;  ///< site0 -> site1 path
  net::NetemConfig net_b_to_a;  ///< site1 -> site0 path

  /// Boot-time offsets: the paper's "two sites cannot begin at exactly the
  /// same time" (§3.2). The handshake bounds the *start* skew regardless.
  Dur site_boot_delay[2] = {0, 0};

  /// Virtual CPU cost of Transition + render per frame (must be < 1/CFPS).
  Dur frame_compute_time = milliseconds(2);

  /// Seeds for the two synthetic players (MasherInput).
  std::uint64_t input_seed[2] = {101, 202};
  /// Frames a masher holds each random button byte.
  int input_hold_frames = 6;

  /// Network RNG seed.
  std::uint64_t net_seed = 1;

  /// Transport under the sync protocol: the paper's UDP (+ the protocol's
  /// own reliability) or the TCP-like in-order baseline of §3.1's
  /// discussion (bench/ablation_transport).
  enum class Transport { kUdp, kTcpLike };
  Transport transport = Transport::kUdp;
  /// TCP-like retransmission timeout; 0 = auto (2 × one-way delay + 20 ms).
  Dur tcp_rto = 0;

  /// Scheduled mid-run link reconfigurations (virtual time): model a path
  /// that degrades and recovers during the match. `dir` selects which
  /// direction(s) the new shape applies to (asymmetric-path flips set one
  /// direction at a time).
  struct NetEvent {
    Dur at = 0;
    net::NetemConfig config;
    enum class Dir { kBoth, kAToB, kBToA };
    Dir dir = Dir::kBoth;
  };
  std::vector<NetEvent> net_events;

  /// Scheduled site freezes (virtual time): the site's frame loop stops
  /// dead for `duration` at the first frame boundary at or after `at` — a
  /// GC pause, an OS preemption, a swapped-out peer. The site's sender and
  /// receiver processes keep running (the network threads survive a render
  /// hiccup); lockstep must absorb the stall and re-converge.
  struct StallEvent {
    Dur at = 0;
    Dur duration = 0;
    int site = 0;
  };
  std::vector<StallEvent> stall_events;

  /// Late-joining observers (journal-version extension): each observer
  /// connects to site 0 over its own link, requests a snapshot at its join
  /// time, and replays the input feed on its own replica.
  int observers = 0;
  /// When each observer boots and starts join-requesting.
  Dur observer_join_delay = milliseconds(800);
  /// Per-observer override of `observer_join_delay` (observer i uses entry
  /// i; missing entries fall back to the uniform value). A delay of 0
  /// joins during the session handshake — the deferred-snapshot gate must
  /// still never serve a pre-frame-0 snapshot.
  std::vector<Dur> observer_join_delays;
  /// Per-observer watch duration measured from its join delay: after this
  /// the observer leaves (stops requesting/acking mid-feed). 0 or missing
  /// = watches to the end. Models spectator churn.
  std::vector<Dur> observer_leave_after;
  /// Path between site 0 and each observer (symmetric).
  net::NetemConfig observer_net = net::NetemConfig::for_rtt(milliseconds(40));

  /// Abort a site that is still running at this virtual time (network/peer
  /// failure => Algorithm 2 freezes forever by design; the experiment must
  /// still terminate). Default: scaled from `frames`.
  Dur watchdog = 0;

  /// Convenience: symmetric path with the given RTT (each direction RTT/2).
  void set_rtt(Dur rtt) {
    net_a_to_b = net::NetemConfig::for_rtt(rtt);
    net_b_to_a = net::NetemConfig::for_rtt(rtt);
  }

  [[nodiscard]] Dur effective_watchdog() const {
    return watchdog_deadline(watchdog, frames, sync);
  }
};

struct SiteResult {
  core::FrameTimeline timeline;
  core::SyncPeerStats sync_stats;
  net::LinkStats tx_stats;      ///< this site's outgoing path counters
  /// Local-lag depth the session actually ran with (differs from the
  /// configured value when the v2 adaptive-lag negotiation picked one).
  int buf_frames = 0;
  FrameNo frames_completed = 0;
  bool aborted = false;         ///< watchdog fired (peer/network failure)
  bool session_failed = false;
  std::string failure_reason;
  /// Frame at which the in-protocol hash exchange flagged divergence
  /// (-1 = never; must always be -1 for a deterministic game).
  FrameNo desync_frame = -1;
  /// The site's screen after its last frame (fb_cols x fb_rows palette
  /// indices, via IRenderableGame) — lets callers *see* that both replicas
  /// rendered the same game. Empty when the game is not renderable.
  std::vector<std::uint8_t> final_framebuffer;
  int fb_cols = 0;  ///< framebuffer width (0 when not renderable)
  int fb_rows = 0;  ///< framebuffer height (0 when not renderable)
  /// Merged-input recording of the session as this site executed it
  /// (identical across sites; replayable via core::Replay::apply). Under
  /// rollback this holds only *confirmed* frames — the canonical history.
  core::Replay replay;
  /// True when the handshake settled on the rollback consistency mode.
  bool rollback_mode = false;
  /// Speculation counters (meaningful only when rollback_mode).
  core::RollbackStats rollback_stats;
};

struct ObserverResult {
  bool joined = false;
  bool left = false;            ///< stopped watching before the session ended
  FrameNo snapshot_frame = -1;  ///< session frame the snapshot was taken at
  FrameNo last_applied = -1;    ///< last session frame replayed
  /// (frame, state hash) for every replayed frame — comparable 1:1 with
  /// the playing sites' timelines.
  std::vector<std::pair<FrameNo, std::uint64_t>> hashes;
};

struct ExperimentResult {
  SiteResult site[2];
  std::vector<ObserverResult> observers;

  /// True when every observer joined, caught up to (nearly) the end of the
  /// session, and every replayed frame's hash matches site 0's. Observers
  /// that left mid-session (churn) are only held to hash consistency over
  /// the frames they did replay.
  [[nodiscard]] bool observers_consistent() const;

  /// Both sites ran to completion with converged state hashes.
  [[nodiscard]] bool converged() const;
  /// First diverged frame (-1 = never) — must be -1 in every experiment.
  [[nodiscard]] FrameNo first_divergence() const;

  // Paper metrics.
  /// Figure 1, left axis: average frame time of a site, ms.
  [[nodiscard]] double avg_frame_time_ms(int site_idx) const;
  /// Figure 1, right axis: average absolute deviation of frame times, ms.
  [[nodiscard]] double frame_time_deviation_ms(int site_idx) const;
  /// Figure 2: absolute average of per-frame inter-site differences, ms.
  [[nodiscard]] double synchrony_ms() const;
};

/// Runs one complete two-site experiment. Deterministic for a given config.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace rtct::testbed
