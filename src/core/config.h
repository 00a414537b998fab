// Tunables of the synchronization layer, with the paper's values as
// defaults (§3–§4.2).
#pragma once

#include "src/common/time.h"

namespace rtct::core {

struct SyncConfig {
  /// CFPS — frames the game is expected to deliver per second (§3.2,
  /// "game-specific but normally 60").
  int cfps = 60;

  /// BufFrame — the local-lag value in frames (§3, Algorithm 2). 6 frames
  /// at 60 FPS ≈ the recommended 100 ms local lag.
  int buf_frames = 6;

  /// Outbound messages are buffered and flushed on this period; the paper
  /// sends "one message every 20ms", costing 10 ms average (20 ms worst)
  /// extra input latency (§4.2).
  Dur send_flush_period = milliseconds(20);

  /// Mean extra delay between a flush firing and bytes hitting the wire,
  /// modelling the paper's producer/consumer thread handoff ("assuming the
  /// thread time slice is 10ms, there is a 5ms average delay", §4.2).
  Dur send_dispatch_delay = milliseconds(5);

  /// Cap on input entries per sync message. Bounds datagram size during
  /// long loss bursts (go-back-N resend window).
  int max_inputs_per_message = 128;

  /// Smoothing of Algorithm 4's slave correction. The paper's pseudocode
  /// applies the raw SyncAdjustTimeDelta every frame, but the estimate of
  /// the master's progress jitters with the send-batching phase (±10 ms
  /// for a 20 ms flush period); applied raw, that jitter would show up
  /// directly as slave frame-time deviation — contradicting the paper's
  /// own Figure 1 (deviation ≈ 0 below 90 ms RTT), so their implementation
  /// necessarily smooths too ("the slave site can smooth out the deviation
  /// within only a few frames", §3.2). We fold in a fraction per frame
  /// (geometric convergence) and ignore corrections inside a deadband.
  /// Set gain=1, deadband=0 to run the literal pseudocode.
  double rate_sync_gain = 0.15;
  Dur rate_sync_deadband = milliseconds(4);

  /// Attach the local state hash to outgoing sync messages every N frames
  /// (0 disables). Desync detection: the paper *assumes* VM determinism
  /// (§3); exchanging hashes verifies it continuously at ~16 bytes per
  /// interval of bandwidth.
  int hash_interval = 60;

  /// Embed a full save-state keyframe into the session recording every N
  /// frames (0 disables, producing the linear RTCTRPL1 container). Purely
  /// local — never negotiated, never on the wire; it only sizes the
  /// seek/bisect granularity of the RTCTRPL2 replay file this site writes
  /// (~33 KiB per keyframe for the AC16 machine, so 600 ≈ 3.3 KiB/s of
  /// recording overhead at 60 FPS).
  int replay_keyframe_interval = 600;

  // ---- rollback consistency mode (off by default: lockstep is the
  // paper's algorithm and the reference policy) ----------------------------

  /// Opt into speculative execution with rollback instead of local-lag
  /// lockstep. Negotiated in the v3 handshake (HELLO capability bit +
  /// START flag): the session runs rollback iff *both* sites opt in,
  /// otherwise it degrades cleanly to lockstep. Under rollback the site
  /// delays its own input by `rollback_input_delay` frames (not
  /// `buf_frames`), predicts the remote input by holding its last known
  /// value, executes speculatively, and on misprediction restores the
  /// state before the first mispredicted frame and re-simulates.
  bool rollback = false;
  /// Local input delay in frames under rollback — the perceived input
  /// latency, fixed and independent of RTT (that is the whole point).
  int rollback_input_delay = 2;
  /// Bounds how far execution may run ahead of the confirmed watermark
  /// (speculation depth <= window - 2). It does not size the snapshots:
  /// only frames executed with a predicted input save the state before
  /// them, into a pool of at most executed - confirmed + 1 buffers.
  int rollback_window = 32;

  // ---- adaptive sync transport (all off by default: the paper's fixed-
  // parameter behaviour is the reference policy and the Figure 1/2
  // reproductions depend on it) -------------------------------------------

  /// RTT-negotiated local lag: during the v2 handshake the sites exchange
  /// measured RTT and the master picks BufFrame =
  /// ceil(RTT/2 / frame_period) + adaptive_lag_margin, clamped to
  /// [min_buf_frames, max_buf_frames], announced in START. Requires both
  /// sites to opt in; otherwise the fixed `buf_frames` must match exactly.
  bool adaptive_lag = false;
  int adaptive_lag_margin = 2;
  int min_buf_frames = 2;
  int max_buf_frames = 30;

  /// RTO-driven retransmission instead of the paper's blind go-back-N
  /// (which re-sends the whole unacked window every flush): messages carry
  /// only new inputs plus a `redundant_inputs` tail, and the full window is
  /// resent only when the per-peer retransmission timer (SRTT + 4·RTTVAR,
  /// exponential backoff) fires.
  bool adaptive_resend = false;
  /// K: how many already-sent-but-unacked inputs each message re-carries
  /// even when the retransmit timer has not fired, so a single lost
  /// datagram is usually repaired by the next flush instead of a full RTO.
  int redundant_inputs = 0;
  /// Retransmission timeout before any RTT sample exists.
  Dur initial_rto = milliseconds(100);
  /// Clamp on the estimator-derived RTO (before backoff).
  Dur min_rto = milliseconds(10);
  Dur max_rto = seconds(2);

  [[nodiscard]] Dur frame_period() const { return rtct::frame_period(cfps); }
  /// The local-lag duration: how long a player waits to see her own input.
  [[nodiscard]] Dur local_lag() const { return buf_frames * frame_period(); }

  /// The adaptive-lag policy: BufFrame sized to cover one-way delay plus a
  /// margin for the flush/dispatch overheads (§4.2's budget arithmetic).
  [[nodiscard]] int buf_frames_for_rtt(Dur rtt) const {
    const Dur tpf = frame_period();
    const Dur one_way = rtt < 0 ? 0 : rtt / 2;
    const auto needed = static_cast<int>((one_way + tpf - 1) / tpf) + adaptive_lag_margin;
    return needed < min_buf_frames ? min_buf_frames
           : needed > max_buf_frames ? max_buf_frames
                                     : needed;
  }
};

/// Wire protocol version (checked in the session handshake). v2 added the
/// RTT advert / adaptive-lag negotiation fields to HELLO and START; v3
/// added the START flags byte; v4 compares only version-3 state digests,
/// so there is no digest version left to negotiate. Older peers are
/// rejected: a v3 peer may compare version-2 digests.
inline constexpr std::uint32_t kProtocolVersion = 4;

}  // namespace rtct::core
