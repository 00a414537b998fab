// FramePacer — the real-time-consistency algorithms (paper Algorithms 3
// and 4, BeginFrameTiming / EndFrameTiming).
//
// Two mechanisms compose:
//
//  * Lag compensation (Algorithm 3): a frame that overran its 1/CFPS slot
//    (because SyncInput stalled on the network) leaves a *negative*
//    AdjustTimeDelta that shortens the following frames until the schedule
//    is caught up; an on-time frame waits out its remainder. On the wall
//    clock the wait itself can end late (timer slack, scheduling), and
//    note_wake() carries that lateness forward the same way.
//
//  * Master/slave rate sync (Algorithm 4): only a slave estimates the
//    master's current frame — from the freshest MasterFrame, its arrival
//    time, and RTT/2 — and folds the frame difference into
//    AdjustTimeDelta. Whichever site started earlier, the *slave* absorbs
//    the skew; without this, the earlier site oscillates (shown by
//    bench/ablation_pacing). The SyncPeer decides both "who is a slave"
//    and "which lag to subtract": its RemoteObs is valid only on slaves
//    and carries MasterFrame with its own lag already removed, so the
//    pacer needs neither the site id nor BufFrame.
#pragma once

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/sync_peer.h"

namespace rtct::core {

/// Ablation switch for bench/ablation_pacing (§3.2's design discussion):
///   kFull           — Algorithms 3 + 4 (the paper's system)
///   kCompensateOnly — Algorithm 3 only: lag compensation, no master/slave
///                     rate sync ("the earlier site is always penalized")
///   kNaive          — "consume what is left in the current frame time by
///                     waiting": no compensation at all (§3.2's strawman)
enum class PacingPolicy { kFull, kCompensateOnly, kNaive };

class FramePacer {
 public:
  explicit FramePacer(SyncConfig cfg, PacingPolicy policy = PacingPolicy::kFull)
      : cfg_(cfg), policy_(policy) {}

  /// Algorithm 4 (BeginFrameTiming). `current_frame` is Algorithm 1's
  /// Frame; `obs` is the slave's freshest view of the master (invalid on
  /// the master, where SyncAdjustTimeDelta is defined to be zero).
  void begin_frame(Time now, FrameNo current_frame, const SyncPeer::RemoteObs& obs);

  /// Algorithm 3 (EndFrameTiming). Returns how long the caller should
  /// sleep before the next frame (0 when the frame overran and the deficit
  /// was pushed into AdjustTimeDelta instead).
  [[nodiscard]] Dur end_frame(Time now);

  /// Wall-clock loops (RealtimeSession): the wait end_frame granted ended
  /// at `now`. A late wake is carried into AdjustTimeDelta exactly like an
  /// overrun, so the frame schedule stays anchored instead of slipping by
  /// the lateness every frame. No-op after an overrun (its deficit is
  /// already carried), for an early or exact wake, and under kNaive. The
  /// virtual-time testbed sleeps exactly and never calls this.
  void note_wake(Time now);

  [[nodiscard]] Dur adjust_time_delta() const { return adjust_; }
  [[nodiscard]] Dur last_sync_adjust() const { return last_sync_adjust_; }
  [[nodiscard]] Time current_frame_start() const { return frame_start_; }

  [[nodiscard]] PacingPolicy policy() const { return policy_; }

  /// Frames paced (end_frame calls), frames that overran their slot, and
  /// total sleep granted — the pacer's contribution to the §4.2 budget.
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t overruns() const { return overruns_; }
  [[nodiscard]] Dur total_wait() const { return total_wait_; }

  /// Snapshots pacing state into the registry ("pacer.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  SyncConfig cfg_;
  PacingPolicy policy_;
  Time frame_start_ = 0;      ///< CurrFrameStart
  Dur adjust_ = 0;            ///< AdjustTimeDelta
  Dur last_sync_adjust_ = 0;  ///< most recent SyncAdjustTimeDelta (telemetry)
  static constexpr Time kNoWait = INT64_MAX;
  Time resume_at_ = kNoWait;  ///< end of the wait end_frame granted, if any
  std::uint64_t frames_ = 0;
  std::uint64_t overruns_ = 0;  ///< frames whose slot ended in the past
  Dur total_wait_ = 0;          ///< sum of sleeps granted by end_frame
};

}  // namespace rtct::core
