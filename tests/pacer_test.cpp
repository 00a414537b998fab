// Unit tests for FramePacer — the paper's Algorithms 3 & 4 — and for
// FlushClock, the drift-free send-flush scheduler.
#include <gtest/gtest.h>

#include "src/core/flush_clock.h"
#include "src/core/pacer.h"

namespace rtct::core {
namespace {

SyncConfig cfg60() {
  SyncConfig cfg;
  cfg.rate_sync_gain = 1.0;     // run the literal pseudocode in unit tests
  cfg.rate_sync_deadband = 0;
  return cfg;
}

SyncPeer::RemoteObs no_obs() { return {}; }

// ---- Algorithm 3 (EndFrameTiming) --------------------------------------------

TEST(PacerAlg3Test, OnTimeFrameWaitsOutRemainder) {
  FramePacer p(0, cfg60());
  p.begin_frame(0, 0, no_obs());
  const Dur wait = p.end_frame(milliseconds(4));  // frame took 4 ms
  EXPECT_EQ(wait, cfg60().frame_period() - milliseconds(4));
  EXPECT_EQ(p.adjust_time_delta(), 0);  // line 6
}

TEST(PacerAlg3Test, OverrunCarriesNegativeDelta) {
  FramePacer p(0, cfg60());
  p.begin_frame(0, 0, no_obs());
  const Dur wait = p.end_frame(milliseconds(30));  // frame took 30 > 16.7 ms
  EXPECT_EQ(wait, 0);
  EXPECT_EQ(p.adjust_time_delta(), cfg60().frame_period() - milliseconds(30));  // negative
}

TEST(PacerAlg3Test, SubsequentFramesRepayTheDebt) {
  FramePacer p(0, cfg60());
  const Dur tpf = cfg60().frame_period();

  // Frame 0 stalls 30 ms.
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(30)), 0);
  const Dur debt = tpf - milliseconds(30);  // about -13.3 ms

  // Frame 1 computes in 2 ms: its wait is shortened by the debt.
  p.begin_frame(milliseconds(30), 1, no_obs());
  const Dur wait1 = p.end_frame(milliseconds(32));
  EXPECT_EQ(wait1, tpf + debt - milliseconds(2));
  EXPECT_EQ(p.adjust_time_delta(), 0);  // fully repaid

  // Frame 2 is back on the nominal schedule.
  const Time f2 = milliseconds(32) + wait1;
  p.begin_frame(f2, 2, no_obs());
  EXPECT_EQ(p.end_frame(f2 + milliseconds(2)), tpf - milliseconds(2));
}

TEST(PacerAlg3Test, HugeOverrunAccumulatesAcrossFrames) {
  FramePacer p(0, cfg60());
  const Dur tpf = cfg60().frame_period();
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(100)), 0);
  // Debt bigger than one frame: the next on-time frame still returns 0.
  p.begin_frame(milliseconds(100), 1, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(101)), 0);
  EXPECT_LT(p.adjust_time_delta(), 0);
  EXPECT_EQ(p.adjust_time_delta(), (tpf - milliseconds(100)) + tpf - milliseconds(1));
}

// ---- Late wakes (wall-clock frame loop) ---------------------------------------

TEST(PacerWakeTest, LateWakeShortensTheNextFramesWait) {
  FramePacer p(0, cfg60());
  const Dur tpf = cfg60().frame_period();
  const Dur late = microseconds(60);
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(4)), tpf - milliseconds(4));

  // The wait should have ended at tpf; the wake lands 60 µs after it.
  p.note_wake(tpf + late);
  EXPECT_EQ(p.adjust_time_delta(), -late);
  p.note_wake(tpf + 2 * late);  // one wait, one charge
  EXPECT_EQ(p.adjust_time_delta(), -late);

  // Frame 1 starts late but still ends on the 2·tpf grid line.
  p.begin_frame(tpf + late, 1, no_obs());
  EXPECT_EQ(p.current_frame_start(), tpf + late);  // the actual start
  EXPECT_EQ(p.end_frame(tpf + late + milliseconds(4)), tpf - milliseconds(4) - late);
  EXPECT_EQ(p.adjust_time_delta(), 0);
}

TEST(PacerWakeTest, OverrunFrameIsNotChargedTwice) {
  FramePacer p(0, cfg60());
  const Dur tpf = cfg60().frame_period();
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(30)), 0);
  const Dur debt = tpf - milliseconds(30);
  EXPECT_EQ(p.adjust_time_delta(), debt);
  // The overrun granted no wait, so nothing can be late: the deficit
  // end_frame carried is the whole charge.
  p.note_wake(milliseconds(31));
  EXPECT_EQ(p.adjust_time_delta(), debt);
}

TEST(PacerWakeTest, OnTimeWakeLeavesTheDeltaAtZero) {
  FramePacer p(0, cfg60());
  const Dur tpf = cfg60().frame_period();
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(4)), tpf - milliseconds(4));
  p.note_wake(tpf);
  EXPECT_EQ(p.adjust_time_delta(), 0);
  p.begin_frame(tpf, 1, no_obs());
  EXPECT_EQ(p.end_frame(tpf + milliseconds(4)), tpf - milliseconds(4));
}

TEST(PacerNaiveTest, NaivePolicyNeverCompensates) {
  FramePacer p(0, cfg60(), PacingPolicy::kNaive);
  p.begin_frame(0, 0, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(30)), 0);
  EXPECT_EQ(p.adjust_time_delta(), 0);  // §3.2 strawman: no carry-over
  p.begin_frame(milliseconds(30), 1, no_obs());
  EXPECT_EQ(p.end_frame(milliseconds(31)), cfg60().frame_period() - milliseconds(1));
}

// ---- Algorithm 4 (BeginFrameTiming) --------------------------------------------

SyncPeer::RemoteObs obs(FrameNo last_rcv, Time rcv_time, Dur rtt) {
  SyncPeer::RemoteObs o;
  o.valid = true;
  o.last_rcv_frame = last_rcv;
  o.rcv_time = rcv_time;
  o.rtt = rtt;
  o.rtt_valid = true;
  return o;
}

TEST(PacerAlg4Test, MasterNeverRateSyncs) {
  FramePacer p(kMasterSite, cfg60());
  p.begin_frame(milliseconds(500), 30, obs(100, milliseconds(490), milliseconds(40)));
  EXPECT_EQ(p.last_sync_adjust(), 0);  // "In the master site ... always zero"
  EXPECT_EQ(p.adjust_time_delta(), 0);
}

TEST(PacerAlg4Test, SlaveWithoutObservationDoesNothing) {
  FramePacer p(kSlaveSite, cfg60());
  p.begin_frame(milliseconds(500), 30, no_obs());
  EXPECT_EQ(p.last_sync_adjust(), 0);
}

TEST(PacerAlg4Test, InSyncSlaveComputesZeroAdjust) {
  // Construct an observation in which the extrapolated master frame equals
  // the slave's current frame exactly.
  const SyncConfig cfg = cfg60();
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  // Master sent input for master-frame 24 (LastRcv 30 - BufFrame 6);
  // received at t=500ms with RTT 0. At now = 500ms + 6*tpf the master
  // should be at frame 30 — same as the slave: perfectly in sync.
  const Time now = milliseconds(500) + 6 * tpf;
  p.begin_frame(now, 30, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), 0);
  EXPECT_EQ(p.adjust_time_delta(), 0);
}

TEST(PacerAlg4Test, SlaveAheadSlowsDown) {
  const SyncConfig cfg = cfg60();
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  // Slave is 3 frames ahead of the extrapolated master frame (30).
  p.begin_frame(now, 33, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), 3 * tpf);  // positive => wait longer
  EXPECT_EQ(p.adjust_time_delta(), 3 * tpf);
}

TEST(PacerAlg4Test, SlaveBehindSpeedsUp) {
  const SyncConfig cfg = cfg60();
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  p.begin_frame(now, 27, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), -3 * tpf);  // negative => shorten frames
}

TEST(PacerAlg4Test, RttHalfShiftsTheMasterEstimate) {
  const SyncConfig cfg = cfg60();
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  // Same as the in-sync case but the observation travelled 40 ms RTT: the
  // master sent 20 ms before rcv_time, so it is 20 ms further along.
  p.begin_frame(now, 30, obs(30, milliseconds(500), milliseconds(40)));
  EXPECT_EQ(p.last_sync_adjust(), -milliseconds(20));
}

TEST(PacerAlg4Test, GainScalesTheCorrection) {
  SyncConfig cfg = cfg60();
  cfg.rate_sync_gain = 0.25;
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  p.begin_frame(now, 34, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), 4 * tpf / 4);
}

TEST(PacerAlg4Test, DeadbandSwallowsNoise) {
  SyncConfig cfg = cfg60();
  cfg.rate_sync_deadband = milliseconds(10);
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  // Raw skew of +5 ms: inside the deadband, ignored.
  p.begin_frame(now - milliseconds(5), 30, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), 0);
  // Raw skew of +30 ms: outside, applied.
  p.begin_frame(now - milliseconds(30), 30, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), milliseconds(30));
}

TEST(PacerAlg4Test, NoRateSyncBeforeFirstRttSample) {
  // Regression: Algorithm 4 extrapolates the master's position with RTT/2,
  // but at startup obs.rtt used to read 0 from the estimator before any
  // sample existed — the slave then treated a stale observation as fresh
  // and over-corrected. With rtt_valid=false the correction must be
  // skipped entirely, even though the observation itself is valid.
  const SyncConfig cfg = cfg60();
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);
  const Time now = milliseconds(500) + 6 * tpf;
  SyncPeer::RemoteObs o = obs(30, milliseconds(500), 0);
  o.rtt_valid = false;
  p.begin_frame(now, 33, o);  // 3 frames of apparent skew...
  EXPECT_EQ(p.last_sync_adjust(), 0);  // ...ignored until RTT is known
  EXPECT_EQ(p.adjust_time_delta(), 0);

  // The same observation with a measured RTT applies normally.
  p.begin_frame(now, 33, obs(30, milliseconds(500), 0));
  EXPECT_EQ(p.last_sync_adjust(), 3 * tpf);
}

TEST(PacerAlg4Test, ConvergenceFromStartupSkew) {
  // Closed-loop sanity: a slave that starts 100 ms behind and applies the
  // paper's correction each frame converges to the master's schedule.
  SyncConfig cfg;  // default smoothing (gain 0.15, deadband 4 ms)
  const Dur tpf = cfg.frame_period();
  FramePacer p(kSlaveSite, cfg);

  Time slave_now = milliseconds(100);  // master started at 0
  FrameNo frame = 0;
  for (; frame < 240; ++frame) {
    // Perfect observation: master is exactly on schedule, frame = now/tpf.
    // Master's input for its frame F was "received" with zero RTT; use the
    // freshest plausible observation.
    const FrameNo master_frame_now = static_cast<FrameNo>(slave_now / tpf);
    const auto o = obs(master_frame_now + cfg.buf_frames, slave_now, 0);
    p.begin_frame(slave_now, frame, o);
    const Dur wait = p.end_frame(slave_now + milliseconds(2));
    slave_now += milliseconds(2) + wait;
  }
  // After convergence the slave's frame index matches wall time.
  const auto expected_frame = static_cast<FrameNo>(slave_now / tpf);
  EXPECT_NEAR(static_cast<double>(frame), static_cast<double>(expected_frame), 1.5);
}

// ---- FlushClock ----------------------------------------------------------------

TEST(FlushClockTest, FlushCountMatchesElapsedOverPeriod) {
  // Regression: the old scheduler re-anchored `next = now + period` on every
  // fire, so each tick drifted late by however long the poll loop overslept
  // and the effective flush rate fell below 1/period. The clock must average
  // one fire per period even when due() is polled at sloppy times.
  const Dur period = milliseconds(10);
  FlushClock clock(period);
  // Poll every 7 ms — never aligned with the period — over one second.
  std::uint64_t fires = 0;
  for (Time t = 0; t <= seconds(1); t += milliseconds(7)) {
    if (clock.due(t)) ++fires;
  }
  // 1 s / 10 ms = 100 flushes (+1 for the immediate first fire). The old
  // `now + period` anchoring yields ~72 here (one per 14 ms: every other
  // 7 ms poll), starving the go-back-N resend path.
  EXPECT_GE(fires, 99u);
  EXPECT_LE(fires, 101u);
  EXPECT_EQ(clock.reanchors(), 0u);
}

TEST(FlushClockTest, StallReanchorsInsteadOfBursting) {
  const Dur period = milliseconds(10);
  FlushClock clock(period);
  EXPECT_TRUE(clock.due(0));  // first call fires and anchors
  EXPECT_TRUE(clock.due(milliseconds(10)));
  // A 500 ms stall (e.g. the handshake blocking, or the OS descheduling
  // us): on resume we want ONE catch-up fire and a fresh anchor, not a
  // burst of 50 back-to-back flushes.
  EXPECT_TRUE(clock.due(milliseconds(510)));
  EXPECT_EQ(clock.reanchors(), 1u);
  EXPECT_FALSE(clock.due(milliseconds(511)));
  EXPECT_FALSE(clock.due(milliseconds(519)));
  EXPECT_TRUE(clock.due(milliseconds(520)));
  EXPECT_EQ(clock.fires(), 4u);
}

TEST(FlushClockTest, SmallOversleepCatchesUpWithoutReanchor) {
  const Dur period = milliseconds(10);
  FlushClock clock(period);
  EXPECT_TRUE(clock.due(0));
  // Fire 3 ms late: the next deadline stays on the original grid (t=20),
  // so the late fire is absorbed instead of compounding.
  EXPECT_TRUE(clock.due(milliseconds(13)));
  EXPECT_FALSE(clock.due(milliseconds(19)));
  EXPECT_TRUE(clock.due(milliseconds(20)));
  EXPECT_EQ(clock.reanchors(), 0u);
  EXPECT_EQ(clock.next(), milliseconds(30));
}

}  // namespace
}  // namespace rtct::core
