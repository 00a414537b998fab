#include "src/core/pacer.h"

#include "src/common/telemetry.h"

namespace rtct::core {

void FramePacer::begin_frame(Time now, FrameNo current_frame, const SyncPeer::RemoteObs& obs) {
  frame_start_ = now;  // line 2

  Dur sync_adjust = 0;
  // Lines 5-8 (slave only). Rate sync is additionally gated on a real RTT
  // sample: before one exists, `obs.rtt` would read 0 and `master_sent`
  // below would be overestimated by RTT/2, so the slave would chase a
  // master estimate that is half a round trip stale during startup.
  if (policy_ == PacingPolicy::kFull && my_site_ != kMasterSite && obs.valid &&
      obs.rtt_valid) {
    const Dur tpf = cfg_.frame_period();
    // MasterFrame = LastRcvFrame[0] - BufFrame: the received frame number
    // already includes the local-lag offset (line 6).
    const FrameNo master_frame = obs.last_rcv_frame - cfg_.buf_frames;
    // t = MasterRcvTime - RTT/2 estimates when the master *sent* that
    // frame's input; extrapolate its frame at local-now and diff (line 7).
    const Time master_sent = obs.rcv_time - obs.rtt / 2;
    const Dur raw = (current_frame - master_frame) * tpf - (now - master_sent);
    // Smoothed application (see SyncConfig::rate_sync_gain): ignore noise
    // inside the deadband, correct a fraction of real skew per frame.
    if (raw > cfg_.rate_sync_deadband || raw < -cfg_.rate_sync_deadband) {
      sync_adjust = static_cast<Dur>(static_cast<double>(raw) * cfg_.rate_sync_gain);
    }
  }
  last_sync_adjust_ = sync_adjust;
  adjust_ += sync_adjust;  // line 9
}

Dur FramePacer::end_frame(Time now) {
  ++frames_;
  resume_at_ = kNoWait;
  if (policy_ == PacingPolicy::kNaive) {
    // §3.2's strawman: block until the end of the nominal frame slot and
    // carry nothing forward. Works on one host, oscillates over a network.
    adjust_ = 0;
    const Time frame_end = frame_start_ + cfg_.frame_period();
    if (frame_end < now) {
      ++overruns_;
      return 0;
    }
    total_wait_ += frame_end - now;
    return frame_end - now;
  }
  // Line 1: when this frame *should* end.
  const Time frame_end = frame_start_ + cfg_.frame_period() + adjust_;
  if (frame_end < now) {  // lines 3-4: overran — carry the deficit forward
    adjust_ = frame_end - now;
    ++overruns_;
    return 0;
  }
  adjust_ = 0;  // lines 6-7: on time — absorb the remainder by waiting
  total_wait_ += frame_end - now;
  resume_at_ = frame_end;
  return frame_end - now;
}

void FramePacer::note_wake(Time now) {
  if (now > resume_at_) adjust_ -= now - resume_at_;
  resume_at_ = kNoWait;
}

void FramePacer::export_metrics(MetricsRegistry& reg) const {
  reg.counter("pacer.frames").set(frames_);
  reg.counter("pacer.overruns").set(overruns_);
  reg.gauge("pacer.adjust_ms").set(to_ms(adjust_));
  reg.gauge("pacer.last_sync_adjust_ms").set(to_ms(last_sync_adjust_));
  reg.gauge("pacer.total_wait_ms").set(to_ms(total_wait_));
}

}  // namespace rtct::core
