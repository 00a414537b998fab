#include "src/core/session.h"

#include <algorithm>
#include <sstream>

#include "src/common/telemetry.h"

namespace rtct::core {

namespace {
/// How long the master keeps HELLO-probing for an RTT sample before giving
/// up and starting with the configured fixed lag (adaptive mode only).
/// Expressed in hello intervals so slow rendezvous keeps proportions.
constexpr int kAdaptiveProbeHellos = 10;
}  // namespace

SessionControl::SessionControl(SiteId my_site, std::uint64_t rom_checksum, SyncConfig cfg,
                               Dur hello_interval)
    : my_site_(my_site), rom_checksum_(rom_checksum), cfg_(cfg),
      hello_interval_(hello_interval),
      rollback_delay_(cfg_.rollback_input_delay) {}

HelloMsg SessionControl::my_hello(Time now) const {
  HelloMsg h;
  h.site = my_site_;
  h.protocol_version = kProtocolVersion;
  h.rom_checksum = rom_checksum_;
  h.cfps = static_cast<std::uint16_t>(cfg_.cfps);
  h.buf_frames = static_cast<std::uint16_t>(cfg_.buf_frames);
  h.hello_time = now;
  if (peer_hello_time_ >= 0) {
    h.echo_time = peer_hello_time_;
    h.echo_hold = now - peer_hello_rcv_;
  }
  h.adv_rtt = measured_rtt();
  if (cfg_.adaptive_lag) h.flags |= kHelloFlagAdaptiveLag;
  if (cfg_.rollback) h.flags |= kFlagRollback;
  h.redundancy = static_cast<std::uint16_t>(std::max(0, cfg_.redundant_inputs));
  return h;
}

bool SessionControl::hello_compatible(const HelloMsg& h) {
  const bool both_adaptive = cfg_.adaptive_lag && (h.flags & kHelloFlagAdaptiveLag) != 0;
  std::ostringstream why;
  if (h.protocol_version != kProtocolVersion) {
    why << "protocol version mismatch: peer " << h.protocol_version << " vs " << kProtocolVersion;
  } else if (h.rom_checksum != rom_checksum_) {
    why << "game image mismatch: the sites loaded different ROMs";
  } else if (h.cfps != static_cast<std::uint16_t>(cfg_.cfps)) {
    why << "sync parameter mismatch (cfps)";
  } else if (!both_adaptive && h.buf_frames != static_cast<std::uint16_t>(cfg_.buf_frames)) {
    // Fixed policy: the lag must match exactly, as in v1. When both sites
    // opted into adaptive lag the master negotiates it instead.
    why << "sync parameter mismatch (buf_frames)";
  } else {
    return true;
  }
  fail(why.str());
  return false;
}

std::optional<Message> SessionControl::poll(Time now) {
  if (state_ == SessionState::kFailed) return std::nullopt;

  if (start_pending_) {  // master answers every HELLO with a START
    start_pending_ = false;
    StartMsg s;
    s.site = my_site_;
    if (rollback_state_ == 1) {
      // Under rollback buf_frames carries the agreed local input delay,
      // offset by one so 0 keeps its "use configured" lockstep meaning.
      s.flags |= kFlagRollback;
      s.buf_frames = static_cast<std::uint16_t>(rollback_delay_ + 1);
    } else {
      s.buf_frames = static_cast<std::uint16_t>(negotiated_buf_);
    }
    ++starts_sent_;
    return Message{s};
  }
  if (state_ == SessionState::kConnecting && now >= next_hello_) {
    next_hello_ = now + hello_interval_;
    ++hellos_sent_;
    return Message{my_hello(now)};
  }
  return std::nullopt;
}

void SessionControl::ingest(const Message& msg, Time now) {
  if (state_ == SessionState::kFailed) return;

  if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
    if (hello->site == my_site_) return;  // self-echo, ignore
    ++hellos_rcvd_;
    if (!hello_compatible(*hello)) return;
    peer_adaptive_ = (hello->flags & kHelloFlagAdaptiveLag) != 0;
    peer_rollback_ = (hello->flags & kFlagRollback) != 0;
    peer_adv_rtt_ = std::max(peer_adv_rtt_, hello->adv_rtt);
    if (first_compat_hello_ < 0) first_compat_hello_ = now;

    // RTT probe: the peer echoed one of our hello_times.
    if (hello->echo_time >= 0) {
      const Dur sample = now - hello->echo_time - hello->echo_hold;
      if (sample >= 0) rtt_.sample(sample);
    }
    if (hello->hello_time > peer_hello_time_) {
      peer_hello_time_ = hello->hello_time;
      peer_hello_rcv_ = now;
    }

    if (my_site_ == kMasterSite) {
      if (adaptive_agreed() && negotiated_buf_ == 0) {
        const Dur best = std::max(measured_rtt(), peer_adv_rtt_);
        if (best < 0) {
          // No measurement yet from either side. Keep HELLO-probing (the
          // next HELLO exchange yields an echo) for a bounded time, then
          // fall back to the configured fixed lag rather than stalling.
          if (now - first_compat_hello_ < kAdaptiveProbeHellos * hello_interval_) return;
          negotiated_buf_ = cfg_.buf_frames;
        } else {
          negotiated_buf_ = cfg_.buf_frames_for_rtt(best);
        }
      }
      // Master: announce the start (and re-announce on every later HELLO —
      // the slave only re-HELLOs if it missed the START). Rollback mode is
      // the master's call iff both sides advertised it; a mixed pair
      // degrades to lockstep.
      if (rollback_state_ < 0) {
        rollback_state_ = (cfg_.rollback && peer_rollback_) ? 1 : 0;
      }
      start_pending_ = true;
      enter_running(now);
    }
    return;
  }
  if (const auto* start = std::get_if<StartMsg>(&msg)) {
    if (start->site == my_site_) return;
    ++starts_rcvd_;
    if (my_site_ != kMasterSite) {
      if ((start->flags & kFlagRollback) != 0 && cfg_.rollback) {
        rollback_state_ = 1;
        if (start->buf_frames > 0) rollback_delay_ = start->buf_frames - 1;
      } else {
        rollback_state_ = 0;
        // Under rollback the field carries the input delay, not a lag —
        // only adopt it as negotiated lockstep lag when the flag is clear.
        if ((start->flags & kFlagRollback) == 0 && start->buf_frames > 0) {
          negotiated_buf_ = start->buf_frames;
        }
      }
      enter_running(now);
    }
    return;
  }
}

void SessionControl::note_sync_traffic(Time now) {
  // With adaptive lag the negotiated BufFrame travels only in START; a
  // slave must not start on bare sync traffic or it would run the wrong
  // lag depth and break the merged-input agreement. The master keeps
  // answering its HELLOs with fresh STARTs, so this stays live.
  if (cfg_.adaptive_lag && negotiated_buf_ == 0) return;
  // Rollback-vs-lockstep (and the delay depth) travels only in START: a
  // rollback-configured slave must not guess the mode from bare sync
  // traffic — against a legacy peer the master decided lockstep, and
  // speculatively running rollback with a self-chosen delay would break
  // the merged-input agreement. It keeps HELLOing; the master answers
  // every HELLO with a fresh START.
  if (cfg_.rollback && rollback_state_ < 0) return;
  if (my_site_ != kMasterSite) enter_running(now);
}

void SessionControl::export_metrics(MetricsRegistry& reg) const {
  reg.gauge("session.state").set(static_cast<double>(static_cast<int>(state_)));
  reg.gauge("session.buf_frames").set(effective_buf_frames());
  reg.gauge("session.lag_negotiated").set(lag_negotiated() ? 1 : 0);
  reg.gauge("session.rollback").set(rollback_mode() ? 1 : 0);
  reg.gauge("session.rollback_delay").set(rollback_mode() ? rollback_delay_ : 0);
  reg.gauge("session.measured_rtt_ms")
      .set(rtt_.has_sample() ? to_ms(rtt_.srtt()) : 0.0);
  reg.counter("session.hellos_sent").set(hellos_sent_);
  reg.counter("session.hellos_rcvd").set(hellos_rcvd_);
  reg.counter("session.starts_sent").set(starts_sent_);
  reg.counter("session.starts_rcvd").set(starts_rcvd_);
}

}  // namespace rtct::core
