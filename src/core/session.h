// SessionControl — the startup handshake (§3.2: "a simple session control
// protocol is implemented to ensure that two sites start at almost the
// same time, with at most one round-trip time deviation").
//
// Both sites broadcast HELLO periodically. The master starts the moment it
// has seen the slave's (compatible) HELLO and emits START; the slave
// starts on receiving START. A lost START is repaired because the slave
// keeps HELLOing and the master answers every HELLO with a fresh START.
// Start-time skew is therefore bounded by one one-way delay, which the
// slave's Algorithm 4 then smooths out "within only a few frames".
//
// The handshake also enforces the §2 preconditions: same game image
// (checksum), same protocol version, and same sync parameters.
//
// Protocol v2 additions: every HELLO carries an echoed-timestamp RTT probe
// (hello_time / echo_time / echo_hold, same scheme as SyncMsg) plus the
// sender's smoothed-RTT advert. When BOTH sites set cfg.adaptive_lag the
// master sizes the local lag from the larger of the two measurements —
// BufFrame = ceil(RTT/2 / frame_period) + margin, clamped — and announces
// the agreed value in START; drivers then apply effective_buf_frames() to
// their SyncPeer before frame 0. With adaptive lag off (the
// default) the fixed configured value must match exactly, as in v1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/rtt.h"
#include "src/core/wire.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

enum class SessionState { kConnecting, kRunning, kFailed };

class SessionControl {
 public:
  SessionControl(SiteId my_site, std::uint64_t rom_checksum, SyncConfig cfg,
                 Dur hello_interval = milliseconds(50));

  /// Driver calls this on a timer; returns a message to transmit now, if
  /// any (HELLO while connecting; START when the master must [re]announce).
  std::optional<Message> poll(Time now);

  /// Feed any received session message (HelloMsg / StartMsg). SyncMsgs
  /// also imply a running peer — drivers may call note_sync_traffic().
  void ingest(const Message& msg, Time now);

  /// A sync message arrived: the peer is definitely running (covers a
  /// slave whose START was lost but whose peer is already streaming).
  /// With adaptive lag enabled this shortcut is ignored until the
  /// negotiated BufFrame is known (only START carries it).
  void note_sync_traffic(Time now);

  [[nodiscard]] SessionState state() const { return state_; }
  [[nodiscard]] bool running() const { return state_ == SessionState::kRunning; }
  [[nodiscard]] const std::string& failure_reason() const { return failure_; }
  /// Local time at which this site entered kRunning.
  [[nodiscard]] Time start_time() const { return start_time_; }

  /// The local-lag depth the session must run with: the negotiated value
  /// when adaptive lag agreed on one, else the configured fixed value.
  /// Drivers apply it to their SyncPeer once running() turns true.
  [[nodiscard]] int effective_buf_frames() const {
    return negotiated_buf_ > 0 ? negotiated_buf_ : cfg_.buf_frames;
  }
  /// True when effective_buf_frames() came from the v2 RTT negotiation.
  [[nodiscard]] bool lag_negotiated() const { return negotiated_buf_ > 0; }

  /// True when the handshake settled on the rollback consistency mode:
  /// both sites advertised the capability in HELLO, the master decided,
  /// and START carried the outcome (kFlagRollback). Until the outcome is
  /// known this is false — a session never runs rollback "by assumption".
  [[nodiscard]] bool rollback_mode() const { return rollback_state_ == 1; }
  /// The local input delay (frames) a rollback session runs with: the
  /// master's configured value, carried to the slave in START.buf_frames
  /// (offset by one — see kFlagRollback). Meaningful only when
  /// rollback_mode() is true.
  [[nodiscard]] int rollback_delay() const { return rollback_delay_; }

  /// Handshake-time RTT estimate from the HELLO probe (-1 = no sample).
  [[nodiscard]] Dur measured_rtt() const {
    return rtt_.has_sample() ? rtt_.srtt() : -1;
  }

  /// Snapshots handshake state into the registry ("session.*"): state as
  /// 0=connecting/1=running/2=failed, message counters, negotiated lag.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  void fail(const std::string& why) {
    state_ = SessionState::kFailed;
    failure_ = why;
  }
  void enter_running(Time now) {
    if (state_ == SessionState::kConnecting) {
      state_ = SessionState::kRunning;
      start_time_ = now;
    }
  }
  [[nodiscard]] HelloMsg my_hello(Time now) const;
  bool hello_compatible(const HelloMsg& h);
  [[nodiscard]] bool adaptive_agreed() const { return cfg_.adaptive_lag && peer_adaptive_; }

  SiteId my_site_;
  std::uint64_t rom_checksum_;
  SyncConfig cfg_;
  Dur hello_interval_;

  SessionState state_ = SessionState::kConnecting;
  std::string failure_;
  Time start_time_ = 0;
  Time next_hello_ = 0;
  bool start_pending_ = false;  ///< master owes the slave a START

  // v2: HELLO RTT probe + adaptive-lag negotiation.
  RttEstimator rtt_;
  Time peer_hello_time_ = -1;  ///< newest hello_time seen from the peer
  Time peer_hello_rcv_ = 0;    ///< when we received it (for echo_hold)
  bool peer_adaptive_ = false;
  bool peer_rollback_ = false;
  int rollback_state_ = -1;  ///< -1 undecided / 0 lockstep / 1 rollback
  int rollback_delay_ = 0;   ///< adopted local input delay (frames)
  Dur peer_adv_rtt_ = -1;
  Time first_compat_hello_ = -1;  ///< when negotiation probing started
  int negotiated_buf_ = 0;        ///< 0 = fixed policy

  // Handshake traffic counters (export_metrics).
  std::uint64_t hellos_sent_ = 0;
  std::uint64_t starts_sent_ = 0;
  std::uint64_t hellos_rcvd_ = 0;
  std::uint64_t starts_rcvd_ = 0;
};

}  // namespace rtct::core
