#include "src/core/realtime.h"

#include <algorithm>
#include <iterator>

#include "src/common/telemetry.h"
#include "src/core/wire.h"

namespace rtct::core {

RealtimeSession::RealtimeSession(SiteId site, emu::IDeterministicGame& game, InputSource& input,
                                 net::PollableTransport& socket, RealtimeConfig cfg)
    : site_(site),
      game_(game),
      socket_(socket),
      cfg_(cfg),
      loop_(site, 2, game, input, cfg.sync, cfg.pacing, cfg.frames),
      flush_clock_(cfg.sync.send_flush_period) {
  epoch_ = steady_now();
}

Time RealtimeSession::now() const { return steady_now() - epoch_; }

bool RealtimeSession::run(std::string* error) {
  using Phase = FrameLoop::Phase;
  const auto fail = [error](std::string why) {
    if (error) *error = std::move(why);
    return false;
  };
  if (!socket_.valid()) return fail("socket invalid: " + socket_.last_error());
  for (;;) {
    const LoopWait w = loop_.step(now());
    const Phase phase = loop_.phase();
    if (loop_.peer().desync_detected()) {
      return fail("desync detected at frame " + std::to_string(loop_.peer().desync_frame()) +
                  ": replicas diverged (non-deterministic game?)");
    }
    if (stop_.load(std::memory_order_relaxed)) {
      if (phase == Phase::kLameDuck) return true;
      return fail(phase == Phase::kHandshake ? "stopped during handshake" : "stopped");
    }
    switch (w.kind) {
      case LoopWait::Kind::kDone:
        drain_spectators_post_game();
        return true;
      case LoopWait::Kind::kFailed:
        return fail(loop_.session().failure_reason());
      case LoopWait::Kind::kSleep:
        if (phase == Phase::kCompute && hook_) hook_(game_, loop_.record());
        // Sleep out the remainder with the flush timer and receiver live:
        // each wait blocks until the deadline, the next flush or a
        // datagram, never spinning.
        if (w.until > now()) {
          wait(w.until);
        } else {
          flush_if_due();
        }
        break;
      case LoopWait::Kind::kNetwork: {
        const Dur limit = phase == Phase::kHandshake  ? cfg_.handshake_timeout
                          : phase == Phase::kLameDuck ? cfg_.spectator_drain_grace
                                                      : cfg_.stall_timeout;
        const Time deadline = loop_.phase_since() + limit;
        if (now() > deadline) {
          switch (phase) {
            case Phase::kHandshake:
              return fail("handshake timeout: no compatible peer responded");
            case Phase::kConfirm:
              return fail("rollback confirmation drain timed out");
            case Phase::kLameDuck:  // the peer went away; nothing left to serve it
              drain_spectators_post_game();
              return true;
            default:
              return fail("stall timeout: peer or network failed");
          }
        }
        // The handshake polls: HELLOs are due on their own interval, and
        // observers joining early must be answered.
        wait(phase == Phase::kHandshake ? now() + milliseconds(5) : deadline);
        break;
      }
    }
  }
}

void RealtimeSession::wait(Time until) {
  send_session_message();
  flush_if_due();
  socket_.wait_readable(std::max<Dur>(std::min(until, flush_clock_.next()) - now(), 0));
  ++wakeups_;
  while (auto payload = socket_.try_recv()) loop_.on_datagram(*payload, now());
  // A HELLO at the running master queues a START answer: send it now, or
  // a slave that must wait for START (rollback / adaptive lag) and missed
  // the handshake-time one would never be started.
  send_session_message();
}

void RealtimeSession::send_session_message() {
  if (auto dgram = loop_.session_datagram(now())) socket_.send(*dgram);
}

void RealtimeSession::flush_if_due() {
  // Catch-up scheduling (FlushClock): `next += period` keeps the flush
  // cadence anchored instead of drifting later by the caller's check
  // latency every period, which under-delivered the redundancy tail.
  const Time t = now();
  if (!flush_clock_.due(t)) return;
  if (auto dgram = loop_.sync_datagram(1 - site_, t)) socket_.send(*dgram);
  pump_spectators();
}

void RealtimeSession::pump_spectators() {
  if (spectator_socket_ == nullptr) return;
  SpectatorBroadcastHub& hub = loop_.spectators();
  const Time t = now();
  while (auto got = spectator_socket_->recv_from()) {
    const auto msg = decode_message(got->first);
    if (!msg) continue;
    auto it = spectator_ids_.find(got->second);
    if (it == spectator_ids_.end()) {
      // Only a JoinRequest mints observer state. Any other message from an
      // unregistered address — a rogue HELLO probing the port, a reaped
      // observer's stale FeedAck, a relay EvictNotice re-send — is counted
      // and dropped; registering it would hand a phantom observer a cursor
      // that pins the hub's trim watermark.
      if (std::get_if<JoinRequestMsg>(&*msg) == nullptr) {
        ++dropped_unknown_sender_;
        continue;
      }
      it = spectator_ids_.emplace(got->second, hub.add_observer(t)).first;
    }
    hub.ingest(it->second, *msg, t);
  }
  // Reap observers that went silent: their stale cursors must not pin the
  // hub's trim watermark (live clients keepalive-ack well inside the
  // timeout). Dropping the address mapping too means a late riser simply
  // re-registers under a fresh id and is re-seeded.
  for (const auto removed_id : hub.remove_idle(t, cfg_.spectator_idle_timeout)) {
    for (auto it = spectator_ids_.begin(); it != spectator_ids_.end();) {
      it = it->second == removed_id ? spectator_ids_.erase(it) : std::next(it);
    }
  }
  loop_.offer_spectator_snapshot();
  for (const auto& [addr, id] : spectator_ids_) {
    if (auto buf = hub.make_message(id, t)) spectator_socket_->send_to(addr, *buf);
  }
}

void RealtimeSession::drain_spectators_post_game() {
  // Post-game spectator drain: without this, an observer mid-catch-up is
  // orphaned the moment our frame loop ends (its lost feed datagrams would
  // never be retransmitted).
  if (spectator_socket_ == nullptr) return;
  const Time grace_end = now() + cfg_.spectator_drain_grace;
  while (now() < grace_end && !stop_.load(std::memory_order_relaxed)) {
    pump_spectators();
    if (loop_.spectators().all_caught_up()) break;  // nobody waiting
    spectator_socket_->wait_readable(milliseconds(10));
  }
}

void RealtimeSession::export_metrics(MetricsRegistry& reg) const {
  loop_.export_metrics(reg);
  socket_.export_metrics(reg);
  reg.counter("session.flushes").set(flush_clock_.fires());
  reg.counter("session.flush_reanchors").set(flush_clock_.reanchors());
  reg.counter("session.wakeups").set(wakeups_);
  reg.counter("session.dropped_unknown_sender").set(dropped_unknown_sender_);
  reg.gauge("spectator.host.count").set(static_cast<double>(spectator_ids_.size()));
  // The stable per-observer-host aggregate names stay populated (fed from
  // the hub, identical semantics: counters sum across observers).
  const SpectatorBroadcastHub& hub = loop_.spectators();
  const SpectatorHubStats& s = hub.stats();
  reg.counter("spectator.host.join_requests_rcvd").set(s.join_requests_rcvd);
  reg.counter("spectator.host.snapshots_sent").set(s.snapshots_sent);
  reg.counter("spectator.host.feed_messages_sent").set(s.feed_messages_sent);
  reg.counter("spectator.host.inputs_fed").set(s.inputs_fed);
  reg.counter("spectator.host.acks_rcvd").set(s.acks_rcvd);
  reg.gauge("spectator.host.joined").set(static_cast<double>(hub.joined_count()));
  reg.gauge("spectator.host.backlog").set(static_cast<double>(hub.backlog_size()));
}

}  // namespace rtct::core
