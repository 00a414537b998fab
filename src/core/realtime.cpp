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
      input_(input),
      socket_(socket),
      cfg_(cfg),
      peer_(site, cfg.sync),
      pacer_(site, cfg.sync, cfg.pacing),
      session_(site, game.content_id(), cfg.sync),
      replay_(game.content_id(), cfg.sync),
      flush_clock_(cfg.sync.send_flush_period),
      digest_version_(cfg.sync.digest_version()),
      spectator_hub_(game.content_id(), cfg.sync) {
  epoch_ = steady_now();
}

Time RealtimeSession::now() const { return steady_now() - epoch_; }

void RealtimeSession::drain() {
  while (auto payload = socket_.try_recv()) {
    const auto msg = decode_message(*payload);
    if (!msg) continue;
    if (const auto* sync = std::get_if<SyncMsg>(&*msg)) {
      session_.note_sync_traffic(now());
      // Drop sync traffic until the handshake settles: the negotiated lag
      // must be applied before the first ingest (the peer's reliability
      // layer re-delivers anything dropped here).
      if (session_.running()) {
        apply_negotiated_lag();
        if (rollback_ != nullptr) {
          rollback_->ingest(*sync, now());
        } else {
          peer_.ingest(*sync, now());
        }
      }
    } else {
      session_.ingest(*msg, now());
      // A HELLO at the running master queues a START answer; poll for it
      // here because the frame loop never polls the session. Without this
      // a slave that must wait for START (rollback / adaptive lag) and
      // missed the handshake-time one would never be started.
      if (auto reply = session_.poll(now())) {
        encode_message_into(*reply, wire_scratch_);
        socket_.send(wire_scratch_);
      }
    }
  }
}

void RealtimeSession::apply_negotiated_lag() {
  if (lag_applied_) return;
  lag_applied_ = true;
  digest_version_ = session_.digest_version();
  if (session_.rollback_mode()) {
    // The handshake settled on rollback: build the speculation engine with
    // the *negotiated* parameters (the master's input delay travels in
    // START) and snapshot the pre-frame-0 state as its genesis.
    SyncConfig eff = cfg_.sync;
    eff.digest_v2 = digest_version_ == 2;
    eff.rollback_input_delay = session_.rollback_delay();
    rollback_ = std::make_unique<RollbackSession>(site_, game_, eff);
    replay_ = Replay(game_.content_id(), eff, game_.content_name());
    return;
  }
  const int buf = session_.effective_buf_frames();
  if (buf != cfg_.sync.buf_frames) {
    peer_.set_buf_frames(buf);
    pacer_.set_buf_frames(buf);
  }
  // Rebuild the recording with the *effective* config regardless: the
  // negotiated digest version stamps the replay's keyframe digests.
  SyncConfig eff = cfg_.sync;
  eff.buf_frames = buf;
  eff.digest_v2 = digest_version_ == 2;
  replay_ = Replay(game_.content_id(), eff, game_.content_name());
}

void RealtimeSession::flush_if_due() {
  // Catch-up scheduling (FlushClock): `next += period` keeps the flush
  // cadence anchored instead of drifting later by the caller's check
  // latency every period, which under-delivered the redundancy tail.
  const Time t = now();
  if (!flush_clock_.due(t)) return;
  if (auto msg = rollback_ != nullptr ? rollback_->make_message(t)
                                      : peer_.make_message(t)) {
    encode_message_into(Message{*msg}, wire_scratch_);
    socket_.send(wire_scratch_);
  }
  pump_spectators();
}

void RealtimeSession::wait_until(Time until) {
  flush_if_due();
  socket_.wait_readable(std::max<Dur>(std::min(until, flush_clock_.next()) - now(), 0));
  ++wakeups_;
  drain();
  if (rollback_ != nullptr) rollback_->reconcile();
}

void RealtimeSession::pump_spectators() {
  if (spectator_socket_ == nullptr) return;
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
      it = spectator_ids_.emplace(got->second, spectator_hub_.add_observer(t)).first;
    }
    spectator_hub_.ingest(it->second, *msg, t);
  }
  // Reap observers that went silent: their stale cursors must not pin the
  // hub's trim watermark (live clients keepalive-ack well inside the
  // timeout). Dropping the address mapping too means a late riser simply
  // re-registers under a fresh id and is re-seeded.
  for (const auto removed_id : spectator_hub_.remove_idle(t, cfg_.spectator_idle_timeout)) {
    for (auto it = spectator_ids_.begin(); it != spectator_ids_.end();) {
      it = it->second == removed_id ? spectator_ids_.erase(it) : std::next(it);
    }
  }
  // Serve the snapshot only once frame 0 has executed. An observer who
  // joins during the handshake would otherwise get a snapshot labeled
  // frame -1, captured while the session can still renegotiate its lag
  // and before the first Transition — a frame this site never executed
  // or recorded. The join request stays pending; the next pump after
  // frame 0 answers it.
  if (spectator_hub_.wants_snapshot()) {
    if (rollback_ != nullptr) {
      // Rollback: the live machine state is speculative — seed observers
      // from the newest *confirmed* snapshot so their replica matches the
      // confirmed feed exactly.
      if (rollback_->confirmed_frames() > 0) {
        spectator_hub_.provide_snapshot(rollback_->confirmed_frames() - 1,
                                        rollback_->confirmed_state());
      }
    } else if (game_.frame() > 0) {
      // Called from the frame loop between Transitions: consistent state.
      game_.save_state_into(snapshot_scratch_);
      spectator_hub_.provide_snapshot(game_.frame() - 1, snapshot_scratch_);
    }
  }
  for (const auto& [addr, id] : spectator_ids_) {
    if (auto buf = spectator_hub_.make_message(id, t)) {
      spectator_socket_->send_to(addr, *buf);
    }
  }
}

bool RealtimeSession::handshake(std::string* error) {
  const Time deadline = now() + cfg_.handshake_timeout;
  while (!session_.running()) {
    if (stop_.load(std::memory_order_relaxed)) {
      if (error) *error = "stopped during handshake";
      return false;
    }
    if (session_.state() == SessionState::kFailed) {
      if (error) *error = session_.failure_reason();
      return false;
    }
    if (now() > deadline) {
      if (error) *error = "handshake timeout: no compatible peer responded";
      return false;
    }
    if (auto m = session_.poll(now())) {
      encode_message_into(*m, wire_scratch_);
      socket_.send(wire_scratch_);
    }
    // Answer observers that show up before the match starts (their
    // snapshot is deferred until frame 0 has executed, but join requests
    // must not be dropped on the floor).
    pump_spectators();
    socket_.wait_readable(milliseconds(5));
    drain();
  }
  // The ingest that flipped us to running may have queued a START (the
  // master answers the slave's HELLO with one) after this loop's poll
  // already ran; flush it now so the slave is not left waiting a full
  // HELLO round-trip for the mode/lag verdict.
  if (auto m = session_.poll(now())) {
    encode_message_into(*m, wire_scratch_);
    socket_.send(wire_scratch_);
  }
  return true;
}

bool RealtimeSession::run(std::string* error) {
  if (!socket_.valid()) {
    if (error) *error = "socket invalid: " + socket_.last_error();
    return false;
  }
  if (!handshake(error)) return false;
  apply_negotiated_lag();
  if (rollback_ != nullptr) return run_rollback(error);

  for (FrameNo frame = 0; frame < cfg_.frames; ++frame) {
    if (stop_.load(std::memory_order_relaxed)) {
      if (error) *error = "stopped";
      return false;
    }

    FrameRecord rec;
    rec.frame = frame;
    pacer_.begin_frame(now(), frame, peer_.remote_obs());  // step 5
    rec.begin_time = pacer_.current_frame_start();

    const InputWord local = site_ == 0 ? make_input(input_.input_for_frame(frame), 0)
                                       : make_input(0, input_.input_for_frame(frame));
    peer_.submit_local(frame, local);

    // SyncInput's blocking loop: flush on schedule, wake on datagrams.
    const Time sync_start = now();
    while (!peer_.ready()) {
      if (now() - sync_start > cfg_.stall_timeout) {
        if (error) *error = "stall timeout: peer or network failed";
        return false;
      }
      wait_until(sync_start + cfg_.stall_timeout);
    }
    rec.stall = now() - sync_start;
    rec.input_ready_time = now();

    const InputWord merged = peer_.pop();
    game_.step_frame(merged);  // step 8
    replay_.record(merged);
    if (replay_.keyframe_due()) replay_.record_keyframe(game_);
    spectator_hub_.on_frame(frame, merged);
    rec.state_hash = game_.state_digest(digest_version_);
    peer_.note_state_hash(frame, rec.state_hash);
    if (peer_.desync_detected()) {
      if (error) {
        *error = "desync detected at frame " + std::to_string(peer_.desync_frame()) +
                 ": replicas diverged (non-deterministic game?)";
      }
      return false;
    }
    if (hook_) hook_(game_, rec);
    rec.compute = now() - rec.input_ready_time;

    const Time frame_end = now();
    rec.wait = pacer_.end_frame(frame_end);  // step 10
    timeline_.add(rec);

    // Sleep out the remainder, keeping the flush timer and receiver live:
    // each wait blocks until the deadline, the next flush or a datagram,
    // never spinning. A wake that lands late is charged to the next frame
    // (FramePacer::note_wake), so timer slack does not slow the schedule.
    const Time resume_at = frame_end + rec.wait;
    while (now() < resume_at) wait_until(resume_at);
    pacer_.note_wake(now());
    flush_if_due();
  }

  drain_spectators_post_game();
  return true;
}

void RealtimeSession::drain_spectators_post_game() {
  // Post-game spectator drain: without this, an observer mid-catch-up is
  // orphaned the moment our frame loop ends (its lost feed datagrams would
  // never be retransmitted).
  if (spectator_socket_ == nullptr) return;
  const Time grace_end = now() + cfg_.spectator_drain_grace;
  while (now() < grace_end && !stop_.load(std::memory_order_relaxed)) {
    pump_spectators();
    if (spectator_hub_.all_caught_up()) break;  // nobody waiting
    spectator_socket_->wait_readable(milliseconds(10));
  }
}

void RealtimeSession::record_confirmed() {
  for (; rb_recorded_ < rollback_->confirmed_frames(); ++rb_recorded_) {
    const InputWord merged = rollback_->confirmed_input(rb_recorded_);
    replay_.record(merged);
    spectator_hub_.on_frame(rb_recorded_, merged);
  }
  // Keyframes come from the confirmed snapshot only (the live machine is
  // speculative), so a rollback recording bisects over confirmed frames.
  if (rb_recorded_ > 0 && replay_.keyframe_due()) {
    replay_.record_keyframe_raw(rb_recorded_ - 1, rollback_->confirmed_digest(rb_recorded_ - 1),
                                rollback_->confirmed_state());
  }
}

bool RealtimeSession::run_rollback(std::string* error) {
  RollbackSession& rb = *rollback_;
  for (FrameNo frame = 0; frame < cfg_.frames; ++frame) {
    if (stop_.load(std::memory_order_relaxed)) {
      if (error) *error = "stopped";
      return false;
    }

    FrameRecord rec;
    rec.frame = frame;
    pacer_.begin_frame(now(), frame, rb.remote_obs());
    rec.begin_time = pacer_.current_frame_start();

    const InputWord local = site_ == 0 ? make_input(input_.input_for_frame(frame), 0)
                                       : make_input(0, input_.input_for_frame(frame));

    // Rollback's stall condition is not "remote input missing" — that is
    // predicted around — but "speculation hit the snapshot-ring bound":
    // the confirmed watermark fell window-2 frames behind, so advancing
    // once more would evict the restore target.
    const Time sync_start = now();
    while (!rb.can_advance()) {
      if (now() - sync_start > cfg_.stall_timeout) {
        if (error) *error = "stall timeout: peer or network failed";
        return false;
      }
      wait_until(sync_start + cfg_.stall_timeout);
    }
    rec.stall = now() - sync_start;
    rec.input_ready_time = now();

    const auto out = rb.advance_frame(local);
    // Speculative digest for now; backfilled with the canonical confirmed
    // digest after the confirmation drain below.
    rec.state_hash = out.digest;
    record_confirmed();
    if (rb.desync_detected()) {
      if (error) {
        *error = "desync detected at frame " + std::to_string(rb.desync_frame()) +
                 ": replicas diverged (non-deterministic game?)";
      }
      return false;
    }
    if (hook_) hook_(game_, rec);
    rec.compute = now() - rec.input_ready_time;

    const Time frame_end = now();
    rec.wait = pacer_.end_frame(frame_end);
    timeline_.add(rec);

    // Sleep out the remainder exactly as the lockstep loop does.
    const Time resume_at = frame_end + rec.wait;
    while (now() < resume_at) wait_until(resume_at);
    pacer_.note_wake(now());
    flush_if_due();
  }

  // Confirmation drain: every executed frame must be confirmed against the
  // peer's actual inputs before the timelines/replay are canonical.
  const Time confirm_deadline = now() + cfg_.stall_timeout;
  while (rb.confirmed_frames() < cfg_.frames) {
    if (stop_.load(std::memory_order_relaxed) || now() > confirm_deadline) {
      if (error) *error = "rollback confirmation drain timed out";
      return false;
    }
    wait_until(confirm_deadline);
    record_confirmed();
  }
  record_confirmed();
  if (rb.desync_detected()) {
    if (error) {
      *error = "desync detected at frame " + std::to_string(rb.desync_frame()) +
               ": replicas diverged (non-deterministic game?)";
    }
    return false;
  }
  // Backfill the timeline with confirmed digests: archived timelines (and
  // rtct_trace comparisons) always describe the canonical history.
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    timeline_.set_state_hash(i, rb.confirmed_digest(static_cast<FrameNo>(i)));
  }
  // Lame duck: the peer cannot finish confirming its own tail without our
  // inputs — keep flushing until it acked everything (bounded).
  const Time lame_end = now() + cfg_.spectator_drain_grace;
  while (!rb.fully_acked() && now() < lame_end &&
         !stop_.load(std::memory_order_relaxed)) {
    wait_until(lame_end);
  }
  drain_spectators_post_game();
  return true;
}

void RealtimeSession::export_metrics(MetricsRegistry& reg) const {
  if (rollback_ != nullptr) {
    rollback_->export_metrics(reg);
  } else {
    peer_.export_metrics(reg);
  }
  pacer_.export_metrics(reg);
  session_.export_metrics(reg);
  timeline_.export_metrics(reg);
  socket_.export_metrics(reg);
  reg.counter("session.flushes").set(flush_clock_.fires());
  reg.counter("session.flush_reanchors").set(flush_clock_.reanchors());
  reg.counter("session.wakeups").set(wakeups_);
  reg.counter("session.dropped_unknown_sender").set(dropped_unknown_sender_);
  reg.gauge("spectator.host.count").set(static_cast<double>(spectator_ids_.size()));
  spectator_hub_.export_metrics(reg);
  // The stable per-observer-host aggregate names stay populated (fed from
  // the hub, identical semantics: counters sum across observers).
  const SpectatorHubStats& s = spectator_hub_.stats();
  reg.counter("spectator.host.join_requests_rcvd").set(s.join_requests_rcvd);
  reg.counter("spectator.host.snapshots_sent").set(s.snapshots_sent);
  reg.counter("spectator.host.feed_messages_sent").set(s.feed_messages_sent);
  reg.counter("spectator.host.inputs_fed").set(s.inputs_fed);
  reg.counter("spectator.host.acks_rcvd").set(s.acks_rcvd);
  reg.gauge("spectator.host.joined").set(static_cast<double>(spectator_hub_.joined_count()));
  reg.gauge("spectator.host.backlog").set(static_cast<double>(spectator_hub_.backlog_size()));
}

}  // namespace rtct::core
