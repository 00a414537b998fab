#include "src/core/frame_loop.h"

#include <algorithm>

#include "src/common/telemetry.h"
#include "src/core/wire.h"

namespace rtct::core {

FrameLoop::FrameLoop(SiteId site, int num_sites, emu::IDeterministicGame& game,
                     InputSource& input, const SyncConfig& cfg, PacingPolicy pacing, int frames)
    : site_(site),
      num_sites_(num_sites),
      game_(game),
      input_(input),
      cfg_(cfg),
      frames_(frames),
      digest_version_(cfg.digest_version()),
      peer_(site, cfg, num_sites),
      pacer_(cfg, pacing),
      session_(site, game.content_id(), cfg),
      replay_(game.content_id(), cfg, game.content_name()),
      spectators_(game.content_id(), cfg) {
  // Whole matches up front (no regrowth in the loop); a long wall-clock
  // session grows past the first ~18 minutes.
  timeline_.reserve(static_cast<std::size_t>(std::clamp(frames, 0, 1 << 16)));
}

void FrameLoop::skip_handshake() {
  handshake_ = false;
  adopt_session();
  phase_ = Phase::kFrameStart;
}

void FrameLoop::adopt_session() {
  if (adopted_) return;
  adopted_ = true;
  // Without a handshake the session reports the configured values, so the
  // mesh adopts its shared config through the same path.
  digest_version_ = session_.digest_version();
  // The recording is rebuilt with the *effective* config either way: the
  // negotiated digest version stamps the replay's keyframe digests.
  SyncConfig eff = cfg_;
  eff.digest_v2 = digest_version_ == 2;
  if (session_.rollback_mode()) {
    // Build the speculation engine over the peer with the *negotiated*
    // input delay (the master's travels in START); it snapshots the
    // pre-frame-0 state as its genesis.
    eff.rollback_input_delay = session_.rollback_delay();
    rollback_ = std::make_unique<RollbackSession>(peer_, game_, eff);
  } else {
    eff.buf_frames = session_.effective_buf_frames();
    peer_.set_buf_frames(eff.buf_frames);
  }
  replay_ = Replay(game_.content_id(), eff, game_.content_name());
}

FrameLoop::Phase FrameLoop::next_phase() const {
  if (frame_ < frames_) return Phase::kFrameStart;
  return rollback_ != nullptr ? Phase::kConfirm : Phase::kLameDuck;
}

LoopWait FrameLoop::enter(Phase phase, Time now) {
  phase_ = phase;
  phase_since_ = now;
  if (phase == Phase::kFrameStart) return {LoopWait::Kind::kSleep, now};
  return step(now);  // a post-game phase: run it right away
}

LoopWait FrameLoop::step(Time now) {
  using Kind = LoopWait::Kind;
  switch (phase_) {
    case Phase::kHandshake:
      if (phase_since_ < 0) phase_since_ = now;
      if (session_.state() == SessionState::kFailed) return {Kind::kFailed};
      if (!session_.running()) return {Kind::kNetwork};
      adopt_session();
      return enter(next_phase(), now);

    case Phase::kFrameStart:
      begin_frame(now);
      [[fallthrough]];
    case Phase::kSync:
      if (!sync_ready()) return {Kind::kNetwork};
      rec_.stall = now - phase_since_;
      rec_.input_ready_time = now;
      execute();
      phase_ = Phase::kCompute;
      return {Kind::kSleep, now};

    case Phase::kCompute:
      rec_.compute = now - rec_.input_ready_time;
      rec_.wait = pacer_.end_frame(now);  // step 10
      timeline_.add(rec_);
      resume_at_ = now + rec_.wait;
      phase_ = Phase::kPace;
      return {Kind::kSleep, resume_at_};

    case Phase::kPace:
      // A wall-clock wait may end early (a datagram) or late (timer slack);
      // a late wake is charged to the next frame by the pacer.
      if (now < resume_at_) return {Kind::kSleep, resume_at_};
      pacer_.note_wake(now);
      ++frame_;
      return enter(next_phase(), now);

    case Phase::kConfirm:
      // Every frame has executed; the tail is canonical only once it is
      // confirmed against the peers' actual inputs.
      rollback_->reconcile();
      record_confirmed();
      if (rollback_->confirmed_frames() < frames_) return {Kind::kNetwork};
      // Archived timelines (and rtct_trace comparisons) describe the
      // canonical history: replace each speculative digest.
      for (std::size_t i = 0; i < timeline_.size(); ++i) {
        timeline_.set_state_hash(i, rollback_->confirmed_digest(static_cast<FrameNo>(i)));
      }
      return enter(Phase::kLameDuck, now);

    case Phase::kLameDuck:
      // A peer cannot finish without our inputs for its last frames: keep
      // flushing until every peer has acked them (and heard our acks).
      return {tail_settled() ? Kind::kDone : Kind::kNetwork};
  }
  return {Kind::kFailed};
}

void FrameLoop::begin_frame(Time now) {
  pacer_.begin_frame(now, frame_, peer_.remote_obs());  // step 5
  rec_ = FrameRecord{};
  rec_.frame = frame_;
  rec_.begin_time = now;
  // Each site owns an equal span of the input word (SET[k]).
  local_ = pack_player_bits_n(input_.input_for_frame(frame_), site_, num_sites_);
  if (rollback_ == nullptr) peer_.submit_local(frame_, local_);  // step 7, lines 1-5
  phase_ = Phase::kSync;
  phase_since_ = now;
  waited_ = false;
}

bool FrameLoop::sync_ready() {
  if (rollback_ == nullptr) return peer_.ready();
  // Rollback never stalls on a late remote input — it predicts. The only
  // wait is the ring bound: speculation may not outrun the confirmed
  // watermark by more than window - 2 frames. What arrived during a wait
  // is reconciled before the bound is tested again.
  if (waited_) rollback_->reconcile();
  waited_ = true;
  return rollback_->can_advance();
}

void FrameLoop::execute() {
  if (rollback_ != nullptr) {
    // Speculative digest for now; the confirmation drain backfills the
    // confirmed one.
    rec_.state_hash = rollback_->advance_frame(local_);
    record_confirmed();
    return;
  }
  const InputWord merged = peer_.pop();
  game_.step_frame(merged);  // step 8: Transition(I, S)
  replay_.record(merged);
  if (replay_.keyframe_due()) replay_.record_keyframe(game_);
  rec_.state_hash = game_.state_digest(digest_version_);
  peer_.note_state_hash(frame_, rec_.state_hash);  // desync tripwire
  spectators_.on_frame(frame_, merged);
}

void FrameLoop::record_confirmed() {
  for (; recorded_ < rollback_->confirmed_frames(); ++recorded_) {
    const InputWord merged = rollback_->confirmed_input(recorded_);
    replay_.record(merged);
    spectators_.on_frame(recorded_, merged);
  }
  // Keyframes come from the confirmed snapshot only (the live machine is
  // speculative), so a rollback recording bisects over confirmed frames.
  if (recorded_ > 0 && replay_.keyframe_due()) {
    replay_.record_keyframe_raw(recorded_ - 1, rollback_->confirmed_digest(recorded_ - 1),
                                rollback_->confirmed_state());
  }
}

bool FrameLoop::tail_settled() const {
  // Our input for frame f travels as frame f: a peer's ack of frames - 1
  // covers every input it executes (inputs past the last frame are never
  // needed). Our own ack of its last inputs must have gone out too, or the
  // peer would wait for it after we left.
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == site_) continue;
    if (peer_.last_ack_frame(s) < frames_ - 1 || peer_.ack_sent_frame(s) < frames_ - 1) {
      return false;
    }
  }
  return true;
}

void FrameLoop::on_datagram(std::span<const std::uint8_t> payload, Time now) {
  const auto msg = decode_message(payload);
  if (!msg) return;  // malformed datagram: drop, UDP-style
  if (const auto* sync = std::get_if<SyncMsg>(&*msg)) {
    if (handshake_) session_.note_sync_traffic(now);
    if (started()) {
      adopt_session();
      peer_.ingest(*sync, now);
    }
  } else if (handshake_) {
    session_.ingest(*msg, now);
  }
}

std::optional<std::span<const std::uint8_t>> FrameLoop::session_datagram(Time now) {
  if (!handshake_) return std::nullopt;
  const auto msg = session_.poll(now);
  if (!msg) return std::nullopt;
  encode_message_into(*msg, wire_scratch_);
  return wire_scratch_;
}

std::optional<std::span<const std::uint8_t>> FrameLoop::sync_datagram(SiteId peer, Time now) {
  if (!started()) return std::nullopt;
  adopt_session();
  const auto msg = peer_.make_message(peer, now);
  if (!msg) return std::nullopt;
  encode_message_into(Message{*msg}, wire_scratch_);
  return wire_scratch_;
}

void FrameLoop::offer_spectator_snapshot() {
  // Never serve a snapshot before frame 0 executed: it would be labeled
  // frame -1, captured while the handshake can still renegotiate. The join
  // request stays pending until a later offer.
  if (!spectators_.wants_snapshot()) return;
  if (rollback_ != nullptr) {
    // The live machine is speculative: seed observers from the newest
    // confirmed snapshot so their replica matches the confirmed feed.
    if (rollback_->confirmed_frames() > 0) {
      spectators_.provide_snapshot(rollback_->confirmed_frames() - 1,
                                   rollback_->confirmed_state());
    }
  } else if (game_.frame() > 0) {
    // Drivers call this between Transitions: a consistent state.
    game_.save_state_into(snapshot_scratch_);
    spectators_.provide_snapshot(game_.frame() - 1, snapshot_scratch_);
  }
}

void FrameLoop::export_metrics(MetricsRegistry& reg) const {
  peer_.export_metrics(reg);
  if (rollback_ != nullptr) rollback_->export_metrics(reg);
  pacer_.export_metrics(reg);
  session_.export_metrics(reg);
  timeline_.export_metrics(reg);
  spectators_.export_metrics(reg);
}

}  // namespace rtct::core
