#include "src/core/rollback.h"

#include <algorithm>

#include "src/common/telemetry.h"

namespace rtct::core {

RollbackSession::RollbackSession(SyncPeer& peer, emu::IDeterministicGame& game, SyncConfig cfg)
    : peer_(peer),
      game_(game),
      cfg_(cfg),
      delay_(std::max(0, cfg.rollback_input_delay)),
      // The ring must hold the restore target plus the whole speculation
      // span; anything smaller than delay + a few frames of slack would
      // stall immediately, so clamp rather than trust the config blindly.
      window_(std::max(cfg.rollback_window, delay_ + 4)) {
  ring_.resize(static_cast<std::size_t>(window_));
  game_.save_state_into(genesis_);
  ++rstats_.snapshots_saved;
  // The input delay is the peer's lag: frames [0, d) run with the paper's
  // empty partial inputs at *every* site, so they are known in advance and
  // nobody ever sends them. A peer that already moved cannot adopt it:
  // fail the session loudly rather than run with mismatched lags.
  if (!peer_.set_buf_frames(delay_)) peer_.flag_desync(0);
}

void RollbackSession::execute_frame(FrameNo f) {
  const std::optional<InputWord> actual = peer_.remote_input(f);
  const InputWord remote = actual ? *actual : predicted_remote(f);
  const auto merged = static_cast<InputWord>(peer_.local_input(f) | remote);
  // Only a predicted frame can be rolled back to, and a rollback to f
  // restores the state after f - 1 (genesis for f == 0): save it now.
  if (!actual && f > 0) save_live_state_after(f - 1);
  Slot& s = slot(f);
  release(s);  // the state after f is about to change
  game_.step_frame(merged);
  s.digest = game_.state_digest(emu::kStateDigestVersion);
  s.merged = merged;
  s.remote_used = remote;
  s.remote_actual = actual.has_value();
}

std::uint64_t RollbackSession::advance_frame(InputWord local_input) {
  const FrameNo f = executed_;
  peer_.submit_local(f, local_input);
  reconcile();
  execute_frame(f);
  ++executed_;
  ++rstats_.frames_executed;
  const Slot& s = slot(f);
  if (!s.remote_actual) ++rstats_.predicted_frames;
  advance_confirmed();
  return s.digest;
}

void RollbackSession::reconcile() {
  // Verify predictions in frame order: the first frame whose actual remote
  // input disagrees with what was used invalidates everything after it.
  FrameNo bad = -1;
  for (FrameNo f = confirmed_; f < executed_; ++f) {
    Slot& s = slot(f);
    if (s.remote_actual) continue;
    const std::optional<InputWord> actual = peer_.remote_input(f);
    if (!actual) continue;
    if (*actual == s.remote_used) {
      // Prediction was right: the frame executed with the real input and
      // stands as-is (the common case — inputs are runs of equal words).
      s.remote_actual = true;
    } else {
      bad = f;
      break;
    }
  }
  if (bad >= 0) rollback_and_resim(bad);
  advance_confirmed();
}

void RollbackSession::rollback_and_resim(FrameNo from) {
  const FrameNo top = executed_;
  ++rstats_.rollbacks;
  rstats_.max_rollback_depth =
      std::max(rstats_.max_rollback_depth, static_cast<int>(top - from));
  restore_state_after(from - 1);
  for (FrameNo f = from; f < top; ++f) {
    const InputWord prev_used = slot(f).remote_used;
    execute_frame(f);
    if (slot(f).remote_used != prev_used) ++rstats_.mispredicted_frames;
    ++rstats_.frames_resimulated;
  }
}

void RollbackSession::restore_state_after(FrameNo f) {
  const int buf = f < 0 ? -1 : slot(f).buf;
  const bool ok = f < 0 ? game_.load_state(genesis_)
                        : buf >= 0 && game_.load_state(pool_[static_cast<std::size_t>(buf)]);
  // A missing restore point, or a snapshot that refuses to load back, is
  // state corruption: surface it through the desync channel so drivers
  // abort the session instead of silently diverging.
  if (!ok) peer_.flag_desync(f < 0 ? 0 : f);
}

void RollbackSession::save_live_state_after(FrameNo f) {
  Slot& s = slot(f);
  if (s.buf >= 0) return;  // a re-execution of f would have released it
  if (free_.empty()) {
    free_.push_back(static_cast<int>(pool_.size()));
    pool_.emplace_back();
    rstats_.snapshot_buffers = static_cast<int>(pool_.size());
  }
  s.buf = free_.back();  // the buffer freed last, still warm in cache
  free_.pop_back();
  game_.save_state_into(pool_[static_cast<std::size_t>(s.buf)]);
  ++rstats_.snapshots_saved;
}

void RollbackSession::release(Slot& s) {
  if (s.buf < 0) return;
  free_.push_back(s.buf);
  s.buf = -1;
}

std::span<const std::uint8_t> RollbackSession::confirmed_state() {
  // Frame confirmed_ (if executed) ran predicted and saved this state
  // first; with nothing in flight the live state is the confirmed one.
  if (executed_ == confirmed_) save_live_state_after(confirmed_ - 1);
  const int buf = slot(confirmed_ - 1).buf;
  return buf < 0 ? std::span<const std::uint8_t>{} : pool_[static_cast<std::size_t>(buf)];
}

void RollbackSession::advance_confirmed() {
  // A confirmed frame executed with every site's actual input, so the
  // peer holds all of them: pop it (which also lets the peer reclaim the
  // entry once acked) and report its digest to the hash tripwire.
  while (confirmed_ < executed_ && slot(confirmed_).remote_actual) {
    const Slot& s = slot(confirmed_);
    confirmed_digests_.push_back(s.digest);
    confirmed_inputs_.push_back(s.merged);
    peer_.pop();
    peer_.note_state_hash(confirmed_, s.digest);
    if (confirmed_ > 0) release(slot(confirmed_ - 1));  // no rollback reaches it now
    ++confirmed_;
  }
}

void RollbackSession::export_metrics(MetricsRegistry& reg) const {
  reg.counter("rollback.frames_executed").set(rstats_.frames_executed);
  reg.counter("rollback.frames_resimulated").set(rstats_.frames_resimulated);
  reg.counter("rollback.rollbacks").set(rstats_.rollbacks);
  reg.counter("rollback.predicted_frames").set(rstats_.predicted_frames);
  reg.counter("rollback.mispredicted_frames").set(rstats_.mispredicted_frames);
  reg.gauge("rollback.max_depth").set(rstats_.max_rollback_depth);
  reg.counter("rollback.snapshots_saved").set(rstats_.snapshots_saved);
  reg.gauge("rollback.snapshot_buffers").set(rstats_.snapshot_buffers);
  reg.gauge("rollback.input_delay").set(delay_);
  reg.gauge("rollback.confirmed_frame").set(static_cast<double>(confirmed_));
  reg.gauge("rollback.executed_frame").set(static_cast<double>(executed_));
}

}  // namespace rtct::core
