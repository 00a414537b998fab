// RollbackSession unit tests: two sessions, each consuming its own
// SyncPeer, wired back to back through a hand-driven message queue (no
// virtual-clock testbed, no sockets), so
// each test controls exactly when datagrams arrive, get duplicated, get
// dropped, or get corrupted. The chaos suites cover the integrated
// behaviour; these pin down the speculation engine's contract in
// isolation:
//
//   * confirmed history is canonical — byte-for-byte equal between the
//     two sites AND equal to a straight-line replica that never rolled
//     back (the tentpole invariant, checked here at unit granularity);
//   * hold-last prediction never rolls back while inputs are constant;
//   * speculation is bounded by rollback_window and resumes after
//     confirmation catches up;
//   * go-back-N retransmission survives loss, duplication and reordering;
//   * the hash tripwire flags a forged state hash at the exact frame;
//   * confirmed_state() is a loadable snapshot of the confirmed frontier;
//   * a SYNC naming a site outside the session touches nothing;
//   * the session saves exactly the restore points a rollback can use
//     (one per predicted execution), into a pool no larger than the
//     speculation span plus one.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/telemetry.h"
#include "src/core/rollback.h"
#include "src/games/cellwars.h"

namespace rtct::core {
namespace {

SyncConfig rollback_cfg(int delay = 2, int window = 16) {
  SyncConfig cfg;
  cfg.rollback = true;
  cfg.rollback_input_delay = delay;
  cfg.rollback_window = window;
  cfg.hash_interval = 10;
  return cfg;
}

/// A cellwars game that counts the session's snapshot work: every
/// save_state_into, and every step of a frame f > 0 whose remote input
/// `peer` does not hold yet (a predicted execution, which must save the
/// state before it).
class CountingGame final : public emu::IDeterministicGame {
 public:
  explicit CountingGame(const SyncPeer& peer) : peer_(peer), inner_(games::make_cellwars()) {}

  void reset() override { inner_->reset(); }
  void step_frame(InputWord input) override {
    const FrameNo f = inner_->frame();
    if (f > 0 && !peer_.remote_input(f)) ++predicted_steps;
    inner_->step_frame(input);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return inner_->state_hash(); }
  [[nodiscard]] std::uint64_t state_digest(int version) const override {
    return inner_->state_digest(version);
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override {
    return inner_->save_state();
  }
  void save_state_into(std::vector<std::uint8_t>& out) const override {
    ++saves;
    inner_->save_state_into(out);
  }
  bool load_state(std::span<const std::uint8_t> data) override {
    return inner_->load_state(data);
  }
  [[nodiscard]] FrameNo frame() const override { return inner_->frame(); }
  [[nodiscard]] std::uint64_t content_id() const override { return inner_->content_id(); }

  mutable std::uint64_t saves = 0;
  std::uint64_t predicted_steps = 0;

 private:
  const SyncPeer& peer_;
  std::unique_ptr<emu::IDeterministicGame> inner_;
};

/// Two RollbackSessions (each over its own SyncPeer) over an explicit
/// in-order delay queue. Each step()
/// delivers due messages, reconciles, advances one frame per site (inputs
/// from a caller-supplied schedule), and flushes outbound traffic.
struct Rig {
  explicit Rig(SyncConfig cfg = rollback_cfg(), Dur one_way = milliseconds(5))
      : cfg_(cfg),
        one_way_(one_way),
        pa_(0, cfg),
        pb_(1, cfg),
        game_a_(pa_),
        game_b_(pb_),
        a_(pa_, game_a_, cfg),
        b_(pb_, game_b_, cfg) {}

  void deliver_due() {
    while (!to_a_.empty() && to_a_.front().first <= now_) {
      pa_.ingest(to_a_.front().second, now_);
      to_a_.pop_front();
    }
    while (!to_b_.empty() && to_b_.front().first <= now_) {
      pb_.ingest(to_b_.front().second, now_);
      to_b_.pop_front();
    }
    a_.reconcile();
    b_.reconcile();
  }

  void flush() {
    if (auto m = pa_.make_message(1, now_)) to_b_.emplace_back(now_ + one_way_, *m);
    if (auto m = pb_.make_message(0, now_)) to_a_.emplace_back(now_ + one_way_, *m);
  }

  /// One frame on both sites. `pa`/`pb` are the per-player button bytes
  /// for this call (the session applies them `delay` frames later).
  void step(std::uint8_t pa, std::uint8_t pb) {
    now_ += milliseconds(16);
    deliver_due();
    ASSERT_TRUE(a_.can_advance());
    ASSERT_TRUE(b_.can_advance());
    a_.advance_frame(make_input(pa, 0));
    b_.advance_frame(make_input(0, pb));
    flush();
  }

  /// Pumps the network (no new frames) until both sides confirmed all
  /// `frames` and acked each other's full input history.
  void drain(FrameNo frames) {
    for (int i = 0; i < 1000; ++i) {
      if (a_.confirmed_frames() >= frames && b_.confirmed_frames() >= frames &&
          pa_.last_ack_frame(1) >= pa_.last_rcv_frame(0) &&
          pb_.last_ack_frame(0) >= pb_.last_rcv_frame(1)) {
        return;
      }
      now_ += milliseconds(16);
      deliver_due();
      flush();
    }
    FAIL() << "drain did not converge: a confirmed " << a_.confirmed_frames()
           << ", b confirmed " << b_.confirmed_frames();
  }

  /// Asserts both sites agree on the confirmed history AND that it equals
  /// a straight-line replica stepping the same merged inputs with no
  /// speculation at all.
  void expect_canonical_history(FrameNo frames) {
    ASSERT_EQ(a_.confirmed_frames(), frames);
    ASSERT_EQ(b_.confirmed_frames(), frames);
    auto twin = games::make_cellwars();
    for (FrameNo f = 0; f < frames; ++f) {
      ASSERT_EQ(a_.confirmed_input(f), b_.confirmed_input(f)) << "frame " << f;
      ASSERT_EQ(a_.confirmed_digest(f), b_.confirmed_digest(f)) << "frame " << f;
      twin->step_frame(a_.confirmed_input(f));
      ASSERT_EQ(twin->state_digest(emu::kStateDigestVersion), a_.confirmed_digest(f))
          << "straight-line twin diverged at frame " << f;
    }
    EXPECT_FALSE(pa_.desync_detected());
    EXPECT_FALSE(pb_.desync_detected());
  }

  SyncConfig cfg_;
  Dur one_way_;
  Time now_ = 0;
  SyncPeer pa_, pb_;
  CountingGame game_a_, game_b_;
  RollbackSession a_, b_;
  std::deque<std::pair<Time, SyncMsg>> to_a_, to_b_;
};

TEST(RollbackSessionTest, ConstantInputsNeverRollBack) {
  // Hold-last prediction of a constant stream is always right: the
  // speculative path must leave zero rollbacks and zero re-simulated
  // frames, while still predicting (with ~2.5 frames of one-way latency
  // the actual input always lands after the frame already executed).
  Rig rig(rollback_cfg(), milliseconds(40));
  constexpr FrameNo kFrames = 60;
  for (FrameNo f = 0; f < kFrames; ++f) rig.step(0, 0);
  rig.drain(kFrames);
  rig.expect_canonical_history(kFrames);
  EXPECT_EQ(rig.a_.rollback_stats().rollbacks, 0u);
  EXPECT_EQ(rig.b_.rollback_stats().rollbacks, 0u);
  EXPECT_EQ(rig.a_.rollback_stats().frames_resimulated, 0u);
  EXPECT_GT(rig.a_.rollback_stats().predicted_frames, 0u)
      << "test is vacuous if nothing was ever predicted";
  EXPECT_EQ(rig.a_.rollback_stats().mispredicted_frames, 0u);
}

TEST(RollbackSessionTest, MispredictionRollsBackToCanonicalHistory) {
  // ~3 frames of one-way latency, with both players changing buttons
  // mid-run: every change lands after the frame already executed with the
  // held-last guess, forcing restore + re-simulate. The confirmed history
  // must come out identical to the never-speculated twin.
  Rig rig(rollback_cfg(), milliseconds(50));
  constexpr FrameNo kFrames = 80;
  for (FrameNo f = 0; f < kFrames; ++f) {
    // Button patterns with edges every few frames (Up/A-style bits).
    const auto pa = static_cast<std::uint8_t>((f / 5) % 3 == 0 ? 0x11 : 0x02);
    const auto pb = static_cast<std::uint8_t>((f / 7) % 2 == 0 ? 0x08 : 0x14);
    rig.step(pa, pb);
  }
  rig.drain(kFrames);
  rig.expect_canonical_history(kFrames);
  EXPECT_GT(rig.a_.rollback_stats().rollbacks, 0u)
      << "input edges under 3-frame latency must have forced a rollback";
  EXPECT_GT(rig.a_.rollback_stats().mispredicted_frames, 0u);
  EXPECT_GT(rig.a_.rollback_stats().frames_resimulated, 0u);
  EXPECT_GT(rig.a_.rollback_stats().max_rollback_depth, 0);
  EXPECT_LE(rig.a_.rollback_stats().max_rollback_depth, rig.cfg_.rollback_window);
}

TEST(RollbackSessionTest, SpeculationStopsAtRingBoundAndResumes) {
  // With the network fully severed, speculation must halt exactly at the
  // rollback_window bound — and resume once traffic confirms frames.
  Rig rig(rollback_cfg(/*delay=*/2, /*window=*/8));
  // Sever the network: step() flushes into the queues but nothing is
  // delivered until we say so.
  int steps = 0;
  while (rig.a_.can_advance() && steps < 100) {
    rig.now_ += milliseconds(16);
    rig.a_.advance_frame(0);
    rig.b_.advance_frame(0);
    rig.flush();
    ++steps;
  }
  ASSERT_LT(steps, 100) << "speculation never hit the ring bound";
  // Frames [0, delay) carry prefilled actual inputs and self-confirm, so
  // the bound lands at confirmed + window - 1 executed frames.
  EXPECT_EQ(rig.a_.current_frame(),
            rig.a_.confirmed_frames() + rig.cfg_.rollback_window - 1);
  EXPECT_FALSE(rig.b_.can_advance());

  // Reconnect: deliver everything, confirmation catches up, speculation
  // may proceed again.
  rig.now_ += milliseconds(16);
  rig.deliver_due();
  EXPECT_TRUE(rig.a_.can_advance());
  EXPECT_TRUE(rig.b_.can_advance());
  const FrameNo done = rig.a_.current_frame();
  rig.drain(done);
  rig.expect_canonical_history(done);
}

TEST(RollbackSessionTest, SurvivesLossDuplicationAndReordering) {
  // Go-back-N windows make the input stream self-healing: drop every 3rd
  // datagram, deliver the rest twice, and flip delivery order in pairs.
  // Confirmed history must still be canonical on both sides.
  Rig rig(rollback_cfg(), milliseconds(30));
  constexpr FrameNo kFrames = 60;
  std::uint64_t counter = 0;
  FrameNo max_lead = 0;  // deepest executed - confirmed span seen
  for (FrameNo f = 0; f < kFrames; ++f) {
    rig.now_ += milliseconds(16);
    // Mangle the pending queues before delivery: drop / duplicate.
    for (auto* q : {&rig.to_a_, &rig.to_b_}) {
      std::deque<std::pair<Time, SyncMsg>> mangled;
      for (auto& [t, m] : *q) {
        ++counter;
        if (t > rig.now_) {
          mangled.emplace_back(t, std::move(m));  // not due yet — keep
        } else if (counter % 3 == 0) {
          continue;  // dropped
        } else {
          mangled.emplace_back(t, m);
          mangled.emplace_back(t, std::move(m));  // duplicated
        }
      }
      // Reorder adjacent due pairs.
      for (std::size_t i = 1; i < mangled.size(); i += 2) {
        if (mangled[i].first <= rig.now_ && mangled[i - 1].first <= rig.now_) {
          std::swap(mangled[i], mangled[i - 1]);
        }
      }
      *q = std::move(mangled);
    }
    rig.deliver_due();
    ASSERT_TRUE(rig.a_.can_advance());
    ASSERT_TRUE(rig.b_.can_advance());
    const auto pa = static_cast<std::uint8_t>((f / 4) % 2 == 0 ? 0x11 : 0x00);
    const auto pb = static_cast<std::uint8_t>((f / 6) % 2 == 0 ? 0x00 : 0x12);
    rig.a_.advance_frame(make_input(pa, 0));
    rig.b_.advance_frame(make_input(0, pb));
    max_lead = std::max(max_lead, rig.a_.current_frame() - rig.a_.confirmed_frames());
    rig.flush();
  }
  rig.drain(kFrames);
  rig.expect_canonical_history(kFrames);
  // The mangling must actually have exercised the dup path (telemetry
  // invariant: duplicates are counted as duplicates, not stale drops).
  EXPECT_GT(rig.pa_.stats().duplicate_inputs_rcvd, 0u);
  EXPECT_EQ(rig.pa_.stats().stale_messages, 0u);
  // The snapshot pool is sized by the speculation span, not the window.
  const RollbackStats& st = rig.a_.rollback_stats();
  EXPECT_GT(st.rollbacks, 0u) << "the pool bound is vacuous without rollbacks";
  EXPECT_GT(st.snapshot_buffers, 0);
  EXPECT_LE(st.snapshot_buffers, max_lead + 1);
  EXPECT_EQ(st.snapshots_saved, rig.game_a_.saves);
  MetricsRegistry reg;
  rig.a_.export_metrics(reg);
  EXPECT_EQ(reg.counter("rollback.snapshots_saved").value(), st.snapshots_saved);
  EXPECT_EQ(reg.gauge("rollback.snapshot_buffers").value(), st.snapshot_buffers);
}

TEST(RollbackSessionTest, ForgedStateHashTripsDesyncAtThatFrame) {
  // Corrupt the first hash-carrying message from B in flight. A must not
  // crash or diverge silently: the tripwire flags the exact interval
  // frame once A's own confirmed history reaches it.
  Rig rig;
  constexpr FrameNo kFrames = 40;
  bool forged = false;
  FrameNo forged_frame = -1;
  for (FrameNo f = 0; f < kFrames; ++f) {
    rig.step(0x11, 0x11);
    if (!forged) {
      for (auto& [t, m] : rig.to_a_) {
        if (m.hash_frame >= 0) {
          m.state_hash ^= 0xBADC0DEull;
          forged = true;
          forged_frame = m.hash_frame;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(forged) << "hash_interval=10 over 40 frames must attach a hash";
  // Pump without asserting cleanliness (drain() is fine — desync does not
  // stop the transport, only flags it).
  rig.drain(kFrames);
  EXPECT_TRUE(rig.pa_.desync_detected());
  EXPECT_EQ(rig.pa_.desync_frame(), forged_frame);
  EXPECT_FALSE(rig.pb_.desync_detected()) << "B's own history is untouched";
}

TEST(RollbackSessionTest, ConfirmedStateIsALoadableSnapshotOfTheFrontier) {
  // confirmed_state() is what late-joining spectators are seeded from; it
  // must be exactly the machine state after the newest confirmed frame,
  // not a speculative one. Load it into a fresh game and compare digests.
  Rig rig(rollback_cfg(), milliseconds(50));
  for (FrameNo f = 0; f < 50; ++f) {
    const auto pa = static_cast<std::uint8_t>((f / 3) % 2 == 0 ? 0x11 : 0x04);
    rig.step(pa, 0x12);
  }
  const FrameNo confirmed = rig.a_.confirmed_frames();
  ASSERT_GT(confirmed, 0);
  ASSERT_LT(confirmed, rig.a_.current_frame())
      << "latency must leave a speculative tail for this test to bite";
  auto probe = games::make_cellwars();
  ASSERT_TRUE(probe->load_state(rig.a_.confirmed_state()));
  EXPECT_EQ(probe->frame(), confirmed);
  EXPECT_EQ(probe->state_digest(emu::kStateDigestVersion),
            rig.a_.confirmed_digest(confirmed - 1));
  // And it is *not* the speculative head state.
  EXPECT_NE(probe->frame(), rig.a_.current_frame());
}

TEST(RollbackSessionTest, SavesExactlyOneRestorePointPerPredictedExecution) {
  // Mispredictions under ~3 frames of latency force rollbacks, so the
  // predicted executions include re-simulated ones. Each saves the state
  // before it once; actual-input executions save nothing.
  Rig rig(rollback_cfg(), milliseconds(50));
  constexpr FrameNo kFrames = 80;
  for (FrameNo f = 0; f < kFrames; ++f) {
    const auto pa = static_cast<std::uint8_t>((f / 5) % 3 == 0 ? 0x11 : 0x02);
    const auto pb = static_cast<std::uint8_t>((f / 7) % 2 == 0 ? 0x08 : 0x14);
    rig.step(pa, pb);
  }
  rig.drain(kFrames);
  rig.expect_canonical_history(kFrames);
  ASSERT_GT(rig.a_.rollback_stats().frames_resimulated, 0u);
  const CountingGame& game = rig.game_a_;
  // One save for genesis, one per predicted execution past frame 0.
  EXPECT_EQ(game.saves, 1 + game.predicted_steps);
  EXPECT_EQ(rig.a_.rollback_stats().snapshots_saved, game.saves);

  // Nothing in flight: confirmed_state() saves the live state once.
  ASSERT_EQ(rig.a_.current_frame(), rig.a_.confirmed_frames());
  const std::vector<std::uint8_t> confirmed(rig.a_.confirmed_state().begin(),
                                            rig.a_.confirmed_state().end());
  EXPECT_EQ(game.saves, 2 + game.predicted_steps);
  EXPECT_EQ(confirmed, game.save_state());
  auto probe = games::make_cellwars();
  ASSERT_TRUE(probe->load_state(confirmed));
  EXPECT_EQ(probe->state_digest(emu::kStateDigestVersion),
            rig.a_.confirmed_digest(kFrames - 1));
  (void)rig.a_.confirmed_state();
  EXPECT_EQ(game.saves, 2 + game.predicted_steps) << "a second call saves nothing";
}

TEST(RollbackSessionTest, RollbackPastAnUnverifiedGapRestoresAndConverges) {
  // The remote inputs for frames [delay, kGap) are lost while a later
  // window arrives and contradicts the prediction: the first wrong frame
  // lies past frames still unverified, so its restore point is one saved
  // when it first ran predicted. The gap then arrives, contradicting too,
  // and rolls back to the oldest restore point.
  const SyncConfig cfg = rollback_cfg(/*delay=*/2, /*window=*/16);
  SyncPeer peer(0, cfg);
  CountingGame game(peer);
  RollbackSession s(peer, game, cfg);
  constexpr FrameNo kFrames = 12;
  constexpr FrameNo kGap = 6;
  for (FrameNo f = 0; f < kFrames; ++f) s.advance_frame(make_input(0x01, 0));
  ASSERT_EQ(s.confirmed_frames(), 2) << "only frames [0, delay) self-confirm";
  auto deliver = [&](FrameNo first, FrameNo count, std::uint8_t buttons) {
    SyncMsg m;
    m.site = 1;
    m.ack_frame = -1;
    m.first_frame = first;
    m.inputs.assign(static_cast<std::size_t>(count), make_input(0, buttons));
    peer.ingest(m, 0);
    s.reconcile();
  };

  deliver(kGap, 4, 0x12);
  EXPECT_EQ(s.rollback_stats().rollbacks, 1u);
  EXPECT_EQ(s.rollback_stats().max_rollback_depth, kFrames - kGap);
  EXPECT_EQ(s.confirmed_frames(), 2) << "the gap is still unverified";
  deliver(2, kGap - 2, 0x08);
  EXPECT_EQ(s.rollback_stats().rollbacks, 2u);
  EXPECT_EQ(s.rollback_stats().max_rollback_depth, kFrames - 2);
  deliver(kGap + 4, kFrames - kGap - 4, 0x12);
  ASSERT_EQ(s.confirmed_frames(), kFrames);
  EXPECT_FALSE(peer.desync_detected());
  EXPECT_EQ(game.saves, 1 + game.predicted_steps);

  auto twin = games::make_cellwars();
  for (FrameNo f = 0; f < kFrames; ++f) {
    const std::uint8_t remote = f < 2 ? 0 : f < kGap ? 0x08 : 0x12;
    const InputWord merged = f < 2 ? InputWord{0} : make_input(0x01, remote);
    ASSERT_EQ(s.confirmed_input(f), merged) << "frame " << f;
    twin->step_frame(merged);
    ASSERT_EQ(s.confirmed_digest(f), twin->state_digest(emu::kStateDigestVersion))
        << "frame " << f;
  }

  // Nothing in flight: confirmed_state() saves the live state, and the
  // next frame, which runs predicted, keeps that save as its restore point.
  ASSERT_FALSE(s.confirmed_state().empty());
  const std::uint64_t saves = game.saves;
  EXPECT_EQ(saves, 2 + game.predicted_steps);
  s.advance_frame(make_input(0x01, 0));
  EXPECT_EQ(game.saves, saves);
  EXPECT_EQ(game.saves, 1 + game.predicted_steps);
  EXPECT_EQ(s.rollback_stats().snapshots_saved, game.saves);
}

TEST(RollbackSessionTest, WindowClampGuaranteesRoomOverInputDelay) {
  // A window smaller than delay + 4 would deadlock (the frame at the
  // confirmed watermark could be evicted before confirmation); the ctor
  // must clamp. Observable via the ring-bound arithmetic.
  SyncConfig cfg = rollback_cfg(/*delay=*/6, /*window=*/2);
  auto game = games::make_cellwars();
  SyncPeer peer(0, cfg);
  RollbackSession s(peer, *game, cfg);
  EXPECT_EQ(s.input_delay(), 6);
  // Sever the network entirely; advance to the bound.
  int steps = 0;
  while (s.can_advance() && steps < 200) {
    s.advance_frame(0);
    ++steps;
  }
  ASSERT_LT(steps, 200);
  // Clamped window is delay + 4 = 10: executed - confirmed == window - 1.
  EXPECT_EQ(s.current_frame() - s.confirmed_frames(), 10 - 1);
}

TEST(RollbackSessionTest, SyncFromASiteOutsideTheSessionIsStale) {
  // Only the session's other site may contribute remote inputs. A SYNC
  // naming any other site id (here 5) must be counted stale and change no
  // input, watermark or confirmation — not be filed as the remote's.
  Rig rig(rollback_cfg(), milliseconds(40));
  for (FrameNo f = 0; f < 10; ++f) rig.step(0x11, 0x12);
  const FrameNo rcv = rig.pa_.last_rcv_frame(1);
  const FrameNo ack = rig.pa_.last_ack_frame(1);
  const FrameNo confirmed = rig.a_.confirmed_frames();
  const std::uint64_t rollbacks = rig.a_.rollback_stats().rollbacks;
  ASSERT_FALSE(rig.pa_.remote_input(rcv + 1).has_value());

  SyncMsg rogue;
  rogue.site = 5;
  rogue.ack_frame = rcv + 20;
  rogue.first_frame = rcv + 1;
  rogue.inputs.assign(8, make_input(0, 0x7F));
  rig.pa_.ingest(rogue, rig.now_);
  rig.a_.reconcile();

  EXPECT_EQ(rig.pa_.stats().stale_messages, 1u);
  EXPECT_EQ(rig.pa_.last_rcv_frame(1), rcv);
  EXPECT_EQ(rig.pa_.last_ack_frame(1), ack);
  EXPECT_FALSE(rig.pa_.remote_input(rcv + 1).has_value());
  EXPECT_EQ(rig.a_.confirmed_frames(), confirmed);
  EXPECT_EQ(rig.a_.rollback_stats().rollbacks, rollbacks);

  // The session carries on and still converges on the canonical history.
  for (FrameNo f = 10; f < 30; ++f) rig.step(0x11, 0x12);
  rig.drain(30);
  rig.expect_canonical_history(30);
}

}  // namespace
}  // namespace rtct::core
