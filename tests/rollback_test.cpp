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
//   * speculation is bounded by the snapshot ring and resumes after
//     confirmation catches up;
//   * go-back-N retransmission survives loss, duplication and reordering;
//   * the hash tripwire flags a forged state hash at the exact frame;
//   * confirmed_state() is a loadable snapshot of the confirmed frontier;
//   * a SYNC naming a site outside the session touches nothing.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>

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

/// Two RollbackSessions (each over its own SyncPeer) over an explicit
/// in-order delay queue. Each step()
/// delivers due messages, reconciles, advances one frame per site (inputs
/// from a caller-supplied schedule), and flushes outbound traffic.
struct Rig {
  explicit Rig(SyncConfig cfg = rollback_cfg(), Dur one_way = milliseconds(5))
      : cfg_(cfg),
        one_way_(one_way),
        game_a_(games::make_cellwars()),
        game_b_(games::make_cellwars()),
        pa_(0, cfg),
        pb_(1, cfg),
        a_(pa_, *game_a_, cfg),
        b_(pb_, *game_b_, cfg) {}

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
  std::unique_ptr<emu::IDeterministicGame> game_a_, game_b_;
  SyncPeer pa_, pb_;
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
  // With the network fully severed, speculation must halt exactly when
  // executing one more frame would evict the oldest snapshot the next
  // rollback could need — and resume once traffic confirms frames.
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
    rig.flush();
  }
  rig.drain(kFrames);
  rig.expect_canonical_history(kFrames);
  // The mangling must actually have exercised the dup path (telemetry
  // invariant: duplicates are counted as duplicates, not stale drops).
  EXPECT_GT(rig.pa_.stats().duplicate_inputs_rcvd, 0u);
  EXPECT_EQ(rig.pa_.stats().stale_messages, 0u);
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
