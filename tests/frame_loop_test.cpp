// FrameLoop driven by hand: one manual clock and in-memory datagram queues
// between two sites — no sockets, no simulator, no threads. Shows the loop
// is sans-IO, and pins its post-game phase deterministically.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/core/frame_loop.h"
#include "src/core/input_source.h"
#include "src/games/roms.h"

namespace rtct::core {
namespace {

using Queue = std::deque<std::vector<std::uint8_t>>;

struct Site {
  explicit Site(SiteId id, const SyncConfig& cfg, int frames)
      : game(games::make_machine("pong")),
        input(static_cast<std::uint64_t>(31 + id)),
        loop(id, 2, *game, input, cfg, PacingPolicy::kFull, frames) {}
  std::unique_ptr<emu::ArcadeMachine> game;
  MasherInput input;
  FrameLoop loop;
  LoopWait last{LoopWait::Kind::kNetwork};
};

/// Two sites over an instant link; `blocked` swallows site 0's datagrams.
struct Match {
  explicit Match(const SyncConfig& cfg, int frames) : a(0, cfg, frames), b(1, cfg, frames) {}

  void send(Site& from, SiteId peer, Queue& to) {
    if (auto d = from.loop.session_datagram(now)) to.emplace_back(d->begin(), d->end());
    if (auto d = from.loop.sync_datagram(peer, now)) to.emplace_back(d->begin(), d->end());
  }
  static void deliver(Queue& q, Site& to, Time now) {
    for (; !q.empty(); q.pop_front()) to.loop.on_datagram(q.front(), now);
  }
  /// Steps a site until it waits on the network or on a later time.
  void run(Site& s) {
    do {
      s.last = s.loop.step(now);
    } while (s.last.kind == LoopWait::Kind::kSleep && s.last.until <= now);
  }
  [[nodiscard]] bool done() const {
    return a.last.kind == LoopWait::Kind::kDone && b.last.kind == LoopWait::Kind::kDone;
  }
  /// One millisecond: flush every 20 ms, deliver, step both sites.
  void tick() {
    if (now % milliseconds(20) == 0) {
      send(a, 1, to_b);
      send(b, 0, to_a);
      if (blocked) to_b.clear();
    }
    deliver(to_a, a, now);
    deliver(to_b, b, now);
    run(a);
    run(b);
    now += milliseconds(1);
  }

  Site a, b;
  Queue to_a, to_b;
  Time now = 0;
  bool blocked = false;
};

void expect_match_completes(bool rollback) {
  SyncConfig cfg;
  cfg.rollback = rollback;
  Match m(cfg, 120);
  for (int i = 0; i < 5000 && !m.done(); ++i) m.tick();
  ASSERT_TRUE(m.done());
  EXPECT_EQ(m.a.loop.rollback() != nullptr, rollback);
  ASSERT_EQ(m.a.loop.timeline().size(), 120u);
  EXPECT_EQ(first_divergence(m.a.loop.timeline(), m.b.loop.timeline()), -1);
  EXPECT_EQ(m.a.loop.replay().serialize(), m.b.loop.replay().serialize());
  EXPECT_EQ(m.a.game->state_hash(), m.b.game->state_hash());
}

TEST(FrameLoopTest, LockstepMatchRunsToDoneWithoutIo) { expect_match_completes(false); }

TEST(FrameLoopTest, RollbackMatchRunsToDoneWithoutIo) { expect_match_completes(true); }

// After its last frame a site stays in the lame duck while its peer still
// lacks inputs it executes, and leaves once the peer has acked them.
TEST(FrameLoopTest, LameDuckHoldsUntilThePeerHasTheLastInputs) {
  constexpr int kFrames = 60;
  SyncConfig cfg;
  Match m(cfg, kFrames);
  while (m.a.loop.phase() != FrameLoop::Phase::kLameDuck) {
    // Lose site 0's datagrams from the frame that sends its last inputs.
    if (static_cast<int>(m.a.loop.timeline().size()) >= kFrames - 2 - cfg.buf_frames) {
      m.blocked = true;
    }
    m.tick();
    ASSERT_LT(m.now, seconds(10));
  }
  for (int i = 0; i < 500; ++i) m.tick();
  EXPECT_EQ(m.a.loop.phase(), FrameLoop::Phase::kLameDuck);  // still serving site 1
  EXPECT_EQ(m.a.last.kind, LoopWait::Kind::kNetwork);
  EXPECT_LT(m.b.loop.timeline().size(), static_cast<std::size_t>(kFrames));

  m.blocked = false;
  for (int i = 0; i < 1000 && !m.done(); ++i) m.tick();
  ASSERT_TRUE(m.done());
  EXPECT_EQ(m.b.loop.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(first_divergence(m.a.loop.timeline(), m.b.loop.timeline()), -1);
}

}  // namespace
}  // namespace rtct::core
