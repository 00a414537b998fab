// Integration tests for the wall-clock driver over real loopback UDP —
// two complete sites in one process, two threads. Kept short (a few
// seconds of 60 FPS play) since these consume real time.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/telemetry.h"
#include "src/core/input_source.h"
#include "src/core/realtime.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/games/roms.h"
#include "src/net/udp_socket.h"

namespace rtct::core {
namespace {

struct Pair {
  net::UdpSocket s0{"127.0.0.1", 0};
  net::UdpSocket s1{"127.0.0.1", 0};
  Pair() {
    EXPECT_TRUE(s0.valid());
    EXPECT_TRUE(s1.valid());
    EXPECT_TRUE(s0.connect_peer("127.0.0.1", s1.local_port()));
    EXPECT_TRUE(s1.connect_peer("127.0.0.1", s0.local_port()));
  }
};

TEST(RealtimeTest, TwoSitesOverLoopbackStayConsistent) {
  auto m0 = games::make_machine("torture");  // maximal divergence sensitivity
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(5), p1(6);

  RealtimeConfig cfg;
  cfg.frames = 120;  // two seconds
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.timeline().size(), 120u);
  EXPECT_EQ(b.timeline().size(), 120u);
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
  // Wall-clock pacing: roughly 60 FPS (very generous bounds; CI machines
  // have noisy schedulers).
  const double avg_ft = a.timeline().frame_times().summarize().mean;
  EXPECT_GT(avg_ft, 12.0);
  EXPECT_LT(avg_ft, 25.0);
}

// Regression: the master's START answer used to be queued by drain()'s
// session ingest but never polled once the handshake loop had exited, so
// a slave that must wait for the START (rollback, adaptive lag) HELLOed
// forever while the master played against silence — both sides timed
// out. The frame loop's drain() now answers session traffic itself.
TEST(RealtimeTest, RollbackModeNegotiatesOverLoopback) {
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(7), p1(8);

  RealtimeConfig cfg;
  cfg.frames = 120;
  cfg.sync.rollback = true;
  cfg.sync.rollback_input_delay = 1;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(a.rollback_mode());
  EXPECT_TRUE(b.rollback_mode());
  EXPECT_EQ(a.timeline().size(), 120u);
  EXPECT_EQ(b.timeline().size(), 120u);
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
}

// Counts the frame loop's blocking waits from outside the session.
class CountingTransport final : public net::PollableTransport {
 public:
  explicit CountingTransport(net::PollableTransport& inner) : inner_(inner) {}
  void send(std::span<const std::uint8_t> payload) override { inner_.send(payload); }
  std::optional<net::Payload> try_recv() override { return inner_.try_recv(); }
  bool wait_readable(Dur timeout) override {
    ++waits;
    return inner_.wait_readable(timeout);
  }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }
  [[nodiscard]] const std::string& last_error() const override { return inner_.last_error(); }
  void export_metrics(MetricsRegistry& reg) const override { inner_.export_metrics(reg); }

  std::uint64_t waits = 0;

 private:
  net::PollableTransport& inner_;
};

// Wake-up budget: the frame loop blocks until its next real deadline
// (frame end, send flush or datagram) instead of spin-polling the last
// milliseconds of every frame — about 850 wait_readable calls per frame
// before, a handful now. The budget leaves room for a slow CI scheduler.
void expect_wakeup_budget(bool rollback) {
  constexpr int kFrames = 180;
  constexpr std::uint64_t kMaxWaitsPerFrame = 20;
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  CountingTransport t0(sockets.s0), t1(sockets.s1);
  MasherInput p0(11), p1(12);

  RealtimeConfig cfg;
  cfg.frames = kFrames;
  cfg.sync.rollback = rollback;
  RealtimeSession a(0, *m0, p0, t0, cfg);
  RealtimeSession b(1, *m1, p1, t1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.rollback_mode(), rollback);
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
  for (const auto* site : {&t0, &t1}) {
    EXPECT_LE(site->waits, kMaxWaitsPerFrame * kFrames) << "frame loop is spinning";
  }
  // session.wakeups counts the frame loop's share of those waits.
  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_GT(reg.value("session.wakeups"), 0);
  EXPECT_LE(reg.value("session.wakeups"), static_cast<double>(t0.waits));
}

TEST(RealtimeTest, LockstepFrameLoopBlocksInsteadOfSpinning) { expect_wakeup_budget(false); }

TEST(RealtimeTest, RollbackFrameLoopBlocksInsteadOfSpinning) { expect_wakeup_budget(true); }

// Swallows every datagram sent through it until `drop_until` (steady
// clock), modelling a burst of loss on one site's uplink.
class DroppingTransport final : public net::PollableTransport {
 public:
  explicit DroppingTransport(net::PollableTransport& inner) : inner_(inner) {}
  void send(std::span<const std::uint8_t> payload) override {
    if (steady_now() < drop_until) {
      ++dropped;
      return;
    }
    inner_.send(payload);
  }
  std::optional<net::Payload> try_recv() override { return inner_.try_recv(); }
  bool wait_readable(Dur timeout) override { return inner_.wait_readable(timeout); }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }
  [[nodiscard]] const std::string& last_error() const override { return inner_.last_error(); }
  void export_metrics(MetricsRegistry& reg) const override { inner_.export_metrics(reg); }

  Time drop_until = 0;
  std::uint64_t dropped = 0;

 private:
  net::PollableTransport& inner_;
};

// A match's last inputs must reach the peer even when the datagrams that
// first carried them are lost: site 0 keeps flushing after its last frame
// until site 1 has acked every input it will execute. A lockstep site that
// returned right after its last frame would strand the peer at frame
// frames-2 with a stall timeout; a rollback site that waited for acks of
// inputs past the last frame (which nobody needs) would sit out the whole
// grace.
void expect_tail_loss_recovered(bool rollback) {
  constexpr int kFrames = 60;
  auto m0 = games::make_machine("duel");
  auto m1 = games::make_machine("duel");
  Pair sockets;
  DroppingTransport t0(sockets.s0);
  MasherInput p0(21), p1(22);

  RealtimeConfig cfg;
  cfg.frames = kFrames;
  cfg.stall_timeout = seconds(1);
  cfg.sync.rollback = rollback;
  const int lag = rollback ? cfg.sync.rollback_input_delay : cfg.sync.buf_frames;
  RealtimeSession a(0, *m0, p0, t0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.set_frame_hook([&](const emu::IDeterministicGame&, const FrameRecord& rec) {
    if (rec.frame == kFrames - 2 - lag) t0.drop_until = steady_now() + milliseconds(250);
  });

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const Time start = steady_now();
  const bool ok0 = a.run(&e0);
  const Dur site0_run = steady_now() - start;
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.rollback_mode(), rollback);
  EXPECT_GT(t0.dropped, 0u);
  EXPECT_EQ(a.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(b.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
  // One second of play plus the 250 ms outage; the lame duck ends once the
  // peer holds every input it executes, well before the grace runs out.
  EXPECT_LT(site0_run, cfg.spectator_drain_grace);
}

TEST(RealtimeTest, LockstepTailLossDoesNotStrandThePeer) { expect_tail_loss_recovered(false); }

TEST(RealtimeTest, RollbackTailLossDoesNotWaitOutTheGrace) { expect_tail_loss_recovered(true); }

TEST(RealtimeTest, MismatchedRomsRefuseToPair) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("duel");
  Pair sockets;
  IdleInput idle;

  RealtimeConfig cfg;
  cfg.frames = 30;
  cfg.handshake_timeout = seconds(2);
  RealtimeSession a(0, *m0, idle, sockets.s0, cfg);
  RealtimeSession b(1, *m1, idle, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = true;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  EXPECT_FALSE(ok0);
  EXPECT_NE(e0.find("image"), std::string::npos) << e0;
  EXPECT_FALSE(ok1);  // slave times out or fails symmetric check
}

TEST(RealtimeTest, MissingPeerTimesOut) {
  auto m = games::make_machine("pong");
  net::UdpSocket sock("127.0.0.1", 0);
  ASSERT_TRUE(sock.connect_peer("127.0.0.1", 1));  // nobody listens on port 1
  IdleInput idle;
  RealtimeConfig cfg;
  cfg.handshake_timeout = milliseconds(300);
  RealtimeSession s(0, *m, idle, sock, cfg);
  std::string err;
  EXPECT_FALSE(s.run(&err));
  EXPECT_NE(err.find("timeout"), std::string::npos) << err;
}

TEST(RealtimeTest, PeerDeathStallsThenFails) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  Pair sockets;
  IdleInput idle0;
  MasherInput p1(9);

  RealtimeConfig short_cfg;
  short_cfg.frames = 20;  // peer plays only 20 frames then leaves
  RealtimeConfig long_cfg;
  long_cfg.frames = 600;
  long_cfg.stall_timeout = milliseconds(700);

  RealtimeSession quitter(1, *m1, p1, sockets.s1, short_cfg);
  RealtimeSession stayer(0, *m0, idle0, sockets.s0, long_cfg);

  std::string e0, e1;
  std::thread t([&] { quitter.run(&e1); });
  const bool ok0 = stayer.run(&e0);
  t.join();

  EXPECT_FALSE(ok0);
  EXPECT_NE(e0.find("stall"), std::string::npos) << e0;
  // The paper's semantics: freeze, never desync — whatever frames both
  // executed are identical.
  EXPECT_EQ(first_divergence(stayer.timeline(), quitter.timeline()), -1);
}

TEST(RealtimeTest, UdpSpectatorReplaysLive) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(1), p1(2);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 180;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  SpectatorClient client(*replica, SyncConfig{});
  const auto start = std::chrono::steady_clock::now();
  Time fake_now = 0;
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) client.ingest(*msg);
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(client.joined());
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
  EXPECT_EQ(a.spectators_joined(), 1u);
}

TEST(RealtimeTest, SpectatorJoiningDuringHandshakeNeverGetsPreGameSnapshot) {
  // Regression: a JoinRequest read while the host is still at frame 0 (the
  // handshake pumps the spectator socket) used to be answered immediately
  // with a snapshot labeled frame -1 — a state captured before the first
  // Transition, from a frame the host never executed or recorded. The host
  // must defer the snapshot until frame 0 has run; every snapshot frame on
  // the wire must be >= 0 and the late-joiner must still converge.
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(3), p1(4);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 120;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  SpectatorClient client(*replica, SyncConfig{});
  // Queue the JoinRequest before either site starts: the host reads it
  // from the socket during its handshake loop, while game_.frame() == 0.
  Time fake_now = 0;
  if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  std::vector<FrameNo> snapshot_frames;
  const auto start = std::chrono::steady_clock::now();
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) {
        if (const auto* snap = std::get_if<SnapshotMsg>(&*msg)) {
          snapshot_frames.push_back(snap->frame);
        }
        client.ingest(*msg);
      }
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(client.joined());
  ASSERT_FALSE(snapshot_frames.empty());
  for (const FrameNo f : snapshot_frames) EXPECT_GE(f, 0) << "pre-game snapshot served";
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
}

TEST(RealtimeTest, RequestStopInterruptsHandshake) {
  auto m = games::make_machine("pong");
  net::UdpSocket sock("127.0.0.1", 0);
  ASSERT_TRUE(sock.connect_peer("127.0.0.1", 1));
  IdleInput idle;
  RealtimeConfig cfg;
  cfg.handshake_timeout = seconds(30);
  RealtimeSession s(0, *m, idle, sock, cfg);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s.request_stop();
  });
  std::string err;
  EXPECT_FALSE(s.run(&err));
  stopper.join();
  EXPECT_NE(err.find("stopped"), std::string::npos);
}

TEST(RealtimeTest, RogueSenderOnSpectatorPortMintsNoObserver) {
  // Regression: the spectator pump used to register ANY address whose first
  // datagram merely decoded as some protocol message — a rogue HELLO (or a
  // relay's EvictNotice re-send, or a reaped observer's stale FeedAck)
  // minted a phantom observer whose never-advancing cursor pinned the
  // hub's trim watermark. Now only a JoinRequest creates observer state;
  // everything else is counted in session.dropped_unknown_sender.
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(5), p1(6);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));
  net::UdpSocket rogue("127.0.0.1", 0);
  ASSERT_TRUE(rogue.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 120;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  // The rogue pokes the spectator port with decodable non-join messages
  // while a legitimate watcher joins and follows the feed.
  HelloMsg hello;
  hello.site = 1;
  hello.rom_checksum = m0->content_id();
  const auto hello_bytes = encode_message(Message{hello});
  const auto ack_bytes = encode_message(Message{FeedAckMsg{}});

  SpectatorClient client(*replica, SyncConfig{});
  const auto start = std::chrono::steady_clock::now();
  Time fake_now = 0;
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    rogue.send(hello_bytes);
    rogue.send(ack_bytes);
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) client.ingest(*msg);
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
  // Only the real watcher became an observer; the rogue was counted.
  EXPECT_EQ(a.spectators_joined(), 1u);
  EXPECT_GT(a.dropped_unknown_sender(), 0u);
  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_EQ(reg.value("session.dropped_unknown_sender"),
            static_cast<double>(a.dropped_unknown_sender()));
}

}  // namespace
}  // namespace rtct::core
