// Unit tests for SessionControl — the startup handshake of §3.2.
#include <gtest/gtest.h>

#include "src/core/session.h"

namespace rtct::core {
namespace {

constexpr std::uint64_t kRom = 0xABCDEF;

SyncConfig cfg() { return SyncConfig{}; }

// Delivers a poll()ed message from one side into the other.
bool relay(SessionControl& from, SessionControl& to, Time now) {
  if (auto m = from.poll(now)) {
    to.ingest(*m, now);
    return true;
  }
  return false;
}

TEST(SessionTest, HappyPathHandshake) {
  SessionControl master(0, kRom, cfg());
  SessionControl slave(1, kRom, cfg());

  relay(slave, master, 0);  // slave HELLO reaches the master
  EXPECT_TRUE(master.running());  // master starts on compatible HELLO
  EXPECT_FALSE(slave.running());

  relay(master, slave, milliseconds(10));  // START reaches the slave
  EXPECT_TRUE(slave.running());
  EXPECT_EQ(slave.start_time(), milliseconds(10));
}

TEST(SessionTest, HelloRetransmitsOnInterval) {
  SessionControl s(1, kRom, cfg(), milliseconds(50));
  EXPECT_TRUE(s.poll(0).has_value());
  EXPECT_FALSE(s.poll(milliseconds(10)).has_value());  // not due yet
  EXPECT_TRUE(s.poll(milliseconds(50)).has_value());
  EXPECT_TRUE(s.poll(milliseconds(120)).has_value());
}

TEST(SessionTest, LostStartIsRepairedByReHello) {
  SessionControl master(0, kRom, cfg(), milliseconds(50));
  SessionControl slave(1, kRom, cfg(), milliseconds(50));

  relay(slave, master, 0);
  auto lost_start = master.poll(0);  // START produced...
  ASSERT_TRUE(lost_start.has_value());
  // ...but never delivered (packet lost). Slave re-HELLOs later:
  relay(slave, master, milliseconds(60));
  // Master answers every HELLO with a fresh START even while running.
  auto retry = master.poll(milliseconds(60));
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(std::holds_alternative<StartMsg>(*retry));
  slave.ingest(*retry, milliseconds(61));
  EXPECT_TRUE(slave.running());
}

TEST(SessionTest, SlaveStartsOnSyncTrafficToo) {
  // A slave whose START was lost but who already sees game traffic knows
  // the session is live.
  SessionControl slave(1, kRom, cfg());
  slave.note_sync_traffic(milliseconds(70));
  EXPECT_TRUE(slave.running());
}

TEST(SessionTest, MasterIgnoresSyncTrafficShortcut) {
  SessionControl master(0, kRom, cfg());
  master.note_sync_traffic(0);
  EXPECT_FALSE(master.running());  // master must see a HELLO first
}

TEST(SessionTest, ProtocolV4RefusesAV3Peer) {
  // Protocol v3 peers may compare version-2 state digests, which a v4 site
  // no longer computes; mixed fingerprints would trip the desync check, so
  // the handshake refuses the pair. Bit 1 of the HELLO/START flags (v3's
  // digest capability) is reserved and left clear.
  ASSERT_EQ(kProtocolVersion, 4u);
  SessionControl master(0, kRom, cfg());
  SessionControl slave(1, kRom, cfg());
  auto hello = slave.poll(0);
  ASSERT_TRUE(hello.has_value());
  auto v3 = std::get<HelloMsg>(*hello);
  EXPECT_EQ(v3.flags & 0x02, 0);
  v3.protocol_version = 3;
  v3.flags |= 0x02;  // what a v3 peer advertised
  master.ingest(Message{v3}, 0);
  EXPECT_EQ(master.state(), SessionState::kFailed);
  EXPECT_NE(master.failure_reason().find("protocol version mismatch: peer 3 vs 4"),
            std::string::npos)
      << master.failure_reason();
}

TEST(SessionTest, ChecksumMismatchFails) {
  SessionControl master(0, kRom, cfg());
  SessionControl slave(1, kRom + 1, cfg());  // different game image
  relay(slave, master, 0);
  EXPECT_EQ(master.state(), SessionState::kFailed);
  EXPECT_NE(master.failure_reason().find("image"), std::string::npos);
  EXPECT_FALSE(master.poll(milliseconds(100)).has_value());  // goes silent
}

TEST(SessionTest, VersionMismatchFails) {
  SessionControl master(0, kRom, cfg());
  HelloMsg h;
  h.site = 1;
  h.protocol_version = kProtocolVersion + 1;
  h.rom_checksum = kRom;
  h.cfps = 60;
  h.buf_frames = 6;
  master.ingest(Message{h}, 0);
  EXPECT_EQ(master.state(), SessionState::kFailed);
  EXPECT_NE(master.failure_reason().find("version"), std::string::npos);
}

TEST(SessionTest, SyncParameterMismatchFails) {
  SyncConfig other = cfg();
  other.buf_frames = 3;  // different local lag => different game timing
  SessionControl master(0, kRom, cfg());
  SessionControl slave(1, kRom, other);
  relay(slave, master, 0);
  EXPECT_EQ(master.state(), SessionState::kFailed);
}

TEST(SessionTest, SelfMessagesIgnored) {
  SessionControl master(0, kRom, cfg());
  auto own_hello = master.poll(0);
  ASSERT_TRUE(own_hello.has_value());
  master.ingest(*own_hello, 0);  // reflected back (e.g. broadcast echo)
  EXPECT_FALSE(master.running());
  master.ingest(Message{StartMsg{0}}, 0);  // own START echoed
  EXPECT_FALSE(master.running());
}

TEST(SessionTest, SlaveDoesNotStartOnHello) {
  SessionControl slave(1, kRom, cfg());
  HelloMsg h;
  h.site = 0;
  h.protocol_version = kProtocolVersion;
  h.rom_checksum = kRom;
  h.cfps = 60;
  h.buf_frames = 6;
  slave.ingest(Message{h}, 0);
  EXPECT_FALSE(slave.running());  // needs START, not just HELLO
}

TEST(SessionTest, StartSkewBoundedByOneRelayStep) {
  // The §3.2 claim: "at most one round-trip time deviation" — in this
  // design the skew is exactly the START's one-way flight time.
  SessionControl master(0, kRom, cfg());
  SessionControl slave(1, kRom, cfg());
  const Dur owd = milliseconds(35);
  Time now = 0;
  relay(slave, master, now + owd);  // HELLO lands at owd
  ASSERT_TRUE(master.running());
  const Time master_start = master.start_time();
  auto start = master.poll(now + owd);
  ASSERT_TRUE(start.has_value());
  slave.ingest(*start, now + 2 * owd);
  ASSERT_TRUE(slave.running());
  EXPECT_EQ(slave.start_time() - master_start, owd);
}

// ---- v3 rollback-mode negotiation --------------------------------------------

SyncConfig rollback_opt_in(int delay = 2) {
  SyncConfig c;
  c.rollback = true;
  c.rollback_input_delay = delay;
  return c;
}

TEST(SessionRollbackTest, NegotiatedWhenBothOptIn) {
  SessionControl master(0, kRom, rollback_opt_in());
  SessionControl slave(1, kRom, rollback_opt_in());
  relay(slave, master, 0);
  ASSERT_TRUE(master.running());
  EXPECT_TRUE(master.rollback_mode());
  auto start = master.poll(0);
  ASSERT_TRUE(start.has_value());
  const auto& s = std::get<StartMsg>(*start);
  EXPECT_NE(s.flags & kFlagRollback, 0u);
  // buf_frames carries delay + 1 (0 keeps its lockstep meaning).
  EXPECT_EQ(s.buf_frames, rollback_opt_in().rollback_input_delay + 1);
  slave.ingest(*start, milliseconds(1));
  EXPECT_TRUE(slave.running());
  EXPECT_TRUE(slave.rollback_mode());
  EXPECT_EQ(slave.rollback_delay(), rollback_opt_in().rollback_input_delay);
}

TEST(SessionRollbackTest, MasterDelayWinsOverSlaveConfig) {
  // The agreed local input delay is the master's configured value; the
  // slave's own (different) preference is overwritten by START.
  SessionControl master(0, kRom, rollback_opt_in(/*delay=*/5));
  SessionControl slave(1, kRom, rollback_opt_in(/*delay=*/2));
  relay(slave, master, 0);
  relay(master, slave, milliseconds(1));
  ASSERT_TRUE(slave.running());
  EXPECT_TRUE(slave.rollback_mode());
  EXPECT_EQ(master.rollback_delay(), 5);
  EXPECT_EQ(slave.rollback_delay(), 5);
}

TEST(SessionRollbackTest, MixedOptInFallsBackToLockstep) {
  // Both-opt-in semantics, both directions: a lone rollback-capable site
  // runs plain lockstep against a legacy peer — no flag in START, no
  // speculation "by assumption".
  for (const bool master_opts_in : {true, false}) {
    SessionControl master(0, kRom, master_opts_in ? rollback_opt_in() : cfg());
    SessionControl slave(1, kRom, master_opts_in ? cfg() : rollback_opt_in());
    relay(slave, master, 0);
    ASSERT_TRUE(master.running());
    EXPECT_FALSE(master.rollback_mode());
    auto start = master.poll(0);
    ASSERT_TRUE(start.has_value());
    EXPECT_EQ(std::get<StartMsg>(*start).flags & kFlagRollback, 0u);
    slave.ingest(*start, milliseconds(1));
    EXPECT_TRUE(slave.running());
    EXPECT_FALSE(slave.rollback_mode());
  }
}

TEST(SessionRollbackTest, SlaveWaitsForStartBeforeRunning) {
  // The mode (and the delay depth) travel only in START: a
  // rollback-configured slave must not start on bare sync traffic — the
  // master may have decided lockstep against a legacy peer, and guessing
  // wrong breaks the merged-input agreement.
  SessionControl slave(1, kRom, rollback_opt_in());
  slave.note_sync_traffic(milliseconds(70));
  EXPECT_FALSE(slave.running());
  StartMsg s;
  s.site = 0;
  s.flags = kFlagRollback;
  s.buf_frames = 4 + 1;
  slave.ingest(Message{s}, milliseconds(80));
  EXPECT_TRUE(slave.running());
  EXPECT_TRUE(slave.rollback_mode());
  EXPECT_EQ(slave.rollback_delay(), 4);
  slave.note_sync_traffic(milliseconds(90));  // now harmless
  EXPECT_TRUE(slave.running());
}

TEST(SessionRollbackTest, StartWithoutFlagMeansLockstep) {
  // A rollback-capable slave whose START carries no flag (master decided
  // lockstep) runs lockstep — and may again start on sync traffic once
  // the decision is known.
  SessionControl slave(1, kRom, rollback_opt_in());
  StartMsg s;
  s.site = 0;
  slave.ingest(Message{s}, 0);
  EXPECT_TRUE(slave.running());
  EXPECT_FALSE(slave.rollback_mode());
}

// ---- v2 adaptive-lag negotiation ---------------------------------------------

SyncConfig adaptive_cfg() {
  SyncConfig c;
  c.adaptive_lag = true;
  return c;
}

/// Runs a full HELLO/START exchange between two SessionControls over a
/// symmetric link with one-way delay `owd`. Deterministic virtual time.
struct HandshakeResult {
  bool both_running = false;
  int master_buf = 0;
  int slave_buf = 0;
  bool master_negotiated = false;
  bool slave_negotiated = false;
};

HandshakeResult run_handshake(SyncConfig master_cfg, SyncConfig slave_cfg, Dur owd) {
  SessionControl master(0, kRom, master_cfg);
  SessionControl slave(1, kRom, slave_cfg);
  struct Pkt {
    Time at;
    Message msg;
  };
  std::vector<Pkt> to_master, to_slave;
  for (Time now = 0; now <= seconds(5); now += milliseconds(5)) {
    for (auto& q : {&to_master, &to_slave}) {
      auto& dst = q == &to_master ? master : slave;
      for (auto it = q->begin(); it != q->end();) {
        if (it->at <= now) {
          // Ingest with the true arrival time so the RTT probe measures the
          // link, not this harness's polling grid.
          dst.ingest(it->msg, it->at);
          it = q->erase(it);
        } else {
          ++it;
        }
      }
    }
    // poll() can yield a HELLO and then an owed START in the same tick.
    while (auto m = master.poll(now)) to_slave.push_back({now + owd, *m});
    while (auto m = slave.poll(now)) to_master.push_back({now + owd, *m});
    if (master.running() && slave.running() && to_master.empty() && to_slave.empty()) break;
  }
  HandshakeResult r;
  r.both_running = master.running() && slave.running();
  r.master_buf = master.effective_buf_frames();
  r.slave_buf = slave.effective_buf_frames();
  r.master_negotiated = master.lag_negotiated();
  r.slave_negotiated = slave.lag_negotiated();
  return r;
}

TEST(SessionAdaptiveTest, NegotiatesLagFromMeasuredRtt) {
  const Dur owd = milliseconds(30);  // RTT 60 ms
  const auto r = run_handshake(adaptive_cfg(), adaptive_cfg(), owd);
  ASSERT_TRUE(r.both_running);
  EXPECT_TRUE(r.master_negotiated);
  EXPECT_TRUE(r.slave_negotiated);
  EXPECT_EQ(r.master_buf, r.slave_buf);
  // The HELLO probe measures exactly 2*owd on this deterministic link.
  EXPECT_EQ(r.master_buf, adaptive_cfg().buf_frames_for_rtt(2 * owd));
  EXPECT_NE(r.master_buf, adaptive_cfg().buf_frames);  // actually adapted
}

TEST(SessionAdaptiveTest, FixedLagWhenOnlyOneSiteOptsIn) {
  // Both-opt-in semantics: a lone adaptive site behaves exactly like v2
  // fixed policy (buf_frames must still match, nothing is negotiated).
  const auto r = run_handshake(adaptive_cfg(), SyncConfig{}, milliseconds(30));
  ASSERT_TRUE(r.both_running);
  EXPECT_FALSE(r.master_negotiated);
  EXPECT_FALSE(r.slave_negotiated);
  EXPECT_EQ(r.master_buf, SyncConfig{}.buf_frames);
  EXPECT_EQ(r.slave_buf, SyncConfig{}.buf_frames);
}

TEST(SessionAdaptiveTest, MismatchedFixedBufFramesAllowedWhenBothAdaptive) {
  // With both sites adaptive the configured fixed values are irrelevant
  // (the negotiated depth replaces them), so they need not match.
  SyncConfig a = adaptive_cfg();
  a.buf_frames = 4;
  SyncConfig b = adaptive_cfg();
  b.buf_frames = 9;
  const auto r = run_handshake(a, b, milliseconds(40));
  ASSERT_TRUE(r.both_running);
  EXPECT_EQ(r.master_buf, r.slave_buf);
  EXPECT_TRUE(r.master_negotiated);
}

TEST(SessionAdaptiveTest, FallsBackToFixedLagWithoutRttSamples) {
  // A peer that claims the adaptive capability but never yields an RTT
  // measurement must not stall the handshake forever: after the bounded
  // probe window the master starts with the configured fixed lag.
  SessionControl master(0, kRom, adaptive_cfg(), milliseconds(50));
  HelloMsg h;
  h.site = 1;
  h.protocol_version = kProtocolVersion;
  h.rom_checksum = kRom;
  h.cfps = 60;
  h.buf_frames = 6;
  h.flags = kHelloFlagAdaptiveLag;  // echo_time = -1, adv_rtt = -1: no probe
  master.ingest(Message{h}, 0);
  EXPECT_FALSE(master.running());  // probing, not started yet
  master.ingest(Message{h}, seconds(1));  // far beyond the probe window
  EXPECT_TRUE(master.running());
  EXPECT_EQ(master.effective_buf_frames(), adaptive_cfg().buf_frames);
  const auto start = master.poll(seconds(1));
  ASSERT_TRUE(start.has_value());
  ASSERT_TRUE(std::holds_alternative<StartMsg>(*start));
  EXPECT_EQ(std::get<StartMsg>(*start).buf_frames, adaptive_cfg().buf_frames);
}

TEST(SessionAdaptiveTest, SlaveIgnoresSyncTrafficUntilLagKnown) {
  // With adaptive lag the negotiated depth travels only in START: bare
  // sync traffic must NOT start the slave (it would run the wrong lag and
  // break the merged-input agreement).
  SessionControl slave(1, kRom, adaptive_cfg());
  slave.note_sync_traffic(milliseconds(70));
  EXPECT_FALSE(slave.running());
  StartMsg s;
  s.site = 0;
  s.buf_frames = 8;
  slave.ingest(Message{s}, milliseconds(80));
  EXPECT_TRUE(slave.running());
  EXPECT_EQ(slave.effective_buf_frames(), 8);
  slave.note_sync_traffic(milliseconds(90));  // now harmless
  EXPECT_TRUE(slave.running());
}

// Property: across a sweep of link RTTs the negotiated depth round-trips
// through the v2 handshake — both sites agree, the value matches the
// ceil(RTT/2 / frame_period) + margin formula, and it stays in bounds.
class SessionNegotiationPropertyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RttMs, SessionNegotiationPropertyTest,
                         ::testing::Values(0, 5, 20, 50, 80, 120, 200, 400, 1000));

TEST_P(SessionNegotiationPropertyTest, NegotiatedBufFramesRoundTrips) {
  const Dur owd = milliseconds(GetParam()) / 2;
  const SyncConfig c = adaptive_cfg();
  const auto r = run_handshake(c, c, owd);
  ASSERT_TRUE(r.both_running) << "handshake stalled at RTT " << GetParam() << " ms";
  EXPECT_EQ(r.master_buf, r.slave_buf);
  EXPECT_TRUE(r.master_negotiated);
  EXPECT_TRUE(r.slave_negotiated);
  EXPECT_GE(r.master_buf, c.min_buf_frames);
  EXPECT_LE(r.master_buf, c.max_buf_frames);
  EXPECT_EQ(r.master_buf, c.buf_frames_for_rtt(2 * owd));
}

}  // namespace
}  // namespace rtct::core
