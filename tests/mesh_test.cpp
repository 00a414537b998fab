// Tests for the N-site mesh extension: SyncPeer with four sites (and the
// paper's two, run as a mesh) plus full 4-player mesh experiments.
#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/telemetry.h"
#include "src/core/sync_peer.h"
#include "src/testbed/mesh_experiment.h"

namespace rtct::core {
namespace {

SyncConfig cfgm() { return SyncConfig{}; }

// ---- N-site SyncPeer unit tests -----------------------------------------------

TEST(MeshPeerTest, FourSiteLockstepOverInstantChannels) {
  SyncPeer peers[4] = {SyncPeer(0, cfgm(), 4), SyncPeer(1, cfgm(), 4),
                           SyncPeer(2, cfgm(), 4), SyncPeer(3, cfgm(), 4)};
  for (FrameNo f = 0; f < 30; ++f) {
    for (SiteId s = 0; s < 4; ++s) {
      peers[s].submit_local(
          f, pack_player_bits_n(static_cast<std::uint8_t>((f + s) & 0xF), s, 4));
    }
    // Full-mesh exchange.
    for (SiteId from = 0; from < 4; ++from) {
      for (SiteId to = 0; to < 4; ++to) {
        if (from == to) continue;
        if (auto m = peers[from].make_message(to, f)) peers[to].ingest(*m, f);
      }
    }
    InputWord expect = 0;
    if (f >= 6) {
      for (SiteId s = 0; s < 4; ++s) {
        expect = merge_site_bits_n(
            expect, pack_player_bits_n(static_cast<std::uint8_t>((f - 6 + s) & 0xF), s, 4),
            s, 4);
      }
    }
    for (SiteId s = 0; s < 4; ++s) {
      ASSERT_TRUE(peers[s].ready()) << "site " << s << " frame " << f;
      ASSERT_EQ(peers[s].pop(), expect) << "site " << s << " frame " << f;
    }
  }
}

TEST(MeshPeerTest, NotReadyUntilEveryPeerArrives) {
  SyncPeer a(0, cfgm(), 4);
  SyncPeer others[3] = {SyncPeer(1, cfgm(), 4), SyncPeer(2, cfgm(), 4),
                            SyncPeer(3, cfgm(), 4)};
  for (FrameNo f = 0; f < 7; ++f) {
    a.submit_local(f, 0);
    for (auto& o : others) o.submit_local(f, 0);
  }
  for (FrameNo f = 0; f < 6; ++f) (void)a.pop();
  EXPECT_FALSE(a.ready());
  // Two of three peers deliver: still not ready.
  for (int k = 0; k < 2; ++k) {
    if (auto m = others[k].make_message(0, 0)) a.ingest(*m, 0);
  }
  EXPECT_FALSE(a.ready());
  EXPECT_EQ(a.straggler(), 3);  // the silent site is identified
  if (auto m = others[2].make_message(0, 0)) a.ingest(*m, 0);
  EXPECT_TRUE(a.ready());
}

TEST(MeshPeerTest, ReorderedGappedWindowDoesNotAdvanceWatermark) {
  SyncPeer a(0, cfgm(), 4);
  // Initial contiguity watermark = buf_frames - 1 = 5 for every site.
  ASSERT_EQ(a.last_rcv_frame(1), 5);

  // A message whose input window starts above a loss-created gap (frames
  // 6-7 dropped, 8-9 arrive — go-back-N retransmission windows slide, so
  // a reordered older message can start past the gap). The watermark must
  // NOT jump to last_frame(): frames 6-7 are still missing, and ready()
  // would otherwise deliver an incomplete merged input and desync the
  // replicas.
  SyncMsg gapped;
  gapped.site = 1;
  gapped.ack_frame = 5;
  gapped.first_frame = 8;
  gapped.inputs = {0x1, 0x2};
  a.ingest(gapped, 0);
  EXPECT_EQ(a.last_rcv_frame(1), 5);

  // The retransmission that fills the gap rolls the watermark over the
  // whole buffered run in one step.
  SyncMsg fill;
  fill.site = 1;
  fill.ack_frame = 5;
  fill.first_frame = 6;
  fill.inputs = {0x3, 0x4};
  a.ingest(fill, 0);
  EXPECT_EQ(a.last_rcv_frame(1), 9);
}

TEST(MeshPeerTest, GappedMasterWindowDoesNotMarkMasterSeen) {
  // Same hazard on the Algorithm-4 side: a gapped window from the master
  // must not refresh the master observation either, or the
  // slave's rate sync would extrapolate from a frame it never received.
  SyncPeer slave(1, cfgm(), 4);
  SyncMsg gapped;
  gapped.site = 0;  // master
  gapped.ack_frame = 5;
  gapped.first_frame = 9;
  gapped.inputs = {0x7};
  slave.ingest(gapped, milliseconds(100));
  EXPECT_FALSE(slave.remote_obs().valid);
  EXPECT_EQ(slave.last_rcv_frame(0), 5);

  SyncMsg fill;
  fill.site = 0;
  fill.ack_frame = 5;
  fill.first_frame = 6;
  fill.inputs = {0x1, 0x2, 0x3};
  slave.ingest(fill, milliseconds(120));
  EXPECT_TRUE(slave.remote_obs().valid);
  EXPECT_EQ(slave.last_rcv_frame(0), 9);
  EXPECT_EQ(slave.remote_obs().rcv_time, milliseconds(120));
}

TEST(MeshPeerTest, ExportMetricsPublishesSyncAndPeerGauges) {
  SyncPeer a(0, cfgm(), 4);
  for (FrameNo f = 0; f < 3; ++f) a.submit_local(f, 0);
  SyncMsg m;
  m.site = 2;
  m.ack_frame = 5;
  m.first_frame = 6;
  m.inputs = {0x1};
  a.ingest(m, 0);

  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_EQ(reg.value("sync.messages_ingested"), 1.0);
  EXPECT_EQ(reg.value("mesh.num_sites"), 4.0);
  EXPECT_EQ(reg.value("mesh.peer.2.last_rcv_frame"), 6.0);
  EXPECT_TRUE(reg.value("mesh.peer.1.rtt_ms").has_value());
  EXPECT_FALSE(reg.value("mesh.peer.0.last_rcv_frame").has_value());  // self
}

TEST(MeshPeerTest, PerPeerAcksTrimIndependently) {
  SyncPeer a(0, cfgm(), 4);
  for (FrameNo f = 0; f < 5; ++f) a.submit_local(f, 0);
  // Peer 1 acks everything; peers 2,3 ack nothing: the window to peer 1
  // empties, the others still get the full resend.
  SyncMsg ack;
  ack.site = 1;
  ack.ack_frame = 10;
  ack.first_frame = 6;  // no inputs
  a.ingest(ack, 0);
  EXPECT_FALSE(a.make_message(1, 1).has_value());  // nothing new for peer 1
  const auto m2 = a.make_message(2, 1);
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->inputs.size(), 5u);
}

TEST(MeshPeerTest, SelfAndOutOfRangeMessagesDropped) {
  SyncPeer a(0, cfgm(), 4);
  SyncMsg bogus;
  bogus.site = 0;
  a.ingest(bogus, 0);
  bogus.site = 7;
  a.ingest(bogus, 0);
  EXPECT_EQ(a.stats().stale_messages, 2u);
  EXPECT_FALSE(a.make_message(0, 0).has_value());  // no message to self
  EXPECT_FALSE(a.make_message(9, 0).has_value());
}

TEST(MeshPeerTest, TwoSiteMeshMatchesPairBehaviour) {
  // A 2-site mesh is the paper's algorithm; check the basic local-lag
  // delivery semantics match SyncPeer's.
  SyncPeer a(0, cfgm(), 2);
  SyncPeer b(1, cfgm(), 2);
  for (FrameNo f = 0; f < 12; ++f) {
    a.submit_local(f, make_input(static_cast<std::uint8_t>(f + 1), 0));
    b.submit_local(f, make_input(0, static_cast<std::uint8_t>(f + 51)));
    if (auto m = a.make_message(1, f)) b.ingest(*m, f);
    if (auto m = b.make_message(0, f)) a.ingest(*m, f);
    ASSERT_TRUE(a.ready());
    ASSERT_TRUE(b.ready());
    const InputWord ia = a.pop();
    ASSERT_EQ(ia, b.pop());
    if (f >= 6) {
      ASSERT_EQ(player_byte(ia, 0), f - 6 + 1);
      ASSERT_EQ(player_byte(ia, 1), f - 6 + 51);
    }
  }
}

TEST(MeshPeerTest, MasterObsOnlyValidForSlaves) {
  SyncPeer master(0, cfgm(), 4);
  SyncPeer slave(2, cfgm(), 4);
  EXPECT_FALSE(master.remote_obs().valid);
  EXPECT_FALSE(slave.remote_obs().valid);
  master.submit_local(0, 0);
  if (auto m = master.make_message(2, 0)) slave.ingest(*m, milliseconds(42));
  EXPECT_TRUE(slave.remote_obs().valid);
  EXPECT_EQ(slave.remote_obs().rcv_time, milliseconds(42));
  EXPECT_EQ(slave.last_rcv_frame(0), 6);
  EXPECT_EQ(slave.remote_obs().master_frame, 0);  // LastRcvFrame minus the lag
}

// ---- property: 4-site lockstep under a hostile mesh -----------------------------

TEST(MeshPeerTest, LockstepInvariantUnderLossyMesh) {
  Rng rng(99);
  constexpr int kN = 4;
  constexpr FrameNo kFrames = 60;
  std::vector<SyncPeer> peers;
  for (SiteId s = 0; s < kN; ++s) peers.emplace_back(s, cfgm(), kN);

  struct Packet {
    Time at;
    SiteId to;
    SyncMsg msg;
  };
  std::vector<Packet> inflight;
  std::vector<std::vector<InputWord>> delivered(kN);
  FrameNo submitted[kN] = {};
  Time next_flush[kN] = {};
  Time now = 0;
  bool dropped_last = false;

  while (now < seconds(60)) {
    now += milliseconds(1);
    // Deliver due packets.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->at <= now) {
        peers[it->to].ingest(it->msg, now);
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
    bool all_done = true;
    for (SiteId s = 0; s < kN; ++s) {
      auto& p = peers[s];
      if (submitted[s] < kFrames && p.pointer() == submitted[s]) {
        p.submit_local(submitted[s], pack_player_bits_n(
                                         static_cast<std::uint8_t>(rng.next_u64() & 0xF), s, kN));
        ++submitted[s];
      }
      if (delivered[s].size() < static_cast<std::size_t>(kFrames) && p.ready() &&
          p.pointer() < submitted[s]) {
        delivered[s].push_back(p.pop());
      }
      if (now >= next_flush[s]) {
        next_flush[s] = now + milliseconds(20);
        for (SiteId to = 0; to < kN; ++to) {
          if (to == s) continue;
          if (auto m = p.make_message(to, now)) {
            const bool drop = rng.bernoulli(0.2) && !dropped_last;
            dropped_last = drop;
            if (!drop) {
              inflight.push_back({now + milliseconds(rng.uniform(5, 60)), to, *m});
            }
          }
        }
      }
      all_done = all_done && delivered[s].size() == static_cast<std::size_t>(kFrames);
    }
    if (all_done) break;
  }

  for (SiteId s = 0; s < kN; ++s) {
    ASSERT_EQ(delivered[s].size(), static_cast<std::size_t>(kFrames)) << "site " << s
                                                                      << " deadlocked";
  }
  for (FrameNo f = 0; f < kFrames; ++f) {
    for (SiteId s = 1; s < kN; ++s) {
      ASSERT_EQ(delivered[0][f], delivered[s][f]) << "frame " << f << " site " << s;
    }
  }
}

}  // namespace
}  // namespace rtct::core

// ---- full mesh experiments (integration) ------------------------------------------

namespace rtct::testbed {
namespace {

TEST(MeshExperimentTest, FourPlayersConvergeAtFullSpeed) {
  MeshExperimentConfig cfg;
  cfg.frames = 400;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(50));
  const auto r = run_mesh_experiment(cfg);
  ASSERT_EQ(r.sites.size(), 4u);
  EXPECT_TRUE(r.converged());
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(r.avg_frame_time_ms(s), 16.667, 0.4) << "site " << s;
  }
  EXPECT_LT(r.worst_synchrony_ms(), 15.0);
  // Mesh sites run the two-site frame loop: each frame records the
  // modelled compute cost, and every site records the same replay.
  for (const auto& site : r.sites) {
    for (const auto& rec : site.timeline.records()) {
      ASSERT_EQ(rec.compute, cfg.frame_compute_time) << "frame " << rec.frame;
    }
    EXPECT_EQ(site.replay.frames(), static_cast<FrameNo>(cfg.frames));
    EXPECT_EQ(site.replay.serialize(), r.sites[0].replay.serialize());
  }
}

TEST(MeshExperimentTest, SurvivesLossAndJitterAcrossTheMesh) {
  MeshExperimentConfig cfg;
  cfg.frames = 300;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(60));
  cfg.net.loss = 0.05;
  cfg.net.jitter = milliseconds(4);
  const auto r = run_mesh_experiment(cfg);
  EXPECT_TRUE(r.converged());
}

TEST(MeshExperimentTest, SlowestLinkGovernsEveryone) {
  // One site behind a 300 ms-RTT path: lockstep must throttle all four.
  MeshExperimentConfig cfg;
  cfg.frames = 300;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(300));
  const auto r = run_mesh_experiment(cfg);
  ASSERT_TRUE(r.converged());
  for (int s = 0; s < 4; ++s) EXPECT_GT(r.avg_frame_time_ms(s), 18.0) << "site " << s;
}

TEST(MeshExperimentTest, StaggeredBootsAbsorbed) {
  MeshExperimentConfig cfg;
  cfg.frames = 400;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(40));
  cfg.boot_stagger = milliseconds(150);  // site 3 boots 450 ms late
  const auto r = run_mesh_experiment(cfg);
  EXPECT_TRUE(r.converged());
}

TEST(MeshExperimentTest, TwoSiteMeshMatchesPairHarnessShape) {
  MeshExperimentConfig cfg;
  cfg.num_sites = 2;
  cfg.game = "duel";
  cfg.frames = 300;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(60));
  const auto r = run_mesh_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.avg_frame_time_ms(0), 16.667, 0.2);
}

TEST(MeshExperimentTest, InvalidConfigsRejected) {
  MeshExperimentConfig cfg;
  cfg.num_sites = 3;  // does not divide 16
  EXPECT_FALSE(run_mesh_experiment(cfg).converged());
  cfg.num_sites = 4;
  cfg.game = "no-such-game";
  EXPECT_FALSE(run_mesh_experiment(cfg).converged());
}

}  // namespace
}  // namespace rtct::testbed
